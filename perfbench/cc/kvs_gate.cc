/**
 * @file
 * kvs-gate: one 1536 MiB testbed; client VMs attached to the
 * manager's ELISA KVS export run a zipf GET/PUT mix. Gate calls,
 * exchange-buffer copies and L0/TLB lookups do most of the host work;
 * there are no exits, no cross-shard posts and no paging.
 *
 * Oracle: a host-side key -> version model. Keys and values use the
 * benchmark's own encoding, so a GET is checked without the KVS code.
 */

#include <algorithm>
#include <cstring>

#include "base/units.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "kvs/clients.hh"
#include "kvs/shm_kvs.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace elisa;

kvs::Key
keyOf(std::uint64_t id)
{
    kvs::Key k{};
    const std::uint64_t inv = ~id;
    std::memcpy(k.data(), &id, 8);
    std::memcpy(k.data() + 8, &inv, 8);
    return k;
}

kvs::Value
valueOf(std::uint64_t id, std::uint64_t version)
{
    kvs::Value v{};
    std::memcpy(v.data(), &id, 8);
    std::memcpy(v.data() + 8, &version, 8);
    for (std::size_t i = 16; i < v.size(); ++i)
        v[i] = std::uint8_t(id * 31 + version * 17 + i);
    return v;
}

/** A stream word: bit 31 = PUT, the rest the key id. */
constexpr std::uint32_t putBit = 1u << 31;

class KvsActor : public ClientActor
{
  public:
    KvsActor(kvs::ElisaKvsClient &client, std::uint32_t id,
             const std::vector<std::uint32_t> &ops,
             std::vector<std::uint64_t> &model, SimLatency &put_latency)
        : ClientActor(client.vcpu(), id), client(client), stream(ops),
          model(model), putLatency(put_latency)
    {
    }

  protected:
    void
    op() override
    {
        const std::uint32_t word = stream[pos];
        pos = pos + 1 == stream.size() ? 0 : pos + 1;
        const std::uint64_t id = word & ~putBit;
        ++attempted;
        fp.add(word);
        if (word & putBit) {
            const std::uint64_t version = model[id] + 1;
            const SimNs t0 = cpu.clock().now();
            bool ok;
            {
                Span span(Sp::KvsPut);
                ok = client.put(keyOf(id), valueOf(id, version));
            }
            putLatency.record(cpu.clock().now() - t0);
            if (ok)
                model[id] = version;
            else
                fail("PUT of key " + std::to_string(id) + " failed");
            fp.add(ok);
        } else {
            std::optional<kvs::Value> got;
            {
                Span span(Sp::KvsGet);
                got = client.get(keyOf(id));
            }
            if (!got) {
                fail("GET of key " + std::to_string(id) + " missed");
            } else if (*got != valueOf(id, model[id])) {
                fail("GET of key " + std::to_string(id) +
                     " returned a stale or wrong value");
            }
            std::uint64_t words[2] = {~0ull, ~0ull};
            if (got)
                std::memcpy(words, got->data(), sizeof(words));
            fp.add(words[0]);
            fp.add(words[1]);
        }
        fp.add(cpu.clock().now());
    }

  private:
    kvs::ElisaKvsClient &client;
    const std::vector<std::uint32_t> &stream;
    std::size_t pos = 0;
    std::vector<std::uint64_t> &model;
    SimLatency &putLatency;
};

class KvsGate : public Workload
{
  public:
    KvsGate(const Inputs &in, bool sabotage)
        : ramBytes(in.param("ram_mib") * MiB),
          keySpace(in.param("key_space")), buckets(in.param("buckets")),
          clients(in.param("clients")), sabotage(sabotage), inputs(in)
    {
    }

    void
    setup() override
    {
        {
            Span span(Sp::HypervisorCtor);
            hv = std::make_unique<hv::Hypervisor>(ramBytes);
        }
        svc = std::make_unique<core::ElisaService>(*hv);
        hv::Vm &managerVm = spannedVm(*hv, "manager", 128 * MiB);
        vms.push_back(&managerVm);
        manager = std::make_unique<core::ElisaManager>(managerVm, *svc);
        {
            Span span(Sp::ExportAttach);
            table = std::make_unique<kvs::ElisaKvsTable>(
                *hv, *manager, "kv", buckets);
        }
        {
            Span span(Sp::Prepopulate);
            model.assign(keySpace, 0);
            for (std::uint64_t id = 0; id < keySpace; ++id) {
                ++prepopulated;
                if (!kvs::ShmKvs::put(table->hostIo(), keyOf(id),
                                      valueOf(id, 0)))
                    setupFailures.push_back("prepopulate key " +
                                            std::to_string(id));
            }
        }
        for (std::uint64_t c = 0; c < clients; ++c) {
            hv::Vm &vm =
                spannedVm(*hv, "client" + std::to_string(c), 16 * MiB);
            vms.push_back(&vm);
            guests.push_back(std::make_unique<core::ElisaGuest>(vm, *svc));
            Span span(Sp::ExportAttach);
            // ElisaKvsClient attaches in its constructor and stops the
            // run if the attach is not Attached.
            kvsClients.push_back(std::make_unique<kvs::ElisaKvsClient>(
                *table, *manager, *guests.back()));
        }
        if (sabotage) {
            // Expect a version of the first GET's key that was never
            // written.
            for (std::uint32_t word : inputs.stream("ops.0")) {
                if (!(word & putBit)) {
                    model[word] += 7;
                    break;
                }
            }
        }
        eng.setThreads(1);
        eng.setLookahead(hv->cost().minCrossShardLatencyNs());
        for (std::uint64_t c = 0; c < clients; ++c) {
            actors.push_back(std::make_unique<KvsActor>(
                *kvsClients[c], std::uint32_t(c),
                inputs.stream("ops." + std::to_string(c)), model,
                putLatency));
            eng.add(actors.back().get(), hv->shard());
        }
    }

    sim::Engine &engine() override { return eng; }

    SimNs
    startWindow() override
    {
        before = snapCounters({hv.get()}, vms);
        SimNs start = 0;
        for (const auto &a : actors)
            start = std::max(start, a->actorNow());
        return start;
    }

    std::uint64_t
    opsDone() const override
    {
        std::uint64_t n = 0;
        for (const auto &a : actors)
            n += a->ops;
        return n;
    }

    void
    finish(Outcome &out) override
    {
        Fnv fp;
        out.attempted += prepopulated + clients;
        for (const auto &why : setupFailures)
            out.fail(why);
        for (const auto &a : actors) {
            a->report(out);
            fp.add(a->fp.value());
        }
        // The table must end exactly as the model says.
        for (std::uint64_t id = 0; id < keySpace; ++id) {
            auto got = kvs::ShmKvs::get(table->hostIo(), keyOf(id));
            if (!got || *got != valueOf(id, model[id]))
                out.fail("final table disagrees with the model at key " +
                         std::to_string(id));
        }
        // Simulated PUT time above the fastest PUT. It holds bucket-lock
        // wait, but also the EPT walks and L0/TLB misses of slow PUTs:
        // the table keeps its locks private, so the two do not separate.
        std::map<SimNs, std::uint64_t> puts;
        putLatency.mergeInto(puts);
        double excess = 0;
        if (!puts.empty())
            for (const auto &[ns, n] : puts)
                excess += double(ns - puts.begin()->first) * double(n);
        out.layer["kvs.put_excess_sim_ns"] = excess;
        fp.add(std::uint64_t(excess));
        reportCounters(delta(snapCounters({hv.get()}, vms), before),
                       out.ops, out, fp);
        out.fingerprint = fp.value();
    }

  private:
    const std::uint64_t ramBytes;
    const std::uint64_t keySpace;
    const std::uint64_t buckets;
    const std::uint64_t clients;
    const bool sabotage;
    const Inputs &inputs;

    std::unique_ptr<hv::Hypervisor> hv;
    std::unique_ptr<core::ElisaService> svc;
    std::unique_ptr<core::ElisaManager> manager;
    std::unique_ptr<kvs::ElisaKvsTable> table;
    std::vector<std::unique_ptr<core::ElisaGuest>> guests;
    std::vector<std::unique_ptr<kvs::ElisaKvsClient>> kvsClients;
    std::vector<std::unique_ptr<KvsActor>> actors;
    std::vector<hv::Vm *> vms;
    std::vector<std::uint64_t> model;
    std::vector<std::string> setupFailures;
    std::uint64_t prepopulated = 0;
    SimLatency putLatency;
    Counters before;
    sim::Engine eng;
};

} // namespace

std::unique_ptr<Workload>
makeKvsGate(const Inputs &in, bool sabotage)
{
    return std::make_unique<KvsGate>(in, sabotage);
}

} // namespace perfbench
