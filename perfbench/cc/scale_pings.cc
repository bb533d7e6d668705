/**
 * @file
 * scale-pings: machines on their own engine shards, each hosting
 * single-vCPU VMs. Every step is a Nop VMCALL; every 16th step posts
 * a ping to another machine one network propagation later. The engine
 * runs on several host threads, so Engine::post, windows, wake-ups
 * and VMCALL dispatch do the work.
 *
 * Oracles: every ping posted for delivery inside the window arrives;
 * each VM posted exactly one ping per 16 steps; each vCPU clock
 * advanced by exactly steps x the cost model's Nop VMCALL round trip.
 */

#include <algorithm>

#include "base/units.hh"
#include "hv/hypercall.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace elisa;

/** A delivery counter on its own cache line (one writer shard). */
struct alignas(64) PingCount
{
    std::uint64_t n = 0;
};

class PingActor : public ClientActor
{
  public:
    PingActor(sim::Engine &engine, cpu::Vcpu &vcpu, std::uint32_t id,
              const std::uint32_t *peers, std::vector<PingCount> &pings)
        : ClientActor(vcpu, id), clock0(vcpu.clock().now()),
          engine(engine), peers(peers), pings(pings)
    {
    }

    /** Pings posted for delivery before @p end are owed. */
    void setWindowEnd(SimNs end) { windowEnd = end; }

    const SimNs clock0;
    std::uint64_t posts = 0;
    std::uint64_t owed = 0;

  protected:
    void
    op() override
    {
        ++attempted;
        const SimNs t = cpu.clock().now();
        std::uint64_t ret;
        {
            Span span(Sp::Vmcall);
            ret = cpu.vmcall(hv::hcArgs(hv::Hc::Nop));
        }
        fp.add(ret);
        if ((ops + 1) % 16 == 0) {
            const ShardId dest = peers[posts % 16];
            const SimNs at = t + cpu.costModel().netPropagationNs;
            PingCount *count = &pings[dest];
            engine.post(dest, at, [count](SimNs) { ++count->n; });
            ++posts;
            if (at < windowEnd)
                ++owed;
            fp.add(dest);
        }
    }

  private:
    sim::Engine &engine;
    const std::uint32_t *peers;
    std::vector<PingCount> &pings;
    SimNs windowEnd = 0;
};

class ScalePings : public Workload
{
  public:
    ScalePings(const Inputs &in, bool sabotage)
        : machines(in.param("machines")), vmsPer(in.param("vms_per")),
          threads(unsigned(in.param("threads"))),
          windowNs(in.param("slices") * in.param("slice_ns")),
          peers(in.stream("peers")), sabotage(sabotage),
          pings(machines)
    {
        if (peers.size() != machines * vmsPer * 16) {
            std::fprintf(stderr, "perfbench: peers stream has %zu "
                                 "entries, want machines x vms x 16\n",
                         peers.size());
            std::exit(2);
        }
    }

    void
    setup() override
    {
        for (std::uint64_t m = 0; m < machines; ++m) {
            {
                Span span(Sp::HypervisorCtor);
                hvs.push_back(std::make_unique<hv::Hypervisor>(
                    (vmsPer * 2 + 32) * MiB));
            }
            hv::Hypervisor &machine = *hvs.back();
            machine.setShard(ShardId(m));
            hvPtrs.push_back(&machine);
            for (std::uint64_t v = 0; v < vmsPer; ++v)
                vms.push_back(
                    &spannedVm(machine, "vm" + std::to_string(v), 2 * MiB));
        }
        eng.setThreads(threads);
        // Machines interact only over the network, so its propagation
        // delay is the lookahead.
        eng.setLookahead(hvs.front()->cost().netPropagationNs);
        for (std::size_t i = 0; i < vms.size(); ++i) {
            actors.push_back(std::make_unique<PingActor>(
                eng, vms[i]->vcpu(0), std::uint32_t(i), &peers[i * 16],
                pings));
            eng.add(actors.back().get(), vms[i]->shard());
        }
    }

    sim::Engine &engine() override { return eng; }

    SimNs
    startWindow() override
    {
        before = snapCounters(hvPtrs, vms);
        SimNs start = 0;
        for (const auto &a : actors)
            start = std::max(start, a->actorNow());
        for (const auto &a : actors)
            a->setWindowEnd(start + windowNs);
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
        const SimNs rtt = hvs.front()->cost().vmcallRttNs();
        std::uint64_t owed = sabotage ? 1 : 0, posts = 0, delivered = 0;
        for (const auto &a : actors) {
            a->report(out);
            fp.add(a->fp.value());
            fp.add(a->actorNow());
            owed += a->owed;
            posts += a->posts;
            if (a->posts != a->ops / 16)
                out.fail("a VM posted " + std::to_string(a->posts) +
                         " pings in " + std::to_string(a->ops) + " steps");
            if (a->actorNow() - a->clock0 != a->ops * rtt)
                out.fail("a vCPU clock moved " +
                         std::to_string(a->actorNow() - a->clock0) +
                         " ns in " + std::to_string(a->ops) +
                         " Nop VMCALLs");
        }
        for (const PingCount &p : pings) {
            delivered += p.n;
            fp.add(p.n);
        }
        out.attempted += owed;
        if (delivered != owed)
            out.fail(std::to_string(delivered) + " pings delivered, " +
                     std::to_string(owed) + " owed");
        out.layer["sim.posts"] = double(posts);
        out.layer["sim.delivered"] = double(eng.delivered());
        fp.add(posts);
        fp.add(eng.delivered());
        reportCounters(delta(snapCounters(hvPtrs, vms), before), out.ops,
                       out, fp);
        out.fingerprint = fp.value();
    }

  private:
    const std::uint64_t machines;
    const std::uint64_t vmsPer;
    const unsigned threads;
    const SimNs windowNs;
    const std::vector<std::uint32_t> &peers;
    const bool sabotage;

    std::vector<PingCount> pings;
    std::vector<std::unique_ptr<hv::Hypervisor>> hvs;
    std::vector<hv::Hypervisor *> hvPtrs;
    std::vector<hv::Vm *> vms;
    std::vector<std::unique_ptr<PingActor>> actors;
    Counters before;
    sim::Engine eng;
};

} // namespace

std::unique_ptr<Workload>
makeScalePings(const Inputs &in, bool sabotage)
{
    return std::make_unique<ScalePings>(in, sabotage);
}

} // namespace perfbench
