/**
 * @file
 * net-rx-observed: one machine, two receiver VMs sharing one PhysNic,
 * one over ElisaPath and one over VmcallPath, with the program's
 * Tracer and ExitLedger installed and a TelemetryPublisher on the
 * engine sampler that a MonitorGuest scrapes over ELISA every period.
 *
 * Oracles: every received frame has the expected seq and length; on
 * the ELISA ring the payload is read back (read-only peek before the
 * guest consumes it) and compared with the frame pattern computed
 * here; every scrape parses and carries the publication seq that was
 * just published, strictly increasing.
 */

#include <algorithm>
#include <cstring>

#include "base/units.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "elisa/sub_context.hh"
#include "guest/monitor.hh"
#include "hv/telemetry_publisher.hh"
#include "net/paths.hh"
#include "net/phys_nic.hh"
#include "net/workloads.hh"
#include "sim/exit_ledger.hh"
#include "sim/metrics.hh"
#include "sim/tracer.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace elisa;

/** The frame pattern: seq, len, then (seq * 131 + i) & 0xff. */
bool
patternOk(const std::vector<std::uint8_t> &data, std::uint32_t seq,
          std::uint32_t len)
{
    if (data.size() != len || len < 8)
        return false;
    std::uint32_t head[2];
    std::memcpy(head, data.data(), 8);
    if (head[0] != seq || head[1] != len)
        return false;
    for (std::uint32_t i = 8; i < len; ++i)
        if (data[i] != std::uint8_t(seq * 131 + i))
            return false;
    return true;
}

/** Reads through to the ring, drops writes: a consumer-index peek. */
class PeekIo : public net::RegionIo
{
  public:
    PeekIo(mem::HostMemory &memory, Hpa base) : inner(memory, base) {}

    void
    read(std::uint64_t off, void *dst, std::uint64_t len) override
    {
        inner.read(off, dst, len);
    }

    void write(std::uint64_t, const void *, std::uint64_t) override {}

  private:
    net::HostRegionIo inner;
};

/** A stream word: low 16 bits frame length, high 16 idle gap in ns. */
class RxActor : public ClientActor
{
  public:
    RxActor(net::NetPath &path, net::PhysNic &nic, std::uint32_t id,
            const std::vector<std::uint32_t> &frames, PeekIo *peek,
            std::uint32_t first_seq)
        : ClientActor(path.vcpu(), id), path(path), nic(nic),
          stream(frames), peek(peek), expect(first_seq)
    {
    }

  protected:
    void
    op() override
    {
        const std::uint32_t word = stream[pos];
        pos = pos + 1 == stream.size() ? 0 : pos + 1;
        const std::uint32_t len = word & 0xffff;
        const SimNs gap = word >> 16;
        ++attempted;

        const SimNs wire = nic.rxArrive(cpu.clock().now() + gap, len);
        SimNs ready;
        {
            Span span(Sp::NetDeliver);
            ready = path.hostDeliverRx(seq, len, wire);
        }
        cpu.clock().syncTo(ready);
        if (peek) {
            auto pkt = net::DescRing::pop(*peek);
            if (!pkt || !patternOk(pkt->data, seq, len))
                fail("ELISA ring payload of frame " + std::to_string(seq) +
                     " does not match its pattern");
        }
        std::pair<std::uint32_t, std::uint32_t> got;
        {
            Span span(peek ? Sp::NetRxElisa : Sp::NetRxVmcall);
            got = path.guestRx();
        }
        if (got.first != expect || got.second != len)
            fail(std::string(path.name()) + " frame " +
                 std::to_string(expect) + " arrived as seq " +
                 std::to_string(got.first) + " len " +
                 std::to_string(got.second));
        fp.add(got.first);
        fp.add(got.second);
        fp.add(cpu.clock().now());
        ++seq;
        ++expect;
    }

  private:
    net::NetPath &path;
    net::PhysNic &nic;
    const std::vector<std::uint32_t> &stream;
    std::size_t pos = 0;
    PeekIo *peek;
    std::uint32_t seq = 0;
    std::uint32_t expect;
};

class NetRx : public Workload
{
  public:
    NetRx(const Inputs &in, bool sabotage)
        : ramBytes(in.param("ram_mib") * MiB),
          period(in.param("sample_period_ns")),
          slotBytes(std::uint32_t(in.param("slot_bytes"))),
          sabotage(sabotage), inputs(in)
    {
    }

    void
    setup() override
    {
        {
            Span span(Sp::HypervisorCtor);
            hv = std::make_unique<hv::Hypervisor>(ramBytes);
        }
        tracer = std::make_unique<sim::Tracer>();
        ledger = std::make_unique<sim::ExitLedger>();
        hv->setTracer(tracer.get());
        hv->setLedger(ledger.get());
        svc = std::make_unique<core::ElisaService>(*hv);
        hv::Vm &managerVm = spannedVm(*hv, "manager", 128 * MiB);
        manager = std::make_unique<core::ElisaManager>(managerVm, *svc);
        hv::Vm &elisaVm = spannedVm(*hv, "rx-elisa", 64 * MiB);
        hv::Vm &vmcallVm = spannedVm(*hv, "rx-vmcall", 64 * MiB);
        monitorVm = &spannedVm(*hv, "monitor", 32 * MiB);
        vms = {&managerVm, &elisaVm, &vmcallVm, monitorVm};

        elisaGuest = std::make_unique<core::ElisaGuest>(elisaVm, *svc);
        {
            Span span(Sp::ExportAttach);
            elisaPath = std::make_unique<net::ElisaPath>(
                *hv, *manager, *elisaGuest, "nic-elisa");
        }
        vmcallPath = std::make_unique<net::VmcallPath>(*hv, vmcallVm);
        nic = std::make_unique<net::PhysNic>(hv->cost());
        core::Export *rings = svc->findExport("nic-elisa");
        if (!rings) {
            setupFailures.push_back("ELISA ring export not found");
        } else {
            peek = std::make_unique<PeekIo>(hv->memory(),
                                            rings->objectHpa());
        }

        publisher = std::make_unique<hv::TelemetryPublisher>(*hv, metrics);
        {
            Span span(Sp::ExportAttach);
            if (!guest::exportTelemetryRegion(*manager, *publisher,
                                              core::ExportKey("telemetry"),
                                              slotBytes))
                setupFailures.push_back("telemetry export failed");
        }
        monitor = std::make_unique<guest::MonitorGuest>(*monitorVm, *svc);
        {
            Span span(Sp::ExportAttach);
            ++attaches;
            if (!monitor->attach(core::ExportKey("telemetry"), *manager))
                setupFailures.push_back("monitor attach not Attached");
        }
        hv->attachMetrics(metrics);

        eng.setThreads(1);
        eng.setLookahead(hv->cost().minCrossShardLatencyNs());
        actors.push_back(std::make_unique<RxActor>(
            *elisaPath, *nic, 0, inputs.stream("frames.elisa"), peek.get(),
            sabotage ? 1 : 0));
        actors.push_back(std::make_unique<RxActor>(
            *vmcallPath, *nic, 1, inputs.stream("frames.vmcall"), nullptr,
            0));
        for (auto &a : actors)
            eng.add(a.get(), hv->shard());
        eng.setSampler(period, [this](SimNs t) { sample(t); });
    }

    sim::Engine &engine() override { return eng; }

    SimNs
    startWindow() override
    {
        // Drop set-up negotiation rows: the ledger covers the window.
        ledger->clear();
        tracer0 = tracer->emitted();
        before = snapCounters({hv.get()}, vms);
        SimNs start = 0;
        for (const auto &a : actors)
            start = std::max(start, a->actorNow());
        return start;
    }

    std::uint64_t
    opsDone() const override
    {
        return actors[0]->ops + actors[1]->ops;
    }

    void
    finish(Outcome &out) override
    {
        Fnv fp;
        out.attempted += attaches + samples;
        for (const auto &why : setupFailures)
            out.fail(why);
        out.failed += sampleFailed;
        for (const auto &why : sampleFailures)
            if (out.failures.size() < 5)
                out.failures.push_back(why);
        if (publisher->overflows() != 0)
            out.fail("telemetry snapshot overflowed its slot");
        for (const auto &a : actors) {
            a->report(out);
            fp.add(a->fp.value());
        }
        fp.add(scrapeFp.value());
        out.scrapeNs = scrapeNs;

        const Counters window = delta(snapCounters({hv.get()}, vms), before);
        reportCounters(window, out.ops, out, fp);
        const double ops = out.ops == 0 ? 1.0 : double(out.ops);
        out.layer["sim.tracer_events_per_op"] =
            double(tracer->emitted() - tracer0) / ops;
        out.layer["sim.ledger_rows"] = double(ledger->rows().size());
        out.layer["hv.snapshot_bytes"] =
            double(publisher->lastSnapshot().size());
        const auto mstats = snapCounters({}, {monitorVm});
        const auto calls = mstats.find("elisa_calls");
        out.layer["guest.scrape_gate_calls"] =
            monitor->scrapes() == 0 || calls == mstats.end()
                ? 0.0
                : double(calls->second) / double(monitor->scrapes());
        out.layer["guest.scrape_retries"] = double(monitor->retries());
        for (const auto &[name, value] : out.layer)
            fp.add(name + "=" + std::to_string(value));

        // Accuracy against the paper, from the ledger of the window.
        SimNs legNs = 0, hcNs = 0;
        std::uint64_t legEvents = 0, hcEvents = 0;
        for (const auto &row : ledger->rows()) {
            if (row.kind == sim::CostKind::GateLeg) {
                legNs += row.ns;
                legEvents += row.events;
            } else if (row.kind == sim::CostKind::Hypercall) {
                hcNs += row.ns;
                hcEvents += row.events;
            }
        }
        const double gateRtt =
            legEvents == 0 ? 0.0
                           : double(legNs) /
                                 (double(legEvents) / core::gateLegCount);
        const double vmcallRtt =
            hcEvents == 0 ? 0.0 : double(hcNs) / double(hcEvents);
        out.lines.push_back(accuracy("gate RTT (ledger gate legs)", gateRtt,
                                     196.0, "ns"));
        out.lines.push_back(accuracy("VMCALL RTT (ledger hypercall rows)",
                                     vmcallRtt, 699.0, "ns"));
        out.lines.push_back(accuracy("HyperNF exit share (ledger)",
                                     hypernfExitShare(), 48.98, "%"));
        out.fingerprint = fp.value();
    }

  private:
    static std::string
    accuracy(const char *what, double sim, double paper, const char *unit)
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "[accuracy] %-36s sim %10.3f %s  paper %8.2f %s  "
                      "error %+.3f%%",
                      what, sim, unit, paper, unit,
                      (sim - paper) / paper * 100.0);
        return buf;
    }

    /**
     * The HyperNF exit-cost share, measured the way the paper's claim
     * is derived: heavy per-packet NF work, 64 B frames over a VMCALL
     * receive path; exit + hypercall mechanism ns over elapsed ns.
     */
    static double
    hypernfExitShare()
    {
        static const double share = [] {
            sim::CostModel heavy;
            heavy.netPerPacketNs += 615;
            hv::Hypervisor machine(256 * MiB, heavy);
            sim::ExitLedger ledger;
            machine.setLedger(&ledger);
            hv::Vm &vm = machine.createVm("rx-heavy", 64 * MiB);
            net::VmcallPath path(machine, vm);
            net::PhysNic wire(heavy);
            const auto r = net::runRx(path, wire, 64, 60000);
            const SimNs mech = ledger.kindNs(sim::CostKind::Hypercall) +
                               ledger.kindNs(sim::CostKind::Exit);
            return r.elapsed == 0
                       ? 0.0
                       : double(mech) / double(r.elapsed) * 100.0;
        }();
        return share;
    }

    /** Engine sampler: publish, then scrape on the monitor vCPU. */
    void
    sample(SimNs t)
    {
        Span span(Sp::Sampler);
        ++samples;
        std::uint64_t seq;
        {
            Span publish(Sp::Publish);
            seq = publisher->publish(t);
        }
        cpu::Vcpu &mcpu = monitorVm->vcpu(0);
        mcpu.clock().syncTo(t);
        const SimNs t0 = mcpu.clock().now();
        bool ok;
        {
            Span scrape(Sp::Scrape);
            ok = monitor->scrape();
        }
        scrapeNs.push_back(mcpu.clock().now() - t0);
        const sim::SnapshotView &snap = monitor->snapshot();
        if (!ok) {
            sampleFail("scrape at " + std::to_string(t) + " exhausted");
        } else if (!snap.ok() || snap.seq() != seq + (sabotage ? 1 : 0) ||
                   snap.seq() <= lastSeq) {
            sampleFail("scrape at " + std::to_string(t) + " saw seq " +
                       std::to_string(snap.seq()) + ", published " +
                       std::to_string(seq));
        }
        lastSeq = snap.seq();
        scrapeFp.add(snap.seq());
        scrapeFp.add(snap.totalBytes());
        scrapeFp.add(snap.simNs());
        scrapeFp.add(mcpu.clock().now());
    }

    void
    sampleFail(const std::string &why)
    {
        ++sampleFailed;
        if (sampleFailures.size() < 5)
            sampleFailures.push_back(why);
    }

    const std::uint64_t ramBytes;
    const SimNs period;
    const std::uint32_t slotBytes;
    const bool sabotage;
    const Inputs &inputs;

    // The machine keeps pointers to these: they must outlive it.
    std::unique_ptr<sim::Tracer> tracer;
    std::unique_ptr<sim::ExitLedger> ledger;
    sim::Metrics metrics;
    std::unique_ptr<hv::Hypervisor> hv;
    std::unique_ptr<core::ElisaService> svc;
    std::unique_ptr<core::ElisaManager> manager;
    hv::Vm *monitorVm = nullptr;
    std::vector<hv::Vm *> vms;
    std::unique_ptr<core::ElisaGuest> elisaGuest;
    std::unique_ptr<net::ElisaPath> elisaPath;
    std::unique_ptr<net::VmcallPath> vmcallPath;
    std::unique_ptr<net::PhysNic> nic;
    std::unique_ptr<PeekIo> peek;
    std::unique_ptr<hv::TelemetryPublisher> publisher;
    std::unique_ptr<guest::MonitorGuest> monitor;
    std::vector<std::unique_ptr<RxActor>> actors;
    std::vector<std::string> setupFailures;
    std::vector<std::string> sampleFailures;
    std::uint64_t sampleFailed = 0;
    std::uint64_t attaches = 0;
    std::uint64_t samples = 0;
    std::uint64_t lastSeq = 0;
    std::uint64_t tracer0 = 0;
    std::vector<SimNs> scrapeNs;
    Fnv scrapeFp;
    Counters before;
    sim::Engine eng;
};

} // namespace

std::unique_ptr<Workload>
makeNetRx(const Inputs &in, bool sabotage)
{
    return std::make_unique<NetRx>(in, sabotage);
}

} // namespace perfbench
