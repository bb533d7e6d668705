/**
 * @file
 * Host-side microbenchmarks (google-benchmark) of the simulator's hot
 * paths: not a paper experiment, but the performance budget that
 * makes the figure harnesses (millions of simulated packets/ops per
 * point) tractable.
 *
 * Besides the microbenches, this binary runs a multi-machine *scale
 * scenario* (1024 VMs by default) through the sharded engine in five
 * alternating pairs of runs at one and at --threads=N host threads,
 * asserts every run produces identical simulated results (window
 * count included), and reports the median pair's sim-time/wall-time
 * ratios and speedup into BENCH_sim_perf.json for the
 * tools/bench_check regression gate (wall_* metrics are gated
 * one-sided with a generous tolerance — wall clocks are noisy; the
 * simulated metrics are exact).
 *
 *   bench_sim_perf [--threads=N] [--vms=N] [google-benchmark flags]
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/units.hh"
#include "bench/common.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"
#include "sim/engine.hh"

namespace
{

using namespace elisa;

/** Shared machine for all benchmarks (built once). */
struct Machine
{
    Machine()
        : hv(512 * MiB), svc(hv),
          managerVm(hv.createVm("manager", 64 * MiB)),
          guestVm(hv.createVm("guest", 64 * MiB)),
          manager(managerVm, svc), guest(guestVm, svc)
    {
        setQuiet(true);
        core::SharedFnTable fns;
        fns.push_back(
            [](core::SubCallCtx &) { return std::uint64_t{0}; });
        manager.exportObject(core::ExportKey("perf"), pageSize, std::move(fns));
        gate = guest.tryAttach(core::ExportKey("perf"), manager).take();
    }

    hv::Hypervisor hv;
    core::ElisaService svc;
    hv::Vm &managerVm;
    hv::Vm &guestVm;
    core::ElisaManager manager;
    core::ElisaGuest guest;
    core::Gate gate;
};

Machine &
machine()
{
    static Machine m;
    return m;
}

void
BM_EptHardwareWalk(benchmark::State &state)
{
    Machine &m = machine();
    const std::uint64_t eptp =
        m.guestVm.defaultEpt().eptp();
    for (auto _ : state) {
        auto t = ept::hardwareWalk(m.hv.memory(), eptp, 0x1000);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_EptHardwareWalk);

void
BM_TlbHitAccess(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    view.read<std::uint64_t>(0x1000);
    for (auto _ : state) {
        auto v = view.read<std::uint64_t>(0x1000);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_TlbHitAccess);

void
BM_GateCall(benchmark::State &state)
{
    Machine &m = machine();
    for (auto _ : state) {
        auto v = m.gate.call(0);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_GateCall);

/**
 * The same gate call with a Tracer installed: every call emits 8
 * span events (gate_call + 4 eptp_switch + stack_swap + payload +
 * return begin/end pairs) into the ring. The delta vs BM_GateCall is
 * the enabled-tracing cost; the disabled cost is asserted <= 2% in
 * test_trace.
 */
void
BM_GateCallTraced(benchmark::State &state)
{
    Machine &m = machine();
    sim::Tracer tracer(1u << 16);
    m.hv.setTracer(&tracer);
    for (auto _ : state) {
        auto v = m.gate.call(0);
        benchmark::DoNotOptimize(v);
    }
    m.hv.setTracer(nullptr);
}
BENCHMARK(BM_GateCallTraced);

void
BM_Vmcall(benchmark::State &state)
{
    Machine &m = machine();
    cpu::Vcpu &cpu = m.guestVm.vcpu(0);
    for (auto _ : state) {
        auto v = cpu.vmcall(hv::hcArgs(hv::Hc::Nop));
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_Vmcall);

void
BM_GuestBulkCopy4K(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    std::vector<std::uint8_t> buf(4096, 0xab);
    for (auto _ : state) {
        view.writeBytes(0x10000, buf.data(), buf.size());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_GuestBulkCopy4K);

/** Raw 8-byte read/write pair on one hot page (the L0 fast path). */
void
BM_GuestReadWrite(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    view.write<std::uint64_t>(0x2000, 1);
    for (auto _ : state) {
        auto v = view.read<std::uint64_t>(0x2000);
        view.write<std::uint64_t>(0x2000, v + 1);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_GuestReadWrite);

/**
 * Stride over more distinct pages than the direct-mapped Tlb has
 * slots, so every access misses both the L0 line and the shared Tlb
 * and pays the full simulated walk.
 */
void
BM_TlbMissAccess(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    // 2048 pages (8 MiB of the 64 MiB guest) > the 1024-entry Tlb.
    constexpr std::uint64_t pages = 2048;
    std::uint64_t page = 0;
    for (auto _ : state) {
        auto v = view.read<std::uint64_t>(0x100000 + page * pageSize);
        benchmark::DoNotOptimize(v);
        page = (page + 1) % pages;
    }
}
BENCHMARK(BM_TlbMissAccess);

/** Guest-to-guest 4 KiB copy (frame-to-frame, no bounce). */
void
BM_GuestCopyBytes4K(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    std::vector<std::uint8_t> buf(4096, 0xcd);
    view.writeBytes(0x20000, buf.data(), buf.size());
    for (auto _ : state) {
        view.copyBytes(0x30000, 0x20000, 4096);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_GuestCopyBytes4K);

/** Interned-id counter increment (the hot-path idiom). */
void
BM_StatIncInterned(benchmark::State &state)
{
    sim::StatSet stats;
    const sim::StatId id = stats.id("bench_counter");
    for (auto _ : state) {
        stats.inc(id);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StatIncInterned);

// ---- hundreds-of-VMs scale scenario --------------------------------

/**
 * One simulated machine of the scale scenario: a hypervisor pinned to
 * its own engine shard, hosting single-vCPU guest VMs. Machines only
 * interact through cross-shard replication pings, so each may run on
 * its own host thread.
 */
struct ScaleMachine
{
    ScaleMachine(elisa::ShardId shard, unsigned vms)
        : hv((vms * 2 + 32) * MiB)
    {
        setQuiet(true);
        hv.setShard(shard);
        for (unsigned v = 0; v < vms; ++v)
            hv.createVm("vm" + std::to_string(v), 2 * MiB);
    }

    hv::Hypervisor hv;
};

/**
 * Per-VM actor: every step is one VMCALL round trip on the VM's vCPU;
 * every 16th step additionally sends a replication ping to the next
 * machine, arriving one network propagation later.
 */
class VmWorker : public sim::Actor
{
  public:
    VmWorker(sim::Engine &engine, cpu::Vcpu &vcpu, elisa::ShardId peer,
             std::uint64_t *peer_pings, std::uint64_t steps)
        : engine(engine), vcpu(vcpu), peer(peer),
          peerPings(peer_pings), total(steps)
    {
    }

    SimNs actorNow() const override { return vcpu.clock().now(); }

    bool
    step() override
    {
        const SimNs t = vcpu.clock().now();
        vcpu.vmcall(hv::hcArgs(hv::Hc::Nop));
        if (++count % 16 == 0) {
            engine.post(peer,
                        t + vcpu.costModel().netPropagationNs,
                        [this](SimNs) { ++*peerPings; });
        }
        return count < total;
    }

  private:
    sim::Engine &engine;
    cpu::Vcpu &vcpu;
    elisa::ShardId peer;
    std::uint64_t *peerPings;
    std::uint64_t total;
    std::uint64_t count = 0;
};

/** Everything one scale run observes (wall time aside, all of it
 *  must be identical for any thread count). */
struct ScaleResult
{
    std::uint64_t steps = 0;
    std::uint64_t delivered = 0;
    std::uint64_t pings = 0;
    std::uint64_t windows = 0;  ///< engine windows planned
    SimNs simNs = 0;            ///< slowest vCPU's final clock
    std::uint64_t clockSum = 0; ///< sum of all final vCPU clocks
    double wallMs = 0.0;

    bool
    sameSimulation(const ScaleResult &o) const
    {
        return steps == o.steps && delivered == o.delivered &&
               pings == o.pings && windows == o.windows &&
               simNs == o.simNs && clockSum == o.clockSum;
    }
};

ScaleResult
runScale(unsigned threads, unsigned machine_count, unsigned vms_per,
         std::uint64_t steps_per)
{
    std::vector<std::unique_ptr<ScaleMachine>> machines;
    for (unsigned m = 0; m < machine_count; ++m)
        machines.push_back(
            std::make_unique<ScaleMachine>(m, vms_per));

    sim::Engine engine;
    engine.setThreads(threads);
    // The machines of this scenario interact only through the
    // inter-machine network, so its propagation delay — not the
    // global worst-case transport bound — is the scenario lookahead.
    engine.setLookahead(sim::CostModel::fromEnv().netPropagationNs);

    std::vector<std::uint64_t> pings(machine_count, 0);
    std::vector<std::unique_ptr<VmWorker>> workers;
    for (unsigned m = 0; m < machine_count; ++m) {
        const elisa::ShardId peer = (m + 1) % machine_count;
        for (unsigned v = 0; v < vms_per; ++v) {
            workers.push_back(std::make_unique<VmWorker>(
                engine, machines[m]->hv.vm(v).vcpu(0), peer,
                &pings[peer], steps_per));
            engine.add(workers.back().get(),
                       machines[m]->hv.shard());
        }
    }

    ScaleResult result;
    const auto wall0 = std::chrono::steady_clock::now();
    result.steps = engine.run();
    result.wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    result.delivered = engine.delivered();
    result.windows = engine.windows();
    for (std::uint64_t p : pings)
        result.pings += p;
    for (auto &machine : machines) {
        for (unsigned v = 0; v < vms_per; ++v) {
            const SimNs now =
                machine->hv.vm(v).vcpu(0).clock().now();
            result.clockSum += now;
            if (now > result.simNs)
                result.simNs = now;
        }
    }
    return result;
}

void
runScaleScenario(unsigned threads, unsigned vms)
{
    constexpr unsigned machine_count = 8;
    const unsigned vms_per =
        vms < machine_count ? 1 : vms / machine_count;
    // Multiple of 16 so the ping fraction is exact at any scale.
    const std::uint64_t steps_per =
        (bench::scaledCount(3200) / 16) * 16;
    const unsigned total_vms = vms_per * machine_count;

    std::printf("\nscale scenario: %u machines x %u VMs, %llu "
                "VMCALL-steps each\n",
                machine_count, vms_per,
                (unsigned long long)steps_per);

    // Alternate the legs so host-speed drift hits both alike, and
    // report the median pair (wall clocks on a shared host swing).
    constexpr unsigned pairs = 5;
    struct Pair
    {
        double speedup, t1Ms, tnMs;
    };
    ScaleResult serial;
    std::vector<Pair> runs;
    for (unsigned p = 0; p < pairs; ++p) {
        const ScaleResult t1 =
            runScale(1, machine_count, vms_per, steps_per);
        const ScaleResult tn =
            runScale(threads, machine_count, vms_per, steps_per);
        if (p == 0)
            serial = t1;
        // The whole point of the conservative protocol: the parallel
        // run is the same simulation, bit for bit, window for window.
        fatal_if(!t1.sameSimulation(serial) ||
                     !tn.sameSimulation(serial),
                 "scale scenario diverged between 1 and %u threads",
                 threads);
        runs.push_back({t1.wallMs / tn.wallMs, t1.wallMs, tn.wallMs});
    }
    std::sort(runs.begin(), runs.end(),
              [](const Pair &a, const Pair &b) {
                  return a.speedup < b.speedup;
              });
    const Pair &median = runs[pairs / 2];

    const double ratio_t1 = (double)serial.simNs / (median.t1Ms * 1e6);
    const double ratio_tn = (double)serial.simNs / (median.tnMs * 1e6);
    std::printf("  median pair of %u: threads=1 %8.2f ms wall, sim/wall "
                "ratio %.4f\n",
                pairs, median.t1Ms, ratio_t1);
    std::printf("                     threads=%u %8.2f ms wall, sim/wall "
                "ratio %.4f\n",
                threads, median.tnMs, ratio_tn);
    std::printf("  speedup median %.2fx (min %.2fx, max %.2fx)\n",
                median.speedup, runs.front().speedup,
                runs.back().speedup);
    std::printf("  %u VMs, %llu steps, %llu cross-shard pings "
                "delivered, %llu windows\n",
                total_vms, (unsigned long long)serial.steps,
                (unsigned long long)serial.delivered,
                (unsigned long long)serial.windows);

    bench::BenchReport report("sim_perf");
    // Simulated metrics: exact, gated two-sided by bench_check.
    report.set("scale_ns_per_op",
               (double)serial.simNs / (double)steps_per);
    report.set("scale_events_per_kop",
               (double)serial.delivered * 1000.0 /
                   (double)serial.steps);
    report.set("scale_windows_per_kop",
               (double)serial.windows * 1000.0 / (double)serial.steps);
    // Wall metrics: noisy, gated one-sided (see --wall-tolerance).
    report.set("wall_sim_ratio_t1", ratio_t1);
    report.set("wall_sim_ratio_t4", ratio_tn);
    report.set("wall_speedup_t4", median.speedup);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = 4;
    unsigned vms = 1024;

    // Strip our flags; everything else goes to google-benchmark.
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            threads = (unsigned)std::strtoul(argv[i] + 10, nullptr, 10);
        } else if (std::strncmp(argv[i], "--vms=", 6) == 0) {
            vms = (unsigned)std::strtoul(argv[i] + 6, nullptr, 10);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    fatal_if(threads == 0 || vms == 0, "--threads/--vms must be >= 1");

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    runScaleScenario(threads, vms);
    benchmark::Shutdown();
    return 0;
}
