/**
 * @file
 * The observability layer: Metrics registry (interning, StatSet
 * adoption, exporters), ExitLedger accounting, and the Engine's
 * periodic simulated-time sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/units.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "hv/hypervisor.hh"
#include "sim/engine.hh"
#include "sim/exit_ledger.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace
{

using namespace elisa;
using namespace elisa::core;
using namespace elisa::sim;

// ===================================================================
// Label interning.
// ===================================================================

TEST(MetricsInterning, SameIdentitySameId)
{
    Metrics m;
    const MetricId a = m.counter("rx_pkts", {{"vm", "1"}, {"q", "0"}});
    // Labels are sorted at registration: order must not matter.
    const MetricId b = m.counter("rx_pkts", {{"q", "0"}, {"vm", "1"}});
    EXPECT_EQ(a, b);

    m.add(a, 3);
    m.add(b, 2);
    EXPECT_EQ(m.counterValue(a), 5u);

    // A different label value is a different metric.
    const MetricId c = m.counter("rx_pkts", {{"vm", "2"}, {"q", "0"}});
    EXPECT_NE(a, c);
    EXPECT_EQ(m.counterValue(c), 0u);
}

TEST(MetricsInterning, StructuredKeysCannotCollide)
{
    // A naive "name + concatenated labels" key would serialize all of
    // these to the same string; the structured key (control-character
    // separators between name, keys, and values) keeps every identity
    // distinct.
    Metrics m;
    const MetricId a = m.counter("ab", {{"c", "d"}});
    const MetricId b = m.counter("a", {{"bc", "d"}});
    const MetricId c = m.counter("a", {{"b", "cd"}});
    const MetricId d = m.counter("a", {{"b", "c"}, {"d", ""}});
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    EXPECT_NE(b, c);
    EXPECT_NE(b, d);
    EXPECT_NE(c, d);
    EXPECT_EQ(m.size(), 4u);
}

TEST(MetricsInterning, ReRegistrationIsIdempotent)
{
    Metrics m;
    const MetricId id = m.gauge("depth", {{"vm", "3"}});
    m.set(id, 7.5);
    // Re-registering the same identity (e.g. a second subsystem
    // instance) resolves to the same id; the value survives.
    const MetricId again = m.gauge("depth", {{"vm", "3"}});
    EXPECT_EQ(id, again);
    EXPECT_DOUBLE_EQ(m.gaugeValue(again), 7.5);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.kind(id), MetricKind::Gauge);
}

// ===================================================================
// Values, clearing, StatSet adoption.
// ===================================================================

TEST(Metrics, HistogramAndClearValues)
{
    Metrics m;
    const MetricId c = m.counter("ops");
    const MetricId g = m.gauge("load");
    const MetricId h = m.histogram("lat_ns");
    m.add(c, 4);
    m.set(g, 1.25);
    m.observe(h, 5);
    m.observe(h, 5);
    m.observe(h, 7);
    EXPECT_EQ(m.counterValue(c), 4u);
    EXPECT_DOUBLE_EQ(m.gaugeValue(g), 1.25);
    EXPECT_EQ(m.histogramAt(h).count(), 3u);
    EXPECT_EQ(m.histogramAt(h).sum(), 17u);
    EXPECT_EQ(m.histogramAt(h).p50(), 5u);

    m.clearValues();
    EXPECT_EQ(m.counterValue(c), 0u);
    EXPECT_DOUBLE_EQ(m.gaugeValue(g), 0.0);
    EXPECT_EQ(m.histogramAt(h).count(), 0u);
    EXPECT_EQ(m.size(), 3u); // registrations survive
}

TEST(Metrics, StatSetAdoption)
{
    StatSet stats;
    stats.inc("calls", 3);
    stats.inc("faults");

    Metrics m;
    m.attachStatSet(stats, {{"vm", "7"}}, "vcpu_");
    EXPECT_EQ(m.statSetCount(), 1u);

    std::string report = m.report();
    EXPECT_NE(report.find("vcpu_calls{vm=\"7\"} = 3"),
              std::string::npos);
    EXPECT_NE(report.find("vcpu_faults{vm=\"7\"} = 1"),
              std::string::npos);

    // The set keeps living in its subsystem: later increments are
    // visible at the next export without re-attaching.
    stats.inc("calls");
    EXPECT_NE(m.report().find("vcpu_calls{vm=\"7\"} = 4"),
              std::string::npos);

    // Re-attach replaces labels/prefix instead of duplicating.
    m.attachStatSet(stats, {{"vm", "8"}}, "vcpu_");
    EXPECT_EQ(m.statSetCount(), 1u);
    EXPECT_NE(m.report().find("vcpu_calls{vm=\"8\"} = 4"),
              std::string::npos);

    m.detachStatSet(stats);
    EXPECT_EQ(m.statSetCount(), 0u);
    EXPECT_EQ(m.report(), "");
}

// ===================================================================
// Exporter goldens (byte-exact).
// ===================================================================

Metrics
goldenRegistry()
{
    Metrics m;
    const MetricId calls = m.counter("calls", {{"path", "gate"}});
    const MetricId depth = m.gauge("depth");
    const MetricId lat = m.histogram("lat_ns");
    m.add(calls, 3);
    m.set(depth, 2.5);
    m.observe(lat, 5);
    m.observe(lat, 5);
    m.observe(lat, 7);
    return m;
}

TEST(MetricsExport, PrometheusGolden)
{
    const std::string want = "# TYPE calls counter\n"
                             "calls_total{path=\"gate\"} 3\n"
                             "# TYPE depth gauge\n"
                             "depth 2.5\n"
                             "# TYPE lat_ns summary\n"
                             "lat_ns{quantile=\"0.5\"} 5\n"
                             "lat_ns{quantile=\"0.95\"} 7\n"
                             "lat_ns{quantile=\"0.99\"} 7\n"
                             "lat_ns{quantile=\"0.999\"} 7\n"
                             "lat_ns_sum 17\n"
                             "lat_ns_count 3\n";
    Metrics m = goldenRegistry();
    EXPECT_EQ(m.prometheus(), want);
    // Byte-deterministic: repeated export is identical.
    EXPECT_EQ(m.prometheus(), m.prometheus());
}

TEST(MetricsExport, PrometheusSanitizesNamesAndEscapesValues)
{
    Metrics m;
    m.add(m.counter("9net.rx-pkts", {{"path", "a\"b\\c\nd"}}), 1);
    const std::string text = m.prometheus();
    EXPECT_NE(text.find("_9net_rx_pkts_total"), std::string::npos);
    EXPECT_NE(text.find("{path=\"a\\\"b\\\\c\\nd\"} 1"),
              std::string::npos);
}

TEST(MetricsExport, CsvHeaderRowAndSampler)
{
    Metrics m = goldenRegistry();
    EXPECT_EQ(m.csvHeader(), "sim_ns,\"calls{path=\"\"gate\"\"}\","
                             "depth,lat_ns_count,lat_ns_p50,"
                             "lat_ns_p99\n");
    EXPECT_EQ(m.csvRow(100), "100,3,2.5,3,5,7\n");
    EXPECT_EQ(m.csvColumnCount(), 6u);

    // The sampler counts columns structurally: quoted header cells
    // with embedded commas (labeled metrics) must not trip the
    // registered-after-sampling panic.
    MetricsCsvSampler sampler(m);
    sampler.sample(100);
    sampler.sample(200);
    EXPECT_EQ(sampler.rows(), 2u);
    EXPECT_EQ(sampler.csv(), m.csvHeader() + m.csvRow(100) +
                                 m.csvRow(200));
}

// ===================================================================
// ExitLedger.
// ===================================================================

TEST(ExitLedger, SlotsAreDenseAndChargesAccumulate)
{
    ExitLedger led;
    const LedgerSlot a = led.slot(1, 0, CostKind::Exit, 2);
    const LedgerSlot b = led.slot(1, 0, CostKind::Hypercall, 2);
    const LedgerSlot c = led.slot(2, 1, CostKind::GateLeg, 0);
    EXPECT_EQ(led.slot(1, 0, CostKind::Exit, 2), a); // stable
    EXPECT_NE(a, b); // same code, different kind
    EXPECT_NE(a, c);

    led.charge(a, 660);
    led.chargeN(b, 699, 3);
    led.observe(c, 42);
    led.observe(c, 42);

    EXPECT_EQ(led.rows().size(), 3u);
    EXPECT_EQ(led.totalEvents(), 6u);
    EXPECT_EQ(led.totalNs(), 660u + 3 * 699u + 2 * 42u);
    EXPECT_EQ(led.kindNs(CostKind::Exit), 660u);
    EXPECT_EQ(led.kindNs(CostKind::Hypercall), 3 * 699u);
    EXPECT_EQ(led.kindNs(CostKind::GateLeg), 84u);
    EXPECT_EQ(led.vmNs(1), 660u + 3 * 699u);
    EXPECT_EQ(led.vmNs(2), 84u);

    // Conservation: per-kind totals partition the grand total.
    EXPECT_EQ(led.kindNs(CostKind::Exit) +
                  led.kindNs(CostKind::Hypercall) +
                  led.kindNs(CostKind::GateLeg),
              led.totalNs());

    // observe() also feeds the duration histogram.
    EXPECT_EQ(led.rows()[c].durations.count(), 2u);
    EXPECT_EQ(led.rows()[c].durations.p50(), 42u);
}

TEST(ExitLedger, ReportIsDeterministicAndNamed)
{
    ExitLedger led;
    led.setCodeName(CostKind::Exit, 3, "cpuid");
    led.charge(led.slot(0, 0, CostKind::Exit, 3), 660);
    led.charge(led.slot(0, 0, CostKind::Exit, 9), 100);

    const std::string report = led.report();
    EXPECT_EQ(report, led.report());
    EXPECT_NE(report.find("cpuid"), std::string::npos);
    EXPECT_NE(report.find("9"), std::string::npos); // unnamed code
    EXPECT_NE(report.find("total[exit]"), std::string::npos);
    EXPECT_EQ(led.codeName(CostKind::Exit, 3), "cpuid");
    EXPECT_EQ(led.codeName(CostKind::Exit, 9), "");
}

TEST(ExitLedger, ClearKeepsRowsAndNames)
{
    ExitLedger led;
    led.setCodeName(CostKind::Hypercall, 0, "hc_nop");
    const LedgerSlot s = led.slot(0, 0, CostKind::Hypercall, 0);
    led.charge(s, 699);
    led.clear();
    EXPECT_EQ(led.totalNs(), 0u);
    EXPECT_EQ(led.totalEvents(), 0u);
    EXPECT_EQ(led.rows().size(), 1u); // row survives, zeroed
    EXPECT_EQ(led.slot(0, 0, CostKind::Hypercall, 0), s);
    EXPECT_EQ(led.codeName(CostKind::Hypercall, 0), "hc_nop");
}

TEST(ExitLedger, VcpuSlotsReResolveAcrossLedgers)
{
    // Every site billing a vCPU resolves its rows through the vCPU's
    // slot cache. Installing another ledger must re-resolve them:
    // after setLedger(&second), vmcall, cpuid, faulting-exit and
    // page-in charges land only in `second`.
    hv::Hypervisor hv(64 * MiB);
    hv::Pager &pager = hv.enablePaging();
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);
    cpu::Vcpu &cpu = vm.vcpu(0);
    cpu::GuestView view(cpu);
    Gpa fresh = 0;
    auto exercise = [&] {
        cpu.vmcall(cpu::HypercallArgs{}); // Nop
        cpu.cpuid(0);
        EXPECT_FALSE(vm.run(0, [&] { cpu.vmfunc(1, 0); }).ok);
        view.read<std::uint64_t>(fresh); // demand-zero page-in
        fresh += pageSize;
    };

    ExitLedger first, second;
    hv.setLedger(&first);
    exercise();
    const SimNs first_ns = first.totalNs();
    const std::uint64_t first_events = first.totalEvents();
    EXPECT_EQ(first_events, 5u); // hc, cpuid, vmfunc exit, EPT exit, page

    hv.setLedger(&second);
    exercise();
    EXPECT_EQ(first.totalNs(), first_ns);
    EXPECT_EQ(first.totalEvents(), first_events);
    EXPECT_EQ(second.totalEvents(), first_events);
    for (CostKind kind :
         {CostKind::Exit, CostKind::Hypercall, CostKind::Page})
        EXPECT_EQ(second.kindNs(kind), first.kindNs(kind));
}

// ===================================================================
// Engine periodic sampler.
// ===================================================================

/** Actor advancing a private clock by a fixed stride per step. */
class Stepper : public Actor
{
  public:
    Stepper(SimNs stride, unsigned steps)
        : stride(stride), remaining(steps)
    {
    }

    SimNs actorNow() const override { return now; }

    bool
    step() override
    {
        now += stride;
        return --remaining > 0;
    }

    SimNs now = 0;

  private:
    SimNs stride;
    unsigned remaining;
};

TEST(EngineSampler, FiresEveryBoundaryInOrder)
{
    Engine engine;
    Stepper fast(100, 50);   // finishes at 5000
    Stepper slow(700, 10);   // finishes at 7000
    engine.add(&fast);
    engine.add(&slow);

    std::vector<SimNs> ticks;
    engine.setSampler(1000, [&](SimNs t) { ticks.push_back(t); });
    engine.run();

    // Strictly increasing multiples of the period, no holes, covering
    // the span the minimum clock crossed.
    ASSERT_FALSE(ticks.empty());
    for (std::size_t i = 0; i < ticks.size(); ++i)
        EXPECT_EQ(ticks[i], 1000u * (i + 1));
    EXPECT_GE(ticks.back(), 5000u);
}

TEST(EngineSampler, SamplesMetricsConsistently)
{
    Metrics metrics;
    const MetricId ops = metrics.counter("ops");

    class Worker : public Actor
    {
      public:
        Worker(Metrics &m, MetricId id) : m(m), id(id) {}
        SimNs actorNow() const override { return now; }
        bool
        step() override
        {
            m.add(id);
            now += 250;
            return now < 4000;
        }

      private:
        Metrics &m;
        MetricId id;
        SimNs now = 0;
    };

    Worker w(metrics, ops);
    Engine engine;
    engine.add(&w);
    MetricsCsvSampler sampler(metrics);
    engine.setSampler(1000, [&](SimNs t) { sampler.sample(t); });
    engine.run();

    EXPECT_GE(sampler.rows(), 3u);
    // Header + monotone rows; the counter in the last row can't
    // exceed the final value.
    EXPECT_NE(sampler.csv().find("sim_ns,ops\n"), std::string::npos);
    EXPECT_EQ(metrics.counterValue(ops), 16u);
}

// ===================================================================
// The overhead budget: the ledger compiled in but not installed must
// cost BM_GateCall at most 2%. The gate body feeds the tracer and the
// ledger from one probe, so a call with neither installed pays the
// probe's null tests: two pointer tests computing its flag, then 13
// tests of the flag (constructor, ten leg-sequence points, finish,
// destructor). Measured in wall-clock time; grep-able line for CI.
// ===================================================================

TEST(MetricsOverhead, DisabledLedgerWithinBudget)
{
    hv::Hypervisor hv(256 * MiB);
    ElisaService svc(hv);
    hv::Vm &managerVm = hv.createVm("manager", 16 * MiB);
    hv::Vm &guestVm = hv.createVm("guest", 16 * MiB);
    ElisaManager manager(managerVm, svc);
    ElisaGuest guest(guestVm, svc);

    SharedFnTable fns;
    fns.push_back([](SubCallCtx &) { return std::uint64_t{42}; });
    ASSERT_TRUE(manager.exportObject(ExportKey("obj"), 4 * KiB, std::move(fns)));

    // Ledger OFF — the shipped default (setLedger was never called).
    Gate gate = guest.tryAttach(ExportKey("obj"), manager).take();
    gate.call(0); // warm

    using clock = std::chrono::steady_clock;
    constexpr int rounds = 5;
    constexpr std::uint64_t calls = 200000;

    // Disabled-ledger gate call, best-of-rounds (noise-robust).
    double call_ns = 1e9;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = clock::now();
        for (std::uint64_t i = 0; i < calls; ++i)
            gate.call(0);
        const auto dt = std::chrono::duration<double, std::nano>(
                            clock::now() - t0)
                            .count();
        call_ns = std::min(call_ns, dt / (double)calls);
    }

    // The disabled hook primitive: one pointer load + never-taken
    // branch. Measured as the delta between two identical loops, the
    // hooked one carrying 15 replicas per iteration (the probe's
    // per-call count, see above). The opaque call keeps the loads
    // from being hoisted, which overstates the real cost.
    struct Host
    {
        sim::ExitLedger *led = nullptr;
    } host;
    auto opaque = [](Host *h) {
        asm volatile("" : : "r"(h) : "memory");
    };
    constexpr std::uint64_t iters = 2000000;
    constexpr unsigned hooksPerCall = 15;
    std::uint64_t sink = 0;

    double base_ns = 1e9, hooked_ns = 1e9;
    for (int r = 0; r < rounds; ++r) {
        auto t0 = clock::now();
        for (std::uint64_t i = 0; i < iters; ++i)
            opaque(&host);
        const auto base = std::chrono::duration<double, std::nano>(
                              clock::now() - t0)
                              .count();
        base_ns = std::min(base_ns, base / (double)iters);

        t0 = clock::now();
        for (std::uint64_t i = 0; i < iters; ++i) {
            opaque(&host);
            for (unsigned h = 0; h < hooksPerCall; ++h) {
                if (host.led != nullptr)
                    ++sink;
            }
        }
        const auto hooked = std::chrono::duration<double, std::nano>(
                                clock::now() - t0)
                                .count();
        hooked_ns = std::min(hooked_ns, hooked / (double)iters);
    }
    asm volatile("" : : "r"(sink));

    const double hook_cost =
        hooked_ns > base_ns ? hooked_ns - base_ns : 0.0;
    const double overhead_pct = hook_cost / call_ns * 100.0;

    // Grep-able by the CI workflow.
    std::printf("[metrics-overhead] gate_call=%.1fns "
                "disabled_hooks=%u hook_cost=%.2fns overhead=%.2f%% "
                "budget=2%%\n",
                call_ns, hooksPerCall, hook_cost, overhead_pct);
    EXPECT_LE(overhead_pct, 2.0);
}

} // anonymous namespace
