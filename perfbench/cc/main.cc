/**
 * @file
 * perfbench: runs one seeded workload of the ELISA simulator through
 * its public APIs, checks every output against the benchmark's own
 * oracles and prints the end-to-end metrics (or, with --trace 1, the
 * per-layer metrics from the benchmark's spans).
 *
 *   perfbench --workload W --inputs FILE --selftest-inputs FILE
 *             --reps N --trace 0|1
 *
 * A run first self-tests the workload on the tiny inputs, then repeats
 * it N times on fresh machines. Each repetition times its set-up, then
 * the timed window: a fixed number of fixed-length simulated slices,
 * one Engine::run(horizon) each, timed from outside and followed by a
 * host-speed probe (see HostCost). Because the simulated work per
 * repetition is fixed, every repetition must produce the same
 * sim_fingerprint. With --trace 1, odd repetitions record spans and
 * even ones do not, so the tracing overhead is measured in the same
 * process; the spans are written next to the inputs file.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed and metrics.
 */

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "workload.hh"

namespace
{

using namespace perfbench;
using Clock = std::chrono::steady_clock;

const char *const workloadNames[] = {"kvs-gate", "net-rx-observed",
                                     "scale-pings", "overcommit-touch"};

std::unique_ptr<Workload>
make(const std::string &name, const Inputs &in, bool sabotage)
{
    if (name == "kvs-gate")
        return makeKvsGate(in, sabotage);
    if (name == "net-rx-observed")
        return makeNetRx(in, sabotage);
    if (name == "scale-pings")
        return makeScalePings(in, sabotage);
    if (name == "overcommit-touch")
        return makeOvercommit(in, sabotage);
    return nullptr;
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** CPU time of all threads, with ns resolution. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Reset the process's peak resident memory (VmHWM) to its current RSS. */
void
resetPeakRss()
{
    std::ofstream refs("/proc/self/clear_refs");
    refs << "5";
    refs.flush();
    if (!refs) {
        std::fprintf(stderr, "perfbench: cannot reset the peak RSS through "
                             "/proc/self/clear_refs\n");
        std::exit(1);
    }
}

/** Peak resident memory (VmHWM) since the last resetPeakRss(). */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 12, '\n');
    }
    std::fprintf(stderr, "perfbench: no VmHWM in /proc/self/status\n");
    std::exit(1);
}

double
currentRssMib()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

/** Nearest-rank quantile of @p v (sorted copy); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** Nearest-rank quantile over a value -> count map. */
double
quantile(const std::map<SimNs, std::uint64_t> &hist, double q)
{
    std::uint64_t total = 0;
    for (const auto &[v, n] : hist)
        total += n;
    if (total == 0)
        return 0.0;
    std::uint64_t rank = std::uint64_t(std::ceil(q * double(total)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (const auto &[v, n] : hist) {
        seen += n;
        if (seen >= rank)
            return double(v);
    }
    return double(hist.rbegin()->first);
}

/**
 * A fixed unit of host work in two parts: dependent pseudo-random loads
 * and stores over a 1 MiB buffer mixed with integer hashing (about a
 * quarter of the time on the tuning host), then a pointer chase through
 * a 64 MiB random cycle, with the cache and TLB misses the large-memory
 * workloads take (about three quarters). Timed right after each slice,
 * it measures how fast the shared host ran at that moment; a slice's
 * host time scaled by probeRefNs / probe time is its time on a host
 * where the probe takes probeRefNs. Over ten-seed runs of all four
 * workloads this mix tracked the host's slow phases better than either
 * part alone or an even split.
 */
class Probe
{
  public:
    Probe()
    {
        // One random cycle through every entry of next.
        std::vector<std::uint32_t> order(next.size());
        for (std::uint32_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::uint64_t x = 7;
        for (std::size_t i = order.size() - 1; i > 0; --i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            std::swap(order[i], order[(x >> 33) % (i + 1)]);
        }
        for (std::size_t i = 0; i < order.size(); ++i)
            next[order[i]] = order[(i + 1) % order.size()];
    }

    /** Host ns of one probe. */
    double
    run()
    {
        hash(); // the slice before evicted the buffer: warm it first
        const auto t0 = Clock::now();
        hash();
        std::uint32_t c = cursor;
        for (unsigned i = 0; i < 448; ++i)
            c = next[c];
        cursor = c;
        return std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count();
    }

    /** Bytes of the probe's buffers, resident for the whole run. */
    std::size_t
    bytes() const
    {
        return buf.size() * sizeof(buf[0]) + next.size() * sizeof(next[0]);
    }

  private:
    void
    hash()
    {
        std::uint64_t x = seed;
        for (unsigned i = 0; i < 512; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            std::uint64_t &slot = buf[(x >> 33) & (buf.size() - 1)];
            slot += x;
            x ^= slot >> 7;
        }
        seed = x;
    }

    std::vector<std::uint64_t> buf = std::vector<std::uint64_t>(1 << 17);
    std::uint64_t seed = 1;
    std::vector<std::uint32_t> next = std::vector<std::uint32_t>(1 << 24);
    std::uint32_t cursor = 0;
};

/** The probe timed after every slice, and its reference time. */
Probe probe;
constexpr double probeRefNs = 200'000;

/** Median of five probe runs. */
double
probeNow()
{
    std::vector<double> ns;
    for (int i = 0; i < 5; ++i)
        ns.push_back(probe.run());
    std::sort(ns.begin(), ns.end());
    return ns[2];
}

/** One repetition: set-up, the timed window, the final oracles. */
struct Rep
{
    bool traced = false;
    double setupS = 0;
    double setupCpuS = 0;
    double setupProbeNs = 0; ///< probe time around set-up (see runRep)
    double windowS = 0;
    double rssAfterSetupMib = 0;
    double peakRssMib = 0; ///< peak RSS of this repetition alone
    std::vector<double> sliceS;         ///< host seconds per slice
    std::vector<double> sliceCpuS;      ///< process CPU seconds per slice
    std::vector<std::uint64_t> sliceOps; ///< simulated ops per slice
    std::vector<double> probeNs;        ///< probe time after each slice
    Outcome out;

    /** CPU seconds of set-up and slices (probes excluded). */
    double
    cpuS() const
    {
        double s = setupCpuS;
        for (double c : sliceCpuS)
            s += c;
        return s;
    }
};

Rep
runRep(const std::string &name, const Inputs &in, bool traced,
       bool sabotage, bool sliced)
{
    Rep rep;
    rep.traced = traced;
    const std::uint64_t slices = in.param("slices");
    const SimNs slice = in.param("slice_ns");

    const double probeBefore = probeNow();
    resetPeakRss();
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    std::unique_ptr<Workload> w = make(name, in, sabotage);
    w->setup();
    elisa::sim::Engine &engine = w->engine();
    const SimNs start = w->startWindow();
    rep.setupS = seconds(Clock::now() - t0);
    rep.setupCpuS = processCpuSeconds() - cpu0;
    // Host speed during set-up: the mean of the probes before and after.
    rep.setupProbeNs = (probeBefore + probeNow()) / 2;
    // The probe's buffers are the benchmark's memory, not the workload's.
    const double probeMib = double(probe.bytes()) / (1024.0 * 1024.0);
    rep.rssAfterSetupMib = currentRssMib() - probeMib;

    if (sliced) {
        for (std::uint64_t k = 1; k <= slices; ++k) {
            const std::uint64_t ops0 = w->opsDone();
            const double cpuStart = processCpuSeconds();
            const auto ts = Clock::now();
            {
                Span span(Sp::EngineRun);
                engine.run(start + k * slice);
            }
            const double dt = seconds(Clock::now() - ts);
            rep.sliceCpuS.push_back(processCpuSeconds() - cpuStart);
            rep.windowS += dt;
            rep.sliceS.push_back(dt);
            rep.sliceOps.push_back(w->opsDone() - ops0);
            rep.probeNs.push_back(probe.run());
        }
    } else {
        const auto ts = Clock::now();
        {
            Span span(Sp::EngineRun);
            engine.run(start + slices * slice);
        }
        rep.windowS = seconds(Clock::now() - ts);
    }
    w->finish(rep.out);
    rep.peakRssMib = peakRssMib() - probeMib;
    return rep;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx", (unsigned long long)v);
    return buf;
}

/**
 * Self-test at the tiny size in @p path: slicing must not change the
 * simulation, and each oracle must flag a deliberately wrong
 * expectation.
 */
bool
selfTest(const std::string &name, const std::string &path)
{
    const Inputs tiny = Inputs::load(path);
    const Rep sliced = runRep(name, tiny, false, false, true);
    const Rep whole = runRep(name, tiny, false, false, false);
    const Rep wrong = runRep(name, tiny, false, true, true);
    const bool same = sliced.out.fingerprint == whole.out.fingerprint;
    const bool clean = sliced.out.failed == 0 && whole.out.failed == 0;
    const bool flagged = wrong.out.failed > 0;
    std::printf("[selftest] %s: sliced %s vs unsliced %s: %s; clean "
                "oracles: %s; sabotaged oracle flagged %llu failure(s): "
                "%s\n",
                name.c_str(), hex(sliced.out.fingerprint).c_str(),
                hex(whole.out.fingerprint).c_str(),
                same ? "same" : "DIFFERENT", clean ? "yes" : "NO",
                (unsigned long long)wrong.out.failed,
                flagged ? "ok" : "NOT FLAGGED");
    for (const auto &why : sliced.out.failures)
        std::printf("[selftest]   clean-run failure: %s\n", why.c_str());
    return same && clean && flagged;
}

/** Probe scale per slice: reference time over the rolling median probe. */
std::vector<double>
probeScales(const Rep &rep)
{
    constexpr std::size_t half = 25; // +-25 slices: shrugs off one slow probe
    const std::vector<double> &p = rep.probeNs;
    std::vector<double> scale(p.size());
    for (std::size_t k = 0; k < p.size(); ++k) {
        const std::size_t lo = k < half ? 0 : k - half;
        const std::size_t hi = std::min(p.size(), k + half + 1);
        scale[k] = probeRefNs /
                   quantile(std::vector<double>(p.begin() + lo, p.begin() + hi),
                            0.5);
    }
    return scale;
}

/**
 * Host cost of the timed window over a set of repetitions, in units of
 * a reference host: one on which the probe takes probeRefNs.
 *
 * The host is shared, and other tenants change how fast it runs for
 * tens of seconds at a time, in ways a plain median over repetitions
 * does not remove. Two things make the estimate steady. Each slice's
 * host time is scaled to the reference speed by the probe timed next
 * to it. And because every repetition simulates the same slices, each
 * slice is taken from the repetition in which it ran least disturbed.
 * The number of repetitions is fixed by --reps, so the minimum is over
 * the same number of samples however fast set-up is.
 */
struct HostCost
{
    double kops = 0; ///< simulated kops per reference host second
    double p50 = 0;  ///< reference host ns per op, over slices
    double p99 = 0;
    double cpuS = 0; ///< set-up CPU (median) + window CPU, both scaled
    std::size_t slices = 0;

    explicit HostCost(const std::vector<const Rep *> &reps)
    {
        if (reps.empty() || reps.front()->sliceS.empty())
            return;
        slices = reps.front()->sliceS.size();
        std::vector<double> best(slices, 0.0), bestCpu(slices, 0.0), setupCpu;
        bool first = true;
        for (const Rep *r : reps) {
            const std::vector<double> scale = probeScales(*r);
            for (std::size_t k = 0; k < slices; ++k) {
                const double t = r->sliceS[k] * scale[k];
                const double c = r->sliceCpuS[k] * scale[k];
                best[k] = first ? t : std::min(best[k], t);
                bestCpu[k] = first ? c : std::min(bestCpu[k], c);
            }
            first = false;
            setupCpu.push_back(r->setupCpuS * probeRefNs / r->setupProbeNs);
        }
        const std::vector<std::uint64_t> &ops = reps.front()->sliceOps;
        double total = 0, totalOps = 0;
        cpuS = quantile(setupCpu, 0.5);
        std::vector<double> perOp;
        for (std::size_t k = 0; k < slices; ++k) {
            total += best[k];
            cpuS += bestCpu[k];
            totalOps += double(ops[k]);
            if (ops[k] != 0)
                perOp.push_back(best[k] * 1e9 / double(ops[k]));
        }
        kops = total == 0 ? 0 : totalOps / total / 1e3;
        p50 = quantile(perOp, 0.5);
        p99 = quantile(perOp, 0.99);
    }
};

/** A per-layer metric, the end-to-end metric it should move and where. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *moves;     ///< end-to-end metric(s) it should move
    const char *workloads; ///< where it should move them
    bool inJson;           ///< measured on every workload
};

const LayerMetric layerMetrics[] = {
    // hv/mem set-up.
    {"hv.hypervisor_ctor_s", "s", "setup_s, peak_rss_mib, host_cpu_s",
     "all, most on scale-pings", true},
    {"hv.create_vm_us_p50", "us", "setup_s", "all, most on scale-pings",
     true},
    {"mem.rss_after_setup_mib", "MiB", "peak_rss_mib, setup_s", "all",
     true},
    {"elisa.export_attach_ms_p50", "ms", "setup_s",
     "kvs-gate, net-rx-observed, overcommit-touch", false},
    {"kvs.prepopulate_s", "s", "setup_s", "kvs-gate", false},
    // kvs.
    {"kvs.get_host_ns_p50", "ns", "sim_kops_per_host_s, host_ns_per_op_p50",
     "kvs-gate", false},
    {"kvs.get_host_ns_p99", "ns", "sim_kops_per_host_s, host_ns_per_op_p99",
     "kvs-gate", false},
    {"kvs.put_host_ns_p50", "ns", "sim_kops_per_host_s, host_ns_per_op_p50",
     "kvs-gate", false},
    {"kvs.put_host_ns_p99", "ns", "sim_kops_per_host_s, host_ns_per_op_p99",
     "kvs-gate", false},
    {"kvs.put_excess_sim_ns", "ns", "sim_op_p99_ns", "kvs-gate", false},
    // elisa/cpu/ept.
    {"elisa.calls_per_op", "count", "host_ns_per_op_p50",
     "kvs-gate, overcommit-touch", true},
    {"cpu.vmfuncs_per_op", "count", "host_ns_per_op_p50",
     "kvs-gate, overcommit-touch", true},
    {"cpu.vmexits_per_op", "count", "host_ns_per_op_p50",
     "scale-pings, overcommit-touch", true},
    {"ept.walks_per_op", "count", "host_ns_per_op_p50",
     "kvs-gate, overcommit-touch", true},
    {"cpu.l0_hit_ratio", "fraction", "host_ns_per_op_p50",
     "kvs-gate, overcommit-touch", true},
    {"ept.tlb_hit_ratio", "fraction", "host_ns_per_op_p50",
     "kvs-gate, overcommit-touch", true},
    // net.
    {"net.deliver_host_ns_p50", "ns", "sim_kops_per_host_s",
     "net-rx-observed", false},
    {"net.deliver_host_ns_p99", "ns",
     "sim_kops_per_host_s, host_ns_per_op_p99", "net-rx-observed", false},
    {"net.guest_rx_host_ns_p50.elisa", "ns", "sim_kops_per_host_s",
     "net-rx-observed", false},
    {"net.guest_rx_host_ns_p50.vmcall", "ns", "sim_kops_per_host_s",
     "net-rx-observed", false},
    // sim instrumentation.
    {"sim.tracer_events_per_op", "count",
     "sim_kops_per_host_s, host_ns_per_op_p99", "net-rx-observed", true},
    {"sim.ledger_rows", "count", "sim_kops_per_host_s, host_ns_per_op_p99",
     "net-rx-observed", true},
    {"sim.sampler_host_us_p50", "us",
     "sim_kops_per_host_s, host_ns_per_op_p99", "net-rx-observed", false},
    // hv/guest telemetry.
    {"hv.telemetry_publish_host_us_p50", "us",
     "sim_kops_per_host_s, host_ns_per_op_p99", "net-rx-observed", false},
    {"hv.snapshot_bytes", "bytes", "sim_scrape_ns, sim_kops_per_host_s",
     "net-rx-observed", true},
    {"guest.scrape_host_us_p50", "us",
     "sim_kops_per_host_s, host_ns_per_op_p99", "net-rx-observed", false},
    {"guest.scrape_gate_calls", "count", "sim_scrape_ns",
     "net-rx-observed", true},
    {"guest.scrape_retries", "count", "sim_scrape_ns", "net-rx-observed",
     true},
    // sim engine.
    {"sim.engine_run_host_s", "s", "sim_kops_per_host_s, host_cpu_s",
     "scale-pings; flat on kvs-gate", true},
    {"sim.actor_step_host_s", "s", "sim_kops_per_host_s, host_cpu_s",
     "scale-pings; flat on kvs-gate", true},
    {"sim.engine_useful_frac", "fraction", "sim_kops_per_host_s",
     "scale-pings", true},
    {"sim.posts", "count", "sim_kops_per_host_s", "scale-pings", true},
    {"sim.delivered", "count", "sim_kops_per_host_s", "scale-pings", true},
    {"hv.vmcall_host_ns_p50", "ns", "host_ns_per_op_p50", "scale-pings",
     false},
    {"hv.vmcall_host_ns_p99", "ns", "sim_kops_per_host_s, host_ns_per_op_p99",
     "scale-pings", false},
    // hv paging.
    {"hv.pager_faults_per_kop", "count",
     "host_cpu_s, host_ns_per_op_p99, sim_op_p99_ns", "overcommit-touch",
     true},
    {"hv.swap_ins", "count", "host_cpu_s, sim_op_p99_ns",
     "overcommit-touch", true},
    {"hv.swap_outs", "count", "host_cpu_s", "overcommit-touch", true},
    {"hv.zero_fills", "count", "host_cpu_s", "overcommit-touch", true},
    {"hv.fault_touch_host_us_p50", "us", "host_cpu_s, host_ns_per_op_p99",
     "overcommit-touch", false},
    {"hv.fault_touch_host_us_p99", "us", "host_cpu_s, host_ns_per_op_p99",
     "overcommit-touch", false},
    {"cpu.touch_host_ns_p50", "ns", "host_ns_per_op_p50",
     "overcommit-touch", false},
};

/** Layers whose self time the spans measure, and their share. */
const char *const spannedLayers[] = {"hv",  "elisa", "cpu", "sim",
                                     "kvs", "net",   "guest"};

/** Compute every per-layer metric from the spans and traced reps. */
std::map<std::string, double>
layerValues(const std::vector<const Rep *> &traced, unsigned threads)
{
    SpanRecorder &rec = SpanRecorder::instance();
    const double reps = double(traced.size());
    const auto agg = [&rec](Sp sp) { return rec.aggregate(sp); };
    const auto q = [&agg](Sp sp, double p, double scale) {
        return agg(sp).hist.quantile(p) / scale;
    };
    const auto perRep = [&](Sp sp) {
        return double(agg(sp).totalNs) / 1e9 / reps;
    };

    std::map<std::string, double> v;
    v["hv.hypervisor_ctor_s"] = perRep(Sp::HypervisorCtor);
    v["hv.create_vm_us_p50"] = q(Sp::CreateVm, 0.5, 1e3);
    std::vector<double> rss;
    for (const Rep *r : traced)
        rss.push_back(r->rssAfterSetupMib);
    v["mem.rss_after_setup_mib"] = quantile(rss, 0.5);
    v["elisa.export_attach_ms_p50"] = q(Sp::ExportAttach, 0.5, 1e6);
    v["kvs.prepopulate_s"] = perRep(Sp::Prepopulate);
    v["kvs.get_host_ns_p50"] = q(Sp::KvsGet, 0.5, 1);
    v["kvs.get_host_ns_p99"] = q(Sp::KvsGet, 0.99, 1);
    v["kvs.put_host_ns_p50"] = q(Sp::KvsPut, 0.5, 1);
    v["kvs.put_host_ns_p99"] = q(Sp::KvsPut, 0.99, 1);
    v["net.deliver_host_ns_p50"] = q(Sp::NetDeliver, 0.5, 1);
    v["net.deliver_host_ns_p99"] = q(Sp::NetDeliver, 0.99, 1);
    v["net.guest_rx_host_ns_p50.elisa"] = q(Sp::NetRxElisa, 0.5, 1);
    v["net.guest_rx_host_ns_p50.vmcall"] = q(Sp::NetRxVmcall, 0.5, 1);
    v["sim.sampler_host_us_p50"] = q(Sp::Sampler, 0.5, 1e3);
    v["hv.telemetry_publish_host_us_p50"] = q(Sp::Publish, 0.5, 1e3);
    v["guest.scrape_host_us_p50"] = q(Sp::Scrape, 0.5, 1e3);
    v["sim.engine_run_host_s"] = perRep(Sp::EngineRun);
    v["sim.actor_step_host_s"] = perRep(Sp::ActorStep);
    const double run_s = v["sim.engine_run_host_s"];
    v["sim.engine_useful_frac"] =
        run_s == 0 ? 0.0
                   : v["sim.actor_step_host_s"] / (double(threads) * run_s);
    v["hv.vmcall_host_ns_p50"] = q(Sp::Vmcall, 0.5, 1);
    v["hv.vmcall_host_ns_p99"] = q(Sp::Vmcall, 0.99, 1);
    v["hv.fault_touch_host_us_p50"] = q(Sp::FaultTouch, 0.5, 1e3);
    v["hv.fault_touch_host_us_p99"] = q(Sp::FaultTouch, 0.99, 1e3);
    LogHist touches = agg(Sp::GateTouch).hist;
    touches.merge(agg(Sp::MapTouch).hist);
    v["cpu.touch_host_ns_p50"] = touches.quantile(0.5);

    // Deterministic counts: identical in every rep, take the first.
    for (const auto &[name, value] : traced.front()->out.layer)
        v[name] = value;

    // Self time per layer, as a share of all spanned self time.
    std::map<std::string, double> self;
    double all = 0;
    for (unsigned s = 0; s < unsigned(Sp::Count); ++s) {
        const double ns = double(agg(Sp(s)).selfNs);
        self[spanLayer(Sp(s))] += ns;
        all += ns;
    }
    for (const char *layer : spannedLayers)
        v[std::string(layer) + ".self_frac"] =
            all == 0 ? 0.0 : self[layer] / all;
    return v;
}

void
jsonMetric(std::string &out, bool &first, const std::string &name,
           double value, const char *unit)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit);
    out += buf;
    first = false;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{kvs-gate|net-rx-observed|scale-pings|overcommit-touch}"
                 " --inputs FILE --selftest-inputs FILE --reps N "
                 "--trace 0|1\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name, inputs, selftestInputs;
    int reps = 0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        if (arg == "--workload")
            name = val;
        else if (arg == "--inputs")
            inputs = val;
        else if (arg == "--reps")
            reps = std::atoi(val.c_str());
        else if (arg == "--trace")
            trace = val == "1" ? 1 : val == "0" ? 0 : -1;
        else if (arg == "--selftest-inputs")
            selftestInputs = val;
        else
            usage(("unknown flag " + arg).c_str());
    }
    if (std::find(std::begin(workloadNames), std::end(workloadNames),
                  name) == std::end(workloadNames))
        usage("unknown workload");
    if (inputs.empty() || selftestInputs.empty() || reps < 1 || trace < 0)
        usage("--inputs, --selftest-inputs, --reps >= 1 and --trace 0|1 "
              "are required");
    if (trace && reps < 2)
        usage("--trace 1 needs --reps >= 2");
    elisa::setQuiet(true);

    bool correct = selfTest(name, selftestInputs);

    const Inputs in = Inputs::load(inputs);
    const unsigned threads = unsigned(in.param("threads"));
    const std::uint64_t slices = in.param("slices");
    const SimNs slice = in.param("slice_ns");

    // With tracing, alternate untraced (even) and traced (odd)
    // repetitions.
    std::vector<Rep> runs;
    SpanRecorder &rec = SpanRecorder::instance();
    for (int i = 0; i < reps; ++i) {
        const bool traced = trace && i % 2 == 1;
        rec.enable(traced);
        runs.push_back(runRep(name, in, traced, false, true));
        rec.enable(false);
    }

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Rep &r = runs[i];
        std::printf("[rep] %zu%s setup %.4f s (probe %.0f ns), window "
                    "%.4f s, %.6g kops/s, cpu %.4f s, peak rss %.1f MiB, "
                    "probe p50 %.0f ns\n",
                    i, r.traced ? " traced" : "", r.setupS, r.setupProbeNs,
                    r.windowS,
                    r.windowS == 0 ? 0.0
                                   : double(r.out.ops) / r.windowS / 1e3,
                    r.cpuS(), r.peakRssMib, quantile(r.probeNs, 0.5));
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const Rep &r : runs) {
        attempted += r.out.attempted;
        failed += r.out.failed;
        if (r.out.fingerprint != runs.front().out.fingerprint) {
            correct = false;
            std::printf("[check] sim_fingerprint differs between "
                        "repetitions (%s vs %s%s)\n",
                        hex(runs.front().out.fingerprint).c_str(),
                        hex(r.out.fingerprint).c_str(),
                        r.traced ? ", traced" : "");
        }
    }
    for (const auto &why : runs.front().out.failures)
        std::printf("[check] failure: %s\n", why.c_str());

    const Outcome &first = runs.front().out;
    std::vector<const Rep *> plain, traced;
    for (const Rep &r : runs)
        (r.traced ? traced : plain).push_back(&r);

    // ---- end-to-end metrics (untraced repetitions) -------------------
    // Host costs of the window come from HostCost; set-up time is the
    // median over repetitions, scaled by the probes around set-up. The
    // plain medians over repetitions are printed in brackets for
    // comparison.
    const HostCost cost(plain);
    std::vector<double> setup, rawSetup, rawCpu, rawKops, rawP50, rawP99,
        peakRss;
    for (const Rep *r : plain) {
        std::vector<double> perOp;
        for (std::size_t k = 0; k < r->sliceS.size(); ++k)
            if (r->sliceOps[k] != 0)
                perOp.push_back(r->sliceS[k] * 1e9 / double(r->sliceOps[k]));
        setup.push_back(r->setupS * probeRefNs / r->setupProbeNs);
        rawSetup.push_back(r->setupS);
        peakRss.push_back(r->peakRssMib);
        rawCpu.push_back(r->cpuS());
        rawKops.push_back(r->windowS == 0 ? 0.0
                                          : double(r->out.ops) / r->windowS /
                                                1e3);
        rawP50.push_back(quantile(perOp, 0.5));
        rawP99.push_back(quantile(perOp, 0.99));
    }
    const double simWindowNs = double(slices) * double(slice);
    struct E2e
    {
        const char *name;
        double value;
        double raw;
        const char *unit;
        bool inJson; ///< steady enough to gate (perfbench/README.md)
    };
    const std::vector<E2e> e2e = {
        // Reference-host seconds, like host_cpu_s; the unit stays "s".
        {"setup_s", quantile(setup, 0.5), quantile(rawSetup, 0.5), "s",
         true},
        {"sim_kops_per_host_s", cost.kops, quantile(rawKops, 0.5),
         "kops/ref_s", true},
        {"host_ns_per_op_p50", cost.p50, quantile(rawP50, 0.5), "ref_ns",
         true},
        {"host_ns_per_op_p99", cost.p99, quantile(rawP99, 0.5), "ref_ns",
         false},
        {"host_cpu_s", cost.cpuS, quantile(rawCpu, 0.5), "ref_s", true},
        {"peak_rss_mib", quantile(peakRss, 0.5), quantile(peakRss, 0.5),
         "MiB", true},
    };

    std::printf("[e2e] workload %s: %llu sim ops per repetition over "
                "%.3f sim ms, engine threads %u\n",
                name.c_str(), (unsigned long long)first.ops,
                simWindowNs / 1e6, threads);
    std::printf("[e2e] %zu untraced repetitions; ref_ units: host times "
                "scaled to a host on which the probe takes %.0f ns, "
                "least-disturbed repetition per slice; percentiles over "
                "%zu slices of %llu sim ns; [plain median over repetitions, "
                "measured host units]\n",
                plain.size(), probeRefNs, cost.slices,
                (unsigned long long)slice);
    for (const E2e &m : e2e)
        std::printf("[e2e] %-22s %14.6g %-7s [%.6g]%s\n", m.name, m.value,
                    m.unit, m.raw, m.inJson ? "" : " (not in the JSON)");
    std::printf("[e2e] %-22s %14.6g %-7s (ops_failed %llu / "
                "ops_attempted %llu)\n",
                "ops_failed_frac",
                attempted == 0 ? 0.0 : double(failed) / double(attempted),
                "", (unsigned long long)failed,
                (unsigned long long)attempted);
    std::printf("[e2e] %-22s %14.6g %-7s (deterministic)\n", "sim_mops",
                double(first.ops) * 1e3 / simWindowNs, "Mops");
    std::printf("[e2e] %-22s %14.6g %-7s (deterministic)\n",
                "sim_op_p50_ns", quantile(first.simLatency, 0.5), "ns");
    std::printf("[e2e] %-22s %14.6g %-7s (deterministic)\n",
                "sim_op_p99_ns", quantile(first.simLatency, 0.99), "ns");
    if (!first.scrapeNs.empty()) {
        std::vector<double> scrape(first.scrapeNs.begin(),
                                   first.scrapeNs.end());
        std::printf("[e2e] %-22s %14.6g %-7s (median of %zu scrapes)\n",
                    "sim_scrape_ns", quantile(scrape, 0.5), "ns",
                    scrape.size());
    }
    std::printf("[e2e] sim_fingerprint %s (%zu repetitions%s)\n",
                hex(first.fingerprint).c_str(), runs.size(),
                traced.empty() ? "" : ", traced and untraced");
    for (const auto &line : first.lines)
        std::printf("%s\n", line.c_str());

    std::string json;
    bool firstMetric = true;
    if (!trace) {
        for (const E2e &m : e2e)
            if (m.inJson)
                jsonMetric(json, firstMetric, m.name, m.value, m.unit);
    } else {
        const std::map<std::string, double> v = layerValues(traced, threads);
        std::printf("[layer] %-34s %14s %-8s %s\n", "metric", "value",
                    "unit", "should move (on workload)");
        for (const LayerMetric &m : layerMetrics) {
            auto it = v.find(m.name);
            const double value = it == v.end() ? 0.0 : it->second;
            // Host times of calls this workload does not make are left
            // out; every JSON metric is printed.
            const std::string where = m.workloads;
            if (m.inJson || where.find(name) != std::string::npos)
                std::printf("[layer] %-34s %14.6g %-8s %s (%s)\n", m.name,
                            value, m.unit, m.moves, m.workloads);
            if (m.inJson)
                jsonMetric(json, firstMetric, m.name, value, m.unit);
        }
        for (const char *layer : spannedLayers) {
            const std::string key = std::string(layer) + ".self_frac";
            std::printf("[layer] %-34s %14.6g %-8s share of spanned self "
                        "time\n",
                        key.c_str(), v.at(key), "fraction");
            jsonMetric(json, firstMetric, key, v.at(key), "fraction");
        }
        const double tracedKops = HostCost(traced).kops;
        const double plainKops = cost.kops;
        std::printf("[trace-overhead] sim_kops_per_host_s traced %.6g - "
                    "untraced %.6g = %.6g kops/s (%+.1f%%), %llu spans\n",
                    tracedKops, plainKops, tracedKops - plainKops,
                    plainKops == 0 ? 0.0
                                   : (tracedKops - plainKops) / plainKops *
                                         100.0,
                    (unsigned long long)rec.recorded());
        const std::string spansOut =
            inputs.substr(0, inputs.find_last_of('/') + 1) + "spans-" + name +
            ".csv";
        if (!rec.writeCsv(spansOut))
            std::printf("[trace] could not write %s\n", spansOut.c_str());
    }

    correct = correct && failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed, json.c_str());
    return 0;
}
