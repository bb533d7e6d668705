/**
 * @file
 * The benchmark's own in-memory span recorder.
 *
 * Spans are taken by the benchmark around its calls into each layer
 * of the simulator (never inside it). Each span has a name, a start
 * and end on the host steady clock, the span that was open on the
 * same thread when it began (its parent) and a request id shared by
 * the spans of one simulated operation. The recorder keeps a bounded
 * prefix of the raw spans per thread for the write-out at exit and
 * folds every span into per-name aggregates: count, total time, self
 * time (duration minus the time covered by child spans) and a
 * log-bucketed duration histogram.
 *
 * While recording is off a Span costs one atomic load.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Span names; the layer is the text before the first '.'. */
enum class Sp : std::uint16_t
{
    HypervisorCtor, ///< hv.hypervisor_ctor: machine + HostMemory
    CreateVm,       ///< hv.create_vm
    ExportAttach,   ///< elisa.export_attach: one export or one attach
    Prepopulate,    ///< kvs.prepopulate
    EngineRun,      ///< sim.engine_run: one Engine::run(horizon) slice
    ActorStep,      ///< sim.actor_step: one closed-loop client op
    Sampler,        ///< sim.sampler: one engine sampler callback
    KvsGet,         ///< kvs.get
    KvsPut,         ///< kvs.put
    NetDeliver,     ///< net.deliver: NetPath::hostDeliverRx
    NetRxElisa,     ///< net.guest_rx.elisa: ElisaPath::guestRx
    NetRxVmcall,    ///< net.guest_rx.vmcall: VmcallPath::guestRx
    Publish,        ///< hv.telemetry_publish
    Scrape,         ///< guest.scrape: MonitorGuest::scrape
    Vmcall,         ///< hv.vmcall: Vcpu::vmcall(Nop)
    GateTouch,      ///< elisa.touch: gate call into the paged object
    MapTouch,       ///< cpu.touch: GuestView access via the ivshmem map
    FaultTouch,     ///< hv.fault_touch: a touch that took a page fault
    Count
};

/** Full span name, e.g. "kvs.get". */
const char *spanName(Sp sp);

/** Layer of a span name, e.g. "kvs". */
std::string spanLayer(Sp sp);

/** Log-linear histogram of non-negative integers (~3 % buckets). */
class LogHist
{
  public:
    void record(std::uint64_t v);
    void merge(const LogHist &other);

    /** Value at quantile @p q in [0, 1] (bucket midpoint); 0 if empty. */
    double quantile(double q) const;

  private:
    static constexpr unsigned subBits = 5;
    static constexpr unsigned linear = 64;
    static constexpr unsigned buckets = linear + (64 - 6) * (1u << subBits);

    static unsigned bucketOf(std::uint64_t v);
    static double midpoint(unsigned bucket);

    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
};

/** Per-name aggregate over every span of one name. */
struct SpanAgg
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
    LogHist hist;
};

/**
 * The process-wide recorder. It lives until static destruction, so a
 * thread's buffer lease (released when the thread exits; the engine
 * starts fresh worker threads on every run) never outlives it.
 */
class SpanRecorder
{
  public:
    static SpanRecorder &instance();

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Start or stop recording. */
    void
    enable(bool on)
    {
        enabled.store(on, std::memory_order_release);
    }

    /** The recorder when recording, else nullptr. */
    static SpanRecorder *
    active()
    {
        SpanRecorder &r = instance();
        return r.enabled.load(std::memory_order_acquire) ? &r : nullptr;
    }

    /**
     * Aggregate of @p sp merged over all threads. Call only while no
     * span is open (between engine runs).
     */
    SpanAgg aggregate(Sp sp) const;

    /** Write the kept raw spans as CSV; false when it cannot. */
    bool writeCsv(const std::string &path) const;

    /** Spans recorded in total (kept or not). */
    std::uint64_t recorded() const;

  private:
    friend class Span;
    friend struct ThreadLease;

    /** Raw spans kept per buffer for the write-out. */
    static constexpr std::size_t keepPerThread = 1u << 16;

    SpanRecorder();

    struct Record
    {
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::uint64_t request = 0;
        std::int32_t parent = -1;
        Sp name = Sp::Count;
    };

    struct Open
    {
        std::int64_t startNs;
        std::int64_t childNs;
        std::uint64_t request;
        std::int32_t kept;
        Sp name;
    };

    struct ThreadBuf
    {
        std::atomic<bool> leased{false};
        std::uint32_t tid = 0;
        std::vector<Record> kept;
        std::vector<Open> stack;
        std::array<SpanAgg, std::size_t(Sp::Count)> aggs;
    };

    /** This thread's buffer, leased on first use. */
    ThreadBuf *threadBuf();

    std::int64_t nowNs() const;

    std::atomic<bool> enabled{false};
    const std::int64_t epochNs;

    mutable std::mutex mu; ///< guards threads (lease/registration)
    std::vector<std::unique_ptr<ThreadBuf>> threads;
};

/** RAII span; a no-op while recording is off. */
class Span
{
  public:
    explicit Span(Sp name, std::uint64_t request = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** File the span under another name when it ends. */
    void
    relabel(Sp name)
    {
        label = name;
    }

  private:
    SpanRecorder *rec = nullptr;
    SpanRecorder::ThreadBuf *buf = nullptr;
    Sp label;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
