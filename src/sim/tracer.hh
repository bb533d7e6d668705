/**
 * @file
 * Span-structured trace collection keyed to simulated time.
 *
 * A Tracer is a bounded ring buffer of typed events — span begin/end,
 * instants, and id-linked async spans — each stamped with the emitting
 * actor's simulated clock. It is the attribution instrument behind the
 * paper's latency story: one gate call decomposes into its four
 * EPTP switches plus prologue/payload/epilogue, one negotiation into
 * its hypercall hops, one injected fault into the exact span it hit.
 *
 * Cost discipline (mirrors sim::FaultPlan): subsystems hold a nullable
 * Tracer pointer; an absent tracer costs one pointer test per trace
 * point and nothing else. Event names are interned once (TraceNameId,
 * dense) so the enabled hot path never hashes strings.
 *
 * Determinism: events carry only simulated timestamps and interned
 * ids, never host time, so the same seeded run always produces a
 * byte-identical trace — both exporters format with integer math only.
 *
 * Exporters:
 *  - chromeJson(): Chrome trace_event JSON, loadable in Perfetto or
 *    about:tracing (spans nest per track; async spans link by id);
 *  - latencyReport(): per-category sim::Histogram text report of span
 *    durations (count / mean / p50 / p99 / max per span name).
 *
 * Layering: this file knows nothing about vCPUs or the hypervisor —
 * callers pass plain track ids (by convention the vCPU id) and
 * timestamps, so the subsystem sits at the bottom of the tree next to
 * Clock and FaultPlan.
 */

#ifndef ELISA_SIM_TRACER_HH
#define ELISA_SIM_TRACER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.hh"
#include "sim/clock.hh"

namespace elisa::sim
{

/** Trace categories (one per instrumented layer). */
enum class SpanCat : std::uint8_t
{
    Hypercall,   ///< VMCALL dispatch in the hypervisor
    Gate,        ///< exit-less gate entry/exit and its sub-phases
    Negotiation, ///< attach request lifecycle (async, by RequestId)
    Net,         ///< per-packet datapath events
    Kvs,         ///< per-operation KVS events
    Fault,       ///< injected-fault annotations
    Cpu,         ///< raw instruction events (vmfunc, vmcall framing)
    Page,        ///< demand-paging events (page-in/out, reclaim)
    Telemetry,   ///< telemetry plane (publish, scrape, SLO alerts)
};

/** Number of categories (array sizing). */
inline constexpr unsigned spanCatCount = 9;

/** Render a category (exporters / debugging). */
const char *spanCatToString(SpanCat cat);

/** Dense handle of an interned event name (see Tracer::intern). */
using TraceNameId = std::uint16_t;

/** Event kinds, mapping 1:1 onto Chrome trace_event phases. */
enum class TracePhase : std::uint8_t
{
    Begin,        ///< span opens on a track ("ph":"B")
    End,          ///< span closes on a track ("ph":"E")
    Instant,      ///< point event on a track ("ph":"i")
    AsyncBegin,   ///< long-lived span opens, linked by flowId ("b")
    AsyncInstant, ///< point event within an async span ("n")
    AsyncEnd,     ///< async span closes ("e")
};

/** Chrome trace_event "ph" letter of @p phase (every exporter). */
char phaseLetter(TracePhase phase);

/** One recorded event (40 bytes; the ring stores these by value). */
struct TraceEvent
{
    SimNs ts = 0;              ///< emitting actor's simulated clock
    std::uint64_t arg0 = 0;    ///< event-specific annotation
    std::uint64_t arg1 = 0;    ///< event-specific annotation
    std::uint64_t flowId = 0;  ///< async link id (e.g. RequestId)
    std::uint32_t track = 0;   ///< actor lane (by convention vCPU id)
    TraceNameId name = 0;      ///< interned event name
    SpanCat cat = SpanCat::Cpu;
    TracePhase phase = TracePhase::Instant;
};

/**
 * Bounded trace collector. When the ring is full the oldest event is
 * overwritten (the trace keeps the most recent window); dropped()
 * reports how many were lost.
 */
class Tracer
{
  public:
    /** @param capacity ring size in events (must be positive). */
    explicit Tracer(std::size_t capacity = 1u << 16);

    /**
     * Resolve @p name to its dense id, registering it when new. The
     * only string-keyed operation — call once per site, never per
     * event (see TraceNameCache).
     */
    TraceNameId intern(std::string_view name);

    /** The string a TraceNameId stands for. */
    const std::string &nameOf(TraceNameId id) const;

    // ---- emission (hot path; callers null-check the Tracer*) -------
    void
    begin(SpanCat cat, TraceNameId name, std::uint32_t track, SimNs ts,
          std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, 0, track, name, cat, TracePhase::Begin});
    }

    void
    end(SpanCat cat, TraceNameId name, std::uint32_t track, SimNs ts,
        std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, 0, track, name, cat, TracePhase::End});
    }

    void
    instant(SpanCat cat, TraceNameId name, std::uint32_t track,
            SimNs ts, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, 0, track, name, cat, TracePhase::Instant});
    }

    void
    asyncBegin(SpanCat cat, TraceNameId name, std::uint64_t flow,
               std::uint32_t track, SimNs ts, std::uint64_t a0 = 0,
               std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, flow, track, name, cat,
              TracePhase::AsyncBegin});
    }

    void
    asyncInstant(SpanCat cat, TraceNameId name, std::uint64_t flow,
                 std::uint32_t track, SimNs ts, std::uint64_t a0 = 0,
                 std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, flow, track, name, cat,
              TracePhase::AsyncInstant});
    }

    void
    asyncEnd(SpanCat cat, TraceNameId name, std::uint64_t flow,
             std::uint32_t track, SimNs ts, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, flow, track, name, cat, TracePhase::AsyncEnd});
    }

    // ---- introspection --------------------------------------------
    /** Events currently held (<= capacity). */
    std::size_t size() const { return held; }

    /** Ring capacity in events. */
    std::size_t capacity() const { return ring.size(); }

    /** Total events ever emitted. */
    std::uint64_t emitted() const { return total; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return total - held; }

    /**
     * Process-unique id of this Tracer instance. Name caches key on
     * it instead of the object address, which a successor Tracer may
     * reuse (stack/heap recycling) while holding none of the names
     * the cache resolved against the original.
     */
    std::uint64_t serial() const { return serialNum; }

    /**
     * The @p i-th held event, oldest first (@p i < size()), read in
     * place: consumers index the window they need instead of copying
     * the ring out.
     */
    const TraceEvent &
    at(std::size_t i) const
    {
        // Oldest event: `head` once the ring has wrapped, slot 0 before.
        std::size_t slot = (held == ring.size() ? head : 0) + i;
        if (slot >= ring.size())
            slot -= ring.size();
        return ring[slot];
    }

    /** A copy of the held events, oldest first (tests). */
    std::vector<TraceEvent> snapshot() const;

    /** Forget all events (interned names are kept). */
    void clear();

    // ---- exporters -------------------------------------------------
    /**
     * Chrome trace_event JSON (the "traceEvents" array form), byte-
     * deterministic for a given event sequence. Timestamps are
     * microseconds with the nanosecond fraction preserved.
     */
    std::string chromeJson() const;

    /**
     * Per-category latency report: durations of matched Begin/End
     * pairs (per track) and AsyncBegin/AsyncEnd pairs (per flowId)
     * aggregated into sim::Histogram lines, sorted by category then
     * name. Unmatched events (ring wraparound, spans still open) are
     * counted, never guessed at.
     */
    std::string latencyReport() const;

  private:
    void
    push(const TraceEvent &event)
    {
        ring[head] = event;
        head = head + 1 == ring.size() ? 0 : head + 1;
        if (held < ring.size())
            ++held;
        ++total;
    }

    std::vector<TraceEvent> ring;
    std::size_t head = 0; ///< next write slot
    std::size_t held = 0;
    std::uint64_t total = 0;
    std::uint64_t serialNum;
    std::map<std::string, TraceNameId, std::less<>> index;
    std::vector<std::string> names;
};

/**
 * Per-site cache of one interned name. Instrumented objects that may
 * be constructed before a Tracer is installed hold one of these; the
 * first emission against a given Tracer pays the intern, subsequent
 * ones are a compare.
 *
 * One cache may serve several tracers at once: machines on different
 * engine threads each have their own, and a site-wide cache (the
 * gate's span names) is hit from all of them. The owner serial and
 * the id therefore share one atomic word, so a reader never pairs one
 * tracer's serial with another's id.
 */
class TraceNameCache
{
  public:
    explicit TraceNameCache(const char *name) : text(name) {}

    /** Copies start unresolved (the atomic word is not copied). */
    TraceNameCache(const TraceNameCache &other) : text(other.text) {}

    TraceNameId
    get(Tracer &tracer)
    {
        // Keyed by serial, not address: a fresh Tracer can reuse a
        // dead one's address while interning none of its names.
        const std::uint64_t owner = tracer.serial() << 16;
        std::uint64_t word = packed.load(std::memory_order_relaxed);
        if ((word & ~std::uint64_t{0xffff}) != owner) {
            word = owner | tracer.intern(text);
            packed.store(word, std::memory_order_relaxed);
        }
        return static_cast<TraceNameId>(word);
    }

  private:
    const char *text;
    /** serial() of the interning Tracer << 16 | its id; 0 = none. */
    std::atomic<std::uint64_t> packed{0};
};

/**
 * RAII span: begin on construction (when a tracer is present), end —
 * at the then-current simulated time — on destruction, including
 * exceptional unwinds (VM exits), so spans never leak open across a
 * fault. An instance built with a null tracer is inert.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, SpanCat cat, TraceNameId name,
               std::uint32_t track, const SimClock &clock,
               std::uint64_t a0 = 0, std::uint64_t a1 = 0)
        : tr(tracer), clk(&clock), spanCat(cat), spanName(name),
          spanTrack(track)
    {
        if (tr)
            tr->begin(spanCat, spanName, spanTrack, clk->now(), a0, a1);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Annotate the closing event (e.g. with the handler's rc). */
    void
    setEndArgs(std::uint64_t a0, std::uint64_t a1 = 0)
    {
        endArg0 = a0;
        endArg1 = a1;
    }

    ~ScopedSpan()
    {
        if (tr)
            tr->end(spanCat, spanName, spanTrack, clk->now(), endArg0,
                    endArg1);
    }

  private:
    Tracer *tr;
    const SimClock *clk;
    SpanCat spanCat;
    TraceNameId spanName;
    std::uint32_t spanTrack;
    std::uint64_t endArg0 = 0;
    std::uint64_t endArg1 = 0;
};

} // namespace elisa::sim

#endif // ELISA_SIM_TRACER_HH
