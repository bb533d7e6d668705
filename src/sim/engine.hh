/**
 * @file
 * Conservative multi-actor discrete-event engine, sharded and
 * (optionally) parallel.
 *
 * Each actor owns a SimClock and performs one bounded unit of work per
 * step() call (e.g., one KVS operation, one packet). Actors are
 * partitioned into *shards*: everything that interacts through shared
 * mutable state (SimLock, SimResource, a common hypervisor) must live
 * in one shard. Within a shard the engine always steps the actor with
 * the smallest (clock, registration-id) key, so any interaction
 * through SimLock / SimResource observes a causally consistent
 * simulated timeline: nobody can retroactively occupy a resource in
 * another actor's past, and equal-clock ties always resolve in
 * registration order regardless of which actors finished earlier.
 *
 * Across shards the engine is a conservative parallel DES in the
 * Chandy–Misra–Bryant tradition: shards only communicate through
 * cross-shard events (post()) whose minimum latency is the engine
 * *lookahead* (derive it from the cost model's minimum cross-shard
 * event latency, CostModel::minCrossShardLatencyNs()). The engine runs
 * in bulk-synchronous windows: every shard executes its work strictly
 * below min(global frontier + lookahead, next sample, horizon), the
 * workers meet at a barrier, hand the window's posts over and plan
 * the next window. No event posted inside a window can be due inside
 * it, so execution needs no locks. Cross-shard events merge in a
 * fixed (time, source-shard, source sequence) order, so the simulated
 * timeline — and every exporter byte derived from it, including the
 * window count — is identical for any thread count, including one.
 */

#ifndef ELISA_SIM_ENGINE_HH
#define ELISA_SIM_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "base/types.hh"

namespace elisa::sim
{

/** Registration id of an actor within an Engine (add() order). */
using RegId = std::uint32_t;

/**
 * Interface of an entity driven by the Engine.
 */
class Actor
{
  public:
    virtual ~Actor() = default;

    /** Current local simulated time. */
    virtual SimNs actorNow() const = 0;

    /**
     * Perform one unit of work, advancing the local clock.
     *
     * During a parallel run, step() executes on the host thread that
     * owns the actor's shard; it may freely touch state shared with
     * other actors of the *same* shard, and may reach other shards
     * only through Engine::post().
     *
     * @return false when the actor has no more work (it is then
     *         removed from scheduling for the rest of the run).
     */
    virtual bool step() = 0;
};

/**
 * The scheduler. Actors are registered (not owned) into shards, then
 * run() drives them until everyone finishes or the horizon is
 * reached, on up to setThreads() host threads (one per shard at
 * most). Results are byte-deterministic in the thread count.
 */
class Engine
{
  public:
    /** Delivered cross-shard event: fn(deliver_time). */
    using EventFn = std::function<void(SimNs)>;

    /**
     * Thread count defaults to the ELISA_SIM_THREADS environment
     * variable when set (0 means "hardware concurrency"), else 1.
     */
    Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Register an actor into @p shard; the caller keeps ownership.
     * Actors that interact through shared state (SimLock,
     * SimResource, one hypervisor's VMs) must share a shard.
     * @return the actor's registration id (the scheduling tie-break).
     */
    RegId add(Actor *actor, ShardId shard = 0);

    /**
     * Drop all registered actors and undelivered cross-shard events,
     * and rewind the sampler bookkeeping to the start of its series
     * (the next boundary is one full period after time zero again),
     * so a reused Engine never back-dates or skips samples.
     */
    void clear();

    /**
     * Number of worker threads run() may use. The effective count is
     * capped by the number of shards; @p n == 0 selects the host's
     * hardware concurrency. Thread count never changes results.
     */
    void setThreads(unsigned n);

    /** Configured worker-thread count (0 = hardware concurrency). */
    unsigned threads() const { return threadCount; }

    /**
     * Minimum simulated latency of any cross-shard interaction, in
     * nanoseconds (>= 1). Every post() must deliver at least this far
     * after the sending step's scheduled time; in exchange, shards
     * may safely run ahead of the global frontier by this amount.
     * Derive it from CostModel::minCrossShardLatencyNs().
     */
    void setLookahead(SimNs lookahead_ns);

    /** Current lookahead in nanoseconds. */
    SimNs lookahead() const { return lookaheadNs; }

    /**
     * Send a cross-shard event: @p fn runs on shard @p dest's owning
     * thread once that shard's execution reaches @p deliver_at, after
     * all of the shard's work strictly before @p deliver_at and
     * before its work at or after it. Events with equal delivery time
     * merge in (source shard, source sequence) order — fixed at
     * registration/post time, never by host-thread timing.
     *
     * Only callable from within a step() or a delivered event, with
     * deliver_at >= (current item's scheduled time + lookahead); any
     * earlier delivery could land in the destination's past and
     * panics. The event goes into an unbounded outbox that only the
     * posting shard touches: post() takes no lock and never blocks,
     * and the destination receives the event at the next window
     * barrier (it cannot be due before then).
     *
     * The callback must touch only destination-shard state (it runs
     * concurrently with every other shard).
     */
    void post(ShardId dest, SimNs deliver_at, EventFn fn);

    /**
     * Run until every actor finished or all remaining work (actor
     * steps and pending events) lies at or past @p horizon_ns. Actors
     * whose clock exceeds the horizon stop being stepped but are not
     * asked to finish; undelivered events at or past the horizon stay
     * queued for a later run().
     *
     * @return total number of step() calls issued by this run.
     */
    std::uint64_t run(SimNs horizon_ns = ~SimNs{0});

    /** Number of actors still runnable after the last run(). */
    std::size_t runnable() const;

    /** Cross-shard events delivered since construction or clear(). */
    std::uint64_t delivered() const;

    /**
     * Execution windows planned since construction or clear(). A
     * function of the simulated timeline only, never of the thread
     * count.
     */
    std::uint64_t windows() const { return windowCount; }

    /** Number of shards (highest shard id registered + 1). */
    std::size_t shardCount() const { return shards.size(); }

    /**
     * Install a periodic simulated-time sampler: once every pending
     * unit of work lies at or past the next multiple of @p period_ns
     * (and at least one such unit below the horizon remains), run()
     * invokes @p fn with that boundary before executing any of it.
     * The callback fires once per boundary in strictly increasing
     * order (boundaries the whole population skipped over are each
     * still fired — a time series never has holes), and because the
     * global causal frontier drives it, no actor in any shard can
     * later perform work at a simulated time before a sample that
     * already fired: all shards are provably quiescent below the
     * boundary while @p fn runs, so it may read cross-shard state.
     * A null @p fn (or period 0) uninstalls. Pair it with
     * MetricsCsvSampler for metrics snapshots.
     */
    void setSampler(SimNs period_ns, std::function<void(SimNs)> fn);

  private:
    /** "No pending work below the horizon" frontier sentinel. */
    static constexpr SimNs noWork = ~SimNs{0};

    /** One cross-shard event in flight or pending delivery. */
    struct Event
    {
        SimNs at = 0;       ///< delivery time
        ShardId src = 0;    ///< posting shard (merge order, 2nd key)
        std::uint64_t seq = 0; ///< post order within src (3rd key)
        EventFn fn;

        bool
        after(const Event &o) const
        {
            if (at != o.at)
                return at > o.at;
            if (src != o.src)
                return src > o.src;
            return seq > o.seq;
        }
    };

    struct EventAfter
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.after(b);
        }
    };

    /** Registered-actor bookkeeping, indexed by RegId. */
    struct Entry
    {
        Actor *actor = nullptr;
        ShardId shard = 0;
        SimNs cachedNow = 0;        ///< heap key (<= actorNow())
        std::uint32_t heapPos = 0;  ///< position in the shard heap
        bool alive = false;
    };

    /**
     * Per-shard scheduling state, touched only by the owning worker
     * (worker w owns shards w, w + n, ...) except at the barriers.
     */
    struct Shard
    {
        std::vector<RegId> heap; ///< min-heap by (cachedNow, reg)
        std::priority_queue<Event, std::vector<Event>, EventAfter>
            events;              ///< delivery-ordered pending events
        /// Posts of this window, by destination shard; the
        /// destination's owner takes them after the window.
        std::vector<std::vector<Event>> outbox;
        SimNs nextTime = noWork; ///< earliest work below the horizon
        std::uint64_t steps = 0; ///< step() calls this run
        std::uint64_t deliveredEvents = 0; ///< lifetime deliveries
        std::uint64_t postSeq = 0; ///< outgoing event sequence
        std::size_t alive = 0;   ///< registered, unfinished actors
    };

    // Heap primitives (owner-thread only).
    bool heapBefore(RegId a, RegId b) const;
    void siftUp(Shard &sh, std::uint32_t pos);
    void siftDown(Shard &sh, std::uint32_t pos);
    void heapRemoveTop(Shard &sh);

    /**
     * Re-key the heap top against its live clock until it is exact
     * (an event callback may have advanced an actor), then return the
     * earliest actor time, or noWork.
     */
    SimNs topActorTime(Shard &sh);

    /** The shard's earliest pending work below the horizon, or noWork. */
    SimNs shardNext(Shard &sh);

    /**
     * Execute every item of @p sh scheduled strictly before @p safe:
     * pending events first at equal times, then actor steps, all in
     * (time, tie-break) order.
     */
    void executeBatch(ShardId sid, SimNs safe);

    /**
     * Wait until every worker arrived; the last to arrive runs
     * planWindow() (if @p plan) before any of them is released.
     */
    void barrier(bool plan);

    /**
     * Plan the next window (all workers at the barrier): fire due
     * sampler boundaries and set windowEnd, or done when no work
     * below the horizon remains.
     */
    void planWindow();

    /** Worker @p w body: hand over, plan, execute, until done. */
    void workerLoop(unsigned w);

    std::vector<Entry> entries;
    std::vector<std::unique_ptr<Shard>> shards;

    SimNs samplePeriod = 0;
    SimNs nextSample = 0;
    std::function<void(SimNs)> sampler;

    unsigned threadCount = 1;
    SimNs lookaheadNs = 1;

    std::uint64_t windowCount = 0;

    // ---- state of the run in progress ------------------------------
    bool running = false;
    bool done = false;
    unsigned workerCount = 1;
    SimNs runHorizon = ~SimNs{0};
    SimNs windowEnd = 0; ///< execute strictly below this
    std::atomic<unsigned> arrived{0}; ///< workers at the barrier
    std::atomic<unsigned> phase{0};   ///< barrier generation
};

} // namespace elisa::sim

#endif // ELISA_SIM_ENGINE_HH
