#include "sim/engine.hh"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "base/logging.hh"

namespace elisa::sim
{

namespace
{

/**
 * Identity of the engine item executing on this host thread, so
 * Engine::post() can learn the posting shard and the scheduled time
 * of the posting item without threading them through every actor.
 * Saved/restored around batches, so engines nested inside a step
 * (none today) would not corrupt the outer context.
 */
struct ExecCtx
{
    const void *engine = nullptr;
    ShardId shard = 0;
    SimNs itemTime = 0;
};

thread_local ExecCtx *tlsExecCtx = nullptr;

} // anonymous namespace

Engine::Engine()
{
    if (const char *env = std::getenv("ELISA_SIM_THREADS")) {
        char *end = nullptr;
        const unsigned long parsed = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && parsed <= 1024) {
            threadCount = static_cast<unsigned>(parsed);
        } else {
            warn("ignoring malformed ELISA_SIM_THREADS='%s'", env);
        }
    }
}

RegId
Engine::add(Actor *actor, ShardId shard)
{
    panic_if(actor == nullptr, "null actor");
    panic_if(running, "Engine::add during run()");
    panic_if(shard >= 65536, "shard id %u out of range", shard);
    while (shards.size() <= shard)
        shards.push_back(std::make_unique<Shard>());
    const RegId reg = static_cast<RegId>(entries.size());
    entries.push_back(
        Entry{actor, shard, actor->actorNow(), 0, true});
    ++shards[shard]->alive;
    return reg;
}

void
Engine::clear()
{
    panic_if(running, "Engine::clear during run()");
    entries.clear();
    shards.clear();
    windowCount = 0;
    // Restart the sampler series: a reused Engine must fire its first
    // sample one period into the new run, not wherever the previous
    // population left nextSample.
    nextSample = samplePeriod;
}

void
Engine::setThreads(unsigned n)
{
    panic_if(running, "Engine::setThreads during run()");
    threadCount = n;
}

void
Engine::setLookahead(SimNs lookahead_ns)
{
    panic_if(running, "Engine::setLookahead during run()");
    panic_if(lookahead_ns == 0,
             "lookahead must be >= 1 ns (a zero-latency cross-shard "
             "interaction can land in the destination's present)");
    lookaheadNs = lookahead_ns;
}

void
Engine::setSampler(SimNs period_ns, std::function<void(SimNs)> fn)
{
    panic_if(running, "Engine::setSampler during run()");
    if (period_ns == 0 || !fn) {
        samplePeriod = 0;
        nextSample = 0;
        sampler = nullptr;
        return;
    }
    samplePeriod = period_ns;
    nextSample = period_ns;
    sampler = std::move(fn);
}

std::size_t
Engine::runnable() const
{
    std::size_t alive = 0;
    for (const auto &sh : shards)
        alive += sh->alive;
    return alive;
}

std::uint64_t
Engine::delivered() const
{
    std::uint64_t events = 0;
    for (const auto &sh : shards)
        events += sh->deliveredEvents;
    return events;
}

// ---- shard heap: min by (cachedNow, registration id) ---------------

bool
Engine::heapBefore(RegId a, RegId b) const
{
    const SimNs ta = entries[a].cachedNow;
    const SimNs tb = entries[b].cachedNow;
    if (ta != tb)
        return ta < tb;
    return a < b;
}

void
Engine::siftUp(Shard &sh, std::uint32_t pos)
{
    const RegId moving = sh.heap[pos];
    while (pos > 0) {
        const std::uint32_t parent = (pos - 1) / 2;
        if (!heapBefore(moving, sh.heap[parent]))
            break;
        sh.heap[pos] = sh.heap[parent];
        entries[sh.heap[pos]].heapPos = pos;
        pos = parent;
    }
    sh.heap[pos] = moving;
    entries[moving].heapPos = pos;
}

void
Engine::siftDown(Shard &sh, std::uint32_t pos)
{
    const std::uint32_t size = static_cast<std::uint32_t>(sh.heap.size());
    const RegId moving = sh.heap[pos];
    for (;;) {
        std::uint32_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size &&
            heapBefore(sh.heap[child + 1], sh.heap[child])) {
            ++child;
        }
        if (!heapBefore(sh.heap[child], moving))
            break;
        sh.heap[pos] = sh.heap[child];
        entries[sh.heap[pos]].heapPos = pos;
        pos = child;
    }
    sh.heap[pos] = moving;
    entries[moving].heapPos = pos;
}

void
Engine::heapRemoveTop(Shard &sh)
{
    const RegId last = sh.heap.back();
    sh.heap.pop_back();
    if (!sh.heap.empty()) {
        sh.heap[0] = last;
        entries[last].heapPos = 0;
        siftDown(sh, 0);
    }
}

SimNs
Engine::topActorTime(Shard &sh)
{
    while (!sh.heap.empty()) {
        Entry &top = entries[sh.heap[0]];
        const SimNs now = top.actor->actorNow();
        if (now == top.cachedNow)
            return now;
        panic_if(now < top.cachedNow, "actor clock ran backwards");
        top.cachedNow = now;
        siftDown(sh, 0);
    }
    return noWork;
}

SimNs
Engine::shardNext(Shard &sh)
{
    SimNs next = topActorTime(sh);
    if (!sh.events.empty())
        next = std::min(next, sh.events.top().at);
    return next < runHorizon ? next : noWork;
}

void
Engine::post(ShardId dest, SimNs deliver_at, EventFn fn)
{
    ExecCtx *ctx = tlsExecCtx;
    panic_if(ctx == nullptr || ctx->engine != this,
             "Engine::post called outside a running step of this engine");
    panic_if(!fn, "null cross-shard event");
    panic_if(dest >= shards.size(), "post to unknown shard %u", dest);
    panic_if(deliver_at < ctx->itemTime + lookaheadNs,
             "post violates lookahead: deliver_at=%llu < item_time=%llu"
             " + lookahead=%llu",
             (unsigned long long)deliver_at,
             (unsigned long long)ctx->itemTime,
             (unsigned long long)lookaheadNs);

    // deliver_at >= item time + lookahead >= window end: the event is
    // never due in this window, so the barrier hand-over is in time.
    Shard &src = *shards[ctx->shard];
    src.outbox[dest].push_back(
        Event{deliver_at, ctx->shard, src.postSeq++, std::move(fn)});
}

void
Engine::executeBatch(ShardId sid, SimNs safe)
{
    Shard &sh = *shards[sid];
    ExecCtx ctx{this, sid, 0};
    ExecCtx *previous = tlsExecCtx;
    tlsExecCtx = &ctx;

    for (;;) {
        const SimNs eventAt =
            sh.events.empty() ? noWork : sh.events.top().at;
        const SimNs actorAt = topActorTime(sh);

        // Events deliver before steps at the same simulated time: an
        // arrival at t is observable by the actor scheduled at t.
        const bool eventFirst = eventAt <= actorAt;
        const SimNs t = eventFirst ? eventAt : actorAt;
        if (t >= safe)
            break;

        if (eventFirst) {
            // priority_queue::top() is const; moving out right before
            // pop() is safe (the queue never reads the moved-from fn).
            Event ev = std::move(const_cast<Event &>(sh.events.top()));
            sh.events.pop();
            ctx.itemTime = ev.at;
            ev.fn(ev.at);
            ++sh.deliveredEvents;
        } else {
            Entry &top = entries[sh.heap[0]];
            ctx.itemTime = t;
            const bool more = top.actor->step();
            panic_if(top.actor->actorNow() < t,
                     "actor ran backwards in time");
            ++sh.steps;
            if (!more) {
                top.alive = false;
                --sh.alive;
                heapRemoveTop(sh);
            } else {
                top.cachedNow = top.actor->actorNow();
                siftDown(sh, 0);
            }
        }
    }

    tlsExecCtx = previous;
}

void
Engine::barrier(bool plan)
{
    const unsigned current = phase.load();
    if (arrived.fetch_add(1) + 1 < workerCount) {
        phase.wait(current);
        return;
    }
    arrived.store(0);
    if (plan)
        planWindow();
    phase.store(current + 1);
    if (workerCount > 1)
        phase.notify_all();
}

void
Engine::planWindow()
{
    // Global causal frontier: the earliest pending work anywhere.
    SimNs gmin = noWork;
    for (const auto &sh : shards)
        gmin = std::min(gmin, sh->nextTime);
    if (gmin == noWork) {
        done = true;
        return;
    }
    ++windowCount;

    // Boundaries at or below the frontier are final: every shard has
    // executed all of its work below gmin, and none at or past the
    // unfired boundary (it capped every earlier window), so the
    // machine is quiescent around the callback.
    while (sampler && nextSample <= gmin) {
        sampler(nextSample);
        nextSample += samplePeriod;
    }

    // Conservative window: work strictly below the frontier plus
    // lookahead can never be invalidated by a cross-shard event
    // (posts deliver at >= sender item time + lookahead, and the
    // sender's item time is >= gmin).
    windowEnd = lookaheadNs > noWork - gmin ? noWork : gmin + lookaheadNs;
    windowEnd = std::min(windowEnd, runHorizon);
    if (sampler)
        windowEnd = std::min(windowEnd, nextSample);
}

void
Engine::workerLoop(unsigned w)
{
    const std::size_t n = shards.size();
    for (;;) {
        // Take the last window's posts to this worker's shards.
        for (ShardId d = w; d < n; d += workerCount) {
            Shard &dst = *shards[d];
            for (const auto &src : shards) {
                for (Event &ev : src->outbox[d])
                    dst.events.push(std::move(ev));
                src->outbox[d].clear();
            }
            dst.nextTime = shardNext(dst);
        }
        barrier(true);
        if (done)
            return;
        for (ShardId s = w; s < n; s += workerCount) {
            if (shards[s]->nextTime < windowEnd)
                executeBatch(s, windowEnd);
        }
        barrier(false);
    }
}

std::uint64_t
Engine::run(SimNs horizon_ns)
{
    panic_if(running, "Engine::run is not reentrant");
    running = true;
    runHorizon = horizon_ns;
    done = false;

    // Rebuild the shard heaps: clocks may have advanced between
    // runs, and finished actors must not resurface.
    for (auto &sh : shards) {
        sh->heap.clear();
        sh->steps = 0;
    }
    for (RegId reg = 0; reg < entries.size(); ++reg) {
        Entry &e = entries[reg];
        if (!e.alive)
            continue;
        e.cachedNow = e.actor->actorNow();
        Shard &sh = *shards[e.shard];
        e.heapPos = static_cast<std::uint32_t>(sh.heap.size());
        sh.heap.push_back(reg);
    }
    for (auto &sh : shards) {
        if (sh->heap.size() > 1) {
            for (std::uint32_t pos =
                     static_cast<std::uint32_t>(sh->heap.size()) / 2;
                 pos-- > 0;) {
                siftDown(*sh, pos);
            }
        }
        sh->outbox.resize(shards.size());
    }

    unsigned want = threadCount;
    if (want == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        want = hw ? hw : 1;
    }
    workerCount = static_cast<unsigned>(
        std::min<std::size_t>(want, shards.empty() ? 1
                                                   : shards.size()));

    std::vector<std::thread> pool;
    pool.reserve(workerCount - 1);
    for (unsigned w = 1; w < workerCount; ++w)
        pool.emplace_back(&Engine::workerLoop, this, w);
    workerLoop(0);
    for (std::thread &t : pool)
        t.join();

    running = false;
    std::uint64_t steps = 0;
    for (const auto &sh : shards)
        steps += sh->steps;
    return steps;
}

} // namespace elisa::sim
