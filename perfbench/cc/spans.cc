#include "spans.hh"

#include <bit>
#include <chrono>
#include <cstdio>

namespace perfbench
{

namespace
{

constexpr const char *names[] = {
    "hv.hypervisor_ctor", "hv.create_vm",     "elisa.export_attach",
    "kvs.prepopulate",    "sim.engine_run",   "sim.actor_step",
    "sim.sampler",        "kvs.get",          "kvs.put",
    "net.deliver",        "net.guest_rx.elisa", "net.guest_rx.vmcall",
    "hv.telemetry_publish", "guest.scrape",   "hv.vmcall",
    "elisa.touch",        "cpu.touch",        "hv.fault_touch",
};
static_assert(std::size(names) == std::size_t(Sp::Count));

} // namespace

/** A thread's buffer lease, returned when the thread exits. */
struct ThreadLease
{
    SpanRecorder::ThreadBuf *buf = nullptr;

    ~ThreadLease()
    {
        if (buf)
            buf->leased.store(false, std::memory_order_release);
    }
};

namespace
{
thread_local ThreadLease lease;
} // namespace

const char *
spanName(Sp sp)
{
    return names[std::size_t(sp)];
}

std::string
spanLayer(Sp sp)
{
    const std::string full = spanName(sp);
    return full.substr(0, full.find('.'));
}

// ---- LogHist --------------------------------------------------------

unsigned
LogHist::bucketOf(std::uint64_t v)
{
    if (v < linear)
        return unsigned(v);
    const unsigned e = 63 - unsigned(std::countl_zero(v)); // >= 6
    const unsigned sub =
        unsigned(v >> (e - subBits)) & ((1u << subBits) - 1);
    return linear + (e - 6) * (1u << subBits) + sub;
}

double
LogHist::midpoint(unsigned bucket)
{
    if (bucket < linear)
        return double(bucket);
    const unsigned e = (bucket - linear) / (1u << subBits) + 6;
    const unsigned sub = (bucket - linear) % (1u << subBits);
    const double width = double(std::uint64_t{1} << (e - subBits));
    const double lo =
        double(std::uint64_t{1} << e) + double(sub) * width;
    return lo + width / 2;
}

void
LogHist::record(std::uint64_t v)
{
    if (counts.empty())
        counts.assign(buckets, 0);
    ++counts[bucketOf(v)];
    ++total;
}

void
LogHist::merge(const LogHist &other)
{
    if (other.total == 0)
        return;
    if (counts.empty())
        counts.assign(buckets, 0);
    for (unsigned b = 0; b < buckets; ++b)
        counts[b] += other.counts[b];
    total += other.total;
}

double
LogHist::quantile(double q) const
{
    if (total == 0)
        return 0.0;
    // Smallest bucket whose cumulative count reaches ceil(q * total).
    std::uint64_t rank = std::uint64_t(q * double(total) + 0.999999);
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < buckets; ++b) {
        seen += counts[b];
        if (seen >= rank)
            return midpoint(b);
    }
    return midpoint(buckets - 1);
}

// ---- SpanRecorder ---------------------------------------------------

SpanRecorder &
SpanRecorder::instance()
{
    static SpanRecorder recorder;
    return recorder;
}

SpanRecorder::SpanRecorder()
    : epochNs(std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count())
{
}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() -
           epochNs;
}

SpanRecorder::ThreadBuf *
SpanRecorder::threadBuf()
{
    if (lease.buf)
        return lease.buf;
    std::lock_guard<std::mutex> guard(mu);
    for (auto &t : threads) {
        bool free = false;
        if (t->leased.compare_exchange_strong(free, true,
                                              std::memory_order_acq_rel))
            return lease.buf = t.get();
    }
    threads.push_back(std::make_unique<ThreadBuf>());
    ThreadBuf *buf = threads.back().get();
    buf->leased.store(true, std::memory_order_release);
    buf->tid = std::uint32_t(threads.size() - 1);
    buf->kept.reserve(keepPerThread);
    return lease.buf = buf;
}

SpanAgg
SpanRecorder::aggregate(Sp sp) const
{
    std::lock_guard<std::mutex> guard(mu);
    SpanAgg out;
    for (const auto &t : threads) {
        const SpanAgg &a = t->aggs[std::size_t(sp)];
        out.count += a.count;
        out.totalNs += a.totalNs;
        out.selfNs += a.selfNs;
        out.hist.merge(a.hist);
    }
    return out;
}

std::uint64_t
SpanRecorder::recorded() const
{
    std::lock_guard<std::mutex> guard(mu);
    std::uint64_t n = 0;
    for (const auto &t : threads)
        for (const auto &a : t->aggs)
            n += a.count;
    return n;
}

bool
SpanRecorder::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "thread,index,parent,name,request,start_ns,end_ns\n");
    std::lock_guard<std::mutex> guard(mu);
    for (const auto &t : threads) {
        for (std::size_t i = 0; i < t->kept.size(); ++i) {
            const Record &r = t->kept[i];
            std::fprintf(f, "%u,%zu,%d,%s,%llu,%lld,%lld\n", t->tid, i,
                         r.parent, spanName(r.name),
                         (unsigned long long)r.request,
                         (long long)r.startNs, (long long)r.endNs);
        }
    }
    return std::fclose(f) == 0;
}

// ---- Span -----------------------------------------------------------

Span::Span(Sp name, std::uint64_t request) : label(name)
{
    rec = SpanRecorder::active();
    if (!rec)
        return;
    buf = rec->threadBuf();
    std::int32_t parent = -1;
    if (!buf->stack.empty()) {
        parent = buf->stack.back().kept;
        if (request == 0)
            request = buf->stack.back().request;
    }
    std::int32_t kept = -1;
    if (buf->kept.size() < rec->keepPerThread) {
        kept = std::int32_t(buf->kept.size());
        buf->kept.push_back({0, 0, request, parent, name});
    }
    buf->stack.push_back({rec->nowNs(), 0, request, kept, name});
}

Span::~Span()
{
    if (!buf)
        return;
    const std::int64_t end = rec->nowNs();
    const SpanRecorder::Open open = buf->stack.back();
    buf->stack.pop_back();
    const std::int64_t dur = end - open.startNs;
    SpanAgg &agg = buf->aggs[std::size_t(label)];
    ++agg.count;
    agg.totalNs += dur;
    agg.selfNs += dur - open.childNs;
    agg.hist.record(std::uint64_t(dur < 0 ? 0 : dur));
    if (!buf->stack.empty())
        buf->stack.back().childNs += dur;
    if (open.kept >= 0) {
        SpanRecorder::Record &r = buf->kept[std::size_t(open.kept)];
        r.startNs = open.startNs;
        r.endNs = end;
        r.name = label;
    }
}

} // namespace perfbench
