#include "sim/tracer.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "sim/histogram.hh"

namespace elisa::sim
{

const char *
spanCatToString(SpanCat cat)
{
    switch (cat) {
      case SpanCat::Hypercall:
        return "hypercall";
      case SpanCat::Gate:
        return "gate";
      case SpanCat::Negotiation:
        return "negotiation";
      case SpanCat::Net:
        return "net";
      case SpanCat::Kvs:
        return "kvs";
      case SpanCat::Fault:
        return "fault";
      case SpanCat::Cpu:
        return "cpu";
      case SpanCat::Page:
        return "page";
      case SpanCat::Telemetry:
        return "telemetry";
    }
    return "?";
}

Tracer::Tracer(std::size_t capacity)
{
    // Serial 0 is reserved as TraceNameCache's "no owner yet".
    static std::uint64_t nextSerial = 0;
    serialNum = ++nextSerial;
    fatal_if(capacity == 0, "tracer ring capacity must be positive");
    ring.resize(capacity);
    // Id 0 renders as "?" so an uninitialized name field is visibly
    // wrong instead of aliasing a real event name.
    names.push_back("?");
}

TraceNameId
Tracer::intern(std::string_view name)
{
    auto it = index.find(name);
    if (it != index.end())
        return it->second;
    fatal_if(names.size() > std::numeric_limits<TraceNameId>::max(),
             "trace name table overflow");
    const auto id = static_cast<TraceNameId>(names.size());
    names.emplace_back(name);
    index.emplace(std::string(name), id);
    return id;
}

const std::string &
Tracer::nameOf(TraceNameId id) const
{
    panic_if(id >= names.size(), "bad trace name id %u", id);
    return names[id];
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(held);
    for (std::size_t i = 0; i < held; ++i)
        out.push_back(at(i));
    return out;
}

void
Tracer::clear()
{
    head = 0;
    held = 0;
    total = 0;
}

char
phaseLetter(TracePhase phase)
{
    switch (phase) {
      case TracePhase::Begin:
        return 'B';
      case TracePhase::End:
        return 'E';
      case TracePhase::Instant:
        return 'i';
      case TracePhase::AsyncBegin:
        return 'b';
      case TracePhase::AsyncInstant:
        return 'n';
      case TracePhase::AsyncEnd:
        return 'e';
    }
    return '?';
}

namespace
{

bool
isAsync(TracePhase phase)
{
    return phase == TracePhase::AsyncBegin ||
           phase == TracePhase::AsyncInstant ||
           phase == TracePhase::AsyncEnd;
}

} // anonymous namespace

std::string
Tracer::chromeJson() const
{
    // All formatting is integer math: same events => same bytes.
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < held; ++i) {
        const TraceEvent &ev = at(i);
        if (i)
            out += ',';
        // Chrome timestamps are microseconds; keep the nanosecond
        // fraction as three fixed decimals.
        out += detail::format(
            "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
            "\"ts\":%llu.%03llu,\"pid\":0,\"tid\":%u",
            nameOf(ev.name).c_str(), spanCatToString(ev.cat),
            phaseLetter(ev.phase),
            (unsigned long long)(ev.ts / 1000),
            (unsigned long long)(ev.ts % 1000), ev.track);
        if (isAsync(ev.phase)) {
            out += detail::format(",\"id\":\"0x%llx\"",
                                  (unsigned long long)ev.flowId);
        }
        if (ev.phase == TracePhase::Instant)
            out += ",\"s\":\"t\"";
        out += detail::format(
            ",\"args\":{\"a0\":%llu,\"a1\":%llu}}",
            (unsigned long long)ev.arg0, (unsigned long long)ev.arg1);
    }
    out += "\n]}\n";
    return out;
}

std::string
Tracer::latencyReport() const
{
    // Key: (category, name id) -> histogram of span durations.
    std::map<std::pair<unsigned, TraceNameId>, Histogram> spans;
    // Open synchronous spans, one LIFO stack per (track, name).
    std::map<std::pair<std::uint32_t, TraceNameId>, std::vector<SimNs>>
        open;
    // Open async spans by (flowId, name).
    std::map<std::pair<std::uint64_t, TraceNameId>, SimNs> openAsync;
    std::uint64_t unmatched = 0;

    for (std::size_t i = 0; i < held; ++i) {
        const TraceEvent &ev = at(i);
        const auto key = std::make_pair(
            static_cast<unsigned>(ev.cat), ev.name);
        switch (ev.phase) {
          case TracePhase::Begin:
            open[{ev.track, ev.name}].push_back(ev.ts);
            break;
          case TracePhase::End: {
            auto it = open.find({ev.track, ev.name});
            if (it == open.end() || it->second.empty()) {
                // Its Begin fell off the ring (or never happened).
                ++unmatched;
                break;
            }
            spans[key].record(ev.ts - it->second.back());
            it->second.pop_back();
            break;
          }
          case TracePhase::AsyncBegin:
            openAsync[{ev.flowId, ev.name}] = ev.ts;
            break;
          case TracePhase::AsyncEnd: {
            auto it = openAsync.find({ev.flowId, ev.name});
            if (it == openAsync.end()) {
                ++unmatched;
                break;
            }
            spans[key].record(ev.ts - it->second);
            openAsync.erase(it);
            break;
          }
          case TracePhase::Instant:
          case TracePhase::AsyncInstant:
            break;
        }
    }

    std::uint64_t still_open = unmatched;
    for (const auto &[key, stack] : open)
        still_open += stack.size();
    still_open += openAsync.size();

    // Sort rows by (category name, span name) for a stable report.
    std::vector<std::string> rows;
    for (const auto &[key, hist] : spans) {
        rows.push_back(detail::format(
            "[%-11s] %-24s %s",
            spanCatToString(static_cast<SpanCat>(key.first)),
            nameOf(key.second).c_str(), hist.summary().c_str()));
    }
    std::sort(rows.begin(), rows.end());

    std::string out = "=== trace latency report ===\n";
    out += detail::format(
        "events=%llu held=%zu dropped=%llu unmatched_or_open=%llu\n",
        (unsigned long long)total, held, (unsigned long long)dropped(),
        (unsigned long long)still_open);
    for (const std::string &line : rows) {
        out += line;
        out += '\n';
    }
    return out;
}

} // namespace elisa::sim
