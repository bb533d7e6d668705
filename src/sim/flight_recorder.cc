#include "sim/flight_recorder.hh"

#include <algorithm>
#include <fstream>

#include "base/logging.hh"

namespace elisa::sim
{

namespace
{

/** Minimal JSON string escaping (quotes, backslash, control chars). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += detail::format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // anonymous namespace

FlightRecorder::FlightRecorder(std::size_t per_vm_capacity)
    : capacity(per_vm_capacity)
{
    fatal_if(capacity == 0,
             "flight recorder per-VM capacity must be positive");
}

void
FlightRecorder::setTrackResolver(
    std::function<std::uint32_t(std::uint32_t)> resolver)
{
    trackResolver = std::move(resolver);
}

FlightRecorder::VmRing &
FlightRecorder::ringFor(std::uint32_t vm)
{
    VmRing &ring = rings[vm];
    if (ring.ring.empty())
        ring.ring.resize(capacity);
    return ring;
}

void
FlightRecorder::push(VmRing &ring, const TraceEvent &event)
{
    ring.ring[ring.head] = event;
    ring.head = ring.head + 1 == ring.ring.size() ? 0 : ring.head + 1;
    if (ring.held < ring.ring.size())
        ++ring.held;
    ++ring.total;
}

void
FlightRecorder::observe(const Tracer &tracer)
{
    // A successor Tracer restarts the stream (same serial guard as
    // TraceNameCache — addresses can be recycled, serials cannot).
    if (tracer.serial() != tracerSerial) {
        tracerSerial = tracer.serial();
        cursor = 0;
        nameTable.clear();
    }
    const std::uint64_t emitted = tracer.emitted();
    if (emitted == cursor)
        return;
    std::uint64_t fresh = emitted - cursor;
    const std::size_t held = tracer.size();
    if (fresh > held) {
        // The tracer ring wrapped past our cursor: those events are
        // gone for every VM. Counted, never guessed at.
        missedEvents += fresh - held;
        fresh = held;
    }
    for (std::size_t i = held - fresh; i < held; ++i) {
        const TraceEvent &ev = tracer.at(i);
        auto it = nameTable.find(ev.name);
        if (it == nameTable.end())
            nameTable.emplace(ev.name, tracer.nameOf(ev.name));
        const std::uint32_t vm =
            trackResolver ? trackResolver(ev.track) : noVm;
        if (vm == noVm) {
            ++unresolved;
            continue;
        }
        push(ringFor(vm), ev);
    }
    cursor = emitted;
}

void
FlightRecorder::baseline(const ExitLedger &ledger)
{
    ledgerBaseline.clear();
    for (const ExitLedger::Row &row : ledger.rows()) {
        ledgerBaseline[RowKey{row.vm, row.vcpu,
                              static_cast<std::uint8_t>(row.kind),
                              row.code}] = {row.events, row.ns};
    }
}

void
FlightRecorder::noteKill(std::uint32_t vm, std::string site)
{
    killReasons[vm] = std::move(site);
}

const std::string &
FlightRecorder::dump(std::uint32_t vm, SimNs now,
                     const ExitLedger *ledger)
{
    std::string reason = "vm_destroy";
    if (auto it = killReasons.find(vm); it != killReasons.end()) {
        reason = std::move(it->second);
        killReasons.erase(it);
    }

    std::string out = "{\n";
    out += "  \"schema\": \"elisa-postmortem-v1\",\n";
    out += detail::format("  \"vm\": %u,\n", vm);
    out += "  \"reason\": \"" + jsonEscape(reason) + "\",\n";
    out += detail::format("  \"sim_ns\": %llu,\n",
                          (unsigned long long)now);

    // ---- span window ------------------------------------------------
    const auto ring_it = rings.find(vm);
    const std::size_t held = ring_it == rings.end()
                                 ? 0
                                 : ring_it->second.held;
    const std::uint64_t total =
        ring_it == rings.end() ? 0 : ring_it->second.total;
    out += detail::format("  \"spans_held\": %zu,\n", held);
    out += detail::format("  \"spans_dropped\": %llu,\n",
                          (unsigned long long)(total - held));
    out += "  \"spans\": [";
    if (ring_it != rings.end()) {
        const VmRing &ring = ring_it->second;
        const std::size_t cap = ring.ring.size();
        // Oldest-first: when full the head points at the oldest slot.
        const std::size_t start =
            ring.held < cap ? 0 : ring.head;
        for (std::size_t i = 0; i < ring.held; ++i) {
            const TraceEvent &ev = ring.ring[(start + i) % cap];
            // A stale id (event recorded under a replaced tracer)
            // renders as "?" — visibly wrong beats aliasing.
            static const std::string unknown = "?";
            const auto name_it = nameTable.find(ev.name);
            const std::string &name = name_it == nameTable.end()
                                          ? unknown
                                          : name_it->second;
            out += i ? ",\n    " : "\n    ";
            out += detail::format(
                "{\"ts\": %llu, \"cat\": \"%s\", \"name\": \"%s\", "
                "\"ph\": \"%c\", \"track\": %u, \"arg0\": %llu, "
                "\"arg1\": %llu, \"flow\": %llu}",
                (unsigned long long)ev.ts, spanCatToString(ev.cat),
                jsonEscape(name).c_str(), phaseLetter(ev.phase),
                ev.track, (unsigned long long)ev.arg0,
                (unsigned long long)ev.arg1,
                (unsigned long long)ev.flowId);
        }
        if (ring.held)
            out += "\n  ";
    }
    out += "],\n";

    // ---- ledger deltas ---------------------------------------------
    out += "  \"ledger\": ";
    if (!ledger) {
        out += "null\n";
    } else {
        // Deltas since baseline, sorted by (vcpu, kind, code). The
        // conservation verdict cross-checks the row sum against the
        // ledger's independent per-VM aggregate: double-entry at
        // death, not just in the chaos tests.
        struct Delta
        {
            std::uint32_t vcpu;
            CostKind kind;
            std::uint32_t code;
            std::uint64_t events;
            std::uint64_t ns;
        };
        std::vector<Delta> deltas;
        std::uint64_t base_vm_ns = 0;
        bool nonneg = true;
        for (const ExitLedger::Row &row : ledger->rows()) {
            if (row.vm != vm)
                continue;
            std::uint64_t base_events = 0;
            std::uint64_t base_ns = 0;
            const auto it = ledgerBaseline.find(
                RowKey{row.vm, row.vcpu,
                       static_cast<std::uint8_t>(row.kind), row.code});
            if (it != ledgerBaseline.end()) {
                base_events = it->second.first;
                base_ns = it->second.second;
            }
            base_vm_ns += base_ns;
            if (row.events < base_events || row.ns < base_ns) {
                nonneg = false;
                continue;
            }
            if (row.events == base_events && row.ns == base_ns)
                continue;
            deltas.push_back(Delta{row.vcpu, row.kind, row.code,
                                   row.events - base_events,
                                   row.ns - base_ns});
        }
        std::sort(deltas.begin(), deltas.end(),
                  [](const Delta &a, const Delta &b) {
                      if (a.vcpu != b.vcpu)
                          return a.vcpu < b.vcpu;
                      if (a.kind != b.kind)
                          return a.kind < b.kind;
                      return a.code < b.code;
                  });

        std::uint64_t kind_ns[costKindCount] = {};
        std::uint64_t row_sum = 0;
        out += "{\n    \"rows\": [";
        for (std::size_t i = 0; i < deltas.size(); ++i) {
            const Delta &d = deltas[i];
            kind_ns[static_cast<unsigned>(d.kind)] += d.ns;
            row_sum += d.ns;
            const std::string &code_name =
                ledger->codeName(d.kind, d.code);
            out += i ? ",\n      " : "\n      ";
            out += detail::format(
                "{\"vcpu\": %u, \"kind\": \"%s\", \"code\": %u, "
                "\"code_name\": \"%s\", \"events\": %llu, "
                "\"ns\": %llu}",
                d.vcpu, costKindToString(d.kind), d.code,
                jsonEscape(code_name).c_str(),
                (unsigned long long)d.events,
                (unsigned long long)d.ns);
        }
        if (!deltas.empty())
            out += "\n    ";
        out += "],\n    \"kind_ns\": {";
        for (unsigned k = 0; k < costKindCount; ++k) {
            out += k ? ", " : "";
            out += detail::format(
                "\"%s\": %llu",
                costKindToString(static_cast<CostKind>(k)),
                (unsigned long long)kind_ns[k]);
        }
        const std::uint64_t vm_delta_ns = ledger->vmNs(vm) - base_vm_ns;
        const bool conserved = nonneg && row_sum == vm_delta_ns;
        out += detail::format("},\n    \"total_ns\": %llu,\n",
                              (unsigned long long)row_sum);
        out += detail::format("    \"vm_total_ns\": %llu,\n",
                              (unsigned long long)vm_delta_ns);
        out += detail::format("    \"conserved\": %s\n  }\n",
                              conserved ? "true" : "false");
        postMortems[vm].conserved = conserved;
    }
    out += "}\n";

    PostMortem &pm = postMortems[vm];
    pm.json = std::move(out);
    if (!ledger)
        pm.conserved = true;

    if (!outputDir.empty()) {
        const std::string path =
            outputDir + detail::format("/postmortem_vm%u.json", vm);
        std::ofstream file(path, std::ios::trunc);
        if (file)
            file << pm.json;
    }
    return pm.json;
}

bool
FlightRecorder::hasPostMortem(std::uint32_t vm) const
{
    return postMortems.count(vm) != 0;
}

const std::string &
FlightRecorder::postMortem(std::uint32_t vm) const
{
    const auto it = postMortems.find(vm);
    panic_if(it == postMortems.end(), "no post-mortem for vm %u", vm);
    return it->second.json;
}

std::vector<std::uint32_t>
FlightRecorder::postMortemVms() const
{
    std::vector<std::uint32_t> out;
    out.reserve(postMortems.size());
    for (const auto &[vm, pm] : postMortems)
        out.push_back(vm);
    return out;
}

bool
FlightRecorder::postMortemConserved(std::uint32_t vm) const
{
    const auto it = postMortems.find(vm);
    panic_if(it == postMortems.end(), "no post-mortem for vm %u", vm);
    return it->second.conserved;
}

std::size_t
FlightRecorder::heldFor(std::uint32_t vm) const
{
    const auto it = rings.find(vm);
    return it == rings.end() ? 0 : it->second.held;
}

std::uint64_t
FlightRecorder::droppedFor(std::uint32_t vm) const
{
    const auto it = rings.find(vm);
    return it == rings.end() ? 0 : it->second.total - it->second.held;
}

} // namespace elisa::sim
