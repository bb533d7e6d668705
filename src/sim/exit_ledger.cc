#include "sim/exit_ledger.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "base/strutil.hh"

namespace elisa::sim
{

const char *
costKindToString(CostKind kind)
{
    switch (kind) {
      case CostKind::Exit:
        return "exit";
      case CostKind::Hypercall:
        return "hypercall";
      case CostKind::GateLeg:
        return "gate-leg";
      case CostKind::Page:
        return "page";
    }
    return "?";
}

ExitLedger::ExitLedger()
{
    // Serial 0 is reserved as a slot cache's "no owner yet".
    static std::uint64_t nextSerial = 0;
    serialNum = ++nextSerial;
}

std::uint64_t
ExitLedger::key(std::uint32_t vm, std::uint32_t vcpu, CostKind kind,
                std::uint32_t code)
{
    // 16-bit vm | 16-bit vcpu | 8-bit kind | 24-bit code.
    panic_if(vm >= (1u << 16) || vcpu >= (1u << 16) ||
                 code >= (1u << 24),
             "ledger identity out of packing range (vm=%u vcpu=%u "
             "code=%u)",
             vm, vcpu, code);
    return (std::uint64_t{vm} << 48) | (std::uint64_t{vcpu} << 32) |
           (std::uint64_t{static_cast<std::uint8_t>(kind)} << 24) |
           std::uint64_t{code};
}

LedgerSlot
ExitLedger::slot(std::uint32_t vm, std::uint32_t vcpu, CostKind kind,
                 std::uint32_t code)
{
    const std::uint64_t k = key(vm, vcpu, kind, code);
    auto it = index.find(k);
    if (it != index.end())
        return it->second;
    const auto id = static_cast<LedgerSlot>(rowTable.size());
    Row row;
    row.vm = vm;
    row.vcpu = vcpu;
    row.kind = kind;
    row.code = code;
    rowTable.push_back(std::move(row));
    index.emplace(k, id);
    return id;
}

void
ExitLedger::setCodeName(CostKind kind, std::uint32_t code,
                        std::string name)
{
    codeNames[(std::uint64_t{static_cast<std::uint8_t>(kind)} << 32) |
              code] = std::move(name);
}

const std::string &
ExitLedger::codeName(CostKind kind, std::uint32_t code) const
{
    static const std::string empty;
    auto it = codeNames.find(
        (std::uint64_t{static_cast<std::uint8_t>(kind)} << 32) | code);
    return it == codeNames.end() ? empty : it->second;
}

SimNs
ExitLedger::totalNs() const
{
    SimNs sum = 0;
    for (const Row &row : rowTable)
        sum += row.ns;
    return sum;
}

SimNs
ExitLedger::kindNs(CostKind kind) const
{
    SimNs sum = 0;
    for (const Row &row : rowTable)
        if (row.kind == kind)
            sum += row.ns;
    return sum;
}

SimNs
ExitLedger::vmNs(std::uint32_t vm) const
{
    SimNs sum = 0;
    for (const Row &row : rowTable)
        if (row.vm == vm)
            sum += row.ns;
    return sum;
}

std::uint64_t
ExitLedger::totalEvents() const
{
    std::uint64_t sum = 0;
    for (const Row &row : rowTable)
        sum += row.events;
    return sum;
}

std::string
ExitLedger::report() const
{
    std::vector<const Row *> sorted;
    sorted.reserve(rowTable.size());
    for (const Row &row : rowTable)
        sorted.push_back(&row);
    std::sort(sorted.begin(), sorted.end(),
              [](const Row *a, const Row *b) {
                  if (a->vm != b->vm)
                      return a->vm < b->vm;
                  if (a->vcpu != b->vcpu)
                      return a->vcpu < b->vcpu;
                  if (a->kind != b->kind)
                      return a->kind < b->kind;
                  return a->code < b->code;
              });

    const SimNs total = totalNs();
    TextTable table;
    table.header({"vm", "vcpu", "kind", "code", "events", "ns",
                  "share", "durations"});
    for (const Row *row : sorted) {
        const std::string &name = codeName(row->kind, row->code);
        const std::string code_str =
            name.empty() ? detail::format("%u", row->code) : name;
        // Integer permille -> "xx.x%" keeps the report byte-
        // deterministic (no double formatting).
        const std::uint64_t permille =
            total ? row->ns * 1000 / total : 0;
        table.row({detail::format("%u", row->vm),
                   detail::format("%u", row->vcpu),
                   costKindToString(row->kind), code_str,
                   detail::format("%llu",
                                  (unsigned long long)row->events),
                   detail::format("%llu", (unsigned long long)row->ns),
                   detail::format("%llu.%llu%%",
                                  (unsigned long long)(permille / 10),
                                  (unsigned long long)(permille % 10)),
                   row->durations.count()
                       ? row->durations.summary()
                       : std::string("-")});
    }

    std::ostringstream out;
    out << "=== exit ledger ===\n" << table.render();
    for (unsigned k = 0; k < costKindCount; ++k) {
        const auto kind = static_cast<CostKind>(k);
        const SimNs ns = kindNs(kind);
        if (!ns)
            continue;
        const std::uint64_t permille = total ? ns * 1000 / total : 0;
        out << detail::format(
            "total[%s] = %llu ns (%llu.%llu%%)\n",
            costKindToString(kind), (unsigned long long)ns,
            (unsigned long long)(permille / 10),
            (unsigned long long)(permille % 10));
    }
    out << detail::format("total = %llu ns over %llu events\n",
                          (unsigned long long)total,
                          (unsigned long long)totalEvents());
    return out.str();
}

void
ExitLedger::clear()
{
    for (Row &row : rowTable) {
        row.events = 0;
        row.ns = 0;
        row.durations.clear();
    }
}

} // namespace elisa::sim
