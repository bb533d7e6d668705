#include "elisa/gate.hh"

#include <optional>
#include <utility>

#include "base/logging.hh"
#include "cpu/exit.hh"
#include "cpu/guest_view.hh"
#include "hv/hypercall.hh"

namespace elisa::core
{

namespace
{

// Trace-point names for the gate path; interned lazily because gates
// usually exist before any tracer is installed.
sim::TraceNameCache gateCallName("gate_call");
sim::TraceNameCache gateBatchName("gate_batch");
sim::TraceNameCache switchName("eptp_switch");
sim::TraceNameCache swapName("stack_swap");
sim::TraceNameCache payloadName("payload");
sim::TraceNameCache returnName("return");

/** What passing one point of the round trip does to the instruments. */
struct GatePoint
{
    std::optional<GateLeg> leg; ///< the leg this point completes
    std::uint8_t closes;        ///< innermost open spans it ends
    sim::TraceNameCache *wrap;  ///< span it then begins, without args
    sim::TraceNameCache *open;  ///< innermost span it begins (point arg)
};

// The points of one round trip, in execution order. The trace shape
// is the paper's decomposition: gate_call > {eptp_switch, stack_swap,
// eptp_switch, payload, return > {eptp_switch, eptp_switch}}; the
// epilogue has no span of its own. The payload is not a leg: the
// ledger attributes mechanism cost only (see GateLeg).
namespace point
{
constexpr GatePoint Enter{std::nullopt, 0, nullptr, &switchName};
constexpr GatePoint EnterSwitch{GateLeg::EnterSwitch, 1, nullptr, &swapName};
constexpr GatePoint Prologue{GateLeg::Prologue, 1, nullptr, &switchName};
constexpr GatePoint SubSwitch{GateLeg::SubSwitch, 1, nullptr, nullptr};
constexpr GatePoint Payload{std::nullopt, 0, nullptr, &payloadName};
constexpr GatePoint PayloadDone{std::nullopt, 1, nullptr, nullptr};
constexpr GatePoint Return{std::nullopt, 0, &returnName, &switchName};
constexpr GatePoint ReturnSwitch{GateLeg::ReturnSwitch, 1, nullptr, nullptr};
constexpr GatePoint Epilogue{GateLeg::Epilogue, 0, nullptr, &switchName};
constexpr GatePoint ExitSwitch{GateLeg::ExitSwitch, 2, nullptr, nullptr};
} // namespace point

/**
 * The raise half of a VMFUNC through a cleared EPTP-list entry: the
 * instruction's time is spent, then the VM exit is raised.
 */
[[noreturn]] void
staleEntry(cpu::Vcpu &cpu, EptpIndex index)
{
    cpu.clock().advance(cpu.costModel().vmfuncNs);
    cpu.stats().inc(cpu.statIds().vmfunc);
    cpu.stats().inc(cpu.statIds().vmfuncFail);
    throw cpu::VmExitEvent(cpu::ExitReason::VmfuncFail, index);
}

} // anonymous namespace

/**
 * The one instrumentation stream of a round trip, run only when a
 * tracer or a ledger is installed (Gate::roundTrip chooses). At every
 * point one clock read ends and begins the point's trace spans and
 * observes the leg it completes, so the spans and the GateLeg rows
 * cannot disagree. A faulting leg is never charged (the VM runner
 * bills the exit), and the spans a fault leaves open close at its
 * time on the unwind.
 */
class Gate::Probe
{
  public:
    /** Opens the outer span (@p name, @p arg). */
    Probe(Gate &g, sim::TraceNameCache &name, std::uint64_t arg)
        : gate(g), tr(g.cpuPtr->tracer()), led(g.cpuPtr->ledger())
    {
        cpu::Vcpu &cpu = *gate.cpuPtr;
        // Leg slots resolve once per ledger instance (serial-guarded,
        // like TraceNameCache).
        if (led && gate.ledgerSerial != led->serial()) {
            registerGateLegNames(*led);
            for (unsigned l = 0; l < gateLegCount; ++l) {
                gate.legSlots[l] = led->slot(gate.ownerVm, cpu.id(),
                                             sim::CostKind::GateLeg, l);
            }
            gate.ledgerSerial = led->serial();
        }
        legStart = cpu.clock().now();
        if (tr)
            begin(name, legStart, arg);
    }

    /**
     * Pass @p p; @p arg annotates the innermost span it opens. Inlined
     * into each point, where the point's constexpr spec folds away:
     * the traced path does only the work that point names.
     */
    [[gnu::always_inline]] void
    at(const GatePoint &p, std::uint64_t arg = 0)
    {
        const SimNs now = gate.cpuPtr->clock().now();
        if (tr) {
            for (unsigned i = 0; i < p.closes; ++i)
                end(now, 0, 0);
            if (p.wrap)
                begin(*p.wrap, now, 0);
            if (p.open)
                begin(*p.open, now, arg);
        }
        if (led && p.leg)
            led->observe(gate.legSlots[static_cast<unsigned>(*p.leg)],
                         now - legStart);
        legStart = now;
    }

    /** An EPTP switch, with its `vmfunc` trace instant. */
    static void
    vmfunc(cpu::Vcpu &cpu, EptpIndex index)
    {
        cpu.vmfunc(0, index);
    }

    /** A completed round trip: the outer span closes with (a0, a1). */
    void finish(std::uint64_t a0, std::uint64_t a1) { closeAll(a0, a1); }

    /** A faulted one: what the fault left open closes with (0, 0). */
    ~Probe() { closeAll(0, 0); }

  private:
    void
    closeAll(std::uint64_t a0, std::uint64_t a1)
    {
        const SimNs now = gate.cpuPtr->clock().now();
        while (tr && depth > 0)
            end(now, depth == 1 ? a0 : 0, depth == 1 ? a1 : 0);
    }

    void
    begin(sim::TraceNameCache &name, SimNs now, std::uint64_t arg)
    {
        spans[depth] = name.get(*tr);
        tr->begin(sim::SpanCat::Gate, spans[depth++], gate.cpuPtr->id(),
                  now, arg);
    }

    void
    end(SimNs now, std::uint64_t a0, std::uint64_t a1)
    {
        tr->end(sim::SpanCat::Gate, spans[--depth], gate.cpuPtr->id(), now,
                a0, a1);
    }

    Gate &gate;
    sim::Tracer *const tr;
    sim::ExitLedger *const led;
    SimNs legStart;
    /** Open spans, outermost first: at most outer > return > switch. */
    sim::TraceNameId spans[3];
    unsigned depth = 0;
};

/**
 * The bare round trip: every point compiles to nothing, and an EPTP
 * switch tests no tracer (Gate::roundTrip found none installed).
 */
class Gate::NoProbe
{
  public:
    NoProbe(Gate &, sim::TraceNameCache &, std::uint64_t) {}
    void at(const GatePoint &, std::uint64_t = 0) {}
    static void
    vmfunc(cpu::Vcpu &cpu, EptpIndex index)
    {
        cpu.vmfuncBare(0, index);
    }
    void finish(std::uint64_t, std::uint64_t) {}
};

const char *
gateLegToString(GateLeg leg)
{
    static const char *const names[gateLegCount] = {
        "enter_switch",  "prologue", "sub_switch",
        "return_switch", "epilogue", "exit_switch"};
    const auto l = static_cast<unsigned>(leg);
    return l < gateLegCount ? names[l] : "?";
}

void
registerGateLegNames(sim::ExitLedger &ledger)
{
    for (unsigned l = 0; l < gateLegCount; ++l) {
        ledger.setCodeName(sim::CostKind::GateLeg, l,
                           gateLegToString(static_cast<GateLeg>(l)));
    }
}

Gate::Gate(cpu::Vcpu &vcpu, ElisaService &service, const AttachInfo &info)
    : cpuPtr(&vcpu), svc(&service), attachInfo(info), ownerVm(vcpu.vm())
{
    callsId = vcpu.stats().id("elisa_calls");
    batchedFnsId = vcpu.stats().id("elisa_batched_fns");
    badFnId = vcpu.stats().id("elisa_bad_fn");
}

Gate::Gate(Gate &&other) noexcept
{
    *this = std::move(other);
}

Gate &
Gate::operator=(Gate &&other) noexcept
{
    if (this != &other) {
        try {
            detach();
        } catch (...) {
            // Same contract as the destructor: the replaced handle is
            // gone either way and host-side teardown is idempotent.
        }
        cpuPtr = std::exchange(other.cpuPtr, nullptr);
        svc = std::exchange(other.svc, nullptr);
        attachInfo = other.attachInfo;
        ownerVm = other.ownerVm;
        callsId = other.callsId;
        batchedFnsId = other.batchedFnsId;
        badFnId = other.badFnId;
        ledgerSerial = other.ledgerSerial;
        legSlots = other.legSlots;
    }
    return *this;
}

Gate::~Gate()
{
    try {
        detach();
    } catch (...) {
        // An injected fault (VM exit) raised by the detach hypercall
        // cannot propagate out of a destructor; the attachment is
        // retired host-side regardless.
    }
}

bool
Gate::detach()
{
    if (!valid())
        return false;
    // Invalidate first: whatever the hypercall below does (including
    // unwinding with a VM exit), this handle must never retry through
    // a vCPU that may be mid-teardown.
    cpu::Vcpu *cpu = cpuPtr;
    ElisaService *service = svc;
    const AttachmentId aid = attachInfo.attachment;
    cpuPtr = nullptr;
    svc = nullptr;
    // The vCPU is owned by the guest VM; when that VM already died
    // (injected KillVm, teardown order) the hypervisor's destroy hook
    // retired the attachment and there is no vCPU to hypercall from.
    if (!service->hypervisor().hasVm(ownerVm))
        return false;
    cpu::HypercallArgs args;
    args.nr = static_cast<std::uint64_t>(ElisaHc::Detach);
    args.arg0 = aid;
    return cpu->vmcall(args) != hv::hcError;
}

void
Gate::maybeExpire()
{
    if (attachInfo.expiresNs == 0)
        return;
    cpu::Vcpu &cpu = *cpuPtr;
    if (cpu.clock().now() < attachInfo.expiresNs)
        return;
    // The grant lapsed. Host-side teardown first (the one canonical
    // routine: EPTP-list entries cleared and TLBs flushed before the
    // bookkeeping goes), then this handle dies and the entry VMFUNC
    // faults on the now-cleared index — the same exit a concurrent
    // revocation would produce.
    const EptpIndex gate_index = attachInfo.gateIndex;
    svc->expireCapability(attachInfo.capability, cpu);
    cpuPtr = nullptr;
    svc = nullptr;
    staleEntry(cpu, gate_index);
}

void
Gate::badFn(unsigned fn) const
{
    // An out-of-range id is a jump to an unmapped sub-context
    // address: raise the fetch fault the MMU would.
    ept::EptViolation violation;
    violation.gpa = gateCodeGpa + pageSize + fn * 16;
    violation.access = ept::Access::Exec;
    violation.notMapped = true;
    cpuPtr->stats().inc(badFnId);
    throw cpu::VmExitEvent(violation);
}

std::uint64_t
Gate::call(unsigned fn, std::uint64_t arg0, std::uint64_t arg1,
           std::uint64_t arg2)
{
    panic_if(!valid(), "call through an invalid gate");
    maybeExpire();
    BatchEntry entry{fn, arg0, arg1, arg2};
    roundTrip({&entry, 1}, false);
    return entry.ret;
}

std::size_t
Gate::callBatch(std::span<BatchEntry> entries)
{
    panic_if(!valid(), "batched call through an invalid gate");
    maybeExpire();
    if (entries.empty())
        return 0;
    roundTrip(entries, true);
    return entries.size();
}

void
Gate::roundTrip(std::span<BatchEntry> entries, bool batch)
{
    if (cpuPtr->tracer() || cpuPtr->ledger()) [[unlikely]]
        roundTripWith<Probe>(entries, batch);
    else
        roundTripWith<NoProbe>(entries, batch);
}

template <class Instruments>
void
Gate::roundTripWith(std::span<BatchEntry> entries, bool batch)
{
    cpu::Vcpu &cpu = *cpuPtr;
    const sim::CostModel &cost = cpu.costModel();
    const EptpIndex caller_index = cpu.activeIndex();
    const BatchEntry &first = entries.front();

    // The outer span opens before the stale-EPTP injection point so a
    // faulted entry is attributed to this round trip. A completed one
    // stamps (ret, fn + 1) — a batch (n, 1) — on the close; a faulted
    // one leaves (0, 0).
    Instruments probe(*this, batch ? gateBatchName : gateCallName,
                      batch ? entries.size() : first.fn);
    // A FaultPlan GateStale decision models a revocation racing this
    // call: the gate's EPTP-list entry is already gone, so the entry
    // VMFUNC faults exactly like Vcpu::vmfunc on an invalid index.
    sim::FaultPlan *plan = svc->hypervisor().faultPlan();
    if (plan && plan->onGateCall(cpu.vm()).action ==
                    sim::FaultAction::GateStale)
        staleEntry(cpu, attachInfo.gateIndex);

    // --- enter: default -> gate ------------------------------------
    probe.at(point::Enter, attachInfo.gateIndex);
    Instruments::vmfunc(cpu, attachInfo.gateIndex);
    probe.at(point::EnterSwitch);

    // Gate prologue: the trampoline must be executable here, and the
    // spill area (caller's EPTP index, argument registers — a batch's
    // first entry) must live on the isolated stack. Non-charging view:
    // checks real, time folded into gateCodeNs.
    cpu::GuestView gate_view(cpu, /*charge_time=*/false);
    gate_view.fetchCheck(gateCodeGpa);
    const std::uint64_t spill[4] = {caller_index, first.arg0, first.arg1,
                                    first.arg2};
    gate_view.writeBytes(gateStackGpa, spill, sizeof(spill));
    cpu.clock().advance(cost.gateCodeNs);
    probe.at(point::Prologue, attachInfo.subIndex);

    // --- gate -> sub --------------------------------------------------
    Instruments::vmfunc(cpu, attachInfo.subIndex);
    probe.at(point::SubSwitch);

    // Run the shared functions back to back under the sub context with
    // a charging view: every byte they touch is translated, checked,
    // and costed. A fault inside one unwinds through the gate; the
    // vCPU is parked back in its default context by the VM runner's
    // fault policy, so nothing needs restoring here.
    Attachment *attach = svc->attachment(attachInfo.attachment);
    panic_if(attach == nullptr,
             "attachment vanished while its EPTP stayed installed");
    const SharedFnTable &table = attach->exportRecord().functions();
    cpu::GuestView sub_view(cpu);
    for (BatchEntry &entry : entries) {
        if (entry.fn >= table.size())
            badFn(entry.fn);
        SubCallCtx ctx{sub_view, objectGpa, attachInfo.objectBytes,
                       exchangeGpa, attachInfo.exchangeBytes, entry.arg0,
                       entry.arg1, entry.arg2};
        probe.at(point::Payload, entry.fn);
        entry.ret = table[entry.fn](ctx);
        probe.at(point::PayloadDone);
    }

    // --- sub -> gate --------------------------------------------------
    probe.at(point::Return, attachInfo.gateIndex);
    Instruments::vmfunc(cpu, attachInfo.gateIndex);
    probe.at(point::ReturnSwitch);

    // Gate epilogue: reload the spill, verify trampoline still there.
    gate_view.fetchCheck(gateCodeGpa);
    std::uint64_t restore[4];
    gate_view.readBytes(gateStackGpa, restore, sizeof(restore));
    cpu.clock().advance(cost.gateCodeNs);
    probe.at(point::Epilogue, restore[0]);

    // --- gate -> default ----------------------------------------------
    Instruments::vmfunc(cpu, static_cast<EptpIndex>(restore[0]));
    probe.at(point::ExitSwitch);

    cpu.stats().inc(callsId);
    if (batch) {
        cpu.stats().inc(batchedFnsId, entries.size());
        probe.finish(entries.size(), 1);
    } else {
        probe.finish(first.ret, first.fn + 1);
    }
}

void
Gate::writeExchange(std::uint64_t offset, const void *src,
                    std::uint64_t len)
{
    panic_if(!valid(), "exchange write through an invalid gate");
    panic_if(offset + len > attachInfo.exchangeBytes,
             "exchange write out of bounds");
    cpu::GuestView view(*cpuPtr);
    view.writeBytes(attachInfo.exchangeGuestGpa + offset, src, len);
}

void
Gate::readExchange(std::uint64_t offset, void *dst, std::uint64_t len)
{
    panic_if(!valid(), "exchange read through an invalid gate");
    panic_if(offset + len > attachInfo.exchangeBytes,
             "exchange read out of bounds");
    cpu::GuestView view(*cpuPtr);
    view.readBytes(attachInfo.exchangeGuestGpa + offset, dst, len);
}

} // namespace elisa::core
