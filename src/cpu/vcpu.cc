#include "cpu/vcpu.hh"

#include "base/logging.hh"
#include "cpu/exit.hh"

namespace elisa::cpu
{

Vcpu::Vcpu(VcpuId id, VmId owner, mem::HostMemory &memory,
           mem::FrameAllocator &allocator, const sim::CostModel &cost_model,
           HypercallSink *sink)
    : vcpuId(id), ownerVm(owner), mem(memory), cost(cost_model),
      hypercallSink(sink),
      list(std::make_unique<ept::EptpList>(memory, allocator))
{
    panic_if(sink == nullptr, "vcpu needs a hypercall sink");

    hotIds.vmfunc = statSet.id("vmfunc");
    hotIds.vmfuncFail = statSet.id("vmfunc_fail");
    hotIds.vmcall = statSet.id("vmcall");
    hotIds.cpuid = statSet.id("cpuid");
    hotIds.eptWalk = statSet.id("ept_walk");
    hotIds.eptAdUpdate = statSet.id("ept_ad_update");
    hotIds.eptViolation = statSet.id("ept_violation");
    hotIds.l0Hit = statSet.id("l0_hit");
    translationCache.attachStats(statSet);
}

void
Vcpu::setTracer(sim::Tracer *tracer)
{
    tracerPtr = tracer;
    if (tracerPtr) {
        vmfuncName = tracerPtr->intern("vmfunc");
        vmcallName = tracerPtr->intern("vmcall");
    }
}

void
Vcpu::traceVmfunc(std::uint64_t leaf, EptpIndex index)
{
    // Stamped at the end of the instruction's time, which the switch
    // that follows spends.
    tracerPtr->instant(sim::SpanCat::Cpu, vmfuncName, vcpuId,
                       simClock.now() + cost.vmfuncNs, leaf, index);
}

void
Vcpu::setLedger(sim::ExitLedger *ledger)
{
    ledgerPtr = ledger;
    ledgerSlots.clear();
    // The CPUID row exists (zeroed) from installation on, so reports
    // list it whether or not the guest ever executes CPUID.
    if (ledgerPtr)
        ledgerSlot(sim::CostKind::Exit,
                   static_cast<std::uint32_t>(ExitReason::Cpuid));
}

sim::LedgerSlot
Vcpu::ledgerSlot(sim::CostKind kind, std::uint32_t code)
{
    const std::uint64_t key =
        std::uint64_t{static_cast<std::uint8_t>(kind)} << 32 | code;
    auto [it, fresh] = ledgerSlots.try_emplace(key, 0);
    if (fresh)
        it->second = ledgerPtr->slot(ownerVm, vcpuId, kind, code);
    return it->second;
}

/**
 * The one instrumentation stream of a VMCALL. The frame opens the
 * `vmcall` span at instruction start; on the way out, returning or
 * unwinding (an injected KillVm), it closes the span and charges the
 * {Hypercall, nr} row with exit + dispatch, plus vmentry only once the
 * instruction re-enters (the VM runner bills a faulting exit itself).
 * The span minus the dispatch span nested in it is therefore exactly
 * the row's charge. With neither instrument installed the frame costs
 * pointer tests and no clock read.
 */
class Vcpu::VmcallFrame
{
  public:
    VmcallFrame(Vcpu &vcpu, std::uint64_t nr)
        : cpu(vcpu), tr(vcpu.tracerPtr), hcNr(nr)
    {
        if (tr) [[unlikely]]
            tr->begin(sim::SpanCat::Cpu, cpu.vmcallName, cpu.vcpuId,
                      cpu.simClock.now(), hcNr);
    }

    VmcallFrame(const VmcallFrame &) = delete;
    VmcallFrame &operator=(const VmcallFrame &) = delete;

    /** The instruction re-entered the guest with @p rax. */
    void
    reentered(std::uint64_t rax)
    {
        entered = true;
        rc = rax;
    }

    ~VmcallFrame()
    {
        if (tr || cpu.ledgerPtr) [[unlikely]]
            close();
    }

  private:
    [[gnu::noinline]] void
    close()
    {
        if (tr)
            tr->end(sim::SpanCat::Cpu, cpu.vmcallName, cpu.vcpuId,
                    cpu.simClock.now(), rc);
        if (cpu.ledgerPtr) {
            const sim::CostModel &c = cpu.cost;
            cpu.ledgerPtr->charge(
                cpu.ledgerSlot(sim::CostKind::Hypercall,
                               static_cast<std::uint32_t>(hcNr)),
                c.vmexitNs + c.hypercallDispatchNs +
                    (entered ? c.vmentryNs : 0));
        }
    }

    Vcpu &cpu;
    sim::Tracer *const tr;
    const std::uint64_t hcNr;
    std::uint64_t rc = 0;
    bool entered = false;
};

void
Vcpu::activateEptp(EptpIndex index)
{
    auto eptp = list->lookup(index);
    panic_if(!eptp, "activating invalid EPTP list entry %u", index);
    currentEptp = *eptp;
    currentIndex = index;
}

void
Vcpu::vmfunc(std::uint64_t leaf, EptpIndex index)
{
    if (tracerPtr) [[unlikely]]
        traceVmfunc(leaf, index);
    vmfuncBare(leaf, index);
}

void
Vcpu::vmfuncBare(std::uint64_t leaf, EptpIndex index)
{
    // The switch attempt itself consumes the instruction's time before
    // any fault is raised.
    simClock.advance(cost.vmfuncNs);
    statSet.inc(hotIds.vmfunc);

    if (leaf != 0) {
        statSet.inc(hotIds.vmfuncFail);
        throw VmExitEvent(ExitReason::VmfuncFail, leaf);
    }
    auto eptp = list->lookup(index);
    if (!eptp) {
        statSet.inc(hotIds.vmfuncFail);
        throw VmExitEvent(ExitReason::VmfuncFail, index);
    }
    currentEptp = *eptp;
    currentIndex = index;
}

std::uint64_t
Vcpu::vmcall(const HypercallArgs &args)
{
    statSet.inc(hotIds.vmcall);
    // The hypervisor nests its dispatch span (named after the call)
    // inside this frame.
    VmcallFrame frame(*this, args.nr);
    simClock.advance(cost.vmexitNs + cost.hypercallDispatchNs);
    const std::uint64_t rax = hypercallSink->handleHypercall(*this, args);
    simClock.advance(cost.vmentryNs);
    frame.reentered(rax);
    return rax;
}

std::uint64_t
Vcpu::cpuid(std::uint64_t leaf)
{
    statSet.inc(hotIds.cpuid);
    simClock.advance(cost.cpuidRttNs());
    if (ledgerPtr) [[unlikely]]
        ledgerPtr->charge(
            ledgerSlot(sim::CostKind::Exit,
                       static_cast<std::uint32_t>(ExitReason::Cpuid)),
            cost.cpuidRttNs());
    // Canned vendor response; the value is irrelevant to the model.
    return 0x656c6973ull ^ leaf;
}

} // namespace elisa::cpu
