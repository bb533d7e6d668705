#include "hv/vm.hh"

#include "base/logging.hh"
#include "hv/hypervisor.hh"

namespace elisa::hv
{

Vm::Vm(Hypervisor &hv, VmId id, std::string name, std::uint64_t ram_bytes,
       unsigned vcpu_count)
    : hyper(hv), vmId(id), vmName(std::move(name)), ramSize(ram_bytes)
{
    fatal_if(ram_bytes == 0 || !isPageAligned(ram_bytes),
             "VM RAM must be a non-zero page multiple");
    fatal_if(vcpu_count == 0, "VM needs at least one vCPU");

    // Guest RAM: one contiguous host-physical run, mapped 1:1 into the
    // guest-physical range [0, ramSize) of the default context. The
    // run is 2 MiB-aligned so large-page EPT mappings of guest memory
    // are possible (GPA and HPA alignment then coincide).
    auto base = hv.frames.allocAligned(ram_bytes / pageSize,
                                       ept::largePageSize / pageSize);
    fatal_if(!base, "out of physical memory for VM '%s' RAM",
             vmName.c_str());
    ramBase = *base;
    hv.physMem.zero(ramBase, ram_bytes);

    defaultContext = std::make_unique<ept::Ept>(hv.physMem, hv.frames);
    const bool mapped = defaultContext->mapRange(
        0, ramBase, ram_bytes, ept::Perms::RWX);
    panic_if(!mapped, "fresh default EPT had mappings");

    for (unsigned i = 0; i < vcpu_count; ++i) {
        auto vcpu = std::make_unique<cpu::Vcpu>(
            hv.nextVcpuId++, vmId, hv.physMem, hv.frames, hv.costModel,
            &hv);
        // EPTP-list slot 0 always holds the default context.
        vcpu->eptpList().set(0, defaultContext->eptp());
        vcpu->activateEptp(0);
        vcpu->setTracer(hv.tracerPtr);
        vcpu->setLedger(hv.ledgerPtr);
        // The hypervisor resolves EPT violations (demand paging); with
        // paging off it declines in one virtual call, and the sink is
        // only consulted on the violation path anyway.
        vcpu->setFaultSink(&hv);
        vcpus.push_back(std::move(vcpu));
    }
}

Vm::~Vm()
{
    // vCPUs (and their EPTP-list pages) and the default EPT free
    // themselves; guest RAM frames go back to the machine allocator.
    vcpus.clear();
    defaultContext.reset();
    hyper.frames.free(ramBase, ramSize / pageSize);
}

void
Vm::setShard(ShardId shard)
{
    shardId = shard;
    for (auto &vcpu : vcpus)
        vcpu->setShard(shard);
}

cpu::Vcpu &
Vm::vcpu(unsigned index)
{
    panic_if(index >= vcpus.size(), "vCPU index %u out of range (VM %s)",
             index, vmName.c_str());
    return *vcpus[index];
}

std::optional<Gpa>
Vm::allocGuestMem(std::uint64_t bytes, std::uint64_t align)
{
    panic_if(align < pageSize || (align & (align - 1)) != 0,
             "bad guest allocation alignment %llu",
             (unsigned long long)align);
    const std::uint64_t start = (ramBump + align - 1) & ~(align - 1);
    const std::uint64_t aligned = pageAlignUp(bytes);
    if (aligned == 0 || start + aligned > ramSize)
        return std::nullopt;
    ramBump = start + aligned;
    return start;
}

Hpa
Vm::ramGpaToHpa(Gpa gpa) const
{
    panic_if(gpa >= ramSize, "GPA %llx outside VM '%s' RAM",
             (unsigned long long)gpa, vmName.c_str());
    return ramBase + gpa;
}

GuestRunResult
Vm::run(unsigned vcpu_index, const std::function<void()> &guest_code)
{
    cpu::Vcpu &cpu = vcpu(vcpu_index);
    try {
        guest_code();
        return GuestRunResult{};
    } catch (const cpu::VmExitEvent &exit) {
        // Fault policy: charge the exit, record it, and park the vCPU
        // back in its default context.
        cpu.clock().advance(hyper.costModel.vmexitNs);
        hyper.statSet.inc(hyper.exitStatId(exit.reason()));
        cpu.activateEptp(0);
        cpu.clock().advance(hyper.costModel.vmentryNs);
        if (sim::ExitLedger *led = cpu.ledger()) {
            led->charge(
                cpu.ledgerSlot(sim::CostKind::Exit,
                               static_cast<std::uint32_t>(exit.reason())),
                hyper.costModel.vmexitNs + hyper.costModel.vmentryNs);
        }

        GuestRunResult result;
        result.ok = false;
        result.exit.reason = exit.reason();
        result.exit.qualification = exit.qualification();
        result.exit.violation = exit.violation();
        return result;
    }
}

} // namespace elisa::hv
