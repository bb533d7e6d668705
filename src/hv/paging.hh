/**
 * @file
 * The hypervisor's demand pager: presence-aware memory management over
 * the EPT-violation path.
 *
 * The Pager turns the machine's flat "RAM is always there" model into
 * a paged hierarchy: managed guest frames may be Resident (mapped
 * present, bytes in RAM), Swapped (leaf demoted to a non-present
 * ept::PresState::Swapped entry recording a mem::BackingStore slot) or
 * ZeroPending (demand-zero, leaf Ballooned, first touch zero-fills).
 * A guest touching a non-present page raises an EPT violation; the CPU
 * consults its cpu::EptFaultSink (the Hypervisor, which forwards here)
 * before converting the violation into a guest-visible exit. resolve()
 * services the fault — evicting victims when the machine is over its
 * resident budget, reading the page back from the swap device or
 * zero-filling it — charges every simulated nanosecond to the faulting
 * vCPU (vmexit + handler + swap I/O + vmentry), ledgers the work as
 * Exit/EptViolation plus Page/{PageIn,PageOut,ZeroFill} rows, and lets
 * the CPU re-execute the access (VMRESUME semantics).
 *
 * Overcommit: the resident budget (PagingConfig::residentLimitFrames)
 * caps how many managed frames may be resident at once, independent of
 * how many are managed — managed-to-budget ratios above 1.0 model an
 * overcommitted machine. Reclaim is clock second-chance over the leaf
 * accessed flags (Ept::accessedAndClear), with per-VM balloon targets:
 * frames of VMs over their target are evicted without a second chance.
 *
 * Sharing: one physical frame may be mapped by several EPT contexts
 * (the owner's default context plus ELISA sub-context windows or
 * ivshmem attachments). The Pager tracks every mapping of a managed
 * frame and keeps their leaves in lock-step — a swap-out demotes all
 * of them (followed by INVEPT of each affected context, which also
 * bumps the TLB epochs that guard per-GuestView L0 micro-caches), a
 * page-in promotes all of them. A fault on a shared object page
 * mid-gate-call is therefore serviced transparently and billed to the
 * *faulting* guest, not the object's owner.
 *
 * Honesty: swap-out poisons the frame bytes (0x5a) after writing them
 * to the store, and demand-zero management poisons at registration, so
 * any path that dodges the fault machinery reads garbage instead of
 * silently working.
 */

#ifndef ELISA_HV_PAGING_HH
#define ELISA_HV_PAGING_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "base/types.hh"
#include "cpu/vcpu.hh"
#include "ept/ept.hh"
#include "mem/backing_store.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"

namespace elisa::hv
{

class Hypervisor;
class Vm;

/** Pager construction parameters. */
struct PagingConfig
{
    /**
     * Maximum managed frames resident at once (0 = no cap). Managed
     * frames beyond this budget live in the backing store; the ratio
     * managed/limit is the machine's overcommit factor.
     */
    std::uint64_t residentLimitFrames = 0;

    /** Swap-device capacity in page slots. */
    std::uint64_t swapSlots = 1u << 14;
};

/**
 * The demand pager. Created via Hypervisor::enablePaging(); holds
 * references into the hypervisor (frames, physical memory, stats), so
 * it never outlives it.
 */
class Pager
{
  public:
    /** Lifecycle state of one managed frame. */
    enum class FrameState : std::uint8_t
    {
        Resident,    ///< bytes in RAM, leaves present
        Swapped,     ///< bytes in the store, leaves Swapped(slot)
        ZeroPending, ///< never touched, leaves Ballooned
    };

    Pager(Hypervisor &hv, const PagingConfig &config);

    Pager(const Pager &) = delete;
    Pager &operator=(const Pager &) = delete;

    // ---- management registration -----------------------------------
    /**
     * Put a page range under pager management. @p ept must currently
     * map every page of [@p gpa, @p gpa + @p len) as a present 4 KiB
     * leaf onto [@p hpa, @p hpa + @p len) (large pages are never
     * managed — map managed ranges 4 KiB-granular). With
     * @p demand_zero the pages start ZeroPending: leaves are demoted
     * to Ballooned, the frames are poisoned, and the first touch
     * faults in a zero page — any bytes previously there are lost, so
     * only demand-zero fresh memory. Without it they start Resident
     * (contents kept) and become candidates for eviction.
     */
    void manageRange(VmId owner, ept::Ept &ept, Gpa gpa, Hpa hpa,
                     std::uint64_t len, bool demand_zero);

    /**
     * Manage a VM's entire RAM through its default context.
     * Demand-zero management must happen before the guest stores
     * anything (right after createVm).
     */
    void manageVmRam(Vm &vm, bool demand_zero);

    /**
     * Manage an object living inside @p owner_vm's RAM, given its
     * host-physical base (as ELISA's Export records it). Registers the
     * owner's default-context mapping of those pages.
     */
    void manageObject(Vm &owner_vm, Hpa obj_hpa, std::uint64_t len,
                      bool demand_zero);

    /**
     * Register an additional mapping of already-managed frames
     * (a sub-context object window, an ivshmem attachment). Pages of
     * [@p hpa, @p hpa + @p len) that are not managed are skipped.
     * Leaves of non-resident frames are immediately demoted to match
     * the frame state (the caller just mapped them present).
     */
    void addMirror(ept::Ept &ept, Gpa gpa, Hpa hpa, std::uint64_t len);

    /**
     * Forget every range and mapping registered under @p eptp (the
     * context is being destroyed or its window unmapped). Idempotent.
     */
    void dropContext(std::uint64_t eptp);

    /**
     * Forget the single range registered at (@p eptp, @p gpa) and its
     * page mappings, leaving the context's other ranges managed (an
     * ivshmem detach from a default context whose RAM stays paged).
     * Idempotent.
     */
    void dropMirror(std::uint64_t eptp, Gpa gpa);

    /**
     * VM-teardown hook: forget the VM's default context and release
     * every frame it owns (freeing swap slots). Wired by
     * Hypervisor::enablePaging() via addVmDestroyHook.
     */
    void onVmDestroy(VmId vm);

    // ---- policy ------------------------------------------------------
    /** Change the machine resident budget (0 = no cap). Takes effect
     *  at the next page-in; resident frames are not evicted eagerly. */
    void setResidentLimit(std::uint64_t frames);

    /**
     * Set VM @p vm's balloon target (max resident frames, 0 = none):
     * the clock reclaimer evicts frames of over-target VMs first,
     * without granting them a second chance.
     */
    void setBalloonTarget(VmId vm, std::uint64_t frames);

    // ---- fault path --------------------------------------------------
    /**
     * Resolve an EPT violation raised under @p vcpu's active context.
     * Returns true when the faulting page was brought in (the CPU
     * re-executes the access), false when the fault is not the pager's
     * (not a managed page, a permission violation, swap exhausted, an
     * injected page-in error). May throw cpu::VmExitEvent when an
     * injected KillVm dooms the faulting VM mid-page-in.
     */
    bool resolve(cpu::Vcpu &vcpu, const ept::EptViolation &violation);

    /**
     * Host-privileged touch (the VMCALL servicing scheme): page in
     * every managed frame covering [@p hpa, @p hpa + @p len) without
     * an exit, billing the service cost (fault handler + swap I/O +
     * any evictions, but no vmexit/vmentry — the caller already paid
     * for its exit) to @p billed.
     * @return false when any page-in fails (swap exhausted, injected
     *         error); earlier pages stay resident.
     */
    bool hostTouch(cpu::Vcpu &billed, Hpa hpa, std::uint64_t len);

    // ---- introspection ----------------------------------------------
    /** Managed frames currently resident. */
    std::uint64_t residentFrames() const { return residentCount; }

    /** Managed frames currently swapped out. */
    std::uint64_t swappedFrames() const { return swappedCount; }

    /** Total managed frames (any state). */
    std::uint64_t managedFrames() const { return framesByHpa.size(); }

    /** Current resident budget (0 = no cap). */
    std::uint64_t residentLimit() const { return residentLimitFrames; }

    /** The simulated swap device. */
    const mem::BackingStore &store() const { return backing; }

    /** State of the managed frame at @p hpa, nullopt when unmanaged. */
    std::optional<FrameState> frameState(Hpa hpa) const;

  private:
    /** One registered mapping of a managed frame. */
    struct Mapping
    {
        std::uint64_t eptp;
        ept::Ept *ept;
        Gpa gpa;
    };

    /** One managed physical frame. */
    struct Frame
    {
        VmId owner = invalidVmId;
        FrameState state = FrameState::Resident;
        std::uint64_t slot = 0; ///< store slot when Swapped
        std::vector<Mapping> mappings;
    };

    /** One managed GPA range of a context (fault lookup). */
    struct Range
    {
        Gpa gpa;
        Hpa hpa;
        std::uint64_t len;
    };

    /** Managed frame backing @p gpa under @p eptp, or nullopt. */
    std::optional<Hpa> findFrame(std::uint64_t eptp, Gpa gpa) const;

    /**
     * Clock second-chance victim selection: first resident frame that
     * is over its owner's balloon target, else first whose accessed
     * flags (across every mapping) are already clear; referenced
     * frames get their flags cleared and one more lap. Never returns
     * @p except.
     */
    std::optional<Hpa> pickVictim(Hpa except);

    /** True when @p owner is over its balloon target. */
    bool ownerOverTarget(VmId owner) const;

    /**
     * Swap @p hpa out: write the store, demote every mapping's leaf,
     * INVEPT the affected contexts, poison the frame.
     * @return false when the store is full (frame stays resident).
     */
    bool evictFrame(Hpa hpa);

    /**
     * Evict until a page-in fits under the resident budget.
     * @return number of evictions, or nullopt when no victim fits.
     */
    std::optional<unsigned> makeRoom(Hpa except);

    /** What one page-in actually did (bringIn result). */
    struct ServiceResult
    {
        SimNs pageNs = 0;     ///< handler + swap-in/zero-fill + delay
        unsigned evicted = 0; ///< victims swapped out to make room
        bool zeroFill = false;
    };

    /**
     * Commit one page-in of the managed frame at @p hpa: make room
     * under the resident budget, restore the bytes (store read or
     * zero fill), promote every mapping's leaf and update the books.
     * @return the costs incurred, or nullopt when the page-in is
     *         impossible (budget unreachable, swap device full) — the
     *         frame is left exactly as it was.
     */
    std::optional<ServiceResult> bringIn(Hpa hpa, SimNs delay);

    /**
     * Consult the fault plan's PageIn hook for a fault of @p vcpu's
     * VM. Returns the injected delay (0 normally) or nullopt when an
     * injected error aborts the page-in; throws cpu::VmExitEvent when
     * an injected KillVm dooms the faulting VM itself. Killing a third
     * party tears it down immediately, exactly like the hypercall
     * dispatcher's KillVm.
     */
    std::optional<SimNs> pageInHook(cpu::Vcpu &vcpu, Gpa gpa);

    /**
     * Page in the managed frame at @p hpa for @p vcpu (bringIn) and
     * bill it: the one page-service bill. Advances the vCPU clock,
     * charges its ledger rows and emits one Page span annotated with
     * @p addr. With @p exited (the EPT-violation path) the exit and
     * re-entry are part of the bill: counted, charged to the
     * Exit/EptViolation row and inside the span. Evictions go to the
     * PageOut row, the fault service to PageIn or ZeroFill.
     * @return false, billing nothing, when bringIn fails.
     */
    bool servePageIn(cpu::Vcpu &vcpu, Hpa hpa, SimNs delay,
                     std::uint64_t addr, bool exited);

    Hypervisor &hv;
    mem::BackingStore backing;
    std::uint64_t residentLimitFrames;
    std::uint64_t residentCount = 0;
    std::uint64_t swappedCount = 0;

    std::map<Hpa, Frame> framesByHpa;
    /** eptp -> managed ranges of that context, keyed by base GPA. */
    std::map<std::uint64_t, std::map<Gpa, Range>> rangesByEptp;
    /** Next HPA the clock hand considers. */
    Hpa clockHand = 0;

    // Interned pager counters (hv stats).
    sim::StatId faultsId;
    sim::StatId pagesInId;
    sim::StatId pagesOutId;
    sim::StatId zeroFillsId;
    sim::StatId hostTouchesId;
    sim::StatId pageInErrorsId;
    sim::StatId pageInDelaysId;
    sim::StatId pageInKillsId;

    // Page-span and fault-annotation names.
    sim::TraceNameCache pageInName{"page_in"};
    sim::TraceNameCache zeroFillName{"zero_fill"};
    sim::TraceNameCache pageErrorName{"fault_page_in_error"};
    sim::TraceNameCache pageDelayName{"fault_page_in_delay"};
};

} // namespace elisa::hv

#endif // ELISA_HV_PAGING_HH
