/**
 * @file
 * GuestView: the only way guest software touches memory.
 *
 * Every access is translated through the vcpu's *active* EPT (TLB
 * first, hardware walk on miss) and permission-checked; failures throw
 * VmExitEvent(EptViolation), ripping control back to the VM runner like
 * the hardware would. Access time is charged to the vcpu clock.
 *
 * This is what makes the simulation honest: ELISA isolation is not a
 * claim, it is enforced on the access path — a guest holding a pointer
 * into another context's memory simply faults.
 *
 * Host-side performance: two mechanisms keep the access path cheap
 * without changing any simulated-time result (see EXPERIMENTS.md,
 * "Host-side performance budget"):
 *
 *  - The *L0*: the front of the vCPU's ept::Tlb (see tlb.hh), a few
 *    EPTP-tagged lines per access kind that mirror Tlb entries already
 *    proven to allow that kind. A front hit skips the Tlb hash and its
 *    permission and dirty checks and charges exactly what the Tlb-hit
 *    path would have (memAccessNs per beat); it counts `l0_hit`
 *    instead of `tlb_hit`. The front lives in the Tlb, so it outlives
 *    every GuestView and every VMFUNC, and the Tlb drops a line with
 *    the entry it mirrors (eviction, INVEPT), so isolation
 *    revocations are never outlived. A GuestView holds no cache
 *    state and costs almost nothing to build.
 *
 *  - *Batched time charging*: per-chunk memAccessNs/eptWalkNs charges
 *    accumulate in a local counter and are flushed to the SimClock at
 *    the end of each public operation (and before any VmExitEvent
 *    propagates), so final timestamps are bit-identical to per-access
 *    charging while the hot loop touches the clock once.
 */

#ifndef ELISA_CPU_GUEST_VIEW_HH
#define ELISA_CPU_GUEST_VIEW_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "base/bitops.hh"
#include "base/types.hh"
#include "cpu/exit.hh"
#include "cpu/vcpu.hh"

namespace elisa::cpu
{

/**
 * Access helper bound to one vcpu's current EPT context.
 */
class GuestView
{
  public:
    /**
     * Bind to @p vcpu; the active EPTP is re-read on every access.
     *
     * @param charge_time when false, accesses are translated and
     *        permission-checked as usual but cost no simulated time.
     *        Used for code whose memory work is already folded into a
     *        calibrated lump cost (the ELISA gate trampoline), keeping
     *        the checks honest without double-charging.
     */
    explicit GuestView(Vcpu &vcpu, bool charge_time = true)
        : cpu(vcpu), charging(charge_time)
    {
    }

    GuestView(const GuestView &) = delete;
    GuestView &operator=(const GuestView &) = delete;

    /**
     * Translate @p gpa for @p access (TLB + walk + permission check),
     * charging time, throwing VmExitEvent on violation.
     * @return host-physical address of the byte.
     */
    Hpa translate(Gpa gpa, ept::Access access);

    /** Read a trivially-copyable value from guest memory. */
    template <typename T>
    T
    read(Gpa gpa)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        readBytes(gpa, &value, sizeof(T));
        return value;
    }

    /** Write a trivially-copyable value to guest memory. */
    template <typename T>
    void
    write(Gpa gpa, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeBytes(gpa, &value, sizeof(T));
    }

    /** Copy @p len bytes out of guest memory (may cross pages). */
    void readBytes(Gpa gpa, void *dst, std::uint64_t len);

    /** Copy @p len bytes into guest memory (may cross pages). */
    void writeBytes(Gpa gpa, const void *src, std::uint64_t len);

    /** Zero @p len bytes of guest memory. */
    void zeroBytes(Gpa gpa, std::uint64_t len);

    /**
     * Copy @p len bytes guest-to-guest within this view.
     *
     * Semantics are those of a page-chunked bounce copy (read up to
     * 4 KiB, then write it), which the implementation preserves while
     * copying frame-to-frame when the resolved host ranges do not
     * overlap within a chunk.
     */
    void copyBytes(Gpa dst, Gpa src, std::uint64_t len);

    /**
     * Instruction-fetch check: verifies the page holding @p gpa is
     * executable in the active context. The VM runner calls this
     * before dispatching guest code mapped at @p gpa.
     */
    void fetchCheck(Gpa gpa);

    /** Read a NUL-terminated string (bounded by @p max_len). */
    std::string readCString(Gpa gpa, std::uint64_t max_len = 4096);

    /** The vCPU this view is bound to. */
    Vcpu &vcpu() { return cpu; }

  private:
    /** Translate one page-bounded chunk and charge access time. */
    Hpa translateChunk(Gpa gpa, std::uint64_t len, ept::Access access);

    /**
     * translateChunk past an L0 miss: Tlb lookup, walk on a miss, A/D
     * update, permission check, promotion into the L0. Out of line,
     * so an L0 hit runs without its register saves.
     */
    [[gnu::noinline]] Hpa
    translateMiss(Gpa gpa, std::uint64_t len, ept::Access access);

    /**
     * Cold continuation of translateChunk: the access violated.
     * Consults the vCPU's EptFaultSink (demand paging) and either
     * returns the post-resolution translation or throws the
     * guest-visible VmExitEvent. Out of line and noinline so the
     * fault machinery adds nothing to the hot translation body.
     */
    [[gnu::noinline]] ept::Translation
    faultChunk(Gpa gpa, std::uint64_t len, ept::Access access,
               ept::Perms need, std::optional<ept::Translation> cached);

    /** Accumulate the per-beat cost of one chunk access. */
    void
    chargeAccess(std::uint64_t len)
    {
        if (charging) {
            pendingNs += cpu.costModel().memAccessNs *
                         divCeil(std::max<std::uint64_t>(len, 1), 8);
        }
    }

    /** Push accumulated charges to the vcpu clock. */
    void
    flushTime()
    {
        if (pendingNs != 0) {
            cpu.clock().advance(pendingNs);
            pendingNs = 0;
        }
    }

    Vcpu &cpu;
    bool charging;
    SimNs pendingNs = 0;
    std::unique_ptr<std::uint8_t[]> bounceBuf; ///< lazily, copyBytes only
};

} // namespace elisa::cpu

#endif // ELISA_CPU_GUEST_VIEW_HH
