/**
 * @file
 * ELISA negotiation: the hypercall-based slow path through which a
 * guest VM, the hypervisor, and the manager VM agree on an attachment.
 *
 * Flow (paper §"negotiation", all hops are ordinary VMCALLs — only the
 * eventual data path is exit-less):
 *
 *   manager: RegisterManager            -> becomes a manager
 *   manager: Export(name, object, fns)  -> host builds the Export
 *   guest:   AttachRequest(name)        -> request queued for manager
 *   manager: NextRequest()              -> sees {req, guest, name}
 *   manager: Approve(req) / Deny(req)   -> host builds the Attachment,
 *                                          installs gate+sub EPTPs on
 *                                          the guest vCPU
 *   guest:   Query(req)                 -> receives AttachInfo
 *   guest:   ... VMFUNC data path ...
 *   guest:   Detach(attachment)         -> host tears everything down
 *
 * ElisaService is the host-side state machine: it owns every Export and
 * Attachment and registers the hypercall handlers.
 */

#ifndef ELISA_ELISA_NEGOTIATION_HH
#define ELISA_ELISA_NEGOTIATION_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "elisa/abi.hh"
#include "elisa/sub_context.hh"
#include "hv/hypervisor.hh"

namespace elisa::core
{

/** Attach request states, as returned by Query. */
enum class RequestState : std::uint32_t
{
    Pending = 0,
    Approved = 1,
    Denied = 2,
    /** The request sat Pending past the negotiation timeout. */
    TimedOut = 3,
};

/** Wire format of a request, written into the manager's buffer. */
struct WireRequest
{
    RequestId id = 0;
    VmId guestVm = 0;
    std::uint32_t vcpuIndex = 0;
    char name[52] = {};
};

/** Wire format of a Query response, written into the guest's buffer. */
struct WireAttachResult
{
    std::uint32_t state = 0;
    AttachInfo info;
};

/**
 * Host-side ELISA negotiation service and object registry.
 */
class ElisaService
{
  public:
    /** Bind to the machine and register the hypercall handlers. */
    explicit ElisaService(hv::Hypervisor &hv);

    /** Tears down every attachment, then every export. */
    ~ElisaService();

    ElisaService(const ElisaService &) = delete;
    ElisaService &operator=(const ElisaService &) = delete;

    /**
     * Stage a function table for the next Export hypercall from
     * @p manager_vm. Models the manager loading the shared code; see
     * DESIGN.md (code cannot cross the simulation boundary as bytes).
     */
    void stageFunctions(VmId manager_vm, SharedFnTable fns);

    /** Look up an export by name (host side / tests). */
    Export *findExport(const std::string &name);

    /** Look up an attachment (host side / Gate dispatch). */
    Attachment *attachment(AttachmentId id);

    /**
     * Force-revoke one export: destroys all of its grants and
     * attachments (their EPTP-list entries vanish; in-flight guests
     * fault on their next VMFUNC) and then the export itself.
     * @return false if the name is unknown.
     */
    bool revokeExport(const std::string &name);

    /**
     * Why a grant subtree is being torn down. Every revocation path in
     * the service funnels into the same routine; the reason only picks
     * the robustness counter and trace annotation.
     */
    enum class CapTeardown : std::uint32_t
    {
        Revoke,       ///< explicit CapRevoke hypercall
        Detach,       ///< Detach hypercall / Gate RAII
        VmDeath,      ///< holder or manager VM destroyed
        Expire,       ///< lapsed grant observed lazily
        ExportGone,   ///< export revoked or service shutdown
    };

    /**
     * THE teardown routine: transitively destroy the grant subtree
     * rooted at @p id — children before parents, each node's
     * attachment torn down (EPTP-list entries cleared and TLBs flushed
     * before any bookkeeping or frame is released) — in the
     * deterministic order the hypervisor grant table dictates.
     * Idempotent: tearing down an already-retired grant returns true
     * with no side effects.
     *
     * @param actor the vCPU observing/initiating the teardown, for
     *        trace timestamps; nullptr on VM-death paths (those spans
     *        stay open in the trace, the honest rendering).
     * @return false when @p id was never a grant.
     */
    bool teardownGrant(CapId id, CapTeardown reason,
                       cpu::Vcpu *actor = nullptr);

    /**
     * Lazy-expiry entry point for the gate fast path: called when a
     * gate entry observes its grant's lapse instant has passed.
     */
    bool expireCapability(CapId id, cpu::Vcpu &actor);

    /** Number of live attachments (tests). */
    std::size_t attachmentCount() const { return attachments.size(); }

    /** Number of live grants (tests). */
    std::size_t grantCount() const { return grants.size(); }

    /** Number of live exports (tests). */
    std::size_t exportCount() const { return exports.size(); }

    /** Number of requests still tracked (tests). */
    std::size_t requestCount() const { return requests.size(); }

    /** The machine this service runs on (gate fault hooks). */
    hv::Hypervisor &hypervisor() { return hyper; }

    /**
     * Cap on queued-but-unserved requests per manager; AttachRequest
     * beyond it returns hv::hcBusy. Protects a slow or stuck manager
     * from unbounded host-side queue growth.
     */
    void setQueueCap(std::size_t cap);

    /** The current per-manager request-queue bound. */
    std::size_t queueCap() const { return maxQueuedPerManager; }

    /**
     * Human-readable dump of the service state: managers, exports,
     * attachments, and pending requests. Operational introspection —
     * the output is stable enough for tests to grep.
     */
    std::string dumpState() const;

  private:
    /**
     * Service-side payload of one grant-table node: the narrowed
     * window, permissions, expiry, and (once redeemed) the attachment.
     * The hypervisor's GrantTable owns the tree shape; this struct is
     * everything ELISA layers on top, keyed by the same CapId.
     */
    struct CapGrant
    {
        CapId id = invalidCapId;
        CapId parent = invalidCapId;
        ExportId exportId = 0;
        /** The VM that issued (delegated) this grant. */
        VmId issuer = invalidVmId;
        /** The VM entitled to redeem and use it. */
        VmId holder = invalidVmId;
        /** Absolute byte offset of the window into the export. */
        std::uint64_t offset = 0;
        /** Window size in bytes. */
        std::uint64_t bytes = 0;
        ept::Perms perms = ept::Perms::None;
        /** Absolute lapse instant (0 = never), checked lazily. */
        SimNs expiresNs = 0;
        /** The attachment redeeming this grant (0 = unredeemed). */
        AttachmentId attachment = 0;
    };

    struct Request
    {
        RequestId id = 0;
        VmId guestVm = 0;
        std::uint32_t vcpuIndex = 0;
        std::string name;
        RequestState state = RequestState::Pending;
        AttachInfo info;
        /** Requesting vCPU's clock at submission (timeout base). */
        SimNs createdNs = 0;
    };

    /** Register all ElisaHc handlers with the hypervisor. */
    void registerHandlers();

    /** VM-teardown hook: drop every piece of state tied to @p vm. */
    void onVmDestroyed(VmId vm);

    /**
     * Deny every Pending request naming export @p name: its manager
     * died or revoked it, and the waiting guests must observe a
     * defined error on their next Query instead of hanging.
     */
    void denyPendingRequestsFor(const std::string &name);

    /**
     * Destroy one attachment and remember (id -> owner) so a replayed
     * Detach of the same id succeeds idempotently.
     */
    void retireAttachment(
        std::map<AttachmentId, std::unique_ptr<Attachment>>::iterator it);

    /** Remember a destroyed export for idempotent Revoke replays. */
    void retireExport(ExportId id, VmId owner);

    /**
     * Mint a grant node (hypervisor table + service payload). Roots
     * pass parent = invalidCapId and the export's full window.
     */
    CapId mintGrant(CapId parent, ExportId export_id, VmId issuer,
                    VmId holder, std::uint64_t offset,
                    std::uint64_t bytes, ept::Perms perms,
                    SimNs expires_ns);

    /** Tear down every root grant of export @p id (ExportGone). */
    void teardownExportGrants(ExportId id, cpu::Vcpu *actor);

    // Individual handler bodies (dispatched from lambdas).
    std::uint64_t hcRegisterManager(cpu::Vcpu &vcpu);
    std::uint64_t hcExport(cpu::Vcpu &vcpu,
                           const cpu::HypercallArgs &args);
    std::uint64_t hcNextRequest(cpu::Vcpu &vcpu,
                                const cpu::HypercallArgs &args);
    std::uint64_t hcApprove(cpu::Vcpu &vcpu,
                            const cpu::HypercallArgs &args);
    std::uint64_t hcDeny(cpu::Vcpu &vcpu, const cpu::HypercallArgs &args);
    std::uint64_t hcAttachRequest(cpu::Vcpu &vcpu,
                                  const cpu::HypercallArgs &args);
    std::uint64_t hcQuery(cpu::Vcpu &vcpu,
                          const cpu::HypercallArgs &args);
    std::uint64_t hcDetach(cpu::Vcpu &vcpu,
                           const cpu::HypercallArgs &args);
    std::uint64_t hcRevoke(cpu::Vcpu &vcpu,
                           const cpu::HypercallArgs &args);
    std::uint64_t hcDelegate(cpu::Vcpu &vcpu,
                             const cpu::HypercallArgs &args);
    std::uint64_t hcRedeem(cpu::Vcpu &vcpu,
                           const cpu::HypercallArgs &args);
    std::uint64_t hcCapRevoke(cpu::Vcpu &vcpu,
                              const cpu::HypercallArgs &args);

    hv::Hypervisor &hyper;

    /** Manager VMs and their pending request queues. */
    std::map<VmId, std::deque<RequestId>> managers;

    /** Function tables staged by managers, consumed by Export. */
    std::map<VmId, SharedFnTable> stagedFns;

    std::map<ExportId, std::unique_ptr<Export>> exports;
    std::map<AttachmentId, std::unique_ptr<Attachment>> attachments;
    std::map<RequestId, Request> requests;

    /**
     * Per-VM count of attachments ever made. Picks the exchange
     * window GPA, which lives in the VM-wide default context — so
     * the counter must be per-VM, not per-vCPU (two vCPUs of one VM
     * share that address space).
     */
    std::map<VmId, unsigned> slotCounters;

    /**
     * Recently destroyed attachments/exports, keyed to their one-time
     * owner: a replayed Detach/Revoke (duplicated hypercall, guest
     * retry after a lost reply) returns success instead of an error.
     * Bounded FIFO-by-id so the maps cannot grow without limit.
     */
    std::map<AttachmentId, VmId> retiredAttachments;
    std::map<ExportId, VmId> retiredExports;
    static constexpr std::size_t retiredCap = 4096;

    /** Service payload per grant-table node. */
    std::map<CapId, CapGrant> grants;

    /** Reverse index: which grant an attachment redeems. */
    std::map<AttachmentId, CapId> attachmentGrant;

    /**
     * Recently torn-down grants: (holder, issuer) keyed by id, for
     * idempotent CapRevoke replays and a defined "gone, not never
     * existed" answer on redeem-after-revoke. Bounded like the other
     * retired maps.
     */
    std::map<CapId, std::pair<VmId, VmId>> retiredGrants;

    /** Per-manager bound on queued-but-unserved requests. */
    std::size_t maxQueuedPerManager = 64;

    // Interned robustness counters (hyper.stats()).
    sim::StatId busyId = 0;
    sim::StatId timeoutsId = 0;
    sim::StatId orphanDeniedId = 0;
    sim::StatId idempotentDetachesId = 0;
    sim::StatId idempotentRevokesId = 0;
    sim::StatId autoRevokesId = 0;
    sim::StatId attachBuildFaultsId = 0;
    sim::StatId delegationsId = 0;
    sim::StatId redeemsId = 0;
    sim::StatId capRevokesId = 0;
    sim::StatId capExpiriesId = 0;
    sim::StatId grantTeardownsId = 0;
    sim::StatId widenRefusedId = 0;
    sim::StatId grantExhaustedId = 0;
    // Lifecycle counters, listed from their first event (quietId).
    sim::StatId attachmentsId = 0;
    sim::StatId vmTeardownsId = 0;
    sim::StatId revokesId = 0;
    sim::StatId managersId = 0;
    sim::StatId exportsId = 0;
    sim::StatId detachesId = 0;

    ExportId nextExportId = 1;
    RequestId nextRequestId = 1;
    AttachmentId nextAttachmentId = 1;
};

} // namespace elisa::core

#endif // ELISA_ELISA_NEGOTIATION_HH
