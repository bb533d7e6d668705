/**
 * @file
 * overcommit-touch: one machine with paging enabled and a
 * manager-exported object squeezed below its size. One guest touches
 * it through ELISA gate calls, one through an ivshmem mapping; touches
 * are zipf over pages, reads and writes mixed. The EPT-violation path,
 * clock reclaim, BackingStore swap and scrub-on-free, and the
 * FrameAllocator do the work; writes make page-outs dirty.
 *
 * Oracle: a host-side model of every 8-byte slot of the object; each
 * read must return what the model says the last write left there.
 */

#include <algorithm>
#include <optional>

#include "base/units.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/paging.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace elisa;

/** Guest-physical base of the ivshmem window onto the object. */
constexpr Gpa windowGpa = 1 * GiB;

/** u64 slots per page. */
constexpr std::uint64_t slotsPerPage = pageSize / 8;

/** A stream word: bits 0-15 page, 16-24 slot, bit 31 write. */
constexpr std::uint32_t writeBit = 1u << 31;

std::uint64_t
slotOf(std::uint32_t word)
{
    return (word & 0xffff) * slotsPerPage + ((word >> 16) & 0x1ff);
}

class TouchActor : public ClientActor
{
  public:
    /** @p gate null: touch through the ivshmem window instead. */
    TouchActor(cpu::Vcpu &vcpu, std::uint32_t id, core::Gate *gate,
               const std::vector<std::uint32_t> &touches,
               std::vector<std::uint64_t> &model, sim::StatSet &hv_stats)
        : ClientActor(vcpu, id), gate(gate), view(vcpu), stream(touches),
          model(model), hvStats(hv_stats),
          faultsId(hv_stats.id("pager_faults"))
    {
    }

  protected:
    void
    op() override
    {
        const std::uint32_t word = stream[pos];
        pos = pos + 1 == stream.size() ? 0 : pos + 1;
        const std::uint64_t slot = slotOf(word);
        const std::uint64_t off = slot * 8;
        ++attempted;
        const std::uint64_t faults0 = hvStats.get(faultsId);
        Span span(gate ? Sp::GateTouch : Sp::MapTouch);
        std::uint64_t value;
        if (word & writeBit) {
            value = (std::uint64_t(actorId + 1) << 48) | ++writes;
            if (gate) {
                if (gate->call(1, off, value) != 1)
                    fail("gate write at offset " + std::to_string(off) +
                         " refused");
            } else {
                view.write<std::uint64_t>(windowGpa + off, value);
            }
            model[slot] = value;
        } else {
            value = gate ? gate->call(0, off)
                         : view.read<std::uint64_t>(windowGpa + off);
            if (value != model[slot])
                fail("read at offset " + std::to_string(off) + " returned " +
                     std::to_string(value) + ", model has " +
                     std::to_string(model[slot]));
        }
        if (hvStats.get(faultsId) != faults0)
            span.relabel(Sp::FaultTouch);
        fp.add(word);
        fp.add(value);
        fp.add(cpu.clock().now());
    }

  private:
    core::Gate *gate;
    cpu::GuestView view;
    const std::vector<std::uint32_t> &stream;
    std::size_t pos = 0;
    std::vector<std::uint64_t> &model;
    sim::StatSet &hvStats;
    const sim::StatId faultsId;
    std::uint64_t writes = 0;
};

class Overcommit : public Workload
{
  public:
    Overcommit(const Inputs &in, bool sabotage)
        : ramBytes(in.param("ram_mib") * MiB),
          pages(in.param("object_pages")),
          residentFrames(in.param("resident_frames")),
          swapSlots(in.param("swap_slots")), sabotage(sabotage), inputs(in)
    {
    }

    void
    setup() override
    {
        {
            Span span(Sp::HypervisorCtor);
            hv = std::make_unique<hv::Hypervisor>(ramBytes);
        }
        svc = std::make_unique<core::ElisaService>(*hv);
        hv::Vm &managerVm = spannedVm(*hv, "manager", 128 * MiB);
        manager = std::make_unique<core::ElisaManager>(managerVm, *svc);
        hv::Pager &pager = hv->enablePaging({residentFrames, swapSlots});

        core::SharedFnTable fns;
        fns.push_back([](core::SubCallCtx &ctx) { // 0: read64(off)
            return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
        });
        fns.push_back([](core::SubCallCtx &ctx) { // 1: write64(off, v)
            ctx.view.write<std::uint64_t>(ctx.obj + ctx.arg0, ctx.arg1);
            return std::uint64_t{1};
        });
        const std::uint64_t bytes = pages * pageSize;
        std::optional<core::ElisaManager::Exported> exported;
        {
            Span span(Sp::ExportAttach);
            exported = manager->exportObject(core::ExportKey("obj"), bytes,
                                             std::move(fns));
        }
        if (!exported) {
            setupFailures.push_back("object export failed");
            return;
        }
        const Hpa objHpa = managerVm.ramGpaToHpa(exported->objectGpa);
        pager.manageObject(managerVm, objHpa, bytes, true);

        // Warm: the manager stamps every page, faulting each in and,
        // once the budget binds, paging the cold tail back out.
        model.assign(pages * slotsPerPage, 0);
        {
            cpu::GuestView mview(managerVm.vcpu(0));
            for (std::uint64_t p = 0; p < pages; ++p) {
                const std::uint64_t stamp = 0x0bec000000000000ull | p;
                mview.write<std::uint64_t>(exported->objectGpa + p * pageSize,
                                           stamp);
                model[p * slotsPerPage] = stamp;
            }
        }

        hv::Vm &gateVm = spannedVm(*hv, "guest-gate", 32 * MiB);
        hv::Vm &mapVm = spannedVm(*hv, "guest-map", 32 * MiB);
        vms = {&managerVm, &gateVm, &mapVm};
        guest = std::make_unique<core::ElisaGuest>(gateVm, *svc);
        {
            Span span(Sp::ExportAttach);
            ++attaches;
            core::AttachResult attached =
                guest->tryAttach(core::ExportKey("obj"), *manager);
            if (!attached) {
                setupFailures.push_back("attach not Attached: " +
                                        attached.reason());
                return;
            }
            gate = std::make_unique<core::Gate>(attached.take());
        }
        if (!mapVm.defaultEpt().mapRange(windowGpa, objHpa, bytes,
                                         ept::Perms::RW)) {
            setupFailures.push_back("ivshmem window collided");
            return;
        }
        pager.addMirror(mapVm.defaultEpt(), windowGpa, objHpa, bytes);

        if (sabotage) {
            const std::vector<std::uint32_t> &s = inputs.stream("touch.gate");
            const auto read = std::find_if(s.begin(), s.end(), [](auto w) {
                return !(w & writeBit);
            });
            if (read != s.end())
                model[slotOf(*read)] ^= 1;
        }

        eng.setThreads(1);
        eng.setLookahead(hv->cost().minCrossShardLatencyNs());
        actors.push_back(std::make_unique<TouchActor>(
            gateVm.vcpu(0), 0, gate.get(), inputs.stream("touch.gate"),
            model, hv->stats()));
        actors.push_back(std::make_unique<TouchActor>(
            mapVm.vcpu(0), 1, nullptr, inputs.stream("touch.map"), model,
            hv->stats()));
        for (auto &a : actors)
            eng.add(a.get(), hv->shard());
    }

    sim::Engine &engine() override { return eng; }

    SimNs
    startWindow() override
    {
        before = snapCounters({hv.get()}, vms);
        SimNs start = 0;
        for (const auto &a : actors)
            start = std::max(start, a->actorNow());
        return start;
    }

    std::uint64_t
    opsDone() const override
    {
        std::uint64_t n = 0;
        for (const auto &a : actors)
            n += a->ops;
        return n;
    }

    void
    finish(Outcome &out) override
    {
        Fnv fp;
        out.attempted += attaches;
        for (const auto &why : setupFailures)
            out.fail(why);
        for (const auto &a : actors) {
            a->report(out);
            fp.add(a->fp.value());
        }
        reportCounters(delta(snapCounters({hv.get()}, vms), before),
                       out.ops, out, fp);
        out.fingerprint = fp.value();
    }

  private:
    const std::uint64_t ramBytes;
    const std::uint64_t pages;
    const std::uint64_t residentFrames;
    const std::uint64_t swapSlots;
    const bool sabotage;
    const Inputs &inputs;

    std::unique_ptr<hv::Hypervisor> hv;
    std::unique_ptr<core::ElisaService> svc;
    std::unique_ptr<core::ElisaManager> manager;
    std::unique_ptr<core::ElisaGuest> guest;
    std::unique_ptr<core::Gate> gate;
    std::vector<hv::Vm *> vms;
    std::vector<std::uint64_t> model;
    std::vector<std::unique_ptr<TouchActor>> actors;
    std::vector<std::string> setupFailures;
    std::uint64_t attaches = 0;
    Counters before;
    sim::Engine eng;
};

} // namespace

std::unique_ptr<Workload>
makeOvercommit(const Inputs &in, bool sabotage)
{
    return std::make_unique<Overcommit>(in, sabotage);
}

} // namespace perfbench
