/**
 * @file
 * Tests for the simulated VT-x CPU: VMFUNC/VMCALL/CPUID semantics,
 * their costs, and the GuestView access path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "base/bitops.hh"
#include "base/units.hh"
#include "cpu/exit.hh"
#include "cpu/guest_view.hh"
#include "cpu/vcpu.hh"
#include "hv/hypervisor.hh"
#include "sim/rng.hh"

namespace
{

using namespace elisa;

class CpuTest : public ::testing::Test
{
  protected:
    CpuTest()
        : hv(64 * MiB), vm(hv.createVm("guest", 4 * MiB, 1)),
          cpu(vm.vcpu(0))
    {
    }

    hv::Hypervisor hv;
    hv::Vm &vm;
    cpu::Vcpu &cpu;
};

TEST_F(CpuTest, VmLaunchActivatesDefaultContext)
{
    EXPECT_EQ(cpu.activeIndex(), 0u);
    EXPECT_EQ(cpu.activeEptp(), vm.defaultEpt().eptp());
}

TEST_F(CpuTest, VmcallCostsPaperRoundTrip)
{
    const SimNs t0 = cpu.clock().now();
    const std::uint64_t rc = cpu.vmcall(hv::hcArgs(hv::Hc::Nop));
    EXPECT_EQ(rc, 0u);
    EXPECT_EQ(cpu.clock().now() - t0, hv.cost().vmcallRttNs());
    EXPECT_EQ(cpu.clock().now() - t0, 699u);
}

TEST_F(CpuTest, CpuidCostsCheaperExit)
{
    const SimNs t0 = cpu.clock().now();
    cpu.cpuid(0);
    EXPECT_EQ(cpu.clock().now() - t0, hv.cost().cpuidRttNs());
    EXPECT_LT(hv.cost().cpuidRttNs(), hv.cost().vmcallRttNs());
}

TEST_F(CpuTest, GetVmIdHypercall)
{
    EXPECT_EQ(cpu.vmcall(hv::hcArgs(hv::Hc::GetVmId)), vm.id());
}

TEST_F(CpuTest, UnknownHypercallReturnsError)
{
    EXPECT_EQ(cpu.vmcall(hv::hcArgs(static_cast<hv::Hc>(0xdead))),
              hv::hcError);
    EXPECT_EQ(hv.stats().get("hypercall_unknown"), 1u);
}

TEST_F(CpuTest, VmfuncSwitchesWithoutExit)
{
    // Build a second context and install it.
    ept::Ept other(hv.memory(), hv.allocator());
    auto frame = hv.allocator().alloc();
    other.map(0x0, *frame, ept::Perms::RW);
    auto idx = hv.installEptp(cpu, other.eptp());
    ASSERT_TRUE(idx);

    const SimNs t0 = cpu.clock().now();
    cpu.vmfunc(0, *idx);
    EXPECT_EQ(cpu.clock().now() - t0, hv.cost().vmfuncNs);
    EXPECT_EQ(cpu.activeEptp(), other.eptp());
    EXPECT_EQ(cpu.activeIndex(), *idx);
    EXPECT_EQ(cpu.stats().get("vmfunc"), 1u);
    EXPECT_EQ(cpu.stats().get("vmfunc_fail"), 0u);

    cpu.vmfunc(0, 0);
    EXPECT_EQ(cpu.activeEptp(), vm.defaultEpt().eptp());
    hv.allocator().free(*frame);
}

TEST_F(CpuTest, VmfuncInvalidIndexFaults)
{
    EXPECT_THROW(cpu.vmfunc(0, 7), cpu::VmExitEvent);
    EXPECT_EQ(cpu.stats().get("vmfunc_fail"), 1u);
    // Index out of the 512-entry architectural range.
    EXPECT_THROW(cpu.vmfunc(0, 600), cpu::VmExitEvent);
}

TEST_F(CpuTest, VmfuncUnsupportedLeafFaults)
{
    try {
        cpu.vmfunc(1, 0);
        FAIL() << "expected VmfuncFail exit";
    } catch (const cpu::VmExitEvent &e) {
        EXPECT_EQ(e.reason(), cpu::ExitReason::VmfuncFail);
        EXPECT_EQ(e.qualification(), 1u);
    }
}

TEST_F(CpuTest, GuestViewReadWriteRoundTrip)
{
    cpu::GuestView view(cpu);
    view.write<std::uint64_t>(0x1000, 0xfeedfacecafebeefull);
    EXPECT_EQ(view.read<std::uint64_t>(0x1000), 0xfeedfacecafebeefull);

    // The data really landed in the backing host frame.
    const Hpa hpa = vm.ramGpaToHpa(0x1000);
    EXPECT_EQ(hv.memory().read64(hpa), 0xfeedfacecafebeefull);
}

TEST_F(CpuTest, GuestViewCrossPageCopy)
{
    cpu::GuestView view(cpu);
    std::vector<std::uint8_t> data(3 * pageSize, 0);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    view.writeBytes(0x1800, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    view.readBytes(0x1800, back.data(), back.size());
    EXPECT_EQ(data, back);
}

TEST_F(CpuTest, GuestViewUnmappedAccessFaults)
{
    cpu::GuestView view(cpu);
    try {
        view.read<std::uint64_t>(vm.ramBytes() + 0x1000);
        FAIL() << "expected EPT violation";
    } catch (const cpu::VmExitEvent &e) {
        EXPECT_EQ(e.reason(), cpu::ExitReason::EptViolation);
        EXPECT_TRUE(e.violation().notMapped);
    }
    EXPECT_EQ(cpu.stats().get("ept_violation"), 1u);
}

TEST_F(CpuTest, GuestViewWriteToReadOnlyFaults)
{
    auto frame = hv.allocator().alloc();
    const Gpa ro_gpa = 0x10000000;
    vm.defaultEpt().map(ro_gpa, *frame, ept::Perms::Read);

    cpu::GuestView view(cpu);
    EXPECT_NO_THROW(view.read<std::uint32_t>(ro_gpa));
    try {
        view.write<std::uint32_t>(ro_gpa, 1);
        FAIL() << "expected EPT violation";
    } catch (const cpu::VmExitEvent &e) {
        EXPECT_FALSE(e.violation().notMapped);
        EXPECT_EQ(e.violation().present, ept::Perms::Read);
        EXPECT_EQ(e.violation().access, ept::Access::Write);
    }
}

TEST_F(CpuTest, FetchCheckRequiresExecute)
{
    cpu::GuestView view(cpu);
    // Guest RAM is RWX: fetch succeeds.
    EXPECT_NO_THROW(view.fetchCheck(0x2000));
    // Remap a page without X.
    vm.defaultEpt().protect(0x2000, ept::Perms::RW);
    hv.inveptGlobal();
    EXPECT_THROW(view.fetchCheck(0x2000), cpu::VmExitEvent);
}

TEST_F(CpuTest, AccessTimeChargedTlbMissThenHit)
{
    cpu::GuestView view(cpu);
    const auto &cost = hv.cost();
    // First touch of a fresh page: walk + access.
    const Gpa gpa = 0x200000;
    const SimNs t0 = cpu.clock().now();
    view.read<std::uint64_t>(gpa);
    const SimNs miss_cost = cpu.clock().now() - t0;
    EXPECT_EQ(miss_cost, cost.eptWalkNs + cost.memAccessNs);

    const SimNs t1 = cpu.clock().now();
    view.read<std::uint64_t>(gpa);
    const SimNs hit_cost = cpu.clock().now() - t1;
    EXPECT_EQ(hit_cost, cost.memAccessNs);
}

TEST_F(CpuTest, NonChargingViewStillChecks)
{
    cpu::GuestView free_view(cpu, /*charge_time=*/false);
    const SimNs t0 = cpu.clock().now();
    free_view.write<std::uint64_t>(0x3000, 42);
    EXPECT_EQ(free_view.read<std::uint64_t>(0x3000), 42u);
    EXPECT_EQ(cpu.clock().now(), t0); // no time charged
    // ... but the permission check still fires.
    EXPECT_THROW(free_view.read<std::uint64_t>(vm.ramBytes() + pageSize),
                 cpu::VmExitEvent);
}

TEST_F(CpuTest, ZeroAndCopyBytes)
{
    cpu::GuestView view(cpu);
    std::vector<std::uint8_t> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    view.writeBytes(0x1000, data.data(), data.size());

    // Guest-to-guest copy across page boundaries.
    view.copyBytes(0x100000, 0x1000, data.size());
    std::vector<std::uint8_t> back(data.size());
    view.readBytes(0x100000, back.data(), back.size());
    EXPECT_EQ(back, data);

    // Zeroing a sub-range leaves neighbours intact.
    view.zeroBytes(0x1100, 256);
    EXPECT_EQ(view.read<std::uint8_t>(0x10ff), data[0xff]);
    EXPECT_EQ(view.read<std::uint8_t>(0x1100), 0u);
    EXPECT_EQ(view.read<std::uint8_t>(0x1200), data[0x200]);
}

TEST_F(CpuTest, ReadCString)
{
    cpu::GuestView view(cpu);
    const char msg[] = "elisa";
    view.writeBytes(0x4000, msg, sizeof(msg));
    EXPECT_EQ(view.readCString(0x4000), "elisa");
}

TEST_F(CpuTest, RunConvertsFaultToResult)
{
    auto result = vm.run(0, [this] {
        cpu::GuestView view(cpu);
        view.read<std::uint64_t>(vm.ramBytes() + 0x5000);
    });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::EptViolation);
    // The fault policy parks the vCPU back in its default context.
    EXPECT_EQ(cpu.activeIndex(), 0u);
    EXPECT_EQ(hv.stats().get("exit_ept-violation"), 1u);
}

TEST_F(CpuTest, RunOkOnCleanCode)
{
    auto result = vm.run(0, [this] {
        cpu::GuestView view(cpu);
        view.write<std::uint32_t>(0x100, 7);
    });
    EXPECT_TRUE(result.ok);
}

TEST_F(CpuTest, L0RepeatHitChargesLikeTlbHit)
{
    cpu::GuestView view(cpu);
    const auto &cost = hv.cost();
    const Gpa gpa = 0x210000;
    view.read<std::uint64_t>(gpa); // walk + fill

    // Every repeat access -- whether served from the micro-cache or
    // the shared Tlb -- must charge exactly the Tlb-hit cost.
    const std::uint64_t hits0 = cpu.stats().get("l0_hit");
    for (int i = 0; i < 3; ++i) {
        const SimNs t0 = cpu.clock().now();
        view.read<std::uint64_t>(gpa);
        EXPECT_EQ(cpu.clock().now() - t0, cost.memAccessNs);
    }
    EXPECT_EQ(cpu.stats().get("l0_hit"), hits0 + 3);
}

TEST_F(CpuTest, L0StaleEntryNeverOutlivesRemapPlusInvept)
{
    cpu::GuestView view(cpu);
    const Gpa gpa = 0x20000000; // outside guest RAM, mapped by hand
    auto frame_a = hv.allocator().alloc();
    auto frame_b = hv.allocator().alloc();
    hv.memory().write64(*frame_a, 0xaaaau);
    hv.memory().write64(*frame_b, 0xbbbbu);

    ASSERT_TRUE(vm.defaultEpt().map(gpa, *frame_a, ept::Perms::RW));
    EXPECT_EQ(view.read<std::uint64_t>(gpa), 0xaaaau);
    EXPECT_EQ(view.read<std::uint64_t>(gpa), 0xaaaau); // L0-cached

    // Remap the page to a different frame and invalidate.
    ASSERT_TRUE(vm.defaultEpt().unmap(gpa));
    ASSERT_TRUE(vm.defaultEpt().map(gpa, *frame_b, ept::Perms::RW));
    hv.inveptGlobal();
    EXPECT_EQ(view.read<std::uint64_t>(gpa), 0xbbbbu);

    // Unmap entirely: a stale L0 line must not satisfy the access.
    EXPECT_EQ(view.read<std::uint64_t>(gpa), 0xbbbbu); // refill L0
    ASSERT_TRUE(vm.defaultEpt().unmap(gpa));
    hv.inveptGlobal();
    try {
        view.read<std::uint64_t>(gpa);
        FAIL() << "expected EPT violation after unmap + invept";
    } catch (const cpu::VmExitEvent &e) {
        EXPECT_TRUE(e.violation().notMapped);
    }
    hv.allocator().free(*frame_a);
    hv.allocator().free(*frame_b);
}

TEST_F(CpuTest, L0StaleEntryNeverOutlivesProtectPlusInvept)
{
    cpu::GuestView view(cpu);
    const Gpa gpa = 0x8000;
    view.write<std::uint64_t>(gpa, 1); // fill the write L0 line
    view.write<std::uint64_t>(gpa, 2);

    vm.defaultEpt().protect(gpa, ept::Perms::Read);
    hv.inveptGlobal();
    EXPECT_THROW(view.write<std::uint64_t>(gpa, 3), cpu::VmExitEvent);
    // Reads still work through the downgraded mapping.
    EXPECT_EQ(view.read<std::uint64_t>(gpa), 2u);
}

TEST_F(CpuTest, L0LineNeverServesAnotherEptpAtTheSameGpa)
{
    cpu::GuestView view(cpu);
    const Gpa gpa = 0x9000;
    view.write<std::uint64_t>(gpa, 0xaaaau);
    EXPECT_EQ(view.read<std::uint64_t>(gpa), 0xaaaau); // read line filled

    // A second context maps the same GPA to another frame.
    ept::Ept other(hv.memory(), hv.allocator());
    auto frame = hv.allocator().alloc();
    hv.memory().write64(*frame, 0xbbbbu);
    ASSERT_TRUE(other.map(gpa, *frame, ept::Perms::RW));
    auto idx = hv.installEptp(cpu, other.eptp());
    ASSERT_TRUE(idx);

    cpu.vmfunc(0, *idx);
    EXPECT_EQ(view.read<std::uint64_t>(gpa), 0xbbbbu);
    view.write<std::uint64_t>(gpa, 0xccccu);
    EXPECT_EQ(view.read<std::uint64_t>(gpa), 0xccccu);
    cpu.vmfunc(0, 0);
    EXPECT_EQ(view.read<std::uint64_t>(gpa), 0xaaaau);
    EXPECT_EQ(hv.memory().read64(*frame), 0xccccu);
    hv.allocator().free(*frame);
}

TEST_F(CpuTest, L0LineSurvivesVmfuncRoundTrip)
{
    const Gpa gpa = 0x9000;
    {
        cpu::GuestView view(cpu);
        view.read<std::uint64_t>(gpa); // walk, fill, promote
    }

    ept::Ept other(hv.memory(), hv.allocator());
    auto frame = hv.allocator().alloc();
    other.map(0x0, *frame, ept::Perms::RW);
    auto idx = hv.installEptp(cpu, other.eptp());
    ASSERT_TRUE(idx);
    cpu.vmfunc(0, *idx);
    cpu.vmfunc(0, 0);

    // Lines carry their EPTP: the switch leaves them, and a fresh view
    // is served by the same line the first one filled.
    const std::uint64_t hits0 = cpu.stats().get("l0_hit");
    const std::uint64_t tlb_hits0 = cpu.tlb().hits();
    const SimNs t0 = cpu.clock().now();
    cpu::GuestView view(cpu);
    view.read<std::uint64_t>(gpa);
    EXPECT_EQ(cpu.stats().get("l0_hit"), hits0 + 1);
    EXPECT_EQ(cpu.tlb().hits(), tlb_hits0);
    EXPECT_EQ(cpu.clock().now() - t0, hv.cost().memAccessNs);
    hv.allocator().free(*frame);
}

TEST_F(CpuTest, WriteThroughReadFilledEntryPaysTheAdWalk)
{
    cpu::GuestView view(cpu);
    const auto &cost = hv.cost();
    const Gpa gpa = 0x230000;
    view.read<std::uint64_t>(gpa); // walk + fill, not dirty
    view.read<std::uint64_t>(gpa); // read line hit

    // The read line must not serve the write: the entry is not known
    // dirty, so the hardware re-walks to set the leaf's dirty flag.
    const std::uint64_t ad0 = cpu.stats().get("ept_ad_update");
    const std::uint64_t walks0 = cpu.stats().get("ept_walk");
    SimNs t0 = cpu.clock().now();
    view.write<std::uint64_t>(gpa, 1);
    EXPECT_EQ(cpu.clock().now() - t0, cost.eptWalkNs + cost.memAccessNs);
    EXPECT_EQ(cpu.stats().get("ept_ad_update"), ad0 + 1);
    EXPECT_EQ(cpu.stats().get("ept_walk"), walks0);

    // Now the write line holds it: a beat, nothing else.
    const std::uint64_t hits0 = cpu.stats().get("l0_hit");
    t0 = cpu.clock().now();
    view.write<std::uint64_t>(gpa, 2);
    EXPECT_EQ(cpu.clock().now() - t0, cost.memAccessNs);
    EXPECT_EQ(cpu.stats().get("l0_hit"), hits0 + 1);
    EXPECT_EQ(cpu.stats().get("ept_ad_update"), ad0 + 1);
}

TEST_F(CpuTest, CopyBytesOverlappingCrossPageMatchesChunkedModel)
{
    // copyBytes is specified as a sequence of <= 4 KiB chunk copies,
    // each snapshotting its source before writing its destination
    // (the historical bounce-buffer semantics). With overlapping
    // ranges this differs from both memcpy and memmove; the
    // frame-to-frame fast path must preserve it exactly.
    cpu::GuestView view(cpu, /*charge_time=*/false);
    const Gpa base = 0x40000;
    const std::uint64_t span = 5 * pageSize;

    std::vector<std::uint8_t> model(span);
    for (std::size_t i = 0; i < model.size(); ++i)
        model[i] = static_cast<std::uint8_t>(i * 7 + 3);

    auto run_case = [&](std::uint64_t src_off, std::uint64_t dst_off,
                        std::uint64_t len) {
        view.writeBytes(base, model.data(), model.size());
        std::vector<std::uint8_t> expect = model;
        // Reference: chunk loop with a per-chunk snapshot.
        std::uint64_t s = src_off, d = dst_off, n = len;
        while (n > 0) {
            const std::uint64_t chunk =
                std::min<std::uint64_t>(n, pageSize);
            std::vector<std::uint8_t> tmp(expect.begin() + s,
                                          expect.begin() + s + chunk);
            std::copy(tmp.begin(), tmp.end(), expect.begin() + d);
            s += chunk;
            d += chunk;
            n -= chunk;
        }
        view.copyBytes(base + dst_off, base + src_off, len);
        std::vector<std::uint8_t> got(span);
        view.readBytes(base, got.data(), got.size());
        EXPECT_EQ(got, expect)
            << "src_off=" << src_off << " dst_off=" << dst_off
            << " len=" << len;
    };

    // Forward overlap (dst > src by half a page), three pages: each
    // chunk's host ranges overlap and later chunks read bytes already
    // rewritten by earlier ones.
    run_case(0x100, 0x900, 3 * pageSize);
    // Backward overlap (dst < src), cross-page, non-multiple length.
    run_case(0x900, 0x100, 2 * pageSize + 123);
    // Disjoint cross-page control case (frame-to-frame path).
    run_case(0x80, 3 * pageSize + 0x40, pageSize + 17);
}

// ---------------------------------------------------------------------
// Translation oracle: the CPU's access path (L0 front, Tlb, walk)
// against a reference that has no front: the hardware walk plus
// Tlb::lookup, with the GuestView's charging rules. Bytes, the sim
// clock and every translation counter must agree after every access,
// across EPTP switches, remaps with and without INVEPT, and fills that
// evict Tlb entries.
// ---------------------------------------------------------------------

/** The oracle's vCPU makes no hypercalls. */
class NoHypercalls : public cpu::HypercallSink
{
  public:
    std::uint64_t
    handleHypercall(cpu::Vcpu &, const cpu::HypercallArgs &) override
    {
        ADD_FAILURE() << "unexpected hypercall";
        return 0;
    }
};

/** The specification of one translated access, without the front. */
class ReferenceTranslator
{
  public:
    ReferenceTranslator(const mem::HostMemory &memory,
                        const sim::CostModel &cost)
        : memory(memory), cost(cost)
    {
    }

    /**
     * Translate the page-bounded chunk [@p gpa, +@p len) for
     * @p access under @p eptp, charging and counting like the CPU.
     * @return the host address, or nullopt on an EPT violation.
     */
    std::optional<Hpa>
    chunk(std::uint64_t eptp, Gpa gpa, std::uint64_t len,
          ept::Access access)
    {
        const bool is_write = access == ept::Access::Write;
        auto xlat = tlb.lookup(eptp, gpa);
        if (!xlat) {
            xlat = ept::hardwareWalk(memory, eptp, gpa);
            ns += cost.eptWalkNs;
            ++walks;
            if (xlat)
                tlb.fill(eptp, gpa, *xlat, is_write);
        } else if (is_write && !tlb.dirtyKnown(eptp, gpa)) {
            tlb.setDirtyKnown(eptp, gpa);
            ns += cost.eptWalkNs;
            ++adUpdates;
        }
        ns += cost.memAccessNs * divCeil(std::max<std::uint64_t>(len, 1), 8);
        if (!xlat || !ept::permits(xlat->perms, ept::permsNeeded(access))) {
            ++violations;
            return std::nullopt;
        }
        return xlat->hpa;
    }

    /**
     * Split [@p gpa, +@p len) into page chunks as readBytes and
     * writeBytes do; stops after the first violating chunk.
     * @return the translated (hpa, len) chunks and whether all were.
     */
    std::pair<std::vector<std::pair<Hpa, std::uint64_t>>, bool>
    range(std::uint64_t eptp, Gpa gpa, std::uint64_t len,
          ept::Access access)
    {
        std::vector<std::pair<Hpa, std::uint64_t>> chunks;
        while (len > 0) {
            const std::uint64_t in_page =
                std::min<std::uint64_t>(len, pageSize - (gpa & pageMask));
            const auto hpa = chunk(eptp, gpa, in_page, access);
            if (!hpa)
                return {chunks, false};
            chunks.emplace_back(*hpa, in_page);
            gpa += in_page;
            len -= in_page;
        }
        return {chunks, true};
    }

    ept::Tlb tlb; ///< the vCPU's geometry; its front is never used
    SimNs ns = 0;
    std::uint64_t walks = 0;
    std::uint64_t adUpdates = 0;
    std::uint64_t violations = 0;

  private:
    const mem::HostMemory &memory;
    const sim::CostModel &cost;
};

class TranslationOracle : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static constexpr unsigned contexts = 3;
    static constexpr unsigned frameCount = 48;

    TranslationOracle()
        : memory(32 * MiB), allocator(32 * MiB / pageSize),
          cpu(0, 1, memory, allocator, cost, &sink), ref(memory, cost)
    {
        // ELISA's regions sit 1 TiB apart. Within each, pages 1024
        // apart share a slot of the 1024-entry Tlb under one EPTP and
        // force evicting fills, and eight neighbouring pages give the
        // same GPA under two EPTPs a shared front line now and then.
        for (Gpa base : {Gpa{0x0}, Gpa{0x6000'0000'0000},
                         Gpa{0x7e00'0000'0000}, Gpa{0x7f00'0000'0000}}) {
            for (std::uint64_t page :
                 {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 1024u, 2048u})
                pages.push_back(base + page * pageSize);
        }
        for (unsigned f = 0; f < frameCount; ++f) {
            frames.push_back(*allocator.alloc());
            for (std::uint64_t off = 0; off < pageSize; off += 8)
                memory.write64(frames.back() + off, rng.next());
        }
        for (unsigned c = 0; c < contexts; ++c) {
            epts.push_back(std::make_unique<ept::Ept>(memory, allocator));
            for (Gpa page : pages) {
                if (rng.chance(0.85))
                    epts[c]->map(page, randomFrame(), randomPerms());
            }
            cpu.eptpList().set(c, epts[c]->eptp());
        }
        cpu.activateEptp(0);
    }

    Hpa randomFrame() { return frames[rng.below(frames.size())]; }

    ept::Perms
    randomPerms()
    {
        static constexpr ept::Perms perms[] = {
            ept::Perms::Read, ept::Perms::RW, ept::Perms::RX,
            ept::Perms::RWX};
        return perms[rng.below(4)];
    }

    Gpa
    randomGpa()
    {
        return pages[rng.below(pages.size())] + rng.below(pageSize);
    }

    std::uint64_t
    stat(const char *name)
    {
        return cpu.stats().get(name);
    }

    /** Run step @p n: one random operation, then the checks. */
    void step(std::uint64_t n);

    sim::Rng rng{GetParam()};
    sim::CostModel cost;
    NoHypercalls sink;
    mem::HostMemory memory;
    mem::FrameAllocator allocator;
    cpu::Vcpu cpu;
    ReferenceTranslator ref;
    std::vector<Gpa> pages;
    std::vector<Hpa> frames;
    std::vector<std::unique_ptr<ept::Ept>> epts;
    unsigned active = 0;
    std::unique_ptr<cpu::GuestView> view =
        std::make_unique<cpu::GuestView>(cpu);
};

void
TranslationOracle::step(std::uint64_t n)
{
    const std::uint64_t eptp = epts[active]->eptp();
    const unsigned op = static_cast<unsigned>(rng.below(100));
    if (op < 5) {
        // A fresh view: the front must not care who filled it.
        view = std::make_unique<cpu::GuestView>(cpu);
    } else if (op < 12) {
        // VMFUNC, now and then through an empty list slot.
        const auto index = static_cast<EptpIndex>(rng.below(contexts + 1));
        ref.ns += cost.vmfuncNs;
        if (index < contexts) {
            cpu.vmfunc(0, index);
            active = index;
        } else {
            EXPECT_THROW(cpu.vmfunc(0, index), cpu::VmExitEvent);
        }
    } else if (op < 18) {
        // Remap or protect a page; INVEPT (global, single-context) or
        // none, in which case both sides may serve the stale entry.
        const unsigned c = static_cast<unsigned>(rng.below(contexts));
        const Gpa page = pages[rng.below(pages.size())];
        if (rng.chance(0.5)) {
            epts[c]->unmap(page);
            if (rng.chance(0.8))
                epts[c]->map(page, randomFrame(), randomPerms());
        } else {
            epts[c]->protect(page, randomPerms());
        }
        switch (rng.below(3)) {
          case 0:
            cpu.tlb().flushAll();
            ref.tlb.flushAll();
            break;
          case 1:
            cpu.tlb().flushEptp(epts[c]->eptp());
            ref.tlb.flushEptp(epts[c]->eptp());
            break;
          default:
            break;
        }
    } else if (op < 30) {
        const Gpa gpa = randomGpa();
        const bool ok = ref.chunk(eptp, gpa, 8, ept::Access::Exec)
                            .has_value();
        bool threw = false;
        try {
            view->fetchCheck(gpa);
        } catch (const cpu::VmExitEvent &) {
            threw = true;
        }
        EXPECT_EQ(threw, !ok) << "exec at " << std::hex << gpa;
    } else {
        // Mostly small accesses; some cross a page.
        const bool is_write = op >= 65;
        const Gpa gpa = randomGpa();
        const std::uint64_t len =
            rng.chance(0.1) ? rng.between(1, 2 * pageSize)
                            : rng.between(1, 64);
        const auto [chunks, ok] = ref.range(
            eptp, gpa, len,
            is_write ? ept::Access::Write : ept::Access::Read);
        std::vector<std::uint8_t> data(len);
        if (is_write) {
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
        }
        bool threw = false;
        try {
            if (is_write)
                view->writeBytes(gpa, data.data(), len);
            else
                view->readBytes(gpa, data.data(), len);
        } catch (const cpu::VmExitEvent &) {
            threw = true;
        }
        EXPECT_EQ(threw, !ok) << (is_write ? "write" : "read") << " at "
                              << std::hex << gpa << " len " << len;
        // Every chunk the reference translated was copied, to or from
        // the frame the reference named. Two pages may map one frame:
        // a write chunk that a later one overwrote is not checked.
        std::uint64_t done = 0;
        for (std::size_t i = 0; i < chunks.size(); ++i) {
            const auto [hpa, n] = chunks[i];
            const bool overwritten =
                is_write &&
                std::any_of(chunks.begin() + i + 1, chunks.end(),
                            [&](const auto &later) {
                                return later.first < hpa + n &&
                                       hpa < later.first + later.second;
                            });
            std::vector<std::uint8_t> host(n);
            memory.read(hpa, host.data(), n);
            EXPECT_TRUE(overwritten ||
                        std::equal(host.begin(), host.end(),
                                   data.begin() + done))
                << "bytes differ at " << std::hex << gpa + done;
            done += n;
        }
    }

    EXPECT_EQ(cpu.clock().now(), ref.ns) << "step " << n;
    EXPECT_EQ(stat("tlb_miss"), ref.tlb.misses()) << "step " << n;
    EXPECT_EQ(stat("ept_walk"), ref.walks) << "step " << n;
    EXPECT_EQ(stat("ept_ad_update"), ref.adUpdates) << "step " << n;
    EXPECT_EQ(stat("ept_violation"), ref.violations) << "step " << n;
    EXPECT_EQ(stat("l0_hit") + stat("tlb_hit"), ref.tlb.hits())
        << "step " << n;
}

TEST_P(TranslationOracle, FrontMatchesWalkPlusTlbReference)
{
    for (std::uint64_t n = 0; n < 20000 && !HasFailure(); ++n)
        step(n);
    // The run must have exercised every path it checks.
    EXPECT_GT(stat("l0_hit"), 0u);
    EXPECT_GT(stat("tlb_hit"), 0u);
    EXPECT_GT(stat("ept_ad_update"), 0u);
    EXPECT_GT(stat("ept_violation"), 0u);
    EXPECT_GT(stat("tlb_flush"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslationOracle,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace
