/**
 * @file
 * EPTP-tagged translation cache.
 *
 * Models the guest-physical mappings cached by the hardware TLB. Entries
 * are tagged with the EPTP they were filled under, mirroring VPID/EPTRTA
 * tagging on real CPUs: a VMFUNC EPTP switch therefore does NOT flush
 * the cache (that is part of why it is cheap), while remap/protect
 * operations require an explicit INVEPT-equivalent flush from the
 * hypervisor.
 *
 * In front of the entries sits a small *front*: a few lines per access
 * kind, each naming a (EPTP, page) whose Tlb entry already proved that
 * kind allowed (and, for writes, the leaf dirty). A front hit is what
 * a Tlb hit would have been, minus the permission and dirty checks;
 * the CPU counts it as `l0_hit` instead of `tlb_hit`. Lines carry
 * their EPTP, so a VMFUNC switch leaves the front alone just as it
 * leaves the entries. The front is kept exactly in step with the
 * entries: a fill drops the lines of the entry it overwrites, and
 * both flushes drop the whole front, so a line never outlives the
 * entry it mirrors (remap, protect and revoke all end in a flush).
 */

#ifndef ELISA_EPT_TLB_HH
#define ELISA_EPT_TLB_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/types.hh"
#include "ept/ept.hh"
#include "ept/ept_entry.hh"
#include "sim/stats.hh"

namespace elisa::ept
{

/**
 * Direct-mapped, EPTP-tagged translation cache.
 */
class Tlb
{
  public:
    /** @param entry_count number of entries; must be a power of two. */
    explicit Tlb(std::size_t entry_count = 1024);

    /**
     * Mirror hit/miss/flush counts into @p set as the interned
     * counters "tlb_hit" / "tlb_miss" / "tlb_flush" (the per-vCPU
     * StatSet calls this once at construction).
     */
    void attachStats(sim::StatSet &set);

    /**
     * Look up the translation of the page containing @p gpa under
     * @p eptp. Counts a hit or miss.
     */
    std::optional<Translation> lookup(std::uint64_t eptp, Gpa gpa);

    /**
     * Install a translation (called after a successful walk). Drops
     * the front lines of the entry it overwrites.
     * @param dirty_known true when the walk already set the leaf's
     *        dirty flag (a write access), so later writes through
     *        this entry need no A/D update walk.
     */
    void fill(std::uint64_t eptp, Gpa gpa, const Translation &xlat,
              bool dirty_known = false);

    /** Did the cached entry's fill already propagate the dirty flag? */
    bool dirtyKnown(std::uint64_t eptp, Gpa gpa) const;

    /** Record that the dirty flag is now set in the leaf. */
    void setDirtyKnown(std::uint64_t eptp, Gpa gpa);

    /** Drop every entry and the front (INVEPT global equivalent). */
    void flushAll();

    /**
     * Drop entries filled under @p eptp, and the front (INVEPT
     * single-context).
     */
    void flushEptp(std::uint64_t eptp);

    /** Statistics. */
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t flushes() const { return flushCount; }

    /**
     * The front line for @p access at @p gpa's page under @p eptp:
     * the host page when one is held, else nullopt. Counts nothing;
     * the caller counts a hit as an L0 hit.
     */
    std::optional<Hpa>
    front(Access access, std::uint64_t eptp, Gpa gpa) const
    {
        const Gpa page = pageAlignDown(gpa);
        const FrontLine &line =
            frontLines[static_cast<unsigned>(access)][frontIndex(eptp, page)];
        if (line.eptp == eptp && line.gpaPage == page)
            return line.hpaPage;
        return std::nullopt;
    }

    /**
     * Put the entry for @p gpa's page under @p eptp into the front
     * for @p access, if it is valid, its perms allow @p access and,
     * for a write, its dirty flag is known. Called after an access
     * went through the entries, so the line copies what they hold.
     */
    void promote(Access access, std::uint64_t eptp, Gpa gpa);

    /** Number of currently valid entries (for tests). */
    std::size_t validCount() const;

  private:
    struct Entry
    {
        bool valid = false;
        bool dirtyKnown = false;
        std::uint64_t eptp = 0;
        Gpa gpaPage = 0;
        Hpa hpaPage = 0;
        Perms perms = Perms::None;
    };

    /** A front line; an empty one matches no page. */
    struct FrontLine
    {
        std::uint64_t eptp = 0;
        Gpa gpaPage = ~Gpa{0};
        Hpa hpaPage = 0;
    };

    /** Front lines per access kind (a power of two). */
    static constexpr unsigned frontBits = 4;

    /**
     * Multiplicative hash of (eptp, page) to a front line. ELISA's
     * regions sit 1 TiB apart, so the low page bits alone collide.
     */
    static unsigned
    frontIndex(std::uint64_t eptp, Gpa page)
    {
        return static_cast<unsigned>(
            ((page ^ eptp) >> pageShift) * 0x9e3779b97f4a7c15ull >>
            (64 - frontBits));
    }

    /** Drop the front lines mirroring (@p eptp, @p page). */
    void dropFront(std::uint64_t eptp, Gpa page);

    std::size_t indexOf(std::uint64_t eptp, Gpa gpa) const;

    std::vector<Entry> entries;
    std::size_t indexMask;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t flushCount = 0;
    /** By ept::Access, then frontIndex. */
    std::array<std::array<FrontLine, 1u << frontBits>, 3> frontLines{};

    /** Mirrored interned counters (null when not attached). */
    sim::StatSet *stats = nullptr;
    sim::StatId hitId = 0;
    sim::StatId missId = 0;
    sim::StatId flushId = 0;
};

} // namespace elisa::ept

#endif // ELISA_EPT_TLB_HH
