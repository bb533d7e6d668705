#include "ept/tlb.hh"

#include "base/bitops.hh"
#include "base/logging.hh"

namespace elisa::ept
{

Tlb::Tlb(std::size_t entry_count)
    : entries(entry_count), indexMask(entry_count - 1)
{
    fatal_if(!isPowerOf2(entry_count),
             "TLB entry count must be a power of two");
}

void
Tlb::attachStats(sim::StatSet &set)
{
    stats = &set;
    hitId = set.id("tlb_hit");
    missId = set.id("tlb_miss");
    flushId = set.id("tlb_flush");
}

std::size_t
Tlb::indexOf(std::uint64_t eptp, Gpa gpa) const
{
    // Mix the page number with the EPTP so contexts do not collide on
    // identical guest addresses (common: all contexts map GPA 0 region).
    std::uint64_t key = (gpa >> pageShift) ^ (eptp >> pageShift) * 0x9e37ull;
    return static_cast<std::size_t>(key) & indexMask;
}

std::optional<Translation>
Tlb::lookup(std::uint64_t eptp, Gpa gpa)
{
    const Gpa page = pageAlignDown(gpa);
    Entry &e = entries[indexOf(eptp, gpa)];
    if (e.valid && e.eptp == eptp && e.gpaPage == page) {
        ++hitCount;
        if (stats)
            stats->inc(hitId);
        return Translation{e.hpaPage | (gpa & pageMask), e.perms};
    }
    ++missCount;
    if (stats)
        stats->inc(missId);
    return std::nullopt;
}

void
Tlb::fill(std::uint64_t eptp, Gpa gpa, const Translation &xlat,
          bool dirty_known)
{
    Entry &e = entries[indexOf(eptp, gpa)];
    if (e.valid)
        dropFront(e.eptp, e.gpaPage);
    e.valid = true;
    e.dirtyKnown = dirty_known;
    e.eptp = eptp;
    e.gpaPage = pageAlignDown(gpa);
    e.hpaPage = pageAlignDown(xlat.hpa);
    e.perms = xlat.perms;
}

bool
Tlb::dirtyKnown(std::uint64_t eptp, Gpa gpa) const
{
    const Entry &e = entries[indexOf(eptp, gpa)];
    return e.valid && e.eptp == eptp &&
           e.gpaPage == pageAlignDown(gpa) && e.dirtyKnown;
}

void
Tlb::setDirtyKnown(std::uint64_t eptp, Gpa gpa)
{
    Entry &e = entries[indexOf(eptp, gpa)];
    if (e.valid && e.eptp == eptp && e.gpaPage == pageAlignDown(gpa))
        e.dirtyKnown = true;
}

void
Tlb::flushAll()
{
    for (auto &e : entries)
        e.valid = false;
    frontLines = {};
    ++flushCount;
    if (stats)
        stats->inc(flushId);
}

void
Tlb::flushEptp(std::uint64_t eptp)
{
    for (auto &e : entries) {
        if (e.valid && e.eptp == eptp)
            e.valid = false;
    }
    frontLines = {};
    ++flushCount;
    if (stats)
        stats->inc(flushId);
}

void
Tlb::promote(Access access, std::uint64_t eptp, Gpa gpa)
{
    const Gpa page = pageAlignDown(gpa);
    const Entry &e = entries[indexOf(eptp, gpa)];
    if (!e.valid || e.eptp != eptp || e.gpaPage != page ||
        !permits(e.perms, permsNeeded(access)) ||
        (access == Access::Write && !e.dirtyKnown))
        return;
    frontLines[static_cast<unsigned>(access)][frontIndex(eptp, page)] = {
        eptp, page, e.hpaPage};
}

void
Tlb::dropFront(std::uint64_t eptp, Gpa page)
{
    const unsigned i = frontIndex(eptp, page);
    for (auto &lines : frontLines) {
        if (lines[i].eptp == eptp && lines[i].gpaPage == page)
            lines[i] = {};
    }
}

std::size_t
Tlb::validCount() const
{
    std::size_t count = 0;
    for (const auto &e : entries)
        count += e.valid ? 1 : 0;
    return count;
}

} // namespace elisa::ept
