#include "mem/anon_region.hh"

#include <sys/mman.h>
#include <unistd.h>

#include "base/logging.hh"

namespace elisa::mem
{

AnonRegion::AnonRegion(std::uint64_t size_bytes) : bytes(size_bytes)
{
    if (bytes == 0)
        return;
    // NORESERVE: nothing is committed (or charged to swap accounting)
    // until a page is first touched.
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    fatal_if(p == MAP_FAILED, "cannot map %llu bytes of host memory",
             (unsigned long long)bytes);
    base = static_cast<std::uint8_t *>(p);
}

AnonRegion::~AnonRegion()
{
    if (base)
        munmap(base, bytes);
}

void
AnonRegion::drop(std::uint64_t off, std::uint64_t len)
{
    static const std::uint64_t hostPage = sysconf(_SC_PAGESIZE);
    // The mapping is host-page aligned, so offsets align like addresses.
    const std::uint64_t lo = (off + hostPage - 1) & ~(hostPage - 1);
    const std::uint64_t hi = (off + len) & ~(hostPage - 1);
    // On a private anonymous mapping, DONTNEED pages read zero on
    // their next access; should the kernel refuse, fall back to memset.
    if (lo >= hi || madvise(base + lo, hi - lo, MADV_DONTNEED) != 0) {
        std::memset(base + off, 0, len);
        return;
    }
    std::memset(base + off, 0, lo - off);
    std::memset(base + hi, 0, off + len - hi);
}

} // namespace elisa::mem
