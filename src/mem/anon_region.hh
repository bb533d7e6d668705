/**
 * @file
 * Lazily committed host memory that reads zero until written.
 *
 * An AnonRegion is one private anonymous mapping. The kernel commits a
 * page on its first touch, and a page nobody has written reads zero, so
 * memory a scenario never touches costs neither time nor RSS — the way
 * a KVM host backs guest RAM. HostMemory (simulated physical memory)
 * and BackingStore (the simulated swap device) both sit on one.
 */

#ifndef ELISA_MEM_ANON_REGION_HH
#define ELISA_MEM_ANON_REGION_HH

#include <cstdint>
#include <cstring>

namespace elisa::mem
{

/**
 * A private anonymous mapping of a fixed size, unmapped on destruction.
 */
class AnonRegion
{
  public:
    /** Map @p size_bytes (none when zero; the owner validates its size). */
    explicit AnonRegion(std::uint64_t size_bytes);
    ~AnonRegion();

    AnonRegion(const AnonRegion &) = delete;
    AnonRegion &operator=(const AnonRegion &) = delete;

    /** First byte of the mapping. */
    std::uint8_t *data() const { return base; }

    /** Mapped size in bytes. */
    std::uint64_t size() const { return bytes; }

    /**
     * Zero [off, off + len). Ranges of at least 2 MiB hand their
     * host-page-aligned interior back to the kernel, so it reads zero
     * again without being touched, and memset the unaligned edges;
     * shorter ranges (single pages, stacks) are memset.
     */
    void
    zero(std::uint64_t off, std::uint64_t len)
    {
        if (len < dropThreshold)
            std::memset(base + off, 0, len);
        else
            drop(off, len);
    }

  private:
    /** Smallest range zero() hands back rather than memsets. */
    static constexpr std::uint64_t dropThreshold = 2ull << 20;

    /** The >= dropThreshold case of zero(). */
    void drop(std::uint64_t off, std::uint64_t len);

    std::uint8_t *base = nullptr;
    std::uint64_t bytes;
};

} // namespace elisa::mem

#endif // ELISA_MEM_ANON_REGION_HH
