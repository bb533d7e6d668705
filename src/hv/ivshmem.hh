/**
 * @file
 * Direct-mapped shared memory device (ivshmem-style baseline).
 *
 * This is the paper's *direct-mapping* scheme: one host-physical region
 * mapped straight into the default EPT context of every attached VM.
 * Fast (no transition at all on access) but unisolated — any attached
 * guest can trash the region and, with it, every peer; the isolation
 * tests demonstrate exactly that.
 */

#ifndef ELISA_HV_IVSHMEM_HH
#define ELISA_HV_IVSHMEM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "ept/ept_entry.hh"
#include "hv/vm.hh"

namespace elisa::hv
{

class Hypervisor;

/**
 * A shared host-physical region that VMs may direct-map.
 */
class IvshmemRegion
{
  public:
    /**
     * Allocate @p bytes of host memory for the region.
     * @param hv the machine.
     * @param name region name (diagnostics).
     */
    IvshmemRegion(Hypervisor &hv, std::string name, std::uint64_t bytes);

    /** Release the backing frames (attached mappings must be gone). */
    ~IvshmemRegion();

    IvshmemRegion(const IvshmemRegion &) = delete;
    IvshmemRegion &operator=(const IvshmemRegion &) = delete;

    /** Region name. */
    const std::string &name() const { return regionName; }

    /** Host-physical base of the region. */
    Hpa base() const { return hpaBase; }

    /** Region size in bytes. */
    std::uint64_t size() const { return bytes; }

    /**
     * Map the whole region into @p vm's default context at @p gpa.
     * @param perms typically RW; Read for a read-only consumer.
     * @return false if the GPA range is already occupied.
     */
    bool attach(Vm &vm, Gpa gpa, ept::Perms perms = ept::Perms::RW);

    /** Unmap the region from @p vm (must match a previous attach). */
    void detach(Vm &vm, Gpa gpa);

    /** Number of current attachments. */
    unsigned attachCount() const { return attachments; }

  private:
    Hypervisor &hyper;
    std::string regionName;
    Hpa hpaBase = 0;
    std::uint64_t bytes;
    unsigned attachments = 0;
    sim::StatId attachId = 0;
};

} // namespace elisa::hv

#endif // ELISA_HV_IVSHMEM_HH
