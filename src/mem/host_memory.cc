#include "mem/host_memory.hh"

namespace elisa::mem
{

HostMemory::HostMemory(std::uint64_t bytes) : region(bytes)
{
    fatal_if(bytes == 0 || !isPageAligned(bytes),
             "physical memory size must be a non-zero multiple of 4 KiB");
}

} // namespace elisa::mem
