/**
 * @file
 * The generated inputs of one benchmark run.
 *
 * perfbench/run.py derives every input from the workload seed and
 * writes them to one file; the program never sees the seed. Layout
 * (all integers little-endian):
 *
 *   "EPB1"
 *   u32 nparams, then per param:  u32 name_len, name, u64 value
 *   u32 nstreams, then per stream: u32 name_len, name, u64 count,
 *                                  count x u32
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

class Inputs
{
  public:
    /** Load @p path; exits with a message when it is malformed. */
    static Inputs load(const std::string &path);

    /** A scalar parameter; missing names are fatal. */
    std::uint64_t param(const std::string &name) const;

    /** A u32 stream; missing names are fatal. */
    const std::vector<std::uint32_t> &stream(const std::string &name) const;

    std::map<std::string, std::uint64_t> params;
    std::map<std::string, std::vector<std::uint32_t>> streams;
};

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
