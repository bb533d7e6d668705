/**
 * @file
 * What every benchmark workload provides, and the pieces they share:
 * the closed-loop client actor, the fingerprint hash, the simulated
 * latency histogram and counter snapshots.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "cpu/vcpu.hh"
#include "hv/hypervisor.hh"
#include "sim/engine.hh"

#include "inputs.hh"
#include "spans.hh"

namespace perfbench
{

using elisa::SimNs;

/** FNV-1a over 64-bit words: the fingerprint of simulated outputs. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        add(s.size());
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Exact histogram of simulated per-op latencies. */
class SimLatency
{
  public:
    void
    record(SimNs ns)
    {
        if (ns < small.size())
            ++small[ns];
        else
            ++large[ns];
    }

    /** Fold into an ordered latency -> count map. */
    void
    mergeInto(std::map<SimNs, std::uint64_t> &out) const
    {
        for (std::size_t i = 0; i < small.size(); ++i)
            if (small[i])
                out[i] += small[i];
        for (const auto &[ns, n] : large)
            out[ns] += n;
    }

  private:
    std::vector<std::uint64_t> small = std::vector<std::uint64_t>(1 << 16);
    std::map<SimNs, std::uint64_t> large;
};

/** Everything one repetition of a workload produced. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few reasons
    std::uint64_t fingerprint = 0;
    std::uint64_t ops = 0;             ///< simulated ops in the window
    std::map<SimNs, std::uint64_t> simLatency;
    std::map<std::string, double> layer; ///< deterministic layer counts
    std::vector<std::string> lines;      ///< accuracy and notes
    std::vector<SimNs> scrapeNs;         ///< net-rx-observed only

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 5)
            failures.push_back(why);
    }
};

/**
 * A closed-loop client: one engine actor per client VM that issues
 * its next op only when the previous one has completed in simulated
 * time. Each step is one op, timed in simulated ns on the actor's
 * vCPU and spanned on the host clock.
 */
class ClientActor : public elisa::sim::Actor
{
  public:
    ClientActor(elisa::cpu::Vcpu &vcpu, std::uint32_t id)
        : cpu(vcpu), actorId(id)
    {
    }

    SimNs actorNow() const override { return cpu.clock().now(); }

    bool
    step() final
    {
        Span span(Sp::ActorStep,
                  (std::uint64_t(actorId + 1) << 40) | (ops + 1));
        const SimNs t0 = cpu.clock().now();
        op();
        latency.record(cpu.clock().now() - t0);
        ++ops;
        return true;
    }

    /** Fold this client's counts into @p out (fingerprint aside). */
    void
    report(Outcome &out) const
    {
        out.ops += ops;
        out.attempted += attempted;
        out.failed += failed;
        for (const auto &why : failures)
            if (out.failures.size() < 5)
                out.failures.push_back(why);
        latency.mergeInto(out.simLatency);
    }

    std::uint64_t ops = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Fnv fp;

  protected:
    /** One simulated operation; bumps attempted/failed itself. */
    virtual void op() = 0;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 5)
            failures.push_back(why);
    }

    elisa::cpu::Vcpu &cpu;
    const std::uint32_t actorId;

  private:
    SimLatency latency;
    std::vector<std::string> failures;
};

/** Counter name -> total over a set of StatSets. */
using Counters = std::map<std::string, std::uint64_t>;

/** Sum the hypervisor's and every listed VM's vCPU counters. */
Counters snapCounters(const std::vector<elisa::hv::Hypervisor *> &hvs,
                      const std::vector<elisa::hv::Vm *> &vms);

/** after - before, per counter. */
Counters delta(const Counters &after, const Counters &before);

/**
 * The layer counts every workload reports (elisa/cpu/ept/hv paging),
 * normalised by @p ops, and the counters folded into @p fp.
 */
void reportCounters(const Counters &window, std::uint64_t ops,
                    Outcome &out, Fnv &fp);

/** One workload: set-up, an engine to slice, and a final check. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build machines, VMs, exports/attaches and prepopulate. */
    virtual void setup() = 0;

    /** The engine the timed phase slices with run(horizon). */
    virtual elisa::sim::Engine &engine() = 0;

    /**
     * Called right before the first timed slice.
     * @return the simulated time the window starts at.
     */
    virtual SimNs startWindow() = 0;

    /** Simulated ops completed so far in the window. */
    virtual std::uint64_t opsDone() const = 0;

    /** Run the final oracles and fill @p out. */
    virtual void finish(Outcome &out) = 0;
};

/**
 * Workload factories. With @p sabotage set, each oracle expects one
 * deliberately wrong value (the self-test that the oracle can fail).
 */
std::unique_ptr<Workload> makeKvsGate(const Inputs &in, bool sabotage);
std::unique_ptr<Workload> makeNetRx(const Inputs &in, bool sabotage);
std::unique_ptr<Workload> makeScalePings(const Inputs &in, bool sabotage);
std::unique_ptr<Workload> makeOvercommit(const Inputs &in, bool sabotage);

/** Create a VM under a hv.create_vm span. */
elisa::hv::Vm &spannedVm(elisa::hv::Hypervisor &hv, const std::string &name,
                         std::uint64_t ram_bytes);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
