#include "workload.hh"

namespace perfbench
{

Counters
snapCounters(const std::vector<elisa::hv::Hypervisor *> &hvs,
             const std::vector<elisa::hv::Vm *> &vms)
{
    Counters out;
    for (auto *hv : hvs)
        for (const auto &[name, v] : hv->stats().all())
            out[name] += v;
    for (auto *vm : vms)
        for (unsigned i = 0; i < vm->vcpuCount(); ++i)
            for (const auto &[name, v] : vm->vcpu(i).stats().all())
                out[name] += v;
    return out;
}

Counters
delta(const Counters &after, const Counters &before)
{
    Counters out;
    for (const auto &[name, v] : after) {
        auto it = before.find(name);
        out[name] = v - (it == before.end() ? 0 : it->second);
    }
    return out;
}

void
reportCounters(const Counters &window, std::uint64_t ops, Outcome &out,
               Fnv &fp)
{
    const auto get = [&window](const char *name) {
        auto it = window.find(name);
        return it == window.end() ? 0.0 : double(it->second);
    };
    const double n = ops == 0 ? 1.0 : double(ops);
    const double l0 = get("l0_hit");
    const double hit = get("tlb_hit");
    const double miss = get("tlb_miss");
    out.layer["elisa.calls_per_op"] = get("elisa_calls") / n;
    out.layer["cpu.vmfuncs_per_op"] = get("vmfunc") / n;
    out.layer["cpu.vmexits_per_op"] =
        (get("vmcall") + get("cpuid") + get("ept_violation")) / n;
    out.layer["ept.walks_per_op"] = get("ept_walk") / n;
    out.layer["cpu.l0_hit_ratio"] =
        l0 + hit + miss == 0 ? 0.0 : l0 / (l0 + hit + miss);
    out.layer["ept.tlb_hit_ratio"] =
        hit + miss == 0 ? 0.0 : hit / (hit + miss);
    out.layer["hv.pager_faults_per_kop"] = get("pager_faults") * 1e3 / n;
    out.layer["hv.swap_ins"] = get("pager_pages_swapped_in");
    out.layer["hv.swap_outs"] = get("pager_pages_swapped_out");
    out.layer["hv.zero_fills"] = get("pager_zero_fills");
    for (const auto &[name, v] : window) {
        fp.add(name);
        fp.add(v);
    }
}

elisa::hv::Vm &
spannedVm(elisa::hv::Hypervisor &hv, const std::string &name,
          std::uint64_t ram_bytes)
{
    Span span(Sp::CreateVm);
    return hv.createVm(name, ram_bytes);
}

} // namespace perfbench
