#include "sim/stats.hh"

#include <cmath>

namespace elisa::sim
{

void
RunningStats::add(double x)
{
    ++n;
    total += x;
    const double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
    if (x < minV)
        minV = x;
    if (x > maxV)
        maxV = x;
}

double
RunningStats::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n);
    const double nb = static_cast<double>(other.n);
    const double delta = other.m - m;
    const double combined = na + nb;
    m += delta * nb / combined;
    m2 += other.m2 + delta * delta * na * nb / combined;
    n += other.n;
    total += other.total;
    if (other.minV < minV)
        minV = other.minV;
    if (other.maxV > maxV)
        maxV = other.maxV;
}

StatId
StatSet::id(const std::string &name)
{
    const StatId sid = quietId(name);
    quiet[sid] = false;
    return sid;
}

StatId
StatSet::quietId(const std::string &name)
{
    auto it = index.find(name);
    if (it != index.end())
        return it->second;
    const StatId sid = static_cast<StatId>(values.size());
    index.emplace(name, sid);
    values.push_back(0);
    quiet.push_back(true);
    return sid;
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    auto it = index.find(name);
    return it == index.end() ? 0 : values[it->second];
}

void
StatSet::clear()
{
    for (StatId sid = 0; sid < values.size(); ++sid) {
        // A counter that has counted stays listed, as with id().
        if (values[sid] != 0)
            quiet[sid] = false;
        values[sid] = 0;
    }
}

std::map<std::string, std::uint64_t>
StatSet::all() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, sid] : index)
        if (!quiet[sid] || values[sid] != 0)
            out.emplace(name, values[sid]);
    return out;
}

} // namespace elisa::sim
