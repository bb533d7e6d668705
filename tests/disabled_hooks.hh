/**
 * @file
 * The disabled-hook primitive behind the overhead-budget tests: the
 * host cost of N instrumentation points whose pointer is null.
 *
 * Each replica is one pointer load and one never-taken branch, at any
 * optimisation level. A compiler barrier before every replica forces
 * the reload (no hoisting out of the loop, no CSE between replicas),
 * the fold over an index sequence unrolls the replicas (no inner loop
 * to unswitch into a single test), and the taken side is an
 * out-of-line call (no if-conversion into a carry chain). The base
 * loop runs the same barriers without the tests, so the delta is the
 * tests alone.
 */

#ifndef ELISA_TESTS_DISABLED_HOOKS_HH
#define ELISA_TESTS_DISABLED_HOOKS_HH

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace elisa::test
{

/** The taken side of a hook, kept out of line. */
[[gnu::noinline]] inline void
hookTaken(std::uint64_t &sink)
{
    ++sink;
}

/** Compiler barrier: @p instrument may have changed behind our back. */
[[gnu::always_inline]] inline void
clobber(const void *&instrument)
{
    asm volatile("" : : "r"(&instrument) : "memory");
}

/**
 * @p iters iterations of @p Hooks replicas each: a barrier, then (when
 * @p Hooked) the load and the never-taken branch.
 */
template <unsigned Hooks, bool Hooked>
[[gnu::noinline]] void
hookLoop(const void *&instrument, std::uint64_t iters, std::uint64_t &sink)
{
    const auto replica = [&] {
        clobber(instrument);
        if constexpr (Hooked) {
            if (instrument != nullptr) [[unlikely]]
                hookTaken(sink);
        }
    };
    for (std::uint64_t i = 0; i < iters; ++i) {
        [&]<std::size_t... I>(std::index_sequence<I...>) {
            ((void(I), replica()), ...);
        }(std::make_index_sequence<Hooks>{});
    }
}

/**
 * Host ns per call of @p Hooks disabled hooks: the best-of-@p rounds
 * difference between the hooked and the base loop, each @p iters
 * iterations long (never negative).
 */
template <unsigned Hooks>
double
disabledHooksNs(int rounds, std::uint64_t iters)
{
    using clock = std::chrono::steady_clock;
    const void *instrument = nullptr; // never installed
    std::uint64_t sink = 0;
    const auto per_iter = [&](auto loop) {
        const auto t0 = clock::now();
        loop(instrument, iters, sink);
        return std::chrono::duration<double, std::nano>(clock::now() - t0)
                   .count() /
               (double)iters;
    };
    double base_ns = 1e9, hooked_ns = 1e9;
    for (int r = 0; r < rounds; ++r) {
        base_ns = std::min(base_ns, per_iter(hookLoop<Hooks, false>));
        hooked_ns = std::min(hooked_ns, per_iter(hookLoop<Hooks, true>));
    }
    asm volatile("" : : "r"(sink));
    return hooked_ns > base_ns ? hooked_ns - base_ns : 0.0;
}

} // namespace elisa::test

#endif // ELISA_TESTS_DISABLED_HOOKS_HH
