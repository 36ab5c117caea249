#include "engines.hpp"

#include <algorithm>

namespace perfbench {

std::uint64_t burn(std::uint64_t rounds) noexcept
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull + rounds;
    for (std::uint64_t i = 0; i < rounds; ++i)
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    // An empty asm that claims to read x keeps the loop from being
    // folded away without a store per body.
    asm volatile("" : : "r"(x));
    return x;
}

void ledger::add(span kind, std::uint64_t ns, std::uint64_t calls) noexcept
{
    auto const k = static_cast<unsigned>(kind);
    slot& s = slots_[std::min<std::uint32_t>(
        minihpx::this_task::worker_id(), slots - 1)];
    s.ns[k].fetch_add(ns, std::memory_order_relaxed);
    s.calls[k].fetch_add(calls, std::memory_order_relaxed);
}

void ledger::reset() noexcept
{
    for (slot& s : slots_)
        for (unsigned k = 0; k != span_kinds; ++k)
        {
            s.ns[k].store(0, std::memory_order_relaxed);
            s.calls[k].store(0, std::memory_order_relaxed);
        }
}

span_total ledger::total(span kind) const noexcept
{
    auto const k = static_cast<unsigned>(kind);
    span_total t;
    for (slot const& s : slots_)
    {
        t.ns += s.ns[k].load(std::memory_order_relaxed);
        t.calls += s.calls[k].load(std::memory_order_relaxed);
    }
    return t;
}

ledger& spans() noexcept
{
    static ledger instance;
    return instance;
}

}    // namespace perfbench
