// Task bodies and engines owned by the benchmark.
//
// Every workload's useful work is a fixed number of xorshift rounds per
// modeled nanosecond. The count is a constant, not a clock calibration,
// so the work per task is identical in every process and calibration
// noise cannot move it. Task Bench's own calibrated spin is bypassed
// (skip_compute() is true); its point bodies burn through
// annotate_work like the Inncabs ones.
//
// plain_engine is what end-to-end runs use: no timers anywhere.
// traced_engine and traced_fib_engine wrap the public calls of the
// runtime layer (async, future::get, when_all + then, sync_wait) and
// the body itself in steady_clock spans, summed per worker.
#pragma once

#include <inncabs/engine.hpp>
#include <minihpx/minihpx.hpp>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

// xorshift rounds per modeled ns: ~1 ns of work per ns on a Xeon host
// that runs 0.38 rounds/ns. Fixed on purpose (see above).
inline constexpr double rounds_per_ns = 0.4;

inline std::uint64_t rounds_for(std::uint64_t cpu_ns) noexcept
{
    return static_cast<std::uint64_t>(
        static_cast<double>(cpu_ns) * rounds_per_ns);
}

// The fixed body. Returns the final state so callers can sink it.
std::uint64_t burn(std::uint64_t rounds) noexcept;

// ---- span ledger ---------------------------------------------------------

enum class span : unsigned
{
    body,          // the fixed body (kernel layer)
    async,         // minihpx::async call, caller side
    get_ready,     // future::get that found the value ready
    get_blocked,   // future::get / sync_wait that had to wait
    gate,          // when_all + then
    count_
};

inline constexpr unsigned span_kinds = static_cast<unsigned>(span::count_);

struct span_total
{
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
};

// Per-worker slots so two workers never write one cache line; the slot
// is looked up after the timed call, because a task that blocked may
// resume on another worker.
class ledger
{
public:
    void add(span kind, std::uint64_t ns, std::uint64_t calls = 1) noexcept;
    void reset() noexcept;
    span_total total(span kind) const noexcept;

private:
    static constexpr unsigned slots = 16;    // last slot: non-workers
    struct alignas(64) slot
    {
        std::array<std::atomic<std::uint64_t>, span_kinds> ns{};
        std::array<std::atomic<std::uint64_t>, span_kinds> calls{};
    };
    std::array<slot, slots> slots_{};
};

ledger& spans() noexcept;

inline std::uint64_t now_ns() noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// ---- engines -------------------------------------------------------------

template <bool Traced>
struct body_engine : inncabs::minihpx_engine
{
    static void annotate_work(minihpx::work_annotation const& w) noexcept
    {
        if (w.cpu_ns != 0)
        {
            if constexpr (Traced)
            {
                std::uint64_t const t0 = now_ns();
                (void) burn(rounds_for(w.cpu_ns));
                spans().add(span::body, now_ns() - t0);
            }
            else
            {
                (void) burn(rounds_for(w.cpu_ns));
            }
        }
        inncabs::minihpx_engine::annotate_work(w);
    }

    static bool skip_compute() noexcept { return true; }
};

using plain_engine = body_engine<false>;

// Task Bench and burst: the dependency-graph surface, timed.
struct traced_engine : body_engine<true>
{
    using base = inncabs::minihpx_engine;

    // Both overloads: engine_traits requires the policy form too.
    template <typename F, typename... Ts>
    static auto async(launch policy, F&& f, Ts&&... ts)
    {
        std::uint64_t const t0 = now_ns();
        auto fut =
            base::async(policy, std::forward<F>(f), std::forward<Ts>(ts)...);
        spans().add(span::async, now_ns() - t0);
        return fut;
    }

    template <typename F, typename... Ts,
        typename =
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, launch>>>
    static auto async(F&& f, Ts&&... ts)
    {
        std::uint64_t const t0 = now_ns();
        auto fut = base::async(std::forward<F>(f), std::forward<Ts>(ts)...);
        spans().add(span::async, now_ns() - t0);
        return fut;
    }

    // when_all and then are always called as a pair (Task Bench's
    // then(when_all(deps), body)); each half adds to the same span and
    // only then() counts the call.
    template <typename T>
    static minihpx::future<void> when_all(
        std::vector<minihpx::shared_future<T>> const& deps)
    {
        std::uint64_t const t0 = now_ns();
        auto gate = base::when_all(deps);
        spans().add(span::gate, now_ns() - t0, 0);
        return gate;
    }

    template <typename F>
    static auto then(minihpx::future<void> gate, F&& fn)
    {
        std::uint64_t const t0 = now_ns();
        auto out = base::then(std::move(gate), std::forward<F>(fn));
        spans().add(span::gate, now_ns() - t0);
        return out;
    }

    template <typename T>
    static T sync_wait(minihpx::future<T> f)
    {
        span const kind = f.is_ready() ? span::get_ready : span::get_blocked;
        std::uint64_t const t0 = now_ns();
        if constexpr (std::is_void_v<T>)
        {
            base::sync_wait(std::move(f));
            spans().add(kind, now_ns() - t0);
        }
        else
        {
            T value = base::sync_wait(std::move(f));
            spans().add(kind, now_ns() - t0);
            return value;
        }
    }
};

// Fib calls get() on the future async returns, so its traced engine
// hands out a future whose get() is timed.
template <typename T>
class timed_future
{
public:
    explicit timed_future(minihpx::future<T>&& f)
      : f_(std::move(f))
    {
    }

    T get()
    {
        span const kind =
            f_.is_ready() ? span::get_ready : span::get_blocked;
        std::uint64_t const t0 = now_ns();
        T value = f_.get();
        spans().add(kind, now_ns() - t0);
        return value;
    }

private:
    minihpx::future<T> f_;
};

struct traced_fib_engine : body_engine<true>
{
    template <typename F>
    static auto async(F&& f)
    {
        std::uint64_t const t0 = now_ns();
        auto fut = minihpx::async(std::forward<F>(f));
        spans().add(span::async, now_ns() - t0);
        return timed_future(std::move(fut));
    }
};

}    // namespace perfbench
