/**
 * @file
 * Process-wide counter and histogram registry (docs/OBSERVABILITY.md).
 *
 * Every subsystem of the pipeline — the list/block schedulers, the sweep
 * memoization caches, the compiled simulation engine, the URDF front end —
 * publishes lightweight counters here so benches, the CLI `stats`
 * subcommand, and RunReports can snapshot where work went without any
 * subsystem growing bespoke statistics plumbing.
 *
 * Design constraints (the "fast as hardware allows" prerequisite):
 *
 *  - Hot-path cost is one relaxed atomic add behind a relaxed enabled-flag
 *    load.  Call sites resolve their Counter reference once through a
 *    function-local static, so the registry map is only consulted on first
 *    use.  The overhead gate (`bench/obs_overhead`, ctest label "obs")
 *    keeps the instrumented SimEngine within 2% of the uninstrumented one.
 *
 *  - Instrumentation never changes numerics: counters observe, they do not
 *    participate in any computation.
 *
 * Thread-safety: Counter/Histogram mutation is lock-free; creating a new
 * named counter takes a mutex once.  Snapshots are consistent per entry
 * (not across entries), which is what run reports need.
 */

#ifndef ROBOSHAPE_OBS_REGISTRY_H
#define ROBOSHAPE_OBS_REGISTRY_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace roboshape {
namespace obs {

/** Monotonic event counter.  add() is safe from any thread. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) noexcept
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Histogram bucket layout: fixed log-spaced buckets with exact counts.
 *
 * Bucket 0 absorbs every value <= 0.  Values in [1, 2^kSubBits) get one
 * bucket each (exact).  Larger values split each power-of-two octave into
 * 2^kSubBits sub-buckets (<= 12.5% relative width at kSubBits = 3), the
 * HdrHistogram layout.  The scheme is a pure function of the value — no
 * sampling, no rebalancing — so bucket counts (and therefore quantiles)
 * are bit-identical across runs, thread counts, and record orderings.
 */
inline constexpr unsigned kHistogramSubBits = 3;
inline constexpr std::size_t kHistogramBuckets =
    1 + ((64 - kHistogramSubBits) << kHistogramSubBits);

/** Bucket index of @p v under the layout above (branch-light bit math). */
constexpr std::size_t
histogram_bucket_index(std::int64_t v) noexcept
{
    if (v <= 0)
        return 0;
    const auto u = static_cast<std::uint64_t>(v);
    const unsigned msb =
        63u - static_cast<unsigned>(std::countl_zero(u)); // one bit-scan
    if (msb < kHistogramSubBits)
        return 1 + static_cast<std::size_t>(u);
    const std::uint64_t sub =
        (u >> (msb - kHistogramSubBits)) & ((1u << kHistogramSubBits) - 1);
    return 1 +
           ((static_cast<std::size_t>(msb) - kHistogramSubBits + 1)
            << kHistogramSubBits) +
           static_cast<std::size_t>(sub);
}

/** Largest value mapping to bucket @p index (the quantile estimate). */
constexpr std::int64_t
histogram_bucket_upper(std::size_t index) noexcept
{
    if (index == 0)
        return 0;
    const std::size_t f = index - 1;
    if (f < (std::size_t{1} << kHistogramSubBits))
        return static_cast<std::int64_t>(f);
    const std::size_t block = f >> kHistogramSubBits;
    const std::size_t sub = f & ((std::size_t{1} << kHistogramSubBits) - 1);
    const unsigned msb =
        static_cast<unsigned>(block) + kHistogramSubBits - 1;
    const std::uint64_t width = std::uint64_t{1} << (msb - kHistogramSubBits);
    const std::uint64_t lower =
        (std::uint64_t{1} << msb) + static_cast<std::uint64_t>(sub) * width;
    const std::uint64_t upper = lower + width - 1;
    return upper > static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max())
               ? std::numeric_limits<std::int64_t>::max()
               : static_cast<std::int64_t>(upper);
}

/**
 * Distribution summary: count, sum, min, max, and exact log-spaced bucket
 * counts of recorded values — enough to answer "what is p99 of
 * svc.request_us under load", not just "how deep did the queue get".
 * The hot path stays lock-free: two relaxed adds plus rare min/max CAS.
 */
class Histogram
{
  public:
    void record(std::int64_t v) noexcept;

    struct Snapshot
    {
        std::uint64_t count = 0;
        std::int64_t sum = 0;
        std::int64_t min = 0; ///< 0 when count == 0.
        std::int64_t max = 0; ///< 0 when count == 0.
        std::vector<std::uint64_t> buckets; ///< kHistogramBuckets counts.

        double mean() const
        {
            return count == 0 ? 0.0
                              : static_cast<double>(sum) /
                                    static_cast<double>(count);
        }

        /**
         * Upper bound of the bucket holding the value of rank
         * ceil(q * count) — deterministic for a given multiset of recorded
         * values regardless of thread interleaving.  0 when empty.
         */
        std::int64_t quantile(double q) const noexcept;

        std::int64_t p50() const noexcept { return quantile(0.50); }
        std::int64_t p90() const noexcept { return quantile(0.90); }
        std::int64_t p99() const noexcept { return quantile(0.99); }
    };

    Snapshot snapshot() const noexcept;
    void reset() noexcept;

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::int64_t> sum_{0};
    std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
    std::atomic<std::uint64_t> buckets_[kHistogramBuckets] = {};
};

/** One named counter value in a registry snapshot. */
struct CounterSample
{
    std::string name;
    std::uint64_t value = 0;
};

/** One named histogram summary in a registry snapshot. */
struct HistogramSample
{
    std::string name;
    Histogram::Snapshot stats;
};

/**
 * Name -> Counter/Histogram map with stable entry addresses: a reference
 * returned by counter()/histogram() stays valid for the process lifetime,
 * so call sites may cache it in a static.
 */
class Registry
{
  public:
    Counter &counter(std::string_view name);
    Histogram &histogram(std::string_view name);

    /** All counters, sorted by name (deterministic report order). */
    std::vector<CounterSample> counters() const;
    /** All histograms, sorted by name. */
    std::vector<HistogramSample> histograms() const;

    /** Zeroes every counter and histogram (names stay registered). */
    void reset();

  private:
    struct Impl;
    Impl &impl() const;
};

/** The process-wide registry every ROBOSHAPE_OBS_* macro records into. */
Registry &registry();

/**
 * Runtime master switch (default on).  When off, Counter::add and
 * Histogram::record still execute at call sites but the per-subsystem
 * instrumentation macros skip their updates; recorded values freeze.
 */
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

} // namespace obs
} // namespace roboshape

/*
 * Instrumentation macros.  Use these — not the classes directly — at hot
 * call sites: each resolves its registry entry once into a static.
 *
 *   ROBOSHAPE_OBS_COUNT(name, n)   bump counter `name` by n
 *   ROBOSHAPE_OBS_RECORD(name, v)  record v into histogram `name`
 *
 * `name` must be a string literal (it keys the registry map once).
 */
#define ROBOSHAPE_OBS_COUNT(name, n)                                        \
    do {                                                                    \
        if (::roboshape::obs::enabled()) {                                  \
            static ::roboshape::obs::Counter &roboshape_obs_counter_ =      \
                ::roboshape::obs::registry().counter(name);                 \
            roboshape_obs_counter_.add(                                     \
                static_cast<std::uint64_t>(n));                             \
        }                                                                   \
    } while (0)
#define ROBOSHAPE_OBS_RECORD(name, v)                                       \
    do {                                                                    \
        if (::roboshape::obs::enabled()) {                                  \
            static ::roboshape::obs::Histogram &roboshape_obs_hist_ =       \
                ::roboshape::obs::registry().histogram(name);               \
            roboshape_obs_hist_.record(static_cast<std::int64_t>(v));       \
        }                                                                   \
    } while (0)

#endif // ROBOSHAPE_OBS_REGISTRY_H
