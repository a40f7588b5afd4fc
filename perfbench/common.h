/**
 * @file
 * Shared vocabulary of the repo benchmark (perfbench/README.md): the
 * benchmark clock, seeded randomness, the percentile helper, and the
 * outcome every workload returns.
 *
 * Randomness is splitmix64 keyed by (seed, stream, index), so every input
 * the benchmark generates is a pure function of the `--seed` argument.
 */

#ifndef ROBOSHAPE_PERFBENCH_COMMON_H
#define ROBOSHAPE_PERFBENCH_COMMON_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace roboshape {
namespace perfbench {

// The benchmark owns all timing; the library never reads this clock.
using Clock = std::chrono::steady_clock; // NOLINT(no-nondeterminism)
using TimePoint = Clock::time_point;

inline TimePoint
now()
{
    return Clock::now();
}

inline double
us_between(TimePoint a, TimePoint b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double
seconds_between(TimePoint a, TimePoint b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline TimePoint
after_seconds(TimePoint t, double s)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
}

/** splitmix64 finalizer. */
std::uint64_t mix64(std::uint64_t z);

/** Seed of one input stream: a pure function of its three keys. */
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index = 0);

/** splitmix64 generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform in [lo, hi). */
    double uniform(double lo, double hi);
    /** Uniform integer in [lo, hi]. */
    std::size_t between(std::size_t lo, std::size_t hi);

  private:
    std::uint64_t state_;
};

/**
 * Percentile @p q in [0, 1] by linear interpolation between the two
 * closest ranks (rank q * (n - 1), the "type 7" estimator).  0 for an
 * empty sample.
 */
double percentile(std::vector<double> samples, double q);

inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

/** Consecutive slices a run's ops are cut into for its figures. */
inline constexpr std::size_t kSlices = 10;

/**
 * [begin, end) of kSlices consecutive slices of @p n ops, each a whole
 * number of groups of @p group ops (fewer slices when there are fewer
 * groups; ops past the last whole group are left out).
 *
 * A run's figures are means over these slices of a figure per slice.
 * The host's speed switches between states for seconds at a time, so a
 * run's figure then moves in proportion to the time spent in each state,
 * instead of jumping to whichever state held most of the run, as one
 * median over the whole run does.
 */
std::vector<std::pair<std::size_t, std::size_t>> slices(std::size_t n,
                                                        std::size_t group);

/**
 * Ops per second of one caller that made the ops of @p op_us back to
 * back: the mean over slices() of each slice's op count divided by its op
 * time; 0 without a whole group.
 */
double closed_loop_rate(const std::vector<double> &op_us, std::size_t group);

/**
 * Set-up samples per run: the set-up before the timed phase, then one at
 * the start of each later tenth of it, so that setup_s, like the other
 * figures, spans the whole run (see slices()).
 */
inline constexpr std::size_t kSetupSamples = 10;

/** Whether set-up sample number @p taken is due in a timed phase that
 *  started at @p start and lasts @p seconds. */
inline bool
setup_sample_due(TimePoint start, double seconds, std::size_t taken)
{
    const double share =
        static_cast<double>(taken) / static_cast<double>(kSetupSamples);
    return taken < kSetupSamples &&
           now() >= after_seconds(start, seconds * share);
}

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &samples);

/** One reported number. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir; ///< Where the traced run writes its span file.
};

/** What one workload run produced. */
struct Outcome
{
    std::uint64_t attempted = 0; ///< Timed ops attempted.
    std::uint64_t failed = 0;    ///< Of those, failed (see README.md).
    /** End-to-end metrics (untraced run) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    /** Further figures shown in the result document only. */
    std::vector<Metric> extra;
    /** First failed output checks, for the log. */
    std::vector<std::string> failures;
    /** Non-empty when the run is invalid (never scored). */
    std::string misconfigured;
    /** Span file of the traced run, and its self time per layer (µs). */
    std::string trace_path;
    std::map<std::string, double> layer_self_us;

    void metric(std::string name, std::string unit, double value)
    {
        metrics.push_back({std::move(name), std::move(unit), value});
    }

    void note(std::string name, std::string unit, double value)
    {
        extra.push_back({std::move(name), std::move(unit), value});
    }

    /** Records one failed op (the message is kept for the first few). */
    void fail(std::string why);
};

} // namespace perfbench
} // namespace roboshape

#endif // ROBOSHAPE_PERFBENCH_COMMON_H
