/**
 * @file
 * In-memory span recorder of the traced runs (perfbench/README.md).
 *
 * Spans are recorded from the benchmark's own files around calls into a
 * layer's public functions: name, start, end, parent span and op id.
 * Each thread records into its own lane (fixed at construction), so
 * recording takes no lock.  At exit the spans are written as a Chrome
 * trace and summarized as per-span-name durations and per-layer self
 * time (a span's duration minus the time its children cover).
 */

#ifndef ROBOSHAPE_PERFBENCH_TRACER_H
#define ROBOSHAPE_PERFBENCH_TRACER_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

namespace roboshape {
namespace perfbench {

class Tracer
{
  public:
    /** @p enabled false records nothing and reads no clock. */
    Tracer(bool enabled, std::size_t lanes);

    bool enabled() const { return enabled_; }

    /** RAII span on @p lane; nests under the lane's innermost open span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::size_t lane, const char *name,
              std::uint64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_ = nullptr; ///< Null when tracing is off.
        std::size_t lane_ = 0;
        std::size_t index_ = 0;
    };

    /** Durations (µs) of every span named @p name, in record order. */
    std::vector<double> durations_us(std::string_view name) const;

    /** The same, grouped by op id modulo @p groups. */
    std::vector<std::vector<double>>
    durations_by_group_us(std::string_view name, std::size_t groups) const;

    /** Self time (µs) summed per layer, the span-name prefix before the
     *  first '.'. */
    std::map<std::string, double> self_time_by_layer() const;

    std::size_t span_count() const;

    /** Chrome trace document ("traceEvents", one "X" event per span). */
    std::string chrome_json(const std::string &workload,
                            std::uint64_t seed) const;

  private:
    struct Span
    {
        const char *name = "";
        TimePoint t0, t1;
        std::int64_t parent = -1; ///< Index in the same lane; -1 = root.
        std::uint64_t op = 0;
    };

    struct Lane
    {
        std::vector<Span> spans;
        std::vector<std::size_t> open; ///< Stack of open span indices.
    };

    bool enabled_;
    TimePoint origin_;
    std::vector<Lane> lanes_;
};

} // namespace perfbench
} // namespace roboshape

#endif // ROBOSHAPE_PERFBENCH_TRACER_H
