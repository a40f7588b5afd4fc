/**
 * @file
 * Wall-clock span tracing for the functional simulation engine.
 *
 * Cycle-accurate schedules explain where *modeled* cycles go; wall-trace
 * spans explain where *host* time goes inside accel::SimEngine::run and
 * run_batch — per phase (input marshalling, RNEA, dRNEA position and
 * velocity passes, the -M^-1 blocked solve) and, at the finest grain, per
 * executed op.  Spans convert to Chrome trace-event JSON via
 * obs::wall_spans_trace_json (see trace_export.h) and load directly in
 * Perfetto / chrome://tracing.
 *
 * Tracing is a debugging/profiling mode: it is OFF by default and every
 * instrumented site guards on wall_trace_enabled() (one relaxed atomic
 * load).  When off, the only cost is that load and a predicted branch.
 * Span recording itself takes a mutex — acceptable for a mode whose whole
 * point is to be turned on briefly around a region of interest.
 */

#ifndef ROBOSHAPE_OBS_WALL_TRACE_H
#define ROBOSHAPE_OBS_WALL_TRACE_H

#include <cstdint>
#include <vector>

namespace roboshape {
namespace obs {

/** One recorded wall-clock interval. */
struct WallSpan
{
    const char *name = "";   ///< Static string; never freed.
    const char *category = ""; ///< "phase", "op", "batch", ...
    std::uint64_t t0_ns = 0; ///< Steady-clock nanoseconds.
    std::uint64_t t1_ns = 0;
    std::uint32_t tid = 0;   ///< Dense per-thread id (0 = first seen).
    std::int32_t arg0 = -1;  ///< Site-defined (e.g. link), -1 = unset.
    std::int32_t arg1 = -1;  ///< Site-defined (e.g. column), -1 = unset.
    std::uint64_t req = 0;   ///< Owning request id, 0 = none.
};

/** Steady-clock timestamp in nanoseconds (monotonic within the process). */
std::uint64_t wall_now_ns() noexcept;

bool wall_trace_enabled() noexcept;
void set_wall_trace_enabled(bool on) noexcept;

/**
 * Per-request trace context (docs/SERVICE.md): the daemon stamps the
 * current thread with the request id it is serving, and every span
 * recorded from that thread — handler, DesignCache, executor region
 * workers (which adopt the leading thread's id, see core/executor.cc),
 * SimEngine phases — carries it in WallSpan::req.  0 means "no request".
 */
void set_trace_request_id(std::uint64_t id) noexcept;
std::uint64_t trace_request_id() noexcept;

/**
 * Forces tracing on while at least one traced request is in flight,
 * independent of the set_wall_trace_enabled master switch.  Nestable;
 * every begin must be paired with an end.
 */
void begin_forced_wall_trace() noexcept;
void end_forced_wall_trace() noexcept;

/** Discards all recorded spans. */
void clear_wall_trace();

/** Records one finished span (no-op when tracing is off). */
void record_wall_span(const char *name, const char *category,
                      std::uint64_t t0_ns, std::uint64_t t1_ns,
                      std::int32_t arg0 = -1, std::int32_t arg1 = -1);

/** Snapshot of every recorded span, sorted by (t0, t1, name). */
std::vector<WallSpan> wall_trace_spans();

/**
 * Removes and returns the spans stamped with request id @p req, sorted
 * like wall_trace_spans().  The per-request Chrome-trace dump uses this
 * so traced requests do not accumulate in the global store.
 */
std::vector<WallSpan> take_wall_trace_spans(std::uint64_t req);

/** RAII span: times its scope and records on destruction when enabled. */
class ScopedWallSpan
{
  public:
    explicit ScopedWallSpan(const char *name,
                            const char *category = "phase") noexcept
        : name_(name), category_(category),
          t0_(wall_trace_enabled() ? wall_now_ns() : 0)
    {
    }

    ~ScopedWallSpan()
    {
        if (t0_ != 0)
            record_wall_span(name_, category_, t0_, wall_now_ns());
    }

    ScopedWallSpan(const ScopedWallSpan &) = delete;
    ScopedWallSpan &operator=(const ScopedWallSpan &) = delete;

  private:
    const char *name_;
    const char *category_;
    std::uint64_t t0_;
};

} // namespace obs
} // namespace roboshape

#define ROBOSHAPE_OBS_SPAN(var, name)                                       \
    ::roboshape::obs::ScopedWallSpan var(name)

#endif // ROBOSHAPE_OBS_WALL_TRACE_H
