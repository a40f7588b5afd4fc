/**
 * @file
 * design_cold: one designer exploring robots the service has never seen
 * (perfbench/README.md).  Each session sweeps a seeded URDF, designs one
 * point of the returned Pareto frontier and ends.  Both requests go
 * through HTTP framing, Service::handle and serialization in-process, with
 * no socket and no second process.  Every sweep misses the cache and
 * inserts an entry (evicting one beyond 64), so the URDF front end, the
 * schedulers and SweepContext do the work.
 */

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>

#include "accel/resource_model.h"
#include "checks.h"
#include "core/sweep_context.h"
#include "inputs.h"
#include "service/cache.h"
#include "service/json_value.h"
#include "topology/urdf_parser.h"
#include "workloads.h"

namespace roboshape {
namespace perfbench {

namespace {

/** Sessions the traced pass replays, and of those, the robots it probes
 *  layer by layer. */
constexpr std::size_t kTraceSessions = 160;
constexpr std::size_t kProbeSessions = 64;
/** Robots precomputed at once by the concurrency probe, and the threads
 *  that check sessions after the timed phase. */
constexpr std::size_t kConcurrency = 4;

/**
 * What one session left for its output checks: the parsed frontier and
 * design, never the response bodies, so what a run keeps stays small
 * however many sessions it makes.
 */
struct Session
{
    std::uint64_t index = 0;
    double latency_us = 0.0;
    std::string error; ///< Non-empty when a response was unusable.
    bool sweep_miss = false;
    std::vector<FrontierPoint> frontier;
    FrontierPoint chosen;
    DesignSummary design;
};

/**
 * One session against @p svc: the sweep and design requests go through
 * framing, Service::handle and serialization (spanned on @p lane when
 * @p tracer is on).  The latency runs from the first request to the
 * design's serialization; the design body is parsed after it.
 */
Session
run_session(service::Service &svc, std::uint64_t seed, std::uint64_t index,
            Tracer &tracer, std::size_t lane)
{
    Session s;
    s.index = index;
    const ColdRobot robot = cold_robot(seed, index);
    const std::string sweep = cold_sweep_request(robot);

    Tracer::Scope op(tracer, lane, "op.session", index);
    const TimePoint t0 = now();
    const net::HttpResponse swept = replay_request(
        svc, sweep, "service.handle.sweep", tracer, lane, index);
    if (swept.status != 200) {
        s.error = "sweep status " + std::to_string(swept.status);
        return s;
    }
    s.sweep_miss = swept.header("X-Roboshape-Cache") == "miss";
    if (!parse_frontier(swept.body, s.frontier)) {
        s.error = "sweep body has no readable pareto array";
        return s;
    }
    s.chosen = s.frontier[cold_frontier_pick(seed, index, s.frontier.size())];
    const net::HttpResponse designed = replay_request(
        svc,
        cold_design_request(robot, s.chosen.pes_fwd, s.chosen.pes_bwd,
                            s.chosen.block_size),
        "service.handle.design", tracer, lane, index);
    s.latency_us = us_between(t0, now());
    if (designed.status != 200)
        s.error = "design status " + std::to_string(designed.status);
    else if (!parse_design(designed.body, s.design))
        s.error = "design body has no readable params and cycles";
    return s;
}

/** Output check of one session against the host library. */
std::string
check_session(std::uint64_t seed, const Session &s)
{
    if (!s.error.empty())
        return s.error;
    if (!s.sweep_miss)
        return "sweep of an unseen robot was not a cache miss";
    const topology::UrdfParseResult parsed =
        topology::parse_urdf_checked(cold_robot(seed, s.index).urdf);
    if (!parsed.ok())
        return "generated URDF does not parse";
    if (std::string why = check_cold_frontier(s.frontier, *parsed.model);
        !why.empty())
        return why;
    return check_cold_design(s.design, s.chosen);
}

/**
 * Output checks of every session, outside the timed window, on
 * kConcurrency threads: counts each in @p out and returns the latencies
 * of the sessions that passed.
 */
std::vector<double>
check_sessions(std::uint64_t seed, const std::vector<Session> &sessions,
               Outcome &out)
{
    std::vector<std::string> verdicts(sessions.size());
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kConcurrency; ++w)
        threads.emplace_back([&] {
            for (std::size_t i; (i = cursor++) < sessions.size();)
                verdicts[i] = check_session(seed, sessions[i]);
        });
    for (std::thread &t : threads)
        t.join();
    std::vector<double> latency_us;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        ++out.attempted;
        if (verdicts[i].empty())
            latency_us.push_back(sessions[i].latency_us);
        else
            out.fail("session " + std::to_string(sessions[i].index) + ": " +
                     verdicts[i]);
    }
    return latency_us;
}

/**
 * The traced pass: runs the first sessions untraced on one fresh Service
 * and traced on another, in alternating order so that warm-up and cache
 * state favour neither side, and checks the traced ones; then probes the
 * first sessions' robots through each layer's public functions, one robot
 * at a time and kConcurrency at once.
 */
void
run_traced(const Options &options, Outcome &out)
{
    std::vector<Session> sessions(kTraceSessions);
    Tracer off(false, 1);
    Tracer tracer(true, kConcurrency);
    service::Service plain_svc, traced_svc; // every sweep misses on both
    double plain_us = 0.0, traced_us = 0.0;
    const auto before = counter_snapshot();
    for (std::size_t i = 0; i < kTraceSessions; ++i) {
        const auto plain = [&] {
            plain_us +=
                run_session(plain_svc, options.seed, i, off, 0).latency_us;
        };
        const auto traced = [&] {
            sessions[i] = run_session(traced_svc, options.seed, i, tracer, 0);
            traced_us += sessions[i].latency_us;
        };
        if (i % 2 == 0) {
            plain();
            traced();
        } else {
            traced();
            plain();
        }
    }
    const auto after = counter_snapshot();
    check_sessions(options.seed, sessions, out);
    out.metric("trace.overhead", "ratio", traced_us / plain_us);
    // Both sides run the same sessions, so per session is half the delta.
    for (const char *name :
         {"sched.list_runs", "sched.block_runs", "sched.tasks_placed"})
        out.metric(name, "count",
                   counter_delta(before, after, name) /
                       static_cast<double>(2 * kTraceSessions));

    // Precompute runs the executor at full width, whatever
    // ROBOSHAPE_THREADS says, so that exec.region_contention shows how
    // concurrent top-level regions serialize.
    const std::size_t full = std::thread::hardware_concurrency();
    service::DesignCache cache;
    double memo_ratio_sum = 0.0;
    for (std::size_t i = 0; i < kProbeSessions; ++i) {
        const ColdRobot robot = cold_robot(options.seed, i);
        Tracer::Scope op(tracer, 0, "op.probe", i);
        net::HttpRequest request;
        frame_request(cold_sweep_request(robot), request);
        {
            Tracer::Scope s(tracer, 0, "service.json_parse", i);
            service::parse_json(request.body);
        }
        topology::RobotModel model;
        {
            Tracer::Scope s(tracer, 0, "topology.urdf_parse", i);
            model = *topology::parse_urdf_checked(robot.urdf).model;
        }
        std::uint64_t hash = 0;
        {
            Tracer::Scope s(tracer, 0, "service.model_hash", i);
            hash = service::model_hash(model);
        }
        {
            Tracer::Scope s(tracer, 0, "service.cache_entry", i);
            cache.entry(hash, sched::KernelKind::kDynamicsGradient, model);
        }
        std::unique_ptr<core::SweepContext> ctx;
        {
            Tracer::Scope s(tracer, 0, "core.sweep_context", i);
            ctx = std::make_unique<core::SweepContext>(model);
        }
        {
            Tracer::Scope s(tracer, 0, "core.precompute", i);
            ctx->precompute_stage_schedules(full);
        }
        // The service's sweep composition: every knob point's cycles and
        // resources; the fastest point is then designed.
        const std::size_t n = ctx->num_links();
        accel::AcceleratorParams best{1, 1, 1};
        {
            Tracer::Scope s(tracer, 0, "core.compose", i);
            std::int64_t best_cycles =
                std::numeric_limits<std::int64_t>::max();
            for (std::size_t pf = 1; pf <= n; ++pf)
                for (std::size_t pb = 1; pb <= n; ++pb)
                    for (std::size_t b = 1; b <= ctx->block_knob_max(); ++b) {
                        const accel::AcceleratorParams p{pf, pb, b};
                        const std::int64_t cycles =
                            ctx->cycles_no_pipelining(p);
                        accel::estimate_resources(p, n);
                        if (cycles < best_cycles) {
                            best_cycles = cycles;
                            best = p;
                        }
                    }
        }
        {
            Tracer::Scope s(tracer, 0, "core.design", i);
            ctx->design(best);
        }
        const core::SweepMemoStats memo = ctx->memo_stats();
        memo_ratio_sum += static_cast<double>(memo.hits()) /
                          static_cast<double>(std::max<std::uint64_t>(
                              memo.hits() + memo.misses(), 1));
    }
    {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> threads;
        for (std::size_t lane = 0; lane < kConcurrency; ++lane)
            threads.emplace_back([&, lane] {
                for (std::size_t i; (i = next++) < kProbeSessions;) {
                    const topology::RobotModel model =
                        *topology::parse_urdf_checked(
                             cold_robot(options.seed, i).urdf)
                             .model;
                    core::SweepContext ctx(model);
                    Tracer::Scope s(tracer, lane,
                                    "core.precompute_concurrent", i);
                    ctx.precompute_stage_schedules(full);
                }
            });
        for (std::thread &t : threads)
            t.join();
    }

    const double alone_us = span_median(tracer, "core.precompute");
    const double concurrent_us =
        span_median(tracer, "core.precompute_concurrent");
    out.metric("net.http_parse_us", "us",
               span_median(tracer, "net.http_parse"));
    out.metric("net.serialize_us", "us", span_median(tracer, "net.serialize"));
    out.metric("service.handle_us.sweep", "us",
               span_median(tracer, "service.handle.sweep"));
    out.metric("service.handle_us.design", "us",
               span_median(tracer, "service.handle.design"));
    out.metric("service.json_parse_us", "us",
               span_median(tracer, "service.json_parse"));
    out.metric("service.model_hash_us", "us",
               span_median(tracer, "service.model_hash"));
    out.metric("service.cache_entry_us", "us",
               span_median(tracer, "service.cache_entry"));
    out.metric("topology.urdf_parse_us", "us",
               span_median(tracer, "topology.urdf_parse"));
    out.metric("core.sweep_context_us", "us",
               span_median(tracer, "core.sweep_context"));
    out.metric("core.precompute_us", "us", alone_us);
    out.metric("core.precompute_us.concurrent", "us", concurrent_us);
    out.metric("core.compose_us", "us", span_median(tracer, "core.compose"));
    out.metric("core.design_us", "us", span_median(tracer, "core.design"));
    out.metric("core.memo_hit_ratio", "ratio",
               memo_ratio_sum / static_cast<double>(kProbeSessions));
    out.metric("exec.region_contention", "ratio", concurrent_us / alone_us);
    write_trace(tracer, options, out);
}

} // namespace

Outcome
run_design_cold(const Options &options)
{
    Outcome out;
    if (options.trace) {
        run_traced(options, out);
        return out;
    }

    // Set-up: a fresh Service warmed by sweeping the nine library robots
    // by id (the same work on every seed).
    const std::vector<std::string> warm = library_sweep_requests();
    Tracer off(false, 1);
    std::vector<double> setups;
    const auto timed_set_up = [&] {
        const TimePoint t0 = now();
        auto svc = std::make_unique<service::Service>();
        for (const std::string &bytes : warm)
            replay_request(*svc, bytes, "service.handle.sweep", off, 0, 0);
        setups.push_back(seconds_between(t0, now()));
        return svc;
    };
    const std::unique_ptr<service::Service> svc = timed_set_up();

    std::vector<Session> sessions;
    const TimePoint start = now();
    const TimePoint end = after_seconds(start, options.seconds);
    for (std::uint64_t i = 0; now() < end; ++i) {
        // The next set-up sample once it is due; its Service is discarded.
        if (setup_sample_due(start, options.seconds, setups.size()))
            timed_set_up();
        sessions.push_back(run_session(*svc, options.seed, i, off, 0));
    }
    // Read before the checks, whose oracle sweeps are not the program's.
    const double peak_rss_mb = self_peak_rss_mb();

    const std::vector<double> latency_us =
        check_sessions(options.seed, sessions, out);
    out.note("error_rate", "ratio",
             static_cast<double>(out.failed) /
                 static_cast<double>(out.attempted));
    out.note("samples", "count", static_cast<double>(latency_us.size()));
    out.note("p99_us", "us", percentile(latency_us, 0.99));
    double p50_sum = 0.0;
    const auto cuts = slices(latency_us.size(), 1);
    for (const auto &[lo, hi] : cuts) {
        const auto first = latency_us.begin();
        p50_sum += median({first + static_cast<std::ptrdiff_t>(lo),
                           first + static_cast<std::ptrdiff_t>(hi)});
    }
    out.metric("p50_us", "us", p50_sum / static_cast<double>(cuts.size()));
    out.metric("ops_per_s", "1/s", closed_loop_rate(latency_us, 1));
    out.metric("setup_s", "s", mean(setups));
    out.metric("peak_rss_mb", "MiB", peak_rss_mb);
    return out;
}

} // namespace perfbench
} // namespace roboshape
