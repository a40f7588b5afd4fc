/**
 * @file
 * ilqr_stream and mpc_batch: the compiled accelerator model inside
 * control loops (paper Sec. 5.2; perfbench/README.md).
 *
 * ilqr_stream solves seeded iLQR problems on one thread with the
 * AcceleratorLinearizer, so every linearization is one single-stream
 * SimEngine::run.  mpc_batch hands a whole horizon of packets to
 * SimEngine::run_batch, which runs SIMD lane groups plus a scalar tail
 * across the executor.  Both visit the paper's six robots in turn.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "accel/simd_lanes.h"
#include "checks.h"
#include "control/accel_linearizer.h"
#include "core/executor.h"
#include "core/sweep_context.h"
#include "dynamics/crba.h"
#include "dynamics/rnea.h"
#include "inputs.h"
#include "workloads.h"

namespace roboshape {
namespace perfbench {

namespace {

/** Solves / calls the traced run times per pass. */
constexpr std::size_t kTraceIlqrSolves = 140;
constexpr std::size_t kTraceMpcCalls = 700;
/** Passes of the ilqr_stream probe over each robot's captured points. */
constexpr std::size_t kProbePasses = 16;

/** One robot of the fleet with its accelerator design. */
struct SimRobot
{
    topology::RobotModel model;
    std::unique_ptr<topology::TopologyInfo> topo;
    std::unique_ptr<accel::AcceleratorDesign> design;
    std::unique_ptr<control::AcceleratorLinearizer> linearizer; // ilqr
    std::unique_ptr<accel::SimEngine> engine;                   // mpc
    accel::SimEngine::BatchWorkspace batch;
    std::unique_ptr<MpcHorizon> horizon;
    std::vector<accel::EngineResult> results;
};

/** Design of @p model: full PE pools, best block size, composed by the
 *  generator's memoized sweep path. */
std::unique_ptr<accel::AcceleratorDesign>
make_design(const topology::RobotModel &model)
{
    core::SweepContext ctx(model);
    const std::size_t n = model.num_links();
    return std::make_unique<accel::AcceleratorDesign>(
        ctx.design({n, n, ctx.best_block_size()}));
}

/**
 * Every solve does the same work: kIlqrIterations iterations (no early
 * convergence), each one linearization pass, one Riccati pass and one
 * rollout.  Solve times then form one tight cluster per robot instead of
 * a seed-dependent mix of iteration counts.
 */
control::IlqrOptions
solve_options(control::DynamicsLinearizer *linearizer)
{
    control::IlqrOptions o;
    o.max_iterations = kIlqrIterations;
    o.cost_tolerance = 0.0;
    o.max_line_search = 1;
    o.linearizer = linearizer;
    return o;
}

/**
 * Builds the fleet for @p mpc (engines + packets) or iLQR (linearizers)
 * and warms it.  Appends each SimEngine compile time to @p compile_us.
 */
std::vector<SimRobot>
set_up(bool mpc, std::uint64_t seed, std::vector<double> &compile_us)
{
    std::vector<SimRobot> fleet;
    const std::vector<topology::RobotId> ids = sim_fleet();
    fleet.resize(ids.size());
    for (std::size_t r = 0; r < ids.size(); ++r) {
        SimRobot &s = fleet[r];
        s.model = topology::build_robot(ids[r]);
        s.topo = std::make_unique<topology::TopologyInfo>(s.model);
        s.design = make_design(s.model);
        const TimePoint t0 = now();
        {
            const accel::SimEngine compiled(*s.design);
        }
        compile_us.push_back(us_between(t0, now()));
        if (mpc) {
            s.engine = std::make_unique<accel::SimEngine>(*s.design);
            s.horizon = std::make_unique<MpcHorizon>();
            fill_mpc_horizon(s.model, *s.topo, seed, r, *s.horizon);
            s.results.resize(kMpcHorizon);
            s.engine->run_batch(s.horizon->packets, s.results, s.batch);
        } else {
            s.linearizer =
                std::make_unique<control::AcceleratorLinearizer>(*s.design);
            // Warm-up solve on a problem outside the timed index range.
            const control::IlqrProblem warm =
                ilqr_problem(s.model, seed, ~std::uint64_t{0} - r);
            control::solve_ilqr(s.model, *s.topo, warm,
                                solve_options(s.linearizer.get()));
        }
    }
    return fleet;
}

/** Builds and warms the fleet, appending its set-up time to @p setups. */
std::vector<SimRobot>
timed_set_up(bool mpc, std::uint64_t seed, std::vector<double> &setups,
             std::vector<double> &compile_us)
{
    const TimePoint t0 = now();
    std::vector<SimRobot> fleet = set_up(mpc, seed, compile_us);
    setups.push_back(seconds_between(t0, now()));
    return fleet;
}

/** DynamicsLinearizer wrapper that spans every call and records the
 *  linearization points for the accel probe. */
class TimingLinearizer : public control::DynamicsLinearizer
{
  public:
    TimingLinearizer(control::DynamicsLinearizer &inner, Tracer &tracer,
                     std::uint64_t op, bool capture)
        : inner_(inner), tracer_(tracer), op_(op), capture_(capture)
    {
    }

    void linearize(const linalg::Vector &x, const linalg::Vector &u,
                   double dt, linalg::Matrix &a, linalg::Matrix &b) override
    {
        if (capture_)
            points.push_back({x, u});
        Tracer::Scope span(tracer_, 0, "control.linearize", op_);
        inner_.linearize(x, u, dt, a, b);
    }

    std::vector<std::pair<linalg::Vector, linalg::Vector>> points;

  private:
    control::DynamicsLinearizer &inner_;
    Tracer &tracer_;
    std::uint64_t op_;
    bool capture_;
};

/**
 * Geometric mean over the fleet of each robot's median, as
 * bench/sim_throughput scores the fleet: each robot's ops form one tight
 * cluster, and the median of the mixed fleet would sit on the edge
 * between two clusters (two robots have 12 links, two 15) and jump
 * between runs.
 */
double
fleet_geomean(const std::vector<std::vector<double>> &by_robot)
{
    double log_sum = 0.0;
    for (const std::vector<double> &samples : by_robot)
        log_sum += std::log(median(samples));
    return std::exp(log_sum / static_cast<double>(by_robot.size()));
}

/** Ops [lo, hi) of @p latency_us grouped by their robot. */
std::vector<std::vector<double>>
by_robot(const std::vector<double> &latency_us,
         const std::vector<std::size_t> &robot, std::size_t robots,
         std::size_t lo, std::size_t hi)
{
    std::vector<std::vector<double>> out(robots);
    for (std::size_t i = lo; i < hi; ++i)
        out[robot[i]].push_back(latency_us[i]);
    return out;
}

/**
 * End-to-end metrics of a closed loop with one caller; @p robot[i] is the
 * fleet index of the op that took @p latency_us[i].  p50_us is the mean
 * over slices of whole rounds of the fleet geometric mean of each robot's
 * median in the slice.
 */
void
finish_e2e(Outcome &out, const std::vector<SimRobot> &fleet,
           const std::vector<std::size_t> &robot,
           const std::vector<double> &latency_us, double setup_s)
{
    const std::size_t robots = fleet.size();
    const std::vector<std::vector<double>> whole =
        by_robot(latency_us, robot, robots, 0, latency_us.size());
    for (std::size_t r = 0; r < robots; ++r)
        out.note("p50_us." + fleet[r].model.name(), "us", median(whole[r]));
    double p50_sum = 0.0;
    const auto cuts = slices(latency_us.size(), robots);
    for (const auto &[lo, hi] : cuts)
        p50_sum += fleet_geomean(by_robot(latency_us, robot, robots, lo, hi));
    out.note("error_rate", "ratio",
             out.attempted == 0 ? 0.0
                                : static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted));
    out.note("samples", "count", static_cast<double>(latency_us.size()));
    out.note("p99_us", "us", percentile(latency_us, 0.99));
    out.metric("p50_us", "us", p50_sum / static_cast<double>(cuts.size()));
    // One caller back to back (checks between ops excluded), in slices
    // of whole rounds of the fleet.
    out.metric("ops_per_s", "1/s", closed_loop_rate(latency_us, robots));
    out.metric("setup_s", "s", setup_s);
    out.metric("peak_rss_mb", "MiB", self_peak_rss_mb());
}

} // namespace

Outcome
run_ilqr_stream(const Options &options)
{
    Outcome out;
    std::vector<double> compile_us, setups;
    std::vector<SimRobot> fleet =
        timed_set_up(false, options.seed, setups, compile_us);

    if (!options.trace) {
        struct Solve
        {
            std::uint64_t index;
            std::size_t robot;
            SolveSummary summary;
        };
        std::vector<Solve> solves;
        std::vector<double> latency_us;
        const TimePoint start = now();
        const TimePoint end = after_seconds(start, options.seconds);
        // Whole rounds only, so every robot keeps its share of samples.
        for (std::uint64_t i = 0; now() < end || i % fleet.size() != 0; ++i) {
            // Between rounds, the next set-up sample once it is due; the
            // fleet it builds is discarded.
            if (i % fleet.size() == 0 &&
                setup_sample_due(start, options.seconds, setups.size()))
                timed_set_up(false, options.seed, setups, compile_us);
            const std::size_t r = i % fleet.size();
            SimRobot &s = fleet[r];
            const control::IlqrProblem problem =
                ilqr_problem(s.model, options.seed, i);
            const TimePoint t0 = now();
            const control::IlqrResult result = control::solve_ilqr(
                s.model, *s.topo, problem, solve_options(s.linearizer.get()));
            latency_us.push_back(us_between(t0, now()));
            solves.push_back({i, r, {result.iterations, result.final_cost()}});
        }
        // Oracle: the same problems with the host-library linearizer.
        std::vector<double> ok_us;
        std::vector<std::size_t> ok_robot;
        for (std::size_t k = 0; k < solves.size(); ++k) {
            const Solve &solve = solves[k];
            SimRobot &s = fleet[solve.robot];
            const control::IlqrResult host = control::solve_ilqr(
                s.model, *s.topo,
                ilqr_problem(s.model, options.seed, solve.index),
                solve_options(nullptr));
            ++out.attempted;
            const std::string why = check_solve(
                solve.summary, {host.iterations, host.final_cost()});
            if (why.empty()) {
                ok_us.push_back(latency_us[k]);
                ok_robot.push_back(solve.robot);
            } else {
                out.fail("solve " + std::to_string(solve.index) + ": " + why);
            }
        }
        finish_e2e(out, fleet, ok_robot, ok_us, mean(setups));
        return out;
    }

    // Traced run: each of the first problems solved untraced and traced
    // through a timing wrapper, in alternating order so that cache state
    // favours neither; the overhead is the ratio of the sums.
    // Solve i is robot i % fleet size, and every span's op id maps to its
    // robot the same way, so each per-layer time is a fleet geometric mean
    // of per-robot medians, like p50_us.
    const std::size_t robots = fleet.size();
    Tracer tracer(true, 1);
    std::vector<std::vector<double>> backward(robots), rollout(robots);
    std::vector<double> iterations;
    std::vector<TimingLinearizer> wrappers;
    wrappers.reserve(kTraceIlqrSolves);
    double plain_us = 0.0, traced_us = 0.0;
    for (std::uint64_t i = 0; i < kTraceIlqrSolves; ++i) {
        SimRobot &s = fleet[i % robots];
        const control::IlqrProblem problem =
            ilqr_problem(s.model, options.seed, i);
        const auto plain = [&] {
            const TimePoint t0 = now();
            control::solve_ilqr(s.model, *s.topo, problem,
                                solve_options(s.linearizer.get()));
            plain_us += us_between(t0, now());
        };
        wrappers.emplace_back(*s.linearizer, tracer, i, i < robots);
        control::IlqrResult result;
        const auto traced = [&] {
            const TimePoint t0 = now();
            {
                Tracer::Scope op(tracer, 0, "control.solve", i);
                result = control::solve_ilqr(s.model, *s.topo, problem,
                                             solve_options(&wrappers.back()));
            }
            traced_us += us_between(t0, now());
        };
        if (i % 2 == 0) {
            plain();
            traced();
        } else {
            traced();
            plain();
        }
        // Checked against the host-library linearizer, as untraced solves.
        const control::IlqrResult host = control::solve_ilqr(
            s.model, *s.topo, problem, solve_options(nullptr));
        ++out.attempted;
        if (const std::string why =
                check_solve({result.iterations, result.final_cost()},
                            {host.iterations, host.final_cost()});
            !why.empty())
            out.fail("solve " + std::to_string(i) + ": " + why);
        backward[i % robots].push_back(result.timing.backward_pass_us);
        rollout[i % robots].push_back(result.timing.rollout_us);
        iterations.push_back(static_cast<double>(result.iterations));
    }
    out.metric("trace.overhead", "ratio", traced_us / plain_us);

    // Host front end and accelerator at the first solve's linearization
    // points of each robot, timed one after the other at the same points:
    // the linearizer's CRBA, M^-1, bias forces and qdd, then
    // SimEngine::run on the packet they make (after one warm run).  The
    // passes visit the robots in turn, so each robot's samples spread over
    // the whole probe and a burst of host interference moves no median.
    std::vector<accel::SimEngine::Workspace> workspaces;
    for (const SimRobot &s : fleet)
        workspaces.push_back(s.linearizer->engine().make_workspace());
    std::vector<accel::EngineResult> probed(robots);
    for (std::size_t pass = 0; pass < kProbePasses; ++pass)
        for (std::size_t r = 0; r < robots; ++r) {
            SimRobot &s = fleet[r];
            const accel::SimEngine &engine = s.linearizer->engine();
            const std::size_t n = s.model.num_links();
            linalg::Vector q(n), qd(n), qdd(n);
            linalg::Matrix minv;
            for (const auto &[x, u] : wrappers[r].points) {
                {
                    Tracer::Scope span(tracer, 0, "dynamics.front_end", r);
                    for (std::size_t j = 0; j < n; ++j) {
                        q[j] = x[j];
                        qd[j] = x[n + j];
                    }
                    minv = dynamics::mass_matrix_inverse(
                        *s.topo, dynamics::crba(s.model, q));
                    qdd = minv * (u - dynamics::bias_forces(s.model, q, qd));
                }
                const accel::InputPacket packet{&q, &qd, &qdd, &minv};
                engine.run(workspaces[r], packet, probed[r]); // warm
                Tracer::Scope span(tracer, 0, "accel.run", r);
                engine.run(workspaces[r], packet, probed[r]);
            }
        }
    std::vector<double> trace_ops, tiles;
    for (std::size_t r = 0; r < robots; ++r) {
        trace_ops.push_back(
            static_cast<double>(fleet[r].linearizer->engine().trace_length()));
        tiles.push_back(static_cast<double>(probed[r].mm_stats.block_macs));
    }
    out.metric("control.linearize_us", "us",
               fleet_geomean(
                   tracer.durations_by_group_us("control.linearize", robots)));
    out.metric(
        "accel.run_us", "us",
        fleet_geomean(tracer.durations_by_group_us("accel.run", robots)));
    out.metric("dynamics.front_end_us", "us",
               fleet_geomean(tracer.durations_by_group_us(
                   "dynamics.front_end", robots)));
    out.metric("control.backward_pass_us", "us", fleet_geomean(backward));
    out.metric("control.rollout_us", "us", fleet_geomean(rollout));
    out.metric("control.iterations", "count", median(iterations));
    out.metric("accel.trace_ops", "count", median(trace_ops));
    out.metric("accel.mm_executed_tiles", "count", median(tiles));
    out.metric("accel.compile_us", "us", median(compile_us));
    write_trace(tracer, options, out);
    return out;
}

Outcome
run_mpc_batch(const Options &options)
{
    Outcome out;
    std::vector<double> compile_us, setups;
    std::vector<SimRobot> fleet =
        timed_set_up(true, options.seed, setups, compile_us);

    const auto call = [&](std::size_t r, std::size_t threads) {
        SimRobot &s = fleet[r];
        const TimePoint t0 = now();
        s.engine->run_batch(s.horizon->packets, s.results, s.batch, threads);
        return us_between(t0, now());
    };
    const auto verify = [&](std::size_t r, std::uint64_t i) {
        SimRobot &s = fleet[r];
        for (std::size_t k = 0; k < kMpcHorizon; ++k) {
            const std::string why = check_gradients(
                s.results[k], s.horizon->ref_dq[k], s.horizon->ref_dqd[k]);
            if (!why.empty())
                return "call " + std::to_string(i) + " packet " +
                       std::to_string(k) + ": " + why;
        }
        return std::string();
    };

    if (!options.trace) {
        std::vector<double> ok_us;
        std::vector<std::size_t> ok_robot;
        const TimePoint start = now();
        const TimePoint end = after_seconds(start, options.seconds);
        for (std::uint64_t i = 0; now() < end || i % fleet.size() != 0; ++i) {
            if (i % fleet.size() == 0 &&
                setup_sample_due(start, options.seconds, setups.size()))
                timed_set_up(true, options.seed, setups, compile_us);
            const std::size_t r = i % fleet.size();
            const double us = call(r, 0);
            ++out.attempted;
            // Checked between calls, outside the timed window.
            if (const std::string why = verify(r, i); why.empty()) {
                ok_us.push_back(us);
                ok_robot.push_back(r);
            } else {
                out.fail(why);
            }
        }
        finish_e2e(out, fleet, ok_robot, ok_us, mean(setups));
        return out;
    }

    // Traced run: every call is made at the executor's full width (one lane
    // per core), untraced and traced (in alternating order, so that cache
    // state favours neither) and at one lane, interleaved so that host
    // drift hits all four alike.  The executor counters are read around
    // the full-width call, where the fork-join happens.
    const std::size_t full = core::Executor::instance().resolve_width(
        kMpcHorizon, std::thread::hardware_concurrency());
    std::map<std::string, double> exec_counts;
    Tracer tracer(true, 1);
    double plain_us = 0.0, traced_us = 0.0, one_lane_us = 0.0, full_us = 0.0;
    for (std::uint64_t i = 0; i < kTraceMpcCalls; ++i) {
        const std::size_t r = i % fleet.size();
        SimRobot &s = fleet[r];
        const auto before = counter_snapshot();
        full_us += call(r, full);
        const auto after = counter_snapshot();
        for (const char *name : {"exec.tasks", "exec.steals", "exec.parks"})
            exec_counts[name] += counter_delta(before, after, name);
        const auto traced = [&] {
            const TimePoint t0 = now();
            {
                Tracer::Scope span(tracer, 0, "accel.run_batch", i);
                s.engine->run_batch(s.horizon->packets, s.results, s.batch);
            }
            traced_us += us_between(t0, now());
        };
        if (i % 2 == 0) {
            plain_us += call(r, 0);
            traced();
        } else {
            traced();
            plain_us += call(r, 0);
        }
        ++out.attempted;
        if (const std::string why = verify(r, i); !why.empty())
            out.fail(why);
        one_lane_us += call(r, 1);
    }
    out.metric("trace.overhead", "ratio", traced_us / plain_us);
    out.metric("exec.batch_speedup", "ratio", one_lane_us / full_us);
    out.metric("accel.run_batch_us", "us",
               fleet_geomean(tracer.durations_by_group_us("accel.run_batch",
                                                          fleet.size())));

    std::vector<double> trace_ops, tiles;
    for (std::size_t r = 0; r < fleet.size(); ++r) {
        trace_ops.push_back(
            static_cast<double>(fleet[r].engine->trace_length()));
        double macs = 0.0;
        for (const accel::EngineResult &res : fleet[r].results)
            macs += static_cast<double>(res.mm_stats.block_macs);
        tiles.push_back(macs / static_cast<double>(kMpcHorizon));
    }
    // Packets that run in full lane groups; the rest take the scalar tail.
    const std::size_t width = accel::simd::lane_backend().width;
    const double lane_share =
        width > 1 ? static_cast<double>(kMpcHorizon - kMpcHorizon % width) /
                        static_cast<double>(kMpcHorizon)
                  : 0.0;
    const double calls = static_cast<double>(kTraceMpcCalls);
    out.metric("accel.lane_packet_share", "ratio", lane_share);
    out.metric("accel.trace_ops", "count", median(trace_ops));
    out.metric("accel.mm_executed_tiles", "count", median(tiles));
    out.metric("accel.compile_us", "us", median(compile_us));
    for (const auto &[name, count] : exec_counts)
        out.metric(name, "count", count / calls);
    write_trace(tracer, options, out);
    return out;
}

} // namespace perfbench
} // namespace roboshape
