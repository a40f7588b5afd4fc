/**
 * @file
 * Functional simulation throughput of the compiled engine
 * (accel::SimEngine) across the paper's robots and all three Table 1
 * kernels.
 *
 * For each robot x kernel pair the bench measures single-stream calls/sec
 * of a warm engine and — for the gradient kernel — sweeps run_batch() over
 * 1/2/4 worker threads, checking every batched packet against serial
 * run() at 0 ulp to show the batch path is deterministic at any thread
 * count.  What run() computes is pinned by the digests of
 * tests/test_sim_engine.cc.  Emits machine-readable JSON on stdout (and to
 * a file with `--json <path>`) so successive changes can track the
 * throughput trajectory; EXPERIMENTS.md ("Functional simulation
 * throughput") explains the fields.
 *
 * The gradient kernel additionally gets a SIMD batch-lane section
 * (accel/simd_lanes.h): a wide batch (kWideBatchSize packets) is run once
 * with the scalar lane backend forced (the W = 1 kernel) and once with the
 * detected lane backend, both at one worker thread so the comparison
 * isolates the SIMD effect.  The lane outputs are compared to the scalar
 * ones in ulps — the documented exactness policy is 0 ulp — and on hosts
 * with a vector backend the fleet geometric-mean wide-batch speedup must
 * meet min(kLaneSpeedupGateCap, width/2).  Both are gates, not just
 * report fields.  A ragged batch (kRaggedBatchSize packets, not a
 * multiple of 4 or 8) runs the same comparison with its padded last
 * group or lone W = 1 leftover; its ulp distance joins the 0-ulp gate and
 * its packets/s are reported without a speed bound.
 *
 * Exit status is nonzero when a batched packet differs from serial run(),
 * when the lane path is off by even one ulp, or when a vector backend
 * misses the speedup gate (single-stream timing stays informational).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "accel/sim_engine.h"
#include "accel/simd_lanes.h"
#include "bench/bench_util.h"
#include "core/executor.h"
#include "dynamics/fd_derivatives.h"
#include "obs/json.h"
#include "dynamics/robot_state.h"
#include "topology/robot_library.h"
#include "topology/topology_info.h"

namespace {

using namespace roboshape;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatchSize = 64;
/// Batch size for the scalar-vs-lane comparison: wide enough that the
/// lane groups dominate and the tail is noise.
constexpr std::size_t kWideBatchSize = 256;
/// Batch size of the ragged comparison: perfbench mpc_batch's horizon,
/// which leaves a padded group of 5 packets at W = 8 and a lone W = 1
/// packet at W = 4.
constexpr std::size_t kRaggedBatchSize = 45;
/// Required wide-batch lane speedup over the forced-scalar path when a
/// vector backend is active, gated on the geometric mean across the
/// robot fleet (per-robot values and the fleet minimum are reported as
/// well).  The requirement is width-aware: an 8-wide backend must clear
/// the full 4x, while a 4-wide backend — whose ideal speedup is its own
/// width before any marshalling overhead — must clear width/2.  The
/// geomean is the gated statistic because a single-robot minimum on a
/// busy CI host flaps across any threshold the fleet genuinely meets.
constexpr double kLaneSpeedupGateCap = 4.0;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Runs fn repeatedly for ~@p budget_s seconds; returns calls/sec. */
template <typename Fn>
double
calls_per_sec(Fn &&fn, double budget_s = 0.05)
{
    fn(); // warm-up (first call may allocate)
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
        for (int i = 0; i < 16; ++i)
            fn();
        calls += 16;
        elapsed = seconds_since(t0);
    } while (elapsed < budget_s);
    return static_cast<double>(calls) / elapsed;
}

/**
 * Best of three timed runs.  Used for the gated scalar-vs-lane ratio:
 * taking the max of repeated measurements filters scheduler and
 * frequency-scaling interference (which only ever makes a run slower),
 * where a single sample on a busy host can skew the ratio either way.
 */
template <typename Fn>
double
best_calls_per_sec(Fn &&fn)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep)
        best = std::max(best, calls_per_sec(fn, 0.08));
    return best;
}

/**
 * Distance between two doubles in units of last place, via the usual
 * monotone mapping of the IEEE-754 bit pattern onto ordered integers
 * (negative values map below positives, so +0.0 and -0.0 are 1 apart —
 * the lane exactness policy really is "same bits").  NaN anywhere is
 * maximally distant.
 */
std::uint64_t
ulp_distance(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<std::uint64_t>::max();
    const auto key = [](double v) {
        std::uint64_t u = 0;
        std::memcpy(&u, &v, sizeof u);
        constexpr std::uint64_t sign = 1ull << 63;
        return (u & sign) ? ~u : (u | sign);
    };
    const std::uint64_t ka = key(a), kb = key(b);
    return ka > kb ? ka - kb : kb - ka;
}

std::uint64_t
ulp_diff(const linalg::Vector &a, const linalg::Vector &b)
{
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        d = std::max(d, ulp_distance(a[i], b[i]));
    return d;
}

std::uint64_t
ulp_diff(const linalg::Matrix &a, const linalg::Matrix &b)
{
    std::uint64_t d = 0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            d = std::max(d, ulp_distance(a(r, c), b(r, c)));
    return d;
}

std::uint64_t
gradient_ulp(const accel::EngineResult &a, const accel::EngineResult &b)
{
    std::uint64_t d = ulp_diff(a.tau, b.tau);
    d = std::max(d, ulp_diff(a.dtau_dq, b.dtau_dq));
    d = std::max(d, ulp_diff(a.dtau_dqd, b.dtau_dqd));
    d = std::max(d, ulp_diff(a.dqdd_dq, b.dqdd_dq));
    d = std::max(d, ulp_diff(a.dqdd_dqd, b.dqdd_dqd));
    return d;
}

/** Same task count and blocked-multiply tile counts. */
bool
same_counts(const accel::EngineResult &a, const accel::EngineResult &b)
{
    return a.tasks_executed == b.tasks_executed &&
           a.mm_stats.block_macs == b.mm_stats.block_macs &&
           a.mm_stats.block_nops == b.mm_stats.block_nops &&
           a.mm_stats.scalar_macs == b.mm_stats.scalar_macs;
}

struct BatchPoint
{
    std::size_t threads = 0;
    double calls_per_sec = 0.0;
    bool identical = false;
};

/** Scalar-vs-lane comparison on one batch (gradient kernel only). */
struct LaneSection
{
    bool measured = false;       ///< False when no vector backend exists.
    const char *backend = "scalar";
    std::size_t width = 1;
    double scalar_cps = 0.0;     ///< Forced-scalar packets/s, 1 thread.
    double lane_cps = 0.0;       ///< Lane path packets/s, same batch.
    double speedup = 1.0;
    std::uint64_t max_ulp = 0;   ///< Lane vs scalar outputs (gate: 0).
    bool stats_match = true;     ///< tasks_executed + mm_stats identical.
};

struct KernelRow
{
    const char *kernel = "";
    std::size_t trace_ops = 0;
    double engine_cps = 0.0;
    std::vector<BatchPoint> batch; ///< Gradient kernel only.
    LaneSection lane;              ///< Gradient kernel only, wide batch.
    LaneSection ragged;            ///< Gradient kernel only, ragged batch.
};

/** Per-packet gradient inputs with stable addresses for InputPacket. */
struct GradientInputs
{
    std::vector<linalg::Vector> q, qd, qdd;
    std::vector<linalg::Matrix> minv;
};

GradientInputs
make_gradient_inputs(const topology::RobotModel &model,
                     const topology::TopologyInfo &topo, std::size_t count)
{
    GradientInputs in;
    for (std::size_t p = 0; p < count; ++p) {
        const auto state =
            dynamics::random_state(model, 1234 + static_cast<int>(p));
        const auto ref = dynamics::forward_dynamics_gradients(
            model, topo, state.q, state.qd, state.tau);
        in.q.push_back(state.q);
        in.qd.push_back(state.qd);
        in.qdd.push_back(ref.qdd);
        in.minv.push_back(ref.mass_inv);
    }
    return in;
}

/** @p count packets cycling through @p in. */
std::vector<accel::InputPacket>
cycled_packets(const GradientInputs &in, std::size_t count)
{
    std::vector<accel::InputPacket> packets(count);
    for (std::size_t p = 0; p < count; ++p) {
        const std::size_t s = p % in.q.size();
        packets[p] = accel::InputPacket{&in.q[s], &in.qd[s], &in.qdd[s],
                                        &in.minv[s]};
    }
    return packets;
}

/**
 * Forced-scalar backend vs the active lane backend on one batch, single
 * worker thread so the ratio isolates the lane effect.  The lane outputs
 * are compared with the scalar ones in ulps; without a vector backend the
 * two passes are the same and only the scalar one runs.
 */
LaneSection
compare_lanes(const accel::SimEngine &engine,
              const std::vector<accel::InputPacket> &packets)
{
    const accel::simd::LaneBackend &active = accel::simd::lane_backend();
    LaneSection section;
    section.backend = active.name;
    section.width = active.width;
    section.measured = active.width > 1;
    const double count = static_cast<double>(packets.size());
    accel::SimEngine::BatchWorkspace bws;
    std::vector<accel::EngineResult> scalar_out(packets.size());
    std::vector<accel::EngineResult> lane_out(packets.size());

    accel::simd::set_lane_backend("scalar");
    section.scalar_cps = count * best_calls_per_sec([&] {
        engine.run_batch(packets, scalar_out, bws, 1);
    });
    // Restore the backend that was active before the forced-scalar pass
    // (set_lane_backend by name always succeeds for a name that
    // lane_backend() itself returned).
    accel::simd::set_lane_backend(active.name);
    if (!section.measured) {
        section.lane_cps = section.scalar_cps;
        return section;
    }
    section.lane_cps = count * best_calls_per_sec([&] {
        engine.run_batch(packets, lane_out, bws, 1);
    });
    section.speedup = section.lane_cps / section.scalar_cps;
    for (std::size_t p = 0; p < packets.size(); ++p) {
        section.max_ulp = std::max(section.max_ulp,
                                   gradient_ulp(lane_out[p], scalar_out[p]));
        section.stats_match =
            section.stats_match && same_counts(lane_out[p], scalar_out[p]);
    }
    return section;
}

KernelRow
measure_gradient(const accel::AcceleratorDesign &design,
                 const GradientInputs &in)
{
    KernelRow row;
    row.kernel = "dynamics_gradient";

    const accel::SimEngine engine(design);
    row.trace_ops = engine.trace_length();
    auto ws = engine.make_workspace();
    accel::EngineResult out;
    const accel::InputPacket packet{&in.q[0], &in.qd[0], &in.qdd[0],
                                    &in.minv[0]};
    row.engine_cps =
        calls_per_sec([&] { engine.run(ws, packet, out); });

    // Batch path: serial reference, then 1/2/4 worker threads.
    const std::vector<accel::InputPacket> packets =
        cycled_packets(in, kBatchSize);
    std::vector<accel::EngineResult> reference(kBatchSize);
    for (std::size_t p = 0; p < kBatchSize; ++p)
        engine.run(ws, packets[p], reference[p]);

    for (std::size_t threads : {1u, 2u, 4u}) {
        BatchPoint point;
        point.threads = threads;
        accel::SimEngine::BatchWorkspace bws;
        std::vector<accel::EngineResult> outs(kBatchSize);
        const double batches_per_sec = calls_per_sec([&] {
            engine.run_batch(packets, outs, bws, threads);
        });
        point.calls_per_sec =
            batches_per_sec * static_cast<double>(kBatchSize);
        point.identical = true;
        for (std::size_t p = 0; p < kBatchSize; ++p)
            point.identical = point.identical &&
                              gradient_ulp(outs[p], reference[p]) == 0 &&
                              same_counts(outs[p], reference[p]);
        row.batch.push_back(point);
    }

    // SIMD batch-lane sections: one wide batch, where the full groups
    // dominate, and one ragged batch with a leftover.
    row.lane = compare_lanes(engine, cycled_packets(in, kWideBatchSize));
    row.ragged = compare_lanes(engine, cycled_packets(in, kRaggedBatchSize));
    return row;
}

KernelRow
measure_mass_matrix(const topology::RobotModel &model,
                    const linalg::Vector &q)
{
    KernelRow row;
    row.kernel = "mass_matrix";
    const accel::AcceleratorDesign design(model,
                                          accel::AcceleratorParams{3, 3, 1},
                                          accel::default_timing(),
                                          sched::KernelKind::kMassMatrix);
    const accel::SimEngine engine(design);
    row.trace_ops = engine.trace_length();
    auto ws = engine.make_workspace();
    accel::EngineResult out;
    const accel::InputPacket packet{&q};
    row.engine_cps =
        calls_per_sec([&] { engine.run(ws, packet, out); });
    return row;
}

KernelRow
measure_kinematics(const topology::RobotModel &model,
                   const linalg::Vector &q, const linalg::Vector &qd)
{
    KernelRow row;
    row.kernel = "forward_kinematics";
    const accel::AcceleratorDesign design(
        model, accel::AcceleratorParams{3, 3, 1}, accel::default_timing(),
        sched::KernelKind::kForwardKinematics);
    const accel::SimEngine engine(design);
    row.trace_ops = engine.trace_length();
    auto ws = engine.make_workspace();
    accel::EngineResult out;
    const accel::InputPacket packet{&q, &qd};
    row.engine_cps =
        calls_per_sec([&] { engine.run(ws, packet, out); });
    return row;
}

void
write_kernel_json(obs::JsonWriter &w, const KernelRow &row)
{
    w.begin_object();
    w.kv("kernel", row.kernel);
    w.kv("trace_ops", static_cast<std::uint64_t>(row.trace_ops));
    w.kv("engine_calls_per_sec", row.engine_cps);
    if (!row.batch.empty()) {
        w.key("batch").begin_array();
        for (const BatchPoint &point : row.batch) {
            w.begin_object();
            w.kv("threads", static_cast<std::uint64_t>(point.threads));
            w.kv("calls_per_sec", point.calls_per_sec);
            w.kv("identical", point.identical);
            w.end_object();
        }
        w.end_array();
        w.key("lane").begin_object();
        w.kv("backend", row.lane.backend);
        w.kv("width", static_cast<std::uint64_t>(row.lane.width));
        w.kv("measured", row.lane.measured);
        w.kv("wide_batch", static_cast<std::uint64_t>(kWideBatchSize));
        w.kv("scalar_calls_per_sec", row.lane.scalar_cps);
        w.kv("lane_calls_per_sec", row.lane.lane_cps);
        w.kv("speedup", row.lane.speedup);
        w.kv("max_ulp", row.lane.max_ulp);
        w.kv("stats_match", row.lane.stats_match);
        w.end_object();
        w.key("ragged").begin_object();
        w.kv("batch", static_cast<std::uint64_t>(kRaggedBatchSize));
        w.kv("scalar_packets_per_sec", row.ragged.scalar_cps);
        w.kv("lane_packets_per_sec", row.ragged.lane_cps);
        w.kv("speedup", row.ragged.speedup);
        w.kv("max_ulp", row.ragged.max_ulp);
        w.kv("stats_match", row.ragged.stats_match);
        w.end_object();
    }
    w.end_object();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::json_out_path(argc, argv);
    std::vector<topology::RobotId> robots;
    for (topology::RobotId id : topology::all_robots())
        robots.push_back(id);

    bool all_exact = true;
    // Lane gates: ulp distance must be 0 everywhere; when a vector
    // backend is active the fleet geomean wide-batch speedup must clear
    // the width-aware gate (see kLaneSpeedupGateCap).
    bool lane_active = false;
    bool lane_exact = true;
    double min_lane_speedup = -1.0;
    double lane_log_sum = 0.0;
    std::size_t lane_count = 0;
    std::uint64_t max_lane_ulp = 0;

    obs::JsonWriter w(2);
    w.begin_object();
    w.kv("bench", "sim_throughput");
    w.kv("lane_backend", accel::simd::lane_backend().name);
    w.kv("lane_width", static_cast<std::uint64_t>(
                           accel::simd::lane_backend().width));
    w.kv("batch_size", static_cast<std::uint64_t>(kBatchSize));
    w.kv("wide_batch_size", static_cast<std::uint64_t>(kWideBatchSize));
    w.kv("sweep_workers",
         static_cast<std::uint64_t>(
             core::Executor::instance().worker_count()));
    w.key("robots").begin_array();
    for (std::size_t r = 0; r < robots.size(); ++r) {
        const topology::RobotModel model =
            topology::build_robot(robots[r]);
        const topology::TopologyInfo topo(model);
        const accel::AcceleratorDesign design(
            model, bench::shipped_params(robots[r]));
        const GradientInputs inputs =
            make_gradient_inputs(model, topo, 8);

        std::vector<KernelRow> rows;
        rows.push_back(measure_gradient(design, inputs));
        rows.push_back(measure_mass_matrix(model, inputs.q[0]));
        rows.push_back(
            measure_kinematics(model, inputs.q[0], inputs.qd[0]));

        w.begin_object();
        w.kv("name", topology::robot_name(robots[r]));
        w.kv("links", static_cast<std::uint64_t>(model.num_links()));
        w.key("kernels").begin_array();
        for (const KernelRow &row : rows) {
            for (const BatchPoint &point : row.batch)
                if (!point.identical)
                    all_exact = false;
            if (std::string(row.kernel) == "dynamics_gradient") {
                if (row.lane.measured) {
                    lane_active = true;
                    if (min_lane_speedup < 0.0 ||
                        row.lane.speedup < min_lane_speedup)
                        min_lane_speedup = row.lane.speedup;
                    lane_log_sum += std::log(row.lane.speedup);
                    ++lane_count;
                    max_lane_ulp =
                        std::max(max_lane_ulp, row.lane.max_ulp);
                    if (row.lane.max_ulp != 0 || !row.lane.stats_match)
                        lane_exact = false;
                }
                // The ragged batch gates exactness only, with or without
                // a vector backend.
                max_lane_ulp = std::max(max_lane_ulp, row.ragged.max_ulp);
                if (row.ragged.max_ulp != 0 || !row.ragged.stats_match) {
                    lane_exact = false;
                    all_exact = false;
                }
            }
            write_kernel_json(w, row);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.kv("all_exact", all_exact);
    // Lane gates (docs/SIM_ENGINE.md "Exactness policy"): speedup only
    // gates builds/hosts that actually have a vector backend; a
    // -DROBOSHAPE_SIMD=OFF build reports lane_speedup_ok=true vacuously.
    const std::size_t lane_width = accel::simd::lane_backend().width;
    const double lane_gate = std::min(
        kLaneSpeedupGateCap, 0.5 * static_cast<double>(lane_width));
    const double geomean_lane_speedup =
        lane_count > 0
            ? std::exp(lane_log_sum / static_cast<double>(lane_count))
            : 1.0;
    const bool lane_speedup_ok =
        !lane_active || geomean_lane_speedup >= lane_gate;
    const bool lane_ulp_ok = lane_exact && max_lane_ulp == 0;
    w.key("lane_gates").begin_object();
    w.kv("active", lane_active);
    w.kv("speedup_gate", lane_gate);
    w.kv("geomean_lane_speedup", geomean_lane_speedup);
    w.kv("min_lane_speedup", lane_active ? min_lane_speedup : 1.0);
    w.kv("speedup_ok", lane_speedup_ok);
    w.kv("max_ulp", max_lane_ulp);
    w.kv("ulp_gate", static_cast<std::uint64_t>(0));
    w.kv("ulp_ok", lane_ulp_ok);
    w.end_object();
    w.end_object();

    std::printf("%s\n", w.str().c_str());
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << w.str() << '\n';
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
    }
    if (!lane_speedup_ok)
        std::fprintf(stderr,
                     "FAIL: geomean lane speedup %.2fx below %.1fx gate "
                     "(fleet min %.2fx)\n",
                     geomean_lane_speedup, lane_gate, min_lane_speedup);
    if (!lane_ulp_ok)
        std::fprintf(stderr, "FAIL: lane outputs differ from scalar "
                             "(max %llu ulp, gate 0)\n",
                     static_cast<unsigned long long>(max_lane_ulp));
    return (all_exact && lane_speedup_ok && lane_ulp_ok) ? 0 : 1;
}
