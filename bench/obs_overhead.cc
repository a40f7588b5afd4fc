/**
 * @file
 * Observability overhead gate (ctest label "obs", configuration "obs").
 *
 * The counter registry promises a hot path of one relaxed atomic add
 * behind a relaxed flag load (see src/obs/registry.h).  This bench holds
 * that promise to a number: SimEngine::run throughput with the registry
 * enabled must stay within 2% of throughput with it disabled, and the
 * engine outputs must be bit-identical in both modes (instrumentation
 * observes, it never participates in arithmetic).
 *
 * The modes are timed in kPairs alternating pairs of short windows, the
 * order flipping from pair to pair, and the gate reads the median of the
 * per-pair rate ratios: host noise that drifts slower than one pair hits
 * both of its windows alike, and the median drops the pairs a burst
 * split, so no single lucky window decides the gate.
 *
 * Flags:
 *   --json <path>   also write the JSON document to a file
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "accel/sim_engine.h"
#include "bench/bench_util.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "topology/robot_library.h"
#include "topology/topology_info.h"

namespace {

using namespace roboshape;
using Clock = std::chrono::steady_clock;

constexpr double kMaxOverhead = 0.02; ///< 2% gate.
constexpr int kPairs = 61;            ///< Alternating enabled/disabled pairs.
constexpr double kWindowS = 0.02;     ///< Timed window per mode and pair.

/** Runs fn repeatedly for ~@p budget_s seconds; returns calls/sec. */
template <typename Fn>
double
calls_per_sec(Fn &&fn, double budget_s)
{
    fn(); // warm-up
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
        for (int i = 0; i < 16; ++i)
            fn();
        calls += 16;
        elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < budget_s);
    return static_cast<double>(calls) / elapsed;
}

/** Nearest-rank quantile of a sorted, nonempty sample. */
double
quantile(const std::vector<double> &sorted, double q)
{
    const double rank = q * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(rank + 0.5)];
}

double
result_diff(const accel::EngineResult &a, const accel::EngineResult &b)
{
    double d = linalg::max_abs_diff(a.tau, b.tau);
    d = std::max(d, linalg::max_abs_diff(a.dtau_dq, b.dtau_dq));
    d = std::max(d, linalg::max_abs_diff(a.dtau_dqd, b.dtau_dqd));
    d = std::max(d, linalg::max_abs_diff(a.dqdd_dq, b.dqdd_dq));
    d = std::max(d, linalg::max_abs_diff(a.dqdd_dqd, b.dqdd_dqd));
    if (a.tasks_executed != b.tasks_executed)
        d = std::max(d, 1.0);
    return d;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::json_out_path(argc, argv);
    bench::print_header("Observability overhead gate",
                        "registry-enabled SimEngine within 2% of disabled, "
                        "bit-identical outputs");

    const topology::RobotModel model =
        topology::build_robot(topology::RobotId::kIiwa);
    const topology::TopologyInfo topo(model);
    const accel::AcceleratorDesign design(
        model, bench::shipped_params(topology::RobotId::kIiwa));
    const accel::SimEngine engine(design);
    auto ws = engine.make_workspace();

    const auto state = dynamics::random_state(model, 4242);
    const auto ref = dynamics::forward_dynamics_gradients(
        model, topo, state.q, state.qd, state.tau);
    const accel::InputPacket packet{&state.q, &state.qd, &ref.qdd,
                                    &ref.mass_inv};

    // Numerics first: one run per mode, compared bit-for-bit.
    accel::EngineResult out_on, out_off;
    obs::set_enabled(true);
    engine.run(ws, packet, out_on);
    obs::set_enabled(false);
    engine.run(ws, packet, out_off);
    const double divergence = result_diff(out_on, out_off);

    // Throughput: alternating pairs; even pairs time enabled first, odd
    // pairs disabled first, so neither mode always runs warmer.
    std::vector<double> on(kPairs), off(kPairs), ratio(kPairs);
    accel::EngineResult out;
    const auto rate = [&](bool enabled) {
        obs::set_enabled(enabled);
        return calls_per_sec([&] { engine.run(ws, packet, out); }, kWindowS);
    };
    for (int p = 0; p < kPairs; ++p) {
        const bool on_first = p % 2 == 0;
        const double first = rate(on_first);
        const double second = rate(!on_first);
        on[p] = on_first ? first : second;
        off[p] = on_first ? second : first;
        ratio[p] = on[p] / off[p];
    }
    obs::set_enabled(true);
    std::sort(on.begin(), on.end());
    std::sort(off.begin(), off.end());
    std::sort(ratio.begin(), ratio.end());

    const double overhead = 1.0 - quantile(ratio, 0.5);
    const bool overhead_ok = overhead <= kMaxOverhead;
    const bool identical = divergence == 0.0;

    std::printf("enabled:  %12.0f calls/sec (median of %d windows)\n",
                quantile(on, 0.5), kPairs);
    std::printf("disabled: %12.0f calls/sec (median of %d windows)\n",
                quantile(off, 0.5), kPairs);
    std::printf("enabled/disabled per pair: %.4f [q1 %.4f, q3 %.4f]\n",
                quantile(ratio, 0.5), quantile(ratio, 0.25),
                quantile(ratio, 0.75));
    std::printf("overhead: %+.2f%% (gate: <= %.0f%%)  numerics: %s\n",
                overhead * 100.0, kMaxOverhead * 100.0,
                identical ? "bit-identical" : "DIVERGED");

    obs::JsonWriter w(2);
    w.begin_object();
    w.kv("bench", "obs_overhead");
    w.kv("robot", "iiwa");
    w.kv("enabled_calls_per_sec", quantile(on, 0.5));
    w.kv("disabled_calls_per_sec", quantile(off, 0.5));
    w.kv("pairs", kPairs);
    w.kv("ratio_q1", quantile(ratio, 0.25));
    w.kv("ratio_median", quantile(ratio, 0.5));
    w.kv("ratio_q3", quantile(ratio, 0.75));
    w.kv("overhead", overhead);
    w.kv("max_overhead", kMaxOverhead);
    w.kv("bit_identical", identical);
    w.kv("pass", overhead_ok && identical);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    if (!json_path.empty()) {
        std::ofstream f(json_path);
        f << w.str() << '\n';
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
    }
    return overhead_ok && identical ? 0 : 1;
}
