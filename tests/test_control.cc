/**
 * @file
 * Tests for the iLQR trajectory optimizer — the paper's motivating
 * nonlinear-optimal-control workload.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/sim_engine.h"
#include "accel/simd_lanes.h"
#include "control/accel_linearizer.h"
#include "control/ilqr.h"
#include "dynamics/aba.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "topology/parametric_robots.h"
#include "topology/robot_library.h"

namespace roboshape {
namespace control {
namespace {

using linalg::Matrix;
using linalg::Vector;
using topology::RobotId;
using topology::RobotModel;
using topology::TopologyInfo;
using topology::build_robot;

IlqrProblem
reach_problem(const RobotModel &model, double target, std::size_t horizon)
{
    const std::size_t n = model.num_links();
    IlqrProblem p;
    p.q0 = Vector(n);
    p.qd0 = Vector(n);
    p.q_goal = Vector(n);
    for (std::size_t i = 0; i < n; ++i)
        p.q_goal[i] = target;
    p.horizon = horizon;
    return p;
}

TEST(Ilqr, CostDecreasesMonotonically)
{
    const RobotModel m = topology::make_serial_chain(3);
    const TopologyInfo topo(m);
    const IlqrResult r = solve_ilqr(m, topo, reach_problem(m, 0.3, 20));
    ASSERT_GE(r.cost_history.size(), 2u);
    for (std::size_t k = 1; k < r.cost_history.size(); ++k)
        EXPECT_LT(r.cost_history[k], r.cost_history[k - 1]) << k;
}

TEST(Ilqr, SolvesPendulumSwingTowardGoal)
{
    const RobotModel m = topology::make_serial_chain(1);
    const TopologyInfo topo(m);
    IlqrProblem p = reach_problem(m, 0.8, 40);
    p.dt = 0.02;
    IlqrOptions options;
    options.max_iterations = 80;
    const IlqrResult r = solve_ilqr(m, topo, p, options);

    // Final position approaches the goal.
    const double q_final = r.states.back()[0];
    EXPECT_NEAR(q_final, 0.8, 0.1);
    // And improves massively over the passive rollout.
    EXPECT_LT(r.final_cost(), 0.25 * r.cost_history.front());
}

TEST(Ilqr, TrajectoryIsDynamicallyConsistent)
{
    // The returned states must satisfy the true dynamics under the
    // returned controls (semi-implicit Euler).
    const RobotModel m = build_robot(RobotId::kIiwa);
    const TopologyInfo topo(m);
    IlqrProblem p = reach_problem(m, 0.2, 10);
    IlqrOptions options;
    options.max_iterations = 5;
    const IlqrResult r = solve_ilqr(m, topo, p, options);

    const std::size_t n = m.num_links();
    for (std::size_t k = 0; k < p.horizon; ++k) {
        Vector q(n), qd(n);
        for (std::size_t i = 0; i < n; ++i) {
            q[i] = r.states[k][i];
            qd[i] = r.states[k][n + i];
        }
        const Vector qdd = dynamics::aba(m, q, qd, r.controls[k]);
        for (std::size_t i = 0; i < n; ++i) {
            const double qd_next = qd[i] + p.dt * qdd[i];
            EXPECT_NEAR(r.states[k + 1][n + i], qd_next, 1e-9);
            EXPECT_NEAR(r.states[k + 1][i], q[i] + p.dt * qd_next, 1e-9);
        }
    }
}

TEST(Ilqr, TimingBreakdownIsAccounted)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const TopologyInfo topo(m);
    IlqrOptions options;
    options.max_iterations = 4;
    const IlqrResult r =
        solve_ilqr(m, topo, reach_problem(m, 0.2, 8), options);
    EXPECT_GT(r.timing.total_us, 0.0);
    EXPECT_GT(r.timing.linearization_us, 0.0);
    EXPECT_GT(r.timing.rollout_us, 0.0);
    EXPECT_GT(r.timing.backward_pass_us, 0.0);
    // Phases never exceed the total.
    EXPECT_LE(r.timing.linearization_us + r.timing.backward_pass_us +
                  r.timing.rollout_us,
              r.timing.total_us * 1.05);
    // The paper's motivating claim: gradients are a major share of the
    // solve (30-90% in the paper; timing noise on tiny solves allows a
    // little slack here — bench/control_bottleneck measures it properly).
    EXPECT_GT(r.timing.gradient_fraction(), 0.15);
    EXPECT_LT(r.timing.gradient_fraction(), 0.95);
}

TEST(Ilqr, CostFunctionMatchesManualSum)
{
    const RobotModel m = topology::make_serial_chain(2);
    IlqrProblem p = reach_problem(m, 0.5, 2);
    std::vector<Vector> xs(3, Vector(4));
    std::vector<Vector> us(2, Vector(2));
    xs[0] = Vector{0.1, 0.2, 0.0, 0.0};
    xs[1] = Vector{0.2, 0.3, 0.1, -0.1};
    xs[2] = Vector{0.5, 0.5, 0.0, 0.0};
    us[0] = Vector{1.0, -1.0};
    us[1] = Vector{0.5, 0.5};

    double expected = 0.0;
    for (int k = 0; k < 2; ++k) {
        for (int i = 0; i < 2; ++i) {
            const double eq = xs[k][i] - 0.5;
            expected += 0.5 * p.w_q * eq * eq +
                        0.5 * p.w_qd * xs[k][2 + i] * xs[k][2 + i] +
                        0.5 * p.w_u * us[k][i] * us[k][i];
        }
    }
    // Terminal: exactly at goal with zero velocity -> zero.
    EXPECT_NEAR(trajectory_cost(p, xs, us), expected, 1e-12);
}

TEST(Ilqr, RejectsStartAndGoalSizesOtherThanTheModel)
{
    // A default-constructed qd0 used to be read out of bounds.
    const RobotModel m = build_robot(RobotId::kHyq);
    const TopologyInfo topo(m);
    const IlqrProblem good = reach_problem(m, 0.3, 4);
    IlqrProblem p = good;
    p.qd0 = Vector();
    EXPECT_THROW(solve_ilqr(m, topo, p), std::invalid_argument);
    p = good;
    p.q0 = Vector(m.num_links() + 1);
    EXPECT_THROW(solve_ilqr(m, topo, p), std::invalid_argument);
    p = good;
    p.q_goal = Vector(m.num_links() - 1);
    EXPECT_THROW(solve_ilqr(m, topo, p), std::invalid_argument);
}

TEST(Ilqr, RejectsTopologyOfAnotherRobot)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const RobotModel other = build_robot(RobotId::kHyqWithArm);
    const TopologyInfo other_topo(other);
    EXPECT_THROW(solve_ilqr(m, other_topo, reach_problem(m, 0.3, 4)),
                 std::invalid_argument);
}

TEST(Ilqr, RejectsNonFiniteOrNonPositiveStep)
{
    const RobotModel m = topology::make_serial_chain(2);
    const TopologyInfo topo(m);
    for (const double dt : {0.0, -0.01, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
        IlqrProblem p = reach_problem(m, 0.3, 4);
        p.dt = dt;
        EXPECT_THROW(solve_ilqr(m, topo, p), std::invalid_argument) << dt;
    }
}

/** The fixed-work settings of the perfbench ilqr_stream solves: exactly
 *  four iterations, one full-step line search each. */
IlqrOptions
fixed_work_options()
{
    IlqrOptions options;
    options.max_iterations = 4;
    options.cost_tolerance = 0.0;
    options.max_line_search = 1;
    return options;
}

TEST(Ilqr, CostHistoryMatchesPinnedRiccatiPass)
{
    // Recorded from the solver before its Riccati pass moved into a
    // preallocated workspace (explicit transposes, four-term value
    // update).  The passes are algebraically equal and agree to ~1e-15
    // on these reaches from rest.  Offset starts can leave Quu with a
    // condition number near 1e7, where both passes round off by up to
    // ~1e-9 against an extended-precision reference.
    struct Pinned
    {
        RobotId id;
        std::size_t horizon;
        std::vector<double> costs;
    };
    const Pinned pinned[] = {
        {RobotId::kIiwa, 8,
         {151.19999999999999, 77.54859462365917, 71.21214199109761,
          71.1954769491321, 71.195315612670925}},
        {RobotId::kIiwa, 16,
         {176.39999999999998, 62.63564973275021, 59.760770455146613,
          59.73912176856895, 59.738669656232609}},
        {RobotId::kHyq, 8,
         {291.5644090072106, 74.539665526582226, 74.531654895402852,
          74.531654891686941, 74.531654891686927}},
        {RobotId::kHyq, 16,
         {467.768766492856, 61.46885969991537, 61.466646454214242,
          61.466646453033988}},
        {RobotId::kHyqWithArm, 8,
         {442.76440900721059, 148.58611670224863, 141.97373296571885,
          141.95673488008691, 141.95651698576708}},
        {RobotId::kHyqWithArm, 16,
         {644.16876649285609, 116.21303283510311, 112.49323593249312,
          112.47400725393825, 112.47391689266306}},
    };
    for (const Pinned &p : pinned) {
        const RobotModel m = build_robot(p.id);
        const TopologyInfo topo(m);
        const IlqrResult r = solve_ilqr(
            m, topo, reach_problem(m, 0.3, p.horizon), fixed_work_options());
        const std::string what =
            m.name() + " horizon " + std::to_string(p.horizon);
        EXPECT_EQ(r.iterations, 4u) << what;
        ASSERT_EQ(r.cost_history.size(), p.costs.size()) << what;
        for (std::size_t k = 0; k < p.costs.size(); ++k)
            EXPECT_NEAR(r.cost_history[k], p.costs[k], 1e-9 * p.costs[k])
                << what << " entry " << k;
    }
}

/** Restores automatic lane-backend detection when a test scope ends. */
struct BackendGuard
{
    ~BackendGuard() { accel::simd::set_lane_backend("auto"); }
};

TEST(AcceleratorLinearizer, HorizonIsBitIdenticalToPerKnotLinearize)
{
    BackendGuard guard;
    const std::size_t w = accel::simd::lane_backend().width;
    for (const std::string backend : {"active", "scalar"}) {
        if (backend == "scalar") {
            ASSERT_TRUE(accel::simd::set_lane_backend("scalar"));
        }
        for (const RobotId id : topology::all_robots()) {
            const RobotModel m = build_robot(id);
            const std::size_t n = m.num_links();
            const accel::AcceleratorDesign design(m, {4, 4, 4});
            // One linearizer across growing and shrinking horizons, so
            // its per-knot storage is reused as well as grown.
            AcceleratorLinearizer batched(design);
            std::size_t packets = 0;
            for (const std::size_t horizon : {w + 1, std::size_t{1}, w - 1, w}) {
                if (horizon == 0)
                    continue;
                std::vector<Vector> xs(horizon, Vector(2 * n));
                std::vector<Vector> us(horizon);
                for (std::size_t k = 0; k < horizon; ++k) {
                    const dynamics::RobotState s = dynamics::random_state(
                        m, static_cast<std::uint32_t>(100 * horizon + k));
                    for (std::size_t i = 0; i < n; ++i) {
                        xs[k][i] = s.q[i];
                        xs[k][n + i] = s.qd[i];
                    }
                    us[k] = s.tau;
                }
                std::vector<Matrix> a(horizon), b(horizon);
                batched.linearize_horizon(xs, us, 0.01, a, b);
                packets += horizon;
                EXPECT_EQ(batched.calls(), packets);

                AcceleratorLinearizer per_knot(design);
                for (std::size_t k = 0; k < horizon; ++k) {
                    Matrix ak, bk;
                    per_knot.linearize(xs[k], us[k], 0.01, ak, bk);
                    const std::string what =
                        backend + " " + m.name() + " horizon " +
                        std::to_string(horizon) + " knot " +
                        std::to_string(k);
                    ASSERT_EQ(a[k].rows(), 2 * n) << what;
                    ASSERT_EQ(b[k].cols(), n) << what;
                    EXPECT_EQ(linalg::max_abs_diff(a[k], ak), 0.0) << what;
                    EXPECT_EQ(linalg::max_abs_diff(b[k], bk), 0.0) << what;
                }
            }
        }
    }
}

TEST(AcceleratorLinearizer, SolveMatchesHostLinearizerSolve)
{
    // perfbench's ilqr_stream oracle: equal iteration count and final
    // cost within 1e-9 relative of the host-library solve.
    for (const RobotId id : topology::all_robots()) {
        const RobotModel m = build_robot(id);
        const TopologyInfo topo(m);
        const accel::AcceleratorDesign design(m, {4, 4, 4});
        for (const std::size_t horizon : {8u, 16u}) {
            const IlqrProblem problem = reach_problem(m, 0.3, horizon);
            IlqrOptions options = fixed_work_options();
            const IlqrResult host = solve_ilqr(m, topo, problem, options);
            AcceleratorLinearizer linearizer(design);
            options.linearizer = &linearizer;
            const IlqrResult accel = solve_ilqr(m, topo, problem, options);
            const std::string what =
                m.name() + " horizon " + std::to_string(horizon);
            EXPECT_EQ(accel.iterations, host.iterations) << what;
            EXPECT_LE(std::abs(accel.final_cost() - host.final_cost()),
                      1e-9 * std::abs(host.final_cost()))
                << what;
            // One packet per knot per iteration.
            EXPECT_EQ(linearizer.calls(), accel.iterations * horizon) << what;
        }
    }
}

/** Limb index of every link of @p topo. */
std::vector<std::size_t>
limb_of_link(const TopologyInfo &topo)
{
    std::vector<std::size_t> limb(topo.num_links());
    const auto &spans = topo.limb_spans();
    for (std::size_t l = 0; l < spans.size(); ++l)
        for (std::size_t i = spans[l].first; i < spans[l].second; ++i)
            limb[i] = l;
    return limb;
}

/** Expects every entry of @p g that couples two limbs to be exactly 0;
 *  returns how many it checked. */
std::size_t
expect_zero_off_limbs(const Matrix &g, const std::vector<std::size_t> &limb,
                      const std::string &what)
{
    std::size_t checked = 0;
    for (std::size_t i = 0; i < g.rows(); ++i)
        for (std::size_t j = 0; j < g.cols(); ++j)
            if (limb[i] != limb[j]) {
                ++checked;
                EXPECT_EQ(g(i, j), 0.0) << what << " (" << i << ", " << j
                                        << ")";
            }
    return checked;
}

TEST(LimbBlocks, GradientsVanishOffTheLimbBlocksLibraryWide)
{
    // The premise of the per-limb Riccati pass (the DynamicsLinearizer
    // contract): no dynamic coupling crosses the fixed base, on the host
    // library and on the engine alike.
    std::vector<RobotId> robots = topology::all_robots();
    for (const RobotId id : topology::extended_robots())
        robots.push_back(id);
    std::size_t checked = 0;
    for (const RobotId id : robots) {
        const RobotModel m = build_robot(id);
        const TopologyInfo topo(m);
        const std::vector<std::size_t> limb = limb_of_link(topo);
        const accel::AcceleratorDesign gradient_design(m, {4, 4, 4});
        const accel::AcceleratorDesign mass_design(
            m, {3, 3, 1}, accel::default_timing(),
            sched::KernelKind::kMassMatrix);
        const accel::SimEngine gradient_engine(gradient_design);
        const accel::SimEngine mass_engine(mass_design);
        auto gradient_ws = gradient_engine.make_workspace();
        auto mass_ws = mass_engine.make_workspace();
        accel::EngineResult gradient_out, mass_out;
        for (std::uint32_t seed = 0; seed < 20; ++seed) {
            const dynamics::RobotState s = dynamics::random_state(m, seed);
            const auto host = dynamics::forward_dynamics_gradients(
                m, topo, s.q, s.qd, s.tau);
            const std::string what =
                m.name() + " seed " + std::to_string(seed);
            checked += expect_zero_off_limbs(host.dqdd_dq, limb,
                                             what + " host dqdd/dq");
            checked += expect_zero_off_limbs(host.dqdd_dqd, limb,
                                             what + " host dqdd/dqd");
            checked += expect_zero_off_limbs(host.mass, limb,
                                             what + " host M");
            checked += expect_zero_off_limbs(host.mass_inv, limb,
                                             what + " host M^-1");
            gradient_engine.run(
                gradient_ws,
                accel::InputPacket{&s.q, &s.qd, &host.qdd, &host.mass_inv},
                gradient_out);
            checked += expect_zero_off_limbs(gradient_out.dqdd_dq, limb,
                                             what + " engine dqdd/dq");
            checked += expect_zero_off_limbs(gradient_out.dqdd_dqd, limb,
                                             what + " engine dqdd/dqd");
            mass_engine.run(mass_ws, accel::InputPacket{&s.q}, mass_out);
            checked += expect_zero_off_limbs(mass_out.mass, limb,
                                             what + " engine M");
        }
    }
    // Every robot but the single-limb ones contributes.
    EXPECT_GT(checked, 0u);
}

TEST(LimbBlocks, SplitRiccatiPassMatchesDensePassExactly)
{
    // At real iterates of branched robots, the per-limb recursion over
    // topo.limb_spans() and the single span [0, n) (the dense pass) give
    // equal gains and the same success flag.
    for (const RobotId id :
         {RobotId::kHyq, RobotId::kBaxter, RobotId::kHyqWithArm,
          RobotId::kBittle, RobotId::kHumanoid}) {
        const RobotModel m = build_robot(id);
        const TopologyInfo topo(m);
        const std::size_t n = m.num_links();
        ASSERT_GT(topo.limb_spans().size(), 1u) << m.name();
        const accel::AcceleratorDesign design(m, {4, 4, 4});
        AcceleratorLinearizer linearizer(design);
        const IlqrProblem problem = reach_problem(m, 0.3, 8);
        RiccatiWorkspace split(topo.limb_spans());
        const LimbSpan all[] = {{0, n}};
        RiccatiWorkspace dense(all);
        for (const std::size_t iterations : {0u, 1u, 3u}) {
            IlqrOptions options = fixed_work_options();
            options.max_iterations = iterations;
            const IlqrResult r = solve_ilqr(m, topo, problem, options);
            std::vector<Matrix> a(problem.horizon), b(problem.horizon);
            linearizer.linearize_horizon(
                std::span<const Vector>(r.states).first(problem.horizon),
                r.controls, problem.dt, a, b);
            // A negative regularization makes Quu indefinite: both passes
            // must fail.
            for (const double mu : {1e-6, 1e-2, -1e12}) {
                std::vector<Vector> ff_split(problem.horizon, Vector(n));
                std::vector<Vector> ff_dense = ff_split;
                std::vector<Matrix> gain_split(problem.horizon,
                                               Matrix(n, 2 * n));
                std::vector<Matrix> gain_dense = gain_split;
                const bool ok_split =
                    riccati_backward_pass(problem, r.states, r.controls, a,
                                          b, mu, split, ff_split, gain_split);
                const bool ok_dense =
                    riccati_backward_pass(problem, r.states, r.controls, a,
                                          b, mu, dense, ff_dense, gain_dense);
                const std::string what = m.name() + " iterate " +
                                         std::to_string(iterations) +
                                         " mu " + std::to_string(mu);
                ASSERT_EQ(ok_split, ok_dense) << what;
                EXPECT_EQ(ok_split, mu > 0.0) << what;
                if (!ok_split)
                    continue;
                for (std::size_t k = 0; k < problem.horizon; ++k)
                    for (std::size_t i = 0; i < n; ++i) {
                        EXPECT_EQ(ff_split[k][i], ff_dense[k][i])
                            << what << " knot " << k << " k " << i;
                        for (std::size_t j = 0; j < 2 * n; ++j)
                            EXPECT_EQ(gain_split[k](i, j),
                                      gain_dense[k](i, j))
                                << what << " knot " << k << " K(" << i
                                << ", " << j << ")";
                    }
            }
        }
    }
}

TEST(LimbBlocks, WorkspaceRejectsSpansThatDoNotTileTheLinks)
{
    const LimbSpan gap[] = {{0, 3}, {4, 6}};
    const LimbSpan late[] = {{1, 3}};
    const LimbSpan empty[] = {{0, 3}, {3, 3}};
    EXPECT_THROW(RiccatiWorkspace{gap}, std::invalid_argument);
    EXPECT_THROW(RiccatiWorkspace{late}, std::invalid_argument);
    EXPECT_THROW(RiccatiWorkspace{empty}, std::invalid_argument);
    const LimbSpan ok[] = {{0, 3}, {3, 6}};
    EXPECT_EQ(RiccatiWorkspace{ok}.num_links(), 6u);
}

} // namespace
} // namespace control
} // namespace roboshape
