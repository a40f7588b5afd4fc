/**
 * @file
 * Tests for the accelerator model: resource estimates anchored at the
 * paper's Table 2, design generation, the clock model, and — critically —
 * functional equivalence of the simulated accelerator (accel::SimEngine)
 * against the host dynamics library.
 */

#include <gtest/gtest.h>

#include <random>

#include "accel/design.h"
#include "accel/platform.h"
#include "accel/resource_model.h"
#include "accel/sim_engine.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "topology/robot_library.h"

namespace roboshape {
namespace accel {
namespace {

using dynamics::RobotState;
using dynamics::random_state;
using linalg::max_abs_diff;
using topology::RobotId;
using topology::RobotModel;
using topology::TopologyInfo;
using topology::all_robots;
using topology::build_robot;
using topology::robot_name;

/** Paper knob settings of the three shipped designs (Sec. 5.1). */
AcceleratorParams
shipped_params(RobotId id)
{
    switch (id) {
      case RobotId::kIiwa:
        return {7, 7, 7};
      case RobotId::kHyq:
        return {3, 3, 6};
      case RobotId::kBaxter:
        return {4, 4, 4};
      default:
        return {1, 1, 1};
    }
}

// ------------------------------------------------------- resource model ----

TEST(ResourceModel, ReproducesTable2Exactly)
{
    // Table 2: LUTs 514552 / 507158 / 873805; DSPs 5448 / 3008 / 3342.
    struct Row
    {
        RobotId id;
        std::int64_t luts, dsps;
    };
    const Row rows[] = {
        {RobotId::kIiwa, 514552, 5448},
        {RobotId::kHyq, 507158, 3008},
        {RobotId::kBaxter, 873805, 3342},
    };
    for (const Row &row : rows) {
        const AcceleratorDesign design(build_robot(row.id),
                                       shipped_params(row.id));
        EXPECT_EQ(design.resources().luts, row.luts) << robot_name(row.id);
        EXPECT_EQ(design.resources().dsps, row.dsps) << robot_name(row.id);
    }
}

TEST(ResourceModel, Table2UtilizationPercentages)
{
    // Paper Table 2: iiwa 43.5% LUTs / 79.6% DSPs on the XCVU9P.
    const AcceleratorDesign iiwa(build_robot(RobotId::kIiwa),
                                 shipped_params(RobotId::kIiwa));
    EXPECT_NEAR(iiwa.resources().lut_utilization(vcu118()), 0.435, 0.005);
    EXPECT_NEAR(iiwa.resources().dsp_utilization(vcu118()), 0.796, 0.005);
    const AcceleratorDesign baxter(build_robot(RobotId::kBaxter),
                                   shipped_params(RobotId::kBaxter));
    EXPECT_NEAR(baxter.resources().lut_utilization(vcu118()), 0.739, 0.005);
    EXPECT_NEAR(baxter.resources().dsp_utilization(vcu118()), 0.489, 0.005);
}

TEST(ResourceModel, MonotoneInKnobs)
{
    const std::size_t n = 12;
    const ResourceEstimate base = estimate_resources({2, 2, 3}, n);
    EXPECT_GT(estimate_resources({3, 2, 3}, n).luts, base.luts);
    EXPECT_GT(estimate_resources({2, 3, 3}, n).dsps, base.dsps);
    EXPECT_GT(estimate_resources({2, 2, 6}, n).dsps, base.dsps);
    EXPECT_GT(estimate_resources({2, 2, 6}, n).luts, base.luts);
    // The marshalling network grows with robot size for fixed knobs.
    EXPECT_GT(estimate_resources({2, 2, 3}, 19).luts, base.luts);
}

TEST(ResourceModel, RcBaselineMatchesPublishedIiwaAndCannotScale)
{
    // RC iiwa: 49.0% LUTs, 77.5% DSPs on the XCVU9P (paper Sec. 5.1).
    const ResourceEstimate rc7 = estimate_rc_resources(7);
    EXPECT_NEAR(rc7.lut_utilization(vcu118()), 0.490, 0.005);
    EXPECT_NEAR(rc7.dsp_utilization(vcu118()), 0.775, 0.005);
    // Beyond iiwa, RC's naive per-link scaling exhausts the part.
    const ResourceEstimate rc12 = estimate_rc_resources(12);
    EXPECT_GT(rc12.dsps, vcu118().dsps);
    const ResourceEstimate rc15 = estimate_rc_resources(15);
    EXPECT_GT(rc15.luts, vcu118().luts);
}

TEST(ResourceModel, FitsRespectsThreshold)
{
    ResourceEstimate r{static_cast<std::int64_t>(vcu118().luts * 0.79),
                       static_cast<std::int64_t>(vcu118().dsps * 0.5)};
    EXPECT_TRUE(r.fits(vcu118()));
    r.luts = static_cast<std::int64_t>(vcu118().luts * 0.81);
    EXPECT_FALSE(r.fits(vcu118()));
    EXPECT_TRUE(r.fits(vcu118(), /*threshold=*/0.9));
}

// ----------------------------------------------------------- the design ----

TEST(Design, LatencyCompositionsAreOrdered)
{
    for (RobotId id : all_robots()) {
        const AcceleratorDesign d(build_robot(id), {3, 3, 4});
        EXPECT_LE(d.cycles_pipelined(), d.cycles_overlapped())
            << robot_name(id);
        EXPECT_LE(d.cycles_overlapped(), d.cycles_no_pipelining())
            << robot_name(id);
        EXPECT_GT(d.cycles_pipelined(), 0) << robot_name(id);
    }
}

TEST(Design, SchedulesAreValid)
{
    for (RobotId id : all_robots()) {
        const AcceleratorDesign d(build_robot(id), shipped_params(id));
        EXPECT_EQ(validate_schedule(d.task_graph(), d.forward_stage()), "");
        EXPECT_EQ(validate_schedule(d.task_graph(), d.backward_stage()), "");
        EXPECT_EQ(validate_schedule(d.task_graph(), d.pipelined()), "");
    }
}

TEST(Design, ClockPeriodsMatchPaperSection51)
{
    // Paper Sec. 5.1: timing closed at 18 ns (iiwa), 18 ns (HyQ), and
    // 22 ns (Baxter).
    const AcceleratorDesign iiwa(build_robot(RobotId::kIiwa),
                                 shipped_params(RobotId::kIiwa));
    const AcceleratorDesign hyq(build_robot(RobotId::kHyq),
                                shipped_params(RobotId::kHyq));
    const AcceleratorDesign baxter(build_robot(RobotId::kBaxter),
                                   shipped_params(RobotId::kBaxter));
    EXPECT_NEAR(iiwa.clock_period_ns(), 18.0, 1e-9);
    EXPECT_NEAR(hyq.clock_period_ns(), 18.0, 1e-9);
    EXPECT_NEAR(baxter.clock_period_ns(), 22.0, 1e-9);
}

TEST(Design, ClockPeriodGrowsWithRobotScale)
{
    // Bigger/deeper robots close timing at slower clocks.
    const RobotModel iiwa = build_robot(RobotId::kIiwa);
    const RobotModel arm = build_robot(RobotId::kHyqWithArm);
    const AcceleratorDesign small(iiwa, {2, 2, 2});
    const AcceleratorDesign big(arm, {2, 2, 2});
    EXPECT_GT(big.clock_period_ns(), small.clock_period_ns());
}

// ------------------------------------------------- functional equivalence ----

/** Runs one packet through a fresh engine of @p design. */
EngineResult
run_engine(const AcceleratorDesign &design, const InputPacket &packet,
           SimOrder order = SimOrder::kStaged)
{
    const SimEngine engine(design, order);
    auto ws = engine.make_workspace();
    EngineResult out;
    engine.run(ws, packet, out);
    return out;
}

class SimEquivalence
    : public ::testing::TestWithParam<std::tuple<RobotId, std::uint32_t>>
{
};

TEST_P(SimEquivalence, SimulatorMatchesHostReference)
{
    const RobotId id = std::get<0>(GetParam());
    const std::uint32_t seed = std::get<1>(GetParam());
    const RobotModel model = build_robot(id);
    const TopologyInfo topo(model);
    const RobotState s = random_state(model, seed);

    // Host-side reference (the CPU library).
    const auto ref = dynamics::forward_dynamics_gradients(model, topo, s.q,
                                                          s.qd, s.tau);

    // Accelerator inputs mirror the coprocessor I/O: q, qd, the
    // linearization qdd, and M^-1.
    const AcceleratorDesign design(model, shipped_params(id));
    for (SimOrder order : {SimOrder::kStaged, SimOrder::kPipelined}) {
        const EngineResult sim = run_engine(
            design, {&s.q, &s.qd, &ref.qdd, &ref.mass_inv}, order);
        EXPECT_LT(max_abs_diff(sim.dqdd_dq, ref.dqdd_dq), 1e-10)
            << robot_name(id);
        EXPECT_LT(max_abs_diff(sim.dqdd_dqd, ref.dqdd_dqd), 1e-10)
            << robot_name(id);
        // The RNEA stage's torques equal ID(q, qd, qdd).
        const auto tau_ref = dynamics::rnea(model, s.q, s.qd, ref.qdd);
        EXPECT_LT(max_abs_diff(sim.tau, tau_ref), 1e-10) << robot_name(id);
        EXPECT_GT(sim.mm_stats.block_macs, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Robots, SimEquivalence,
    ::testing::Combine(::testing::ValuesIn(all_robots()),
                       ::testing::Values(101u, 202u)),
    [](const auto &gen_info) {
        std::string name = robot_name(std::get<0>(gen_info.param));
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + "_s" + std::to_string(std::get<1>(gen_info.param));
    });

TEST(Sim, RandomKnobPointsAllComputeCorrectly)
{
    // Functional equivalence must hold at arbitrary design-space points,
    // not just the shipped ones: sample a deterministic spread of knob
    // combinations per robot.
    for (RobotId id : all_robots()) {
        const RobotModel model = build_robot(id);
        const TopologyInfo topo(model);
        const std::size_t n = model.num_links();
        const RobotState s = random_state(model, 77);
        const auto ref = dynamics::forward_dynamics_gradients(
            model, topo, s.q, s.qd, s.tau);
        std::mt19937 rng(static_cast<unsigned>(1000 + n));
        std::uniform_int_distribution<std::size_t> knob(1, n);
        for (int trial = 0; trial < 4; ++trial) {
            const AcceleratorParams params{knob(rng), knob(rng),
                                           knob(rng)};
            const AcceleratorDesign design(model, params);
            const EngineResult sim =
                run_engine(design, {&s.q, &s.qd, &ref.qdd, &ref.mass_inv});
            ASSERT_LT(max_abs_diff(sim.dqdd_dq, ref.dqdd_dq), 1e-10)
                << robot_name(id) << " " << params.to_string();
            ASSERT_LT(max_abs_diff(sim.dqdd_dqd, ref.dqdd_dqd), 1e-10)
                << robot_name(id) << " " << params.to_string();
        }
    }
}

TEST(Sim, MinimalAllocationStillComputesCorrectly)
{
    // A 1-PE, block-1 design is the slowest point of the design space but
    // must be numerically identical.
    const RobotModel model = build_robot(RobotId::kJaco3);
    const TopologyInfo topo(model);
    const RobotState s = random_state(model, 7);
    const auto ref = dynamics::forward_dynamics_gradients(model, topo, s.q,
                                                          s.qd, s.tau);
    const AcceleratorDesign design(model, {1, 1, 1});
    const EngineResult sim =
        run_engine(design, {&s.q, &s.qd, &ref.qdd, &ref.mass_inv});
    EXPECT_LT(max_abs_diff(sim.dqdd_dq, ref.dqdd_dq), 1e-10);
    EXPECT_LT(max_abs_diff(sim.dqdd_dqd, ref.dqdd_dqd), 1e-10);
}

TEST(Sim, BlockedMultiplySkipsNopTilesOnMultiLimbRobots)
{
    const RobotModel model = build_robot(RobotId::kHyq);
    const TopologyInfo topo(model);
    const RobotState s = random_state(model, 9);
    const auto ref = dynamics::forward_dynamics_gradients(model, topo, s.q,
                                                          s.qd, s.tau);
    const AcceleratorDesign design(model, {3, 3, 3});
    const EngineResult sim =
        run_engine(design, {&s.q, &s.qd, &ref.qdd, &ref.mass_inv});
    EXPECT_GT(sim.mm_stats.block_nops, 0u);
}

TEST(Sim, HazardCheckerRejectsInvalidOrders)
{
    // Running the schedule backwards must trip the read-before-write
    // guards, proving that passing tests really exercise dependency-clean
    // schedules rather than a checker that never fires.
    const RobotModel model = build_robot(RobotId::kHyq);
    const TopologyInfo topo(model);
    const RobotState s = random_state(model, 3);
    const auto ref = dynamics::forward_dynamics_gradients(model, topo, s.q,
                                                          s.qd, s.tau);
    const AcceleratorDesign design(model, {3, 3, 3});
    EXPECT_THROW(run_engine(design, {&s.q, &s.qd, &ref.qdd, &ref.mass_inv},
                            SimOrder::kAdversarialReversed),
                 DataHazardError);
}

TEST(Design, BatchedLatencyIsFirstPlusInitiationIntervals)
{
    const AcceleratorDesign d(build_robot(RobotId::kHyq), {3, 3, 6});
    EXPECT_EQ(d.cycles_batched(0), 0);
    EXPECT_EQ(d.cycles_batched(1), d.cycles_no_pipelining());
    EXPECT_EQ(d.cycles_batched(4),
              d.cycles_no_pipelining() + 3 * d.cycles_pipelined());
    EXPECT_GT(d.latency_us_batched(4), d.latency_us_no_pipelining());
}

} // namespace
} // namespace accel
} // namespace roboshape
