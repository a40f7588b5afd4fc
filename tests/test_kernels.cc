/**
 * @file
 * Tests for the kernel-generality layer (paper Table 1): CRBA and
 * forward-kinematics accelerators built from the same patterns, plus the
 * power model, multicore throughput planning, and scheduler/blocking
 * ablation knobs.
 */

#include <gtest/gtest.h>

#include "accel/power_model.h"
#include "accel/sim_engine.h"
#include "core/throughput.h"
#include "dynamics/crba.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/kinematics.h"
#include "dynamics/robot_state.h"
#include "topology/parametric_robots.h"
#include "topology/robot_library.h"

namespace roboshape {
namespace accel {
namespace {

using dynamics::RobotState;
using dynamics::random_state;
using sched::KernelKind;
using topology::RobotId;
using topology::RobotModel;
using topology::TopologyInfo;
using topology::all_robots;
using topology::build_robot;
using topology::robot_name;

std::string
robot_param_name(const ::testing::TestParamInfo<RobotId> &info)
{
    std::string name = robot_name(info.param);
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

// -------------------------------------------------------- task graphs ----

TEST(KernelGraphs, MassMatrixTaskCounts)
{
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const TopologyInfo topo(m);
        const sched::TaskGraph g(topo, KernelKind::kMassMatrix);
        const std::size_t n = m.num_links();
        EXPECT_EQ(g.tasks_of_type(sched::TaskType::kRneaForward).size(), n);
        EXPECT_EQ(g.tasks_of_type(sched::TaskType::kRneaBackward).size(),
                  n);
        // One walk task per (column, ancestor-or-self) pair: sum of depths.
        std::size_t expected = 0;
        for (std::size_t i = 0; i < n; ++i)
            expected += topo.depth(i);
        EXPECT_EQ(g.tasks_of_type(sched::TaskType::kGradBackward).size(),
                  expected)
            << robot_name(id);
        EXPECT_TRUE(
            g.tasks_of_type(sched::TaskType::kGradForward).empty());
    }
}

TEST(KernelGraphs, ForwardKinematicsTaskCounts)
{
    const RobotModel m = build_robot(RobotId::kBaxter);
    const TopologyInfo topo(m);
    const sched::TaskGraph g(topo, KernelKind::kForwardKinematics);
    EXPECT_EQ(g.tasks_of_type(sched::TaskType::kRneaForward).size(), 15u);
    EXPECT_EQ(g.tasks_of_type(sched::TaskType::kGradForward).size(), 15u);
    EXPECT_TRUE(g.tasks_of_type(sched::TaskType::kRneaBackward).empty());
    EXPECT_TRUE(g.tasks_of_type(sched::TaskType::kGradBackward).empty());
}

TEST(KernelGraphs, SchedulesAreValidForAllKernels)
{
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const TopologyInfo topo(m);
        for (KernelKind kernel : sched::all_kernels()) {
            const sched::TaskGraph g(topo, kernel);
            const sched::TaskTiming timing{6, 4, 9, 5};
            const auto joint = sched::schedule_pipelined(g, 3, 3, timing);
            EXPECT_EQ(validate_schedule(g, joint), "")
                << robot_name(id) << " " << to_string(kernel);
        }
    }
}

// ------------------------------------------------- kernel simulators ----

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

class MassMatrixKernel : public ::testing::TestWithParam<RobotId>
{
};

TEST_P(MassMatrixKernel, SimulatorMatchesCrba)
{
    const RobotModel m = build_robot(GetParam());
    const RobotState s = random_state(m, 41);
    const AcceleratorDesign design(m, {3, 3, 1}, default_timing(),
                                   KernelKind::kMassMatrix);
    for (SimOrder order : {SimOrder::kStaged, SimOrder::kPipelined}) {
        const EngineResult sim = run_engine(design, {&s.q}, order);
        EXPECT_LT(linalg::max_abs_diff(sim.mass, dynamics::crba(m, s.q)),
                  1e-10);
        EXPECT_EQ(sim.tasks_executed, design.task_graph().size());
    }
}

INSTANTIATE_TEST_SUITE_P(Robots, MassMatrixKernel,
                         ::testing::ValuesIn(all_robots()),
                         robot_param_name);

class KinematicsKernel : public ::testing::TestWithParam<RobotId>
{
};

TEST_P(KinematicsKernel, SimulatorMatchesHostKinematics)
{
    const RobotModel m = build_robot(GetParam());
    const RobotState s = random_state(m, 43);
    const AcceleratorDesign design(m, {4, 1, 1}, default_timing(),
                                   KernelKind::kForwardKinematics);
    const EngineResult sim = run_engine(design, {&s.q, &s.qd});

    const auto fk = dynamics::forward_kinematics(m, s.q);
    const auto vel = dynamics::link_velocities(m, s.q, s.qd);
    for (std::size_t i = 0; i < m.num_links(); ++i) {
        EXPECT_LT((sim.base_to_link[i].to_matrix() -
                   fk.base_to_link[i].to_matrix())
                      .max_abs(),
                  1e-10);
        EXPECT_LT((sim.velocities[i] - vel[i]).max_abs(), 1e-10);
        EXPECT_LT(linalg::max_abs_diff(
                      sim.jacobians[i],
                      dynamics::link_jacobian(m, s.q, i)),
                  1e-10);
    }
}

INSTANTIATE_TEST_SUITE_P(Robots, KinematicsKernel,
                         ::testing::ValuesIn(all_robots()),
                         robot_param_name);

TEST(KernelSim, MassMatrixHazardCheckerRejectsReversedOrder)
{
    // The CRBA schedule run backwards starts with a force walk whose
    // composite inertias were never set up — the checker must fire at
    // engine compile time.
    const RobotModel m = build_robot(RobotId::kHyq);
    const RobotState s = random_state(m, 5);
    const AcceleratorDesign design(m, {3, 3, 1}, default_timing(),
                                   KernelKind::kMassMatrix);
    EXPECT_THROW(run_engine(design, {&s.q}, SimOrder::kAdversarialReversed),
                 DataHazardError);
}

TEST(KernelSim, KinematicsHazardCheckerRejectsReversedOrder)
{
    // Reversed kinematics visits a leaf Jacobian before any pose exists.
    const RobotModel m = build_robot(RobotId::kHyq);
    const RobotState s = random_state(m, 5);
    const AcceleratorDesign design(m, {4, 1, 1}, default_timing(),
                                   KernelKind::kForwardKinematics);
    EXPECT_THROW(
        run_engine(design, {&s.q, &s.qd}, SimOrder::kAdversarialReversed),
        DataHazardError);
}

TEST(KernelDesigns, NonGradientKernelsHaveNoMultiplyStage)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const AcceleratorDesign crba_design(m, {3, 3, 1}, default_timing(),
                                        KernelKind::kMassMatrix);
    EXPECT_EQ(crba_design.block_multiply().makespan, 0);
    const AcceleratorDesign fk_design(m, {3, 3, 1}, default_timing(),
                                      KernelKind::kForwardKinematics);
    EXPECT_EQ(fk_design.block_multiply().makespan, 0);
    // Kinematics is forward-only: the backward stage is empty.
    EXPECT_EQ(fk_design.backward_stage().makespan, 0);
    EXPECT_GT(fk_design.forward_stage().makespan, 0);
}

TEST(KernelSim, ParametricRobotsRunThroughEveryKernel)
{
    // Sim equivalence for a prismatic gantry, a star, and a tree — the
    // robots outside the paper's six.
    for (const RobotModel &m :
         {topology::make_gantry(3), topology::make_star(5, 4),
          topology::make_branching_tree(3, 2)}) {
        const TopologyInfo topo(m);
        const RobotState s = random_state(m, 61);
        // Mass matrix kernel.
        const AcceleratorDesign crba_design(m, {2, 3, 1}, default_timing(),
                                            KernelKind::kMassMatrix);
        const EngineResult crba_sim = run_engine(crba_design, {&s.q});
        EXPECT_LT(linalg::max_abs_diff(crba_sim.mass,
                                       dynamics::crba(m, s.q)),
                  1e-9)
            << m.name();
        // Gradient kernel.
        const auto ref = dynamics::forward_dynamics_gradients(
            m, topo, s.q, s.qd, s.tau);
        const AcceleratorDesign grad_design(m, {3, 3, 2});
        const EngineResult grad_sim = run_engine(
            grad_design, {&s.q, &s.qd, &ref.qdd, &ref.mass_inv});
        EXPECT_LT(linalg::max_abs_diff(grad_sim.dqdd_dq, ref.dqdd_dq),
                  1e-9)
            << m.name();
    }
}

// ------------------------------------------------------- power model ----

TEST(PowerModel, UtilizationIsAFraction)
{
    const RobotModel m = build_robot(RobotId::kBaxter);
    const AcceleratorDesign d(m, {4, 4, 4});
    const PowerReport r = estimate_power(d);
    EXPECT_GT(r.mean_pe_utilization, 0.0);
    EXPECT_LE(r.mean_pe_utilization, 1.0);
    for (double u : r.forward_utilization) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
    EXPECT_EQ(r.forward_utilization.size(), 4u);
    EXPECT_EQ(r.backward_utilization.size(), 4u);
}

TEST(PowerModel, GatingAlwaysSavesEnergy)
{
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const AcceleratorDesign d(m, {3, 3, 3});
        const PowerReport r = estimate_power(d);
        EXPECT_LT(r.energy_gated_uj, r.energy_uj) << robot_name(id);
        EXPECT_GT(r.gating_savings(), 0.0) << robot_name(id);
        EXPECT_LT(r.gating_savings(), 1.0) << robot_name(id);
    }
}

TEST(PowerModel, OverprovisionedDesignsGainMoreFromGating)
{
    // A 7-PE iiwa design idles far more than a 1-PE design, so gating
    // reclaims a larger fraction.
    const RobotModel m = build_robot(RobotId::kIiwa);
    const PowerReport wide = estimate_power(AcceleratorDesign(m, {7, 7, 4}));
    const PowerReport narrow =
        estimate_power(AcceleratorDesign(m, {1, 1, 4}));
    EXPECT_GT(wide.gating_savings(), narrow.gating_savings());
    EXPECT_GT(narrow.mean_pe_utilization, wide.mean_pe_utilization);
}

// -------------------------------------------------------- throughput ----

TEST(Throughput, MulticorePlanFitsBudget)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const AcceleratorDesign d(m, {3, 3, 6});
    const auto plan = core::plan_multicore(d, vcu118());
    EXPECT_GE(plan.cores, 1u);
    EXPECT_LE(plan.lut_utilization, kUtilizationThreshold + 1e-9);
    EXPECT_LE(plan.dsp_utilization, kUtilizationThreshold + 1e-9);
    EXPECT_GT(plan.throughput_per_s, 0.0);
}

TEST(Throughput, SmallerDesignsReplicateMore)
{
    const RobotModel m = build_robot(RobotId::kIiwa);
    const AcceleratorDesign big(m, {7, 7, 7});
    const AcceleratorDesign small(m, {2, 2, 3});
    EXPECT_GT(core::plan_multicore(small, vcu118()).cores,
              core::plan_multicore(big, vcu118()).cores);
}

TEST(Throughput, InfeasibleDesignYieldsZeroCores)
{
    const RobotModel m = topology::make_star(8, 16); // 128 links
    const AcceleratorDesign d(m, {8, 8, 4});
    EXPECT_EQ(core::plan_multicore(d, vc707()).cores, 0u);
}

// ------------------------------------------------- scheduler ablation ----

TEST(SchedulerOptions, LongestThreadBeatsFifoInAggregate)
{
    // Individual robots can exhibit classic list-scheduling anomalies, but
    // across the fleet the longest-thread priority must not lose to FIFO
    // dispatch, and every FIFO schedule must still be valid.
    std::int64_t smart_total = 0, fifo_total = 0;
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const TopologyInfo topo(m);
        const sched::TaskGraph g(topo);
        const sched::TaskTiming timing{6, 4, 9, 5};
        const sched::SchedulerOptions fifo{false, true};
        const auto smart = sched::schedule_pipelined(g, 3, 3, timing);
        const auto dumb = sched::schedule_pipelined(g, 3, 3, timing, fifo);
        EXPECT_EQ(validate_schedule(g, dumb), "") << robot_name(id);
        smart_total += smart.makespan;
        fifo_total += dumb.makespan;
    }
    EXPECT_LE(smart_total, fifo_total);
}

TEST(SchedulerOptions, AffinityReducesCheckpointRestores)
{
    // On a limb-rich robot, disabling thread affinity must not reduce the
    // number of checkpoint restores.
    const RobotModel m = topology::make_star(6, 6);
    const TopologyInfo topo(m);
    const sched::TaskGraph g(topo);
    const sched::TaskTiming unit{1, 1, 1, 1};
    const sched::SchedulerOptions no_affinity{true, false};
    const auto with = sched::schedule_stage(
        g, {sched::TaskType::kRneaForward, sched::TaskType::kGradForward},
        3, unit);
    const auto without = sched::schedule_stage(
        g, {sched::TaskType::kRneaForward, sched::TaskType::kGradForward},
        3, unit, no_affinity);
    EXPECT_LE(with.checkpoint_restores, without.checkpoint_restores);
}

TEST(BlockSchedule, DisablingNopSkippingCostsCycles)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const TopologyInfo topo(m);
    const auto a = sched::mass_inverse_mask(topo);
    const auto b = sched::derivative_mask(topo);
    const sched::TileTiming timing{1, 3};
    const auto sparse =
        sched::schedule_block_multiply(a, b, 3, 3, timing, 2, true);
    const auto dense =
        sched::schedule_block_multiply(a, b, 3, 3, timing, 2, false);
    EXPECT_LT(sparse.makespan, dense.makespan);
    EXPECT_EQ(dense.nop_tiles, 0u);
    EXPECT_GT(sparse.nop_tiles, 0u);
}

} // namespace
} // namespace accel
} // namespace roboshape
