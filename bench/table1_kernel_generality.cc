/**
 * @file
 * Reproduces the paper's Table 1 claim: the same two topology patterns
 * generate accelerators for a family of robotics kernels.  For every
 * robot x kernel pair, builds the design, compiles it into the simulation
 * engine (accel::SimEngine), runs a packet through it, and reports task
 * counts, stage makespans, and numerical verification against the host
 * library.  Exits 1 when any row fails verification.
 */

#include "accel/sim_engine.h"
#include "bench/bench_util.h"
#include "dynamics/crba.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/kinematics.h"
#include "dynamics/robot_state.h"
#include "topology/topology_info.h"

int
main(int argc, char **argv)
{
    using namespace roboshape;
    using sched::KernelKind;
    const std::string json = bench::json_out_path(argc, argv);
    obs::RunReport report("table1_kernel_generality",
                          "Table 1: One framework, a family of "
                          "topology-based kernels");
    bool all_ok = true;
    bench::print_header(
        "Table 1: One framework, a family of topology-based kernels",
        "paper Table 1 / Sec. 3 (patterns shared across kernels)");

    std::printf("%-8s %-20s %6s %9s %9s %8s %s\n", "robot", "kernel",
                "tasks", "fwd(cyc)", "bwd(cyc)", "mm(cyc)", "verified");
    for (topology::RobotId id : topology::all_robots()) {
        const topology::RobotModel model = topology::build_robot(id);
        const topology::TopologyInfo topo(model);
        const auto state = dynamics::random_state(model, 99);

        for (KernelKind kernel : sched::all_kernels()) {
            const accel::AcceleratorParams params =
                kernel == KernelKind::kDynamicsGradient
                    ? bench::shipped_params(id)
                    : accel::AcceleratorParams{3, 3, 1};
            const accel::AcceleratorDesign design(
                model, params, accel::default_timing(), kernel);

            const accel::SimEngine engine(design);
            auto ws = engine.make_workspace();
            accel::EngineResult sim;

            bool ok = false;
            switch (kernel) {
              case KernelKind::kDynamicsGradient: {
                const auto ref = dynamics::forward_dynamics_gradients(
                    model, topo, state.q, state.qd, state.tau);
                const accel::InputPacket packet{&state.q, &state.qd,
                                                &ref.qdd, &ref.mass_inv};
                engine.run(ws, packet, sim);
                ok = linalg::max_abs_diff(sim.dqdd_dq, ref.dqdd_dq) <
                         1e-9 &&
                     linalg::max_abs_diff(sim.dqdd_dqd, ref.dqdd_dqd) <
                         1e-9;
                break;
              }
              case KernelKind::kMassMatrix: {
                const accel::InputPacket packet{&state.q};
                engine.run(ws, packet, sim);
                ok = linalg::max_abs_diff(
                         sim.mass, dynamics::crba(model, state.q)) < 1e-9;
                break;
              }
              case KernelKind::kForwardKinematics: {
                const accel::InputPacket packet{&state.q, &state.qd};
                engine.run(ws, packet, sim);
                const auto fk = dynamics::forward_kinematics(model, state.q);
                const auto vel =
                    dynamics::link_velocities(model, state.q, state.qd);
                ok = true;
                for (std::size_t i = 0; i < model.num_links(); ++i)
                    ok = ok &&
                         (sim.base_to_link[i].to_matrix() -
                          fk.base_to_link[i].to_matrix())
                                 .max_abs() < 1e-9 &&
                         (sim.velocities[i] - vel[i]).max_abs() < 1e-9 &&
                         linalg::max_abs_diff(
                             sim.jacobians[i],
                             dynamics::link_jacobian(model, state.q, i)) <
                             1e-9;
                break;
              }
            }
            std::printf("%-8s %-20s %6zu %9lld %9lld %8lld %s\n",
                        topology::robot_name(id), to_string(kernel),
                        design.task_graph().size(),
                        static_cast<long long>(
                            design.forward_stage().makespan),
                        static_cast<long long>(
                            design.backward_stage().makespan),
                        static_cast<long long>(
                            design.block_multiply().makespan),
                        ok ? "PASS" : "FAIL");
            all_ok = all_ok && ok;
            report.metric(std::string(topology::robot_name(id)) + "." +
                              to_string(kernel) + ".verified",
                          ok);
        }
    }
    report.metric("all_verified", all_ok);
    std::printf("\npaper Table 1 lists kinematics, dynamics, their "
                "gradients, and related state-\npropagation kernels as one "
                "family over patterns (1) and (2); the framework\n"
                "generates verified accelerators for each from the same "
                "schedules and PE pools.\n");
    const bool written = bench::write_report(report, json);
    if (!all_ok)
        std::fprintf(stderr, "FAIL: a design's engine output missed the "
                             "host library\n");
    return all_ok && written ? 0 : 1;
}
