/**
 * @file
 * Reproduces paper Fig. 9: computation-only latency of one dynamics-
 * gradient evaluation — measured CPU (our Pinocchio-equivalent library),
 * modeled GPU (GRiD-style), and the RoboShape FPGA designs in both
 * compositions, plus the Robomorphic Computing prior-work point on iiwa.
 * Exits 1 when a design's engine output misses the host library.
 */

#include "accel/design.h"
#include "accel/sim_engine.h"
#include "baselines/cpu_baseline.h"
#include "baselines/gpu_model.h"
#include "baselines/rc_baseline.h"
#include "bench/bench_util.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "topology/topology_info.h"

int
main(int argc, char **argv)
{
    using namespace roboshape;
    const std::string json = bench::json_out_path(argc, argv);
    obs::RunReport report(
        "fig9_compute_latency",
        "Fig. 9: Computation-only latency, one gradient evaluation");
    bench::print_header(
        "Fig. 9: Computation-only latency, one gradient evaluation",
        "paper Fig. 9 (speedups 4.0-4.4x over CPU, 8.0-15.1x over GPU)");

    bool all_verified = true;
    std::printf("%-8s %12s %12s %14s %16s %9s %9s %5s\n", "robot",
                "CPU(us)", "GPU(us)", "FPGA nopipe", "FPGA avg-pipe",
                "vs CPU", "vs GPU", "sim");
    for (topology::RobotId id : topology::shipped_robots()) {
        const topology::RobotModel model = topology::build_robot(id);
        const topology::TopologyInfo topo(model);

        const double cpu_us =
            baselines::measure_fd_gradients(model, 3000).min_us;
        const double gpu_us =
            baselines::gpu_gradient_latency_us(topo.metrics());

        const accel::AcceleratorDesign design(model,
                                              bench::shipped_params(id));
        const double fpga_nopipe = design.latency_us_no_pipelining();
        const double fpga_pipe = design.latency_us_pipelined();

        // Functional check: the design actually computes the gradients it
        // is being credited for, on the compiled simulation engine.
        const auto state = dynamics::random_state(model, 7);
        const auto ref = dynamics::forward_dynamics_gradients(
            model, topo, state.q, state.qd, state.tau);
        const accel::SimEngine engine(design);
        auto ws = engine.make_workspace();
        accel::EngineResult sim;
        const accel::InputPacket packet{&state.q, &state.qd, &ref.qdd,
                                        &ref.mass_inv};
        engine.run(ws, packet, sim);
        const bool verified =
            linalg::max_abs_diff(sim.dqdd_dq, ref.dqdd_dq) < 1e-9 &&
            linalg::max_abs_diff(sim.dqdd_dqd, ref.dqdd_dqd) < 1e-9;

        std::printf("%-8s %12.2f %12.2f %8.2f@%4.0fns %10.2f@%4.0fns "
                    "%8.1fx %8.1fx %5s\n",
                    topology::robot_name(id), cpu_us, gpu_us, fpga_nopipe,
                    design.clock_period_ns(), fpga_pipe,
                    design.clock_period_ns(), cpu_us / fpga_nopipe,
                    gpu_us / fpga_nopipe, verified ? "PASS" : "FAIL");
        all_verified = all_verified && verified;

        const std::string key = topology::robot_name(id);
        report.metric(key + ".cpu_us", cpu_us);
        report.metric(key + ".gpu_us", gpu_us);
        report.metric(key + ".fpga_nopipe_us", fpga_nopipe);
        report.metric(key + ".fpga_pipelined_us", fpga_pipe);
        report.metric(key + ".verified", verified);
    }
    report.metric("all_verified", all_verified);

    // Robomorphic Computing prior work: iiwa only (paper Fig. 9 note).
    std::printf("\nPrior work (Robomorphic Computing [32]):\n");
    for (topology::RobotId id : topology::shipped_robots()) {
        const topology::RobotModel model = topology::build_robot(id);
        const baselines::RcDesign rc =
            baselines::generate_rc_design(model, accel::vcu118());
        if (rc.latency_us) {
            const accel::AcceleratorDesign rs(model,
                                              bench::shipped_params(id));
            std::printf("  %-8s RC latency %.2f us (RoboShape %.2f us — "
                        "identical for the serial chain)\n",
                        topology::robot_name(id), *rc.latency_us,
                        rs.latency_us_no_pipelining());
        } else {
            std::printf("  %-8s RC: not implementable — %s\n",
                        topology::robot_name(id), rc.limitation.c_str());
        }
    }
    std::printf("\npaper: CPU latency scales ~N; GPU similar for iiwa/HyQ; "
                "RoboShape wins 4.0-4.4x\nover CPU and 8.0-15.1x over GPU; "
                "RC matches RoboShape on iiwa but cannot scale.\n");
    const bool written = bench::write_report(report, json);
    if (!all_verified)
        std::fprintf(stderr, "FAIL: a design's engine output missed the "
                             "host library\n");
    return all_verified && written ? 0 : 1;
}
