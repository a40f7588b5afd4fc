/**
 * @file
 * Quickstart: URDF in, accelerator out.
 *
 * Mirrors the paper's Fig. 7 flow end to end:
 *   1. parse a robot description (Baxter, or a .urdf path given as argv[1]);
 *   2. generate an accelerator for the XCVU9P under an 80% budget;
 *   3. run the generated design on the functional simulation engine
 *      (accel::SimEngine) for a random state and check it against the
 *      host dynamics library;
 *   4. print the generation report.
 *
 * Build and run:  ./build/examples/quickstart [robot.urdf] [--json report.json]
 */

#include <cstdio>
#include <cstring>
#include <optional>
#include <fstream>
#include <iostream>
#include <sstream>

#include "accel/sim_engine.h"
#include "core/generator.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "obs/run_report.h"
#include "topology/robot_library.h"
#include "topology/urdf_parser.h"

int
main(int argc, char **argv)
{
    using namespace roboshape;

    // 1. Robot description: a file if given, bundled Baxter otherwise.
    std::string urdf_text;
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0)
            json_path = argv[i + 1];
    if (argc > 1 && std::strcmp(argv[1], "--json") != 0) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::cerr << "cannot open " << argv[1] << "\n";
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        urdf_text = ss.str();
    } else {
        urdf_text = topology::robot_urdf(topology::RobotId::kBaxter);
    }

    // 2. Generate for the paper's primary platform.
    core::GeneratorConstraints constraints;
    constraints.platform = &accel::vcu118();
    const core::Generator generator;
    std::optional<core::GeneratedAccelerator> out;
    try {
        out = generator.from_urdf(urdf_text, constraints);
    } catch (const std::exception &e) {
        std::cerr << "generation failed: " << e.what() << "\n";
        return 1;
    }

    // 3. Functionally validate the generated design against the host
    //    dynamics library on a random state.
    const auto &model = out->design.model();
    const topology::TopologyInfo topo(model);
    const dynamics::RobotState s = dynamics::random_state(model, 42);
    const auto ref = dynamics::forward_dynamics_gradients(model, topo, s.q,
                                                          s.qd, s.tau);
    const accel::SimEngine engine(out->design);
    auto ws = engine.make_workspace();
    accel::EngineResult sim;
    engine.run(ws, {&s.q, &s.qd, &ref.qdd, &ref.mass_inv}, sim);
    const double err = std::max(
        linalg::max_abs_diff(sim.dqdd_dq, ref.dqdd_dq),
        linalg::max_abs_diff(sim.dqdd_dqd, ref.dqdd_dqd));

    // 4. Report.
    std::cout << out->report;
    std::printf("  functional check: accelerator vs host max |diff| = %.3g "
                "(%s)\n",
                err, err < 1e-9 ? "PASS" : "FAIL");
    std::printf("  simulated %zu traversal tasks, %zu block MACs (%zu "
                "skipped as NOPs)\n",
                sim.tasks_executed, sim.mm_stats.block_macs,
                sim.mm_stats.block_nops);
    if (!json_path.empty()) {
        obs::RunReport report("quickstart", "Quickstart: URDF in, "
                                            "accelerator out");
        report.set_robot(model.name());
        report.set_kernel("dynamics_gradient");
        const auto &p = out->design.params();
        report.set_params(p.pes_fwd, p.pes_bwd, p.block_size);
        report.metric("cycles_no_pipelining",
                      static_cast<std::int64_t>(
                          out->design.cycles_no_pipelining()));
        report.metric("max_abs_diff", err);
        report.metric("tasks_executed",
                      static_cast<std::uint64_t>(sim.tasks_executed));
        report.metric("verified", err < 1e-9);
        report.capture_counters();
        if (!report.write(json_path)) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        std::printf("  report: %s\n", json_path.c_str());
    }
    return err < 1e-9 ? 0 : 1;
}
