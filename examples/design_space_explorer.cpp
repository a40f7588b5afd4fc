/**
 * @file
 * Design-space exploration across robots and platforms.
 *
 * Reproduces the workflow behind paper Sec. 5.3-5.5 interactively: sweeps
 * the full knob cube of a robot, prints the latency/LUT Pareto frontier,
 * compares the metric-based allocation strategies, and shows how the
 * optimal point shifts between the VCU118 and the smaller VC707.
 *
 * Usage: ./build/examples/design_space_explorer [iiwa|hyq|baxter|jaco2|
 *        jaco3|hyq_arm]   (default: hyq)
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "core/design_space.h"
#include "topology/robot_library.h"

int
main(int argc, char **argv)
{
    using namespace roboshape;
    using topology::RobotId;

    RobotId id = RobotId::kHyq;
    if (argc > 1) {
        const std::string want = argv[1];
        bool found = false;
        for (RobotId candidate : topology::all_robots()) {
            std::string name = topology::robot_name(candidate);
            for (char &c : name)
                c = static_cast<char>(std::tolower(
                    static_cast<unsigned char>(c == '+' || c == '-' ? '_'
                                                                    : c)));
            if (name == want) {
                id = candidate;
                found = true;
            }
        }
        if (!found) {
            std::cerr << "unknown robot '" << want << "'\n";
            return 1;
        }
    }

    const topology::RobotModel model = topology::build_robot(id);
    std::printf("=== design space for %s (N=%zu) ===\n",
                topology::robot_name(id), model.num_links());

    const core::DesignSpace space = core::DesignSpace::sweep(model);
    std::printf("%zu design points; cycles in [%lld, %lld]; LUTs in "
                "[%lld, %lld]\n\n",
                space.size(),
                static_cast<long long>(space.min_cycles()),
                static_cast<long long>(space.max_cycles()),
                static_cast<long long>(space.min_luts()),
                static_cast<long long>(space.max_luts()));

    std::printf("Pareto frontier (latency vs LUTs):\n");
    std::printf("  %-28s %10s %12s %8s\n", "knobs", "cycles", "LUTs",
                "DSPs");
    for (const core::DesignPoint &p : space.pareto_frontier()) {
        std::printf("  %-28s %10lld %12lld %8lld\n",
                    p.params.to_string().c_str(),
                    static_cast<long long>(p.cycles),
                    static_cast<long long>(p.resources.luts),
                    static_cast<long long>(p.resources.dsps));
    }

    std::printf("\nAllocation strategies (paper Fig. 13):\n");
    std::printf("  %-16s %-28s %10s %12s %s\n", "strategy", "knobs",
                "cycles", "LUTs", "min-lat?");
    for (sched::AllocationStrategy strategy : sched::all_strategies()) {
        const auto eval = core::evaluate_strategy(model, strategy, space);
        std::printf("  %-16s %-28s %10lld %12lld %s\n",
                    sched::to_string(strategy),
                    eval.params.to_string().c_str(),
                    static_cast<long long>(eval.cycles),
                    static_cast<long long>(eval.resources.luts),
                    eval.meets_minimum_latency ? "yes" : "no");
    }
    const auto opt = space.optimal_min_latency();
    std::printf("  %-16s %-28s %10lld %12lld yes\n", "Optimal",
                opt.params.to_string().c_str(),
                static_cast<long long>(opt.cycles),
                static_cast<long long>(opt.resources.luts));

    std::printf("\nPlatform-constrained optima (80%% utilization):\n");
    for (const accel::FpgaPlatform *platform :
         {&accel::vcu118(), &accel::vc707()}) {
        const auto best = space.constrained_min_latency(*platform);
        const auto maxalloc = space.max_allocation(*platform);
        if (!best) {
            std::printf("  %-16s no feasible design point\n",
                        platform->name.c_str());
            continue;
        }
        std::printf("  %-16s best: %s -> %lld cycles, %.1f%% LUTs\n",
                    platform->name.c_str(),
                    best->params.to_string().c_str(),
                    static_cast<long long>(best->cycles),
                    best->resources.lut_utilization(*platform) * 100.0);
        if (maxalloc) {
            std::printf("  %-16s max-alloc: %s -> %lld cycles, %.1f%% "
                        "LUTs\n",
                        "", maxalloc->params.to_string().c_str(),
                        static_cast<long long>(maxalloc->cycles),
                        maxalloc->resources.lut_utilization(*platform) *
                            100.0);
        }
    }
    return 0;
}
