/**
 * @file
 * Reproduces paper Fig. 12: the full design space of every robot — point
 * counts, latency and LUT ranges, and the latency/LUT Pareto frontier
 * (the figure's red crosses), printed as normalized series.
 */

#include <climits>

#include "bench/bench_util.h"
#include "core/design_space.h"

int
main(int argc, char **argv)
{
    using namespace roboshape;
    const std::string json = bench::json_out_path(argc, argv);
    obs::RunReport report("fig12_design_space",
                          "Fig. 12: Design spaces and Pareto frontiers");
    bench::print_header(
        "Fig. 12: Design spaces and Pareto frontiers per robot",
        "paper Fig. 12 (1000s of points; max latencies 829-7230 cycles; "
        "max LUTs 507k-2600k)");

    long long min_of_max_lat = LLONG_MAX, max_of_max_lat = 0;
    long long min_of_max_lut = LLONG_MAX, max_of_max_lut = 0;
    for (topology::RobotId id : topology::all_robots()) {
        const topology::RobotModel model = topology::build_robot(id);
        const core::DesignSpace space = core::DesignSpace::sweep(model);
        const auto frontier = space.pareto_frontier();

        std::printf("\n%-8s: %4zu points, cycles [%lld..%lld], LUTs "
                    "[%lldk..%lldk], frontier %zu pts\n",
                    topology::robot_name(id), space.size(),
                    static_cast<long long>(space.min_cycles()),
                    static_cast<long long>(space.max_cycles()),
                    static_cast<long long>(space.min_luts() / 1000),
                    static_cast<long long>(space.max_luts() / 1000),
                    frontier.size());
        std::printf("  frontier (normLUTs, normLat):");
        for (const core::DesignPoint &p : frontier) {
            std::printf(" (%.2f,%.2f)",
                        static_cast<double>(p.resources.luts) /
                            static_cast<double>(space.max_luts()),
                        static_cast<double>(p.cycles) /
                            static_cast<double>(space.max_cycles()));
        }
        std::printf("\n");
        const std::string key = topology::robot_name(id);
        report.metric(key + ".points", space.size());
        report.metric(key + ".min_cycles",
                      static_cast<std::int64_t>(space.min_cycles()));
        report.metric(key + ".max_cycles",
                      static_cast<std::int64_t>(space.max_cycles()));
        report.metric(key + ".max_luts",
                      static_cast<std::int64_t>(space.max_luts()));
        report.metric(key + ".frontier_points", frontier.size());
        min_of_max_lat = std::min(
            min_of_max_lat, static_cast<long long>(space.max_cycles()));
        max_of_max_lat = std::max(
            max_of_max_lat, static_cast<long long>(space.max_cycles()));
        min_of_max_lut = std::min(
            min_of_max_lut, static_cast<long long>(space.max_luts()));
        max_of_max_lut = std::max(
            max_of_max_lut, static_cast<long long>(space.max_luts()));
    }
    std::printf("\nmaximum latencies across robots: %lld-%lld cycles "
                "(paper: 829-7230)\n",
                min_of_max_lat, max_of_max_lat);
    std::printf("maximum LUTs across robots: %lldk-%lldk (paper: "
                "507k-2600k)\n",
                min_of_max_lut / 1000, max_of_max_lut / 1000);
    return bench::write_report(report, json) ? 0 : 1;
}
