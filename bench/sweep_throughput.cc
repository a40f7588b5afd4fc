/**
 * @file
 * Design-space sweep throughput: the memoized + threaded sweep against the
 * reference serial per-design construction (what DesignSpace::sweep did
 * before the SweepContext existed).
 *
 * Covers every library robot (paper Table 3 six plus the extended fleet)
 * and a parametric hyper-redundant arm, verifies the two sweeps produce
 * point-for-point identical DesignPoints, and emits machine-readable JSON
 * on stdout so successive PRs can track the throughput trajectory.
 * EXPERIMENTS.md ("Design-space sweep performance") explains the fields.
 *
 * Flags:
 *   --serial-all    run the serial reference on every robot (by default it
 *                   is skipped above N=19, where it takes minutes)
 *   --json <path>   also write the JSON document to a file
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/design_space.h"
#include "core/executor.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "topology/parametric_robots.h"
#include "topology/robot_library.h"

namespace {

using roboshape::core::DesignPoint;
using roboshape::core::DesignSpace;

/** The pre-SweepContext sweep: one full AcceleratorDesign per triple. */
std::vector<DesignPoint>
serial_reference_sweep(const roboshape::topology::RobotModel &model)
{
    std::vector<DesignPoint> points;
    const std::size_t n = model.num_links();
    points.reserve(n * n * n);
    for (std::size_t pf = 1; pf <= n; ++pf) {
        for (std::size_t pb = 1; pb <= n; ++pb) {
            for (std::size_t b = 1; b <= n; ++b) {
                const roboshape::accel::AcceleratorDesign design(
                    model, {pf, pb, b});
                DesignPoint point;
                point.params = design.params();
                point.cycles = design.cycles_no_pipelining();
                point.latency_us = design.latency_us_no_pipelining();
                point.resources = design.resources();
                points.push_back(point);
            }
        }
    }
    return points;
}

bool
identical(const std::vector<DesignPoint> &a,
          const std::vector<DesignPoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].params == b[i].params) || a[i].cycles != b[i].cycles ||
            a[i].latency_us != b[i].latency_us ||
            a[i].resources.luts != b[i].resources.luts ||
            a[i].resources.dsps != b[i].resources.dsps)
            return false;
    }
    return true;
}

double
elapsed_ms(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct Row
{
    std::string name;
    std::size_t links = 0;
    std::size_t points = 0;
    double memoized_ms = 0.0;
    std::uint64_t memoized_list_calls = 0;
    std::uint64_t memoized_block_calls = 0;
    double serial_ms = -1.0; ///< < 0: reference not run.
    std::uint64_t serial_list_calls = 0;
    double speedup = 0.0;
    bool compared = false;
    bool identical_points = false;
};

Row
measure(const roboshape::topology::RobotModel &model, bool run_serial)
{
    // The registry counts every list- and block-scheduler run.
    const roboshape::obs::Counter &list_runs =
        roboshape::obs::registry().counter("sched.list_runs");
    const roboshape::obs::Counter &block_runs =
        roboshape::obs::registry().counter("sched.block_runs");

    Row row;
    row.name = model.name();
    row.links = model.num_links();

    const std::uint64_t list0 = list_runs.value();
    const std::uint64_t block0 = block_runs.value();
    const auto t0 = std::chrono::steady_clock::now();
    const DesignSpace space = DesignSpace::sweep(model);
    row.memoized_ms = elapsed_ms(t0);
    row.memoized_list_calls = list_runs.value() - list0;
    row.memoized_block_calls = block_runs.value() - block0;
    row.points = space.size();

    if (run_serial) {
        const std::uint64_t list1 = list_runs.value();
        const auto t1 = std::chrono::steady_clock::now();
        const std::vector<DesignPoint> reference =
            serial_reference_sweep(model);
        row.serial_ms = elapsed_ms(t1);
        row.serial_list_calls = list_runs.value() - list1;
        row.speedup = row.serial_ms / std::max(row.memoized_ms, 1e-6);
        row.compared = true;
        row.identical_points = identical(space.points(), reference);
    }
    return row;
}

void
write_row_json(roboshape::obs::JsonWriter &w, const Row &row)
{
    w.begin_object();
    w.kv("name", std::string_view(row.name));
    w.kv("links", static_cast<std::uint64_t>(row.links));
    w.kv("points", static_cast<std::uint64_t>(row.points));
    w.kv("memoized_ms", row.memoized_ms);
    w.kv("memoized_list_scheduler_calls", row.memoized_list_calls);
    w.kv("memoized_block_schedule_calls", row.memoized_block_calls);
    if (row.compared) {
        w.kv("serial_ms", row.serial_ms);
        w.kv("serial_list_scheduler_calls", row.serial_list_calls);
        w.kv("speedup", row.speedup);
        w.kv("identical_points", row.identical_points);
    } else {
        w.key("serial_ms").null();
        w.key("serial_list_scheduler_calls").null();
        w.key("speedup").null();
        w.key("identical_points").null();
    }
    w.end_object();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace roboshape;

    bool serial_all = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--serial-all") == 0)
            serial_all = true;
    const std::string json_path = bench::json_out_path(argc, argv);

    // The serial reference costs N^3 full design builds; above the paper's
    // largest robot (Baxter-class N=19) it takes minutes, so gate it.
    constexpr std::size_t kSerialLimit = 19;

    std::vector<topology::RobotModel> models;
    for (topology::RobotId id : topology::all_robots())
        models.push_back(topology::build_robot(id));
    for (topology::RobotId id : topology::extended_robots())
        models.push_back(topology::build_robot(id));
    // The scaling frontier (paper Sec. 3.3): a 30-segment rigid-body
    // discretization of a continuum/hyper-redundant arm.
    models.push_back(topology::make_serial_chain(30, "hyper30"));

    obs::JsonWriter w(2);
    w.begin_object();
    w.kv("bench", "sweep_throughput");
    w.kv("sweep_workers",
         static_cast<std::uint64_t>(
             core::Executor::instance().worker_count()));
    w.key("robots").begin_array();
    bool all_identical = true;
    for (std::size_t i = 0; i < models.size(); ++i) {
        const bool run_serial =
            serial_all || models[i].num_links() <= kSerialLimit;
        const Row row = measure(models[i], run_serial);
        if (row.compared && !row.identical_points)
            all_identical = false;
        write_row_json(w, row);
    }
    w.end_array();
    w.kv("all_compared_identical", all_identical);
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
    return all_identical ? 0 : 1;
}
