/**
 * @file
 * Driver of the repo benchmark (perfbench/README.md).
 *
 *   roboshape_perfbench --workload <name> --seed <n> --seconds <s>
 *                       --trace <0|1> --out-dir <dir>
 *
 * Runs one workload in this process and prints a human summary, then as
 * the last line one `roboshape.perfbench_result/1` document: provenance,
 * the op counts, every metric the run measured (end-to-end ones, or with
 * --trace 1 per-layer ones) and further details.  perfbench/run.py turns
 * it into the result object that BENCHMARK.json defines.
 *
 * Exit status: 0 with a document; 2 on bad arguments; 3 when the run is
 * invalid (its span file cannot be written or is not valid JSON) — then
 * no document is printed.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "accel/simd_lanes.h"
#include "core/executor.h"
#include "core/parse_uint.h"
#include "obs/json.h"
#include "obs/run_report.h"
#include "workloads.h"

namespace {

using namespace roboshape;
using perfbench::Metric;
using perfbench::Outcome;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "roboshape_perfbench: %s\nusage: roboshape_perfbench "
                 "--workload design_cold|ilqr_stream|mpc_batch "
                 "--seed N --seconds N --trace 0|1 --out-dir DIR\n",
                 why);
    return 2;
}

/** Raw environment value for the provenance block; never parsed. */
std::string
env_or_empty(const char *name)
{
    const char *v = std::getenv(name); // NOLINT(banned-env-raw)
    return v == nullptr ? "" : v;
}

void
write_provenance(obs::JsonWriter &w, const perfbench::Options &options)
{
    const accel::simd::LaneBackend &lanes = accel::simd::lane_backend();
    w.key("provenance").begin_object();
    w.kv("nproc", static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
    w.kv("lane_backend", lanes.name);
    w.kv("lane_width", static_cast<std::uint64_t>(lanes.width));
    w.kv("executor_width", static_cast<std::uint64_t>(
                               core::Executor::instance().worker_count()));
    w.kv("compiler", PERFBENCH_COMPILER);
    w.kv("build_type", PERFBENCH_BUILD_TYPE);
#ifdef ROBOSHAPE_NO_OBS
    w.kv("obs_compiled", false);
#else
    w.kv("obs_compiled", true);
#endif
#ifdef ROBOSHAPE_NO_SIMD
    w.kv("simd_compiled", false);
#else
    w.kv("simd_compiled", true);
#endif
    w.kv("env_ROBOSHAPE_OBS", env_or_empty("ROBOSHAPE_OBS"));
    w.kv("env_ROBOSHAPE_SIMD", env_or_empty("ROBOSHAPE_SIMD"));
    w.kv("env_ROBOSHAPE_THREADS", env_or_empty("ROBOSHAPE_THREADS"));
    w.kv("git_sha", obs::git_sha());
    w.kv("seed", options.seed);
    w.end_object();
}

void
write_metrics(obs::JsonWriter &w, const char *key,
              const std::vector<Metric> &metrics)
{
    w.key(key).begin_object();
    for (const Metric &m : metrics) {
        w.key(m.name).begin_object();
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.end_object();
    }
    w.end_object();
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    bool have_trace = false, have_seed = false, have_seconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            const auto v = core::parse_uint(value);
            if (!v)
                return usage("--seed must be an unsigned integer");
            options.seed = *v;
            have_seed = true;
        } else if (flag == "--seconds") {
            const auto v = core::parse_uint(value, 1, 3600);
            if (!v)
                return usage("--seconds must be an integer in [1, 3600]");
            options.seconds = static_cast<double>(*v);
            have_seconds = true;
        } else if (flag == "--trace") {
            const auto v = core::parse_uint(value, 0, 1);
            if (!v)
                return usage("--trace must be 0 or 1");
            options.trace = *v == 1;
            have_trace = true;
        } else if (flag == "--out-dir") {
            options.out_dir = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
        options.out_dir.empty())
        return usage("missing arguments");

    const perfbench::HostTicks ticks_before = perfbench::host_ticks();
    Outcome out;
    if (options.workload == "design_cold") {
        out = perfbench::run_design_cold(options);
    } else if (options.workload == "ilqr_stream") {
        out = perfbench::run_ilqr_stream(options);
    } else if (options.workload == "mpc_batch") {
        out = perfbench::run_mpc_batch(options);
    } else {
        return usage(("unknown workload '" + options.workload + "'").c_str());
    }

    const perfbench::HostTicks ticks_after = perfbench::host_ticks();
    const std::uint64_t total = ticks_after.total - ticks_before.total;
    out.note("host.steal_share", "ratio",
             total == 0 ? 0.0
                        : static_cast<double>(ticks_after.steal -
                                              ticks_before.steal) /
                              static_cast<double>(total));

    obs::JsonWriter doc;
    doc.begin_object();
    doc.kv("schema", "roboshape.perfbench_result/1");
    doc.kv("workload", options.workload);
    doc.kv("seconds", options.seconds);
    doc.kv("trace", options.trace);
    write_provenance(doc, options);
    doc.kv("attempted", out.attempted);
    doc.kv("failed", out.failed);
    write_metrics(doc, "metrics", out.metrics);
    write_metrics(doc, "details", out.extra);
    doc.key("layer_self_time_us").begin_object();
    for (const auto &[layer, us] : out.layer_self_us)
        doc.kv(layer, us);
    doc.end_object();
    if (!out.trace_path.empty())
        doc.kv("trace_file", out.trace_path);
    doc.key("failures").begin_array();
    for (const std::string &why : out.failures)
        doc.value(why);
    doc.end_array();
    doc.end_object();

    std::printf("workload %s seed %llu: %llu ops attempted, %llu failed\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (const std::vector<Metric> *list : {&out.metrics, &out.extra})
        for (const Metric &m : *list)
            std::printf("  %-32s %14.3f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    for (const std::string &why : out.failures)
        std::printf("  FAILED: %s\n", why.c_str());
    if (!out.misconfigured.empty()) {
        std::fprintf(stderr, "roboshape_perfbench: invalid run: %s\n",
                     out.misconfigured.c_str());
        return 3;
    }
    std::printf("%s\n", doc.str().c_str());
    return 0;
}
