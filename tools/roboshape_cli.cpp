/**
 * @file
 * The `roboshape` command-line tool: the front door of the generator flow.
 *
 *   roboshape info  <robot.urdf>                 topology + Table-3 metrics
 *   roboshape gen   <robot.urdf> [options]       generate + report
 *   roboshape sweep <robot.urdf> [options]       design space + Pareto CSV
 *   roboshape rtl   <robot.urdf> <out_dir> [...] emit Verilog bundle
 *   roboshape trace <robot.urdf|--robot NAME> [--out t.json]
 *                                                Chrome trace of the schedule
 *   roboshape stats <robot.urdf|--robot NAME> [--out report.json]
 *                                                counter registry snapshot
 *   roboshape serve [--port N] [--threads N] [--queue N]
 *                                                roboshaped HTTP daemon
 *
 * Options:
 *   --platform vcu118|vc707      resource envelope (default vcu118)
 *   --pes-fwd N / --pes-bwd N / --block N   explicit knob caps
 *   --kernel gradient|crba|kinematics       kernel family (default gradient)
 *   --timeline                   print the ASCII schedule timeline (gen)
 *   --robot NAME                 library robot instead of a URDF file
 *                                (iiwa, HyQ, Baxter, ... — trace/stats)
 *   --out PATH                   artifact destination (trace/stats)
 *   --format text|prometheus     stats: human table or Prometheus text
 *                                exposition (same encoder as GET /metrics)
 *   --port N                     serve: listen port (0 = ephemeral)
 *   --threads N / --queue N      serve: worker pool / admission queue
 *   --access-log PATH            serve: JSON-lines access log
 *   --slow-ms N                  serve: slow-request threshold (default 1000)
 *
 * While serving, SIGUSR1 dumps the flight recorder (the last N request
 * summaries, service/flight_recorder.h) to stderr without stopping.
 *
 * Every numeric flag goes through core::parse_uint — "4abc", "-1", and
 * overflowing values are hard errors naming the flag, never silent
 * truncation (docs/SERVICE.md covers the bug class).
 */

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "accel/sim_engine.h"
#include "codegen/verilog_emitter.h"
#include "core/design_space.h"
#include "core/design_export.h"
#include "core/generator.h"
#include "core/parse_uint.h"
#include "core/sweep_context.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "io/payload.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "obs/trace_export.h"
#include "sched/timeline.h"
#include "service/flight_recorder.h"
#include "service/server.h"
#include "topology/robot_library.h"
#include "topology/topology_info.h"
#include "topology/urdf_parser.h"

namespace {

using namespace roboshape;

struct CliOptions
{
    std::string command;
    std::string urdf_path;
    std::string out_dir;
    std::string robot;    ///< Library robot name (trace/stats).
    std::string out_path; ///< --out artifact path (trace/stats).
    std::string format = "text"; ///< stats: "text" or "prometheus".
    std::string access_log_path; ///< serve: JSON-lines access log.
    const accel::FpgaPlatform *platform = &accel::vcu118();
    core::GeneratorConstraints constraints;
    sched::KernelKind kernel = sched::KernelKind::kDynamicsGradient;
    bool timeline = false;
    bool json = false;
    std::size_t port = 8080;      ///< serve: listen port (0 = ephemeral).
    std::size_t threads = 4;      ///< serve: worker pool size.
    std::size_t queue = 64;       ///< serve: admission-queue capacity.
    std::size_t slow_ms = 1000;   ///< serve: slow-request threshold (ms).
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: roboshape <info|gen|sweep|rtl|trace|stats|serve> "
                 "<robot.urdf> [out_dir] [--platform vcu118|vc707]\n"
                 "                 [--pes-fwd N] [--pes-bwd N] [--block N] "
                 "[--kernel gradient|crba|kinematics]\n"
                 "                 [--timeline] [--json] [--robot NAME] "
                 "[--out PATH] [--format text|prometheus]\n"
                 "                 [--port N] [--threads N] [--queue N] "
                 "[--access-log PATH] [--slow-ms N]\n");
    return 2;
}

/**
 * Strict numeric-flag parse via core::parse_uint.  Failures name the
 * flag and the offending token on stderr — "roboshape gen x.urdf
 * --pes-fwd 4abc" must die loudly, not run with 4 PEs.
 */
std::optional<std::size_t>
parse_flag_uint(const std::string &flag, const char *value,
                std::uint64_t min, std::uint64_t max)
{
    if (!value) {
        std::fprintf(stderr, "error: %s requires a value\n", flag.c_str());
        return std::nullopt;
    }
    const std::optional<std::uint64_t> parsed =
        core::parse_uint(value, min, max);
    if (!parsed) {
        std::fprintf(stderr,
                     "error: invalid value '%s' for %s (expected an "
                     "unsigned integer in [%llu, %llu])\n",
                     value, flag.c_str(),
                     static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max));
        return std::nullopt;
    }
    return static_cast<std::size_t>(*parsed);
}

std::optional<CliOptions>
parse_args(int argc, char **argv)
{
    if (argc < 2)
        return std::nullopt;
    CliOptions opt;
    opt.command = argv[1];
    const bool known_command =
        opt.command == "info" || opt.command == "gen" ||
        opt.command == "sweep" || opt.command == "rtl" ||
        opt.command == "trace" || opt.command == "stats" ||
        opt.command == "serve";
    if (!known_command) {
        std::fprintf(stderr, "error: unknown command '%s'\n",
                     opt.command.c_str());
        return std::nullopt;
    }
    // trace/stats take --robot NAME in place of the URDF positional, and
    // serve takes no robot at all; for them argv[2] is only a path when
    // it is not an option.
    const bool positional_optional = opt.command == "trace" ||
                                     opt.command == "stats" ||
                                     opt.command == "serve";
    int first = 2;
    if (argc >= 3 && argv[2][0] != '-') {
        opt.urdf_path = argv[2];
        first = 3;
    } else if (!positional_optional) {
        std::fprintf(stderr,
                     "error: command '%s' requires a <robot.urdf> path\n",
                     opt.command.c_str());
        return std::nullopt;
    }
    int positional = 0;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const auto knob = [&](std::uint64_t min, std::uint64_t max) {
            return parse_flag_uint(arg, next(), min, max);
        };
        if (arg == "--platform") {
            const char *v = next();
            if (!v) {
                std::fprintf(stderr, "error: --platform requires a value\n");
                return std::nullopt;
            }
            if (std::strcmp(v, "vcu118") == 0) {
                opt.platform = &accel::vcu118();
            } else if (std::strcmp(v, "vc707") == 0) {
                opt.platform = &accel::vc707();
            } else {
                std::fprintf(stderr,
                             "error: unknown platform '%s' (expected "
                             "vcu118|vc707)\n",
                             v);
                return std::nullopt;
            }
        } else if (arg == "--pes-fwd") {
            const auto v = knob(1, 4096);
            if (!v)
                return std::nullopt;
            opt.constraints.max_pes_fwd = *v;
        } else if (arg == "--pes-bwd") {
            const auto v = knob(1, 4096);
            if (!v)
                return std::nullopt;
            opt.constraints.max_pes_bwd = *v;
        } else if (arg == "--block") {
            const auto v = knob(1, 4096);
            if (!v)
                return std::nullopt;
            opt.constraints.max_block_size = *v;
        } else if (arg == "--port") {
            const auto v = knob(0, 65535);
            if (!v)
                return std::nullopt;
            opt.port = *v;
        } else if (arg == "--threads") {
            const auto v = knob(1, 64);
            if (!v)
                return std::nullopt;
            opt.threads = *v;
        } else if (arg == "--queue") {
            const auto v = knob(1, 4096);
            if (!v)
                return std::nullopt;
            opt.queue = *v;
        } else if (arg == "--slow-ms") {
            const auto v = knob(1, 3600000);
            if (!v)
                return std::nullopt;
            opt.slow_ms = *v;
        } else if (arg == "--access-log") {
            const char *v = next();
            if (!v) {
                std::fprintf(stderr,
                             "error: --access-log requires a value\n");
                return std::nullopt;
            }
            opt.access_log_path = v;
        } else if (arg == "--format") {
            const char *v = next();
            if (!v) {
                std::fprintf(stderr, "error: --format requires a value\n");
                return std::nullopt;
            }
            if (std::strcmp(v, "text") != 0 &&
                std::strcmp(v, "prometheus") != 0) {
                std::fprintf(stderr,
                             "error: unknown format '%s' (expected "
                             "text|prometheus)\n",
                             v);
                return std::nullopt;
            }
            opt.format = v;
        } else if (arg == "--kernel") {
            const char *v = next();
            if (!v) {
                std::fprintf(stderr, "error: --kernel requires a value\n");
                return std::nullopt;
            }
            if (std::strcmp(v, "gradient") == 0) {
                opt.kernel = sched::KernelKind::kDynamicsGradient;
            } else if (std::strcmp(v, "crba") == 0) {
                opt.kernel = sched::KernelKind::kMassMatrix;
            } else if (std::strcmp(v, "kinematics") == 0) {
                opt.kernel = sched::KernelKind::kForwardKinematics;
            } else {
                std::fprintf(stderr,
                             "error: unknown kernel '%s' (expected "
                             "gradient|crba|kinematics)\n",
                             v);
                return std::nullopt;
            }
        } else if (arg == "--timeline") {
            opt.timeline = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--robot") {
            const char *v = next();
            if (!v) {
                std::fprintf(stderr, "error: --robot requires a value\n");
                return std::nullopt;
            }
            opt.robot = v;
        } else if (arg == "--out") {
            const char *v = next();
            if (!v) {
                std::fprintf(stderr, "error: --out requires a value\n");
                return std::nullopt;
            }
            opt.out_path = v;
        } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         arg.c_str());
            return std::nullopt;
        } else if (positional == 0) {
            opt.out_dir = arg;
            ++positional;
        } else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            return std::nullopt;
        }
    }
    opt.constraints.platform = opt.platform;
    return opt;
}

int
cmd_info(const topology::RobotModel &model)
{
    const topology::TopologyInfo topo(model);
    const topology::TopologyMetrics m = topo.metrics();
    std::printf("robot: %s\n", model.name().c_str());
    std::printf("  total links       %zu\n", m.total_links);
    std::printf("  max leaf depth    %zu\n", m.max_leaf_depth);
    std::printf("  avg leaf depth    %.2f\n", m.avg_leaf_depth);
    std::printf("  max descendants   %zu\n", m.max_descendants);
    std::printf("  leaf depth stdev  %.2f\n", m.leaf_depth_stdev);
    std::printf("  independent limbs %zu\n", model.base_children().size());
    std::printf("  branch links      %zu\n", topo.branch_links().size());
    std::printf("  mass matrix       %.0f%% sparse, %.2fx sparse-I/O "
                "compression\n",
                topo.mass_matrix_sparsity() * 100.0,
                io::compression_ratio(topo));
    std::printf("  links:\n");
    for (std::size_t i = 0; i < model.num_links(); ++i) {
        const auto &l = model.link(i);
        std::printf("    [%2zu] %-24s parent=%2d joint=%s depth=%zu\n", i,
                    l.name.c_str(), l.parent,
                    spatial::to_string(l.joint.type()), topo.depth(i));
    }
    return 0;
}

int
cmd_gen(const topology::RobotModel &model, const CliOptions &opt)
{
    const core::Generator generator;
    const auto out = generator.from_model(model, opt.constraints);
    if (opt.json) {
        std::fputs(core::design_to_json(out.design).c_str(), stdout);
        return 0;
    }
    std::fputs(out.report.c_str(), stdout);
    if (opt.timeline) {
        std::printf("\nforward-stage timeline:\n%s",
                    sched::render_timeline(out.design.task_graph(),
                                           out.design.forward_stage())
                        .c_str());
        std::printf("\nbackward-stage timeline:\n%s",
                    sched::render_timeline(out.design.task_graph(),
                                           out.design.backward_stage())
                        .c_str());
    }
    return 0;
}

int
cmd_sweep(const topology::RobotModel &model, const CliOptions &opt)
{
    const core::DesignSpace space =
        core::DesignSpace::sweep(model, accel::default_timing(), opt.kernel);
    std::printf("# %zu design points for %s (%s)\n", space.size(),
                model.name().c_str(), to_string(opt.kernel));
    std::printf("pes_fwd,pes_bwd,block,cycles,latency_us,luts,dsps,"
                "fits_%s\n",
                opt.platform == &accel::vc707() ? "vc707" : "vcu118");
    for (const core::DesignPoint &p : space.pareto_frontier()) {
        std::printf("%zu,%zu,%zu,%lld,%.3f,%lld,%lld,%d\n",
                    p.params.pes_fwd, p.params.pes_bwd,
                    p.params.block_size, static_cast<long long>(p.cycles),
                    p.latency_us, static_cast<long long>(p.resources.luts),
                    static_cast<long long>(p.resources.dsps),
                    p.resources.fits(*opt.platform) ? 1 : 0);
    }
    return 0;
}

int
cmd_rtl(const topology::RobotModel &model, const CliOptions &opt)
{
    if (opt.out_dir.empty()) {
        std::fprintf(stderr, "rtl requires an output directory\n");
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", opt.out_dir.c_str(),
                     ec.message().c_str());
        return 1;
    }
    const core::Generator generator;
    const auto out = generator.from_model(model, opt.constraints);
    const std::string base =
        opt.out_dir + "/" + codegen::module_name(out.design);
    std::ofstream(base + ".v") << codegen::emit_verilog(out.design);
    std::ofstream(base + "_tb.v") << codegen::emit_testbench(out.design);
    std::ofstream(opt.out_dir + "/roboshape_cells.v")
        << codegen::emit_cell_library();
    std::printf("%s\n%s.v\n%s_tb.v\n%s/roboshape_cells.v\n",
                out.report.c_str(), base.c_str(), base.c_str(),
                opt.out_dir.c_str());
    return 0;
}

int
cmd_trace(const topology::RobotModel &model, const CliOptions &opt)
{
    core::SweepContext ctx(model, accel::default_timing(), opt.kernel);
    const accel::AcceleratorParams params = ctx.capped_params(
        opt.constraints.max_pes_fwd, opt.constraints.max_pes_bwd,
        opt.constraints.max_block_size);
    const accel::AcceleratorDesign design = ctx.design(params);
    const sched::Schedule &schedule = design.pipelined();

    obs::ScheduleTraceOptions topt;
    topt.robot = model.name();
    topt.kernel = to_string(opt.kernel);
    topt.clock_period_ns = ctx.clock_period_ns();
    const std::string json =
        obs::schedule_trace_json(design.task_graph(), schedule, topt);

    std::string err;
    if (!obs::validate_json(json, &err)) {
        std::fprintf(stderr, "internal error: emitted trace is not valid "
                             "JSON: %s\n",
                     err.c_str());
        return 1;
    }

    if (opt.out_path.empty()) {
        std::fputs(json.c_str(), stdout);
        return 0;
    }
    std::ofstream f(opt.out_path, std::ios::binary);
    f << json;
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
        return 1;
    }

    // Per-PE accounting summary + the tiling invariant the golden tests
    // also assert: busy + stall + idle == makespan on every track.
    std::printf("trace: %s (%s, pes_fwd=%zu pes_bwd=%zu block=%zu) -> %s\n",
                model.name().c_str(), to_string(opt.kernel), params.pes_fwd,
                params.pes_bwd, params.block_size, opt.out_path.c_str());
    std::printf("makespan: %lld cycles\n",
                static_cast<long long>(schedule.makespan));
    bool exact = true;
    for (const obs::PeAccount &a :
         obs::account_schedule(design.task_graph(), schedule)) {
        std::printf("  %s%d: busy=%lld stall=%lld idle=%lld\n",
                    a.pe_class == sched::PeClass::kForward ? "fwd" : "bwd",
                    a.pe, static_cast<long long>(a.busy),
                    static_cast<long long>(a.stall),
                    static_cast<long long>(a.idle));
        exact = exact && a.total() == schedule.makespan;
    }
    if (!exact) {
        std::fprintf(stderr, "internal error: busy+stall+idle != makespan\n");
        return 1;
    }
    return 0;
}

int
cmd_stats(const topology::RobotModel &model, const CliOptions &opt)
{
    // A representative workload: sweep the whole design space, build the
    // chosen design, and stream a small batch through the compiled engine
    // — touching every instrumented subsystem so the snapshot below is
    // meaningful.
    const core::DesignSpace space =
        core::DesignSpace::sweep(std::make_shared<core::SweepContext>(
            model, accel::default_timing(), opt.kernel));
    core::SweepContext &ctx = *space.context();
    const accel::AcceleratorParams params = ctx.capped_params(
        opt.constraints.max_pes_fwd, opt.constraints.max_pes_bwd,
        opt.constraints.max_block_size);
    const accel::AcceleratorDesign design = ctx.design(params);

    const accel::SimEngine engine(design);
    auto ws = engine.make_workspace();
    accel::EngineResult result;
    constexpr std::size_t kPackets = 8;
    const topology::TopologyInfo &topo = ctx.topology();
    std::vector<linalg::Vector> q, qd, qdd;
    std::vector<linalg::Matrix> minv;
    for (std::size_t p = 0; p < kPackets; ++p) {
        const auto state =
            dynamics::random_state(model, 1234 + static_cast<int>(p));
        q.push_back(state.q);
        qd.push_back(state.qd);
        if (opt.kernel == sched::KernelKind::kDynamicsGradient) {
            const auto ref = dynamics::forward_dynamics_gradients(
                model, topo, state.q, state.qd, state.tau);
            qdd.push_back(ref.qdd);
            minv.push_back(ref.mass_inv);
        }
    }
    for (std::size_t p = 0; p < kPackets; ++p) {
        accel::InputPacket packet;
        packet.q = &q[p];
        packet.qd = &qd[p];
        if (opt.kernel == sched::KernelKind::kDynamicsGradient) {
            packet.qdd = &qdd[p];
            packet.minv = &minv[p];
        }
        engine.run(ws, packet, result);
    }

    const core::SweepMemoStats memo = ctx.memo_stats();
    if (opt.format == "prometheus") {
        // Machine-readable mode: the exact encoder roboshaped serves on
        // GET /metrics, so scrape pipelines and offline runs agree.
        std::fputs(obs::prometheus_exposition().c_str(), stdout);
    } else {
        std::printf("stats: %s (%s, pes_fwd=%zu pes_bwd=%zu block=%zu)\n",
                    model.name().c_str(), to_string(opt.kernel),
                    params.pes_fwd, params.pes_bwd, params.block_size);
        std::printf("sweep memoization: %llu hits / %llu misses\n",
                    static_cast<unsigned long long>(memo.hits()),
                    static_cast<unsigned long long>(memo.misses()));
        std::printf("counters:\n");
        for (const obs::CounterSample &c : obs::registry().counters())
            std::printf("  %-32s %llu\n", c.name.c_str(),
                        static_cast<unsigned long long>(c.value));
        std::printf("histograms:\n");
        for (const obs::HistogramSample &h : obs::registry().histograms())
            std::printf("  %-32s count=%llu mean=%.1f min=%lld max=%lld "
                        "p50=%lld p99=%lld\n",
                        h.name.c_str(),
                        static_cast<unsigned long long>(h.stats.count),
                        h.stats.mean(), static_cast<long long>(h.stats.min),
                        static_cast<long long>(h.stats.max),
                        static_cast<long long>(h.stats.p50()),
                        static_cast<long long>(h.stats.p99()));
    }

    if (!opt.out_path.empty()) {
        obs::RunReport report("roboshape_cli", "stats");
        report.set_robot(model.name());
        report.set_kernel(to_string(opt.kernel));
        report.set_params(params.pes_fwd, params.pes_bwd,
                          params.block_size);
        report.metric("pipelined_makespan_cycles",
                      static_cast<std::int64_t>(design.pipelined().makespan));
        report.metric("staged_cycles", static_cast<std::int64_t>(
                                           ctx.cycles_no_pipelining(params)));
        report.metric("engine_trace_ops", engine.trace_length());
        report.metric("memo_hits", memo.hits());
        report.metric("memo_misses", memo.misses());
        report.capture_counters();
        if (!report.write(opt.out_path)) {
            std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
            return 1;
        }
        // Keep stdout pure exposition text in prometheus mode.
        if (opt.format == "prometheus")
            std::fprintf(stderr, "report: %s\n", opt.out_path.c_str());
        else
            std::printf("report: %s\n", opt.out_path.c_str());
    }
    return 0;
}

volatile std::sig_atomic_t g_shutdown = 0;
volatile std::sig_atomic_t g_dump = 0;

void
on_shutdown_signal(int)
{
    g_shutdown = 1;
}

void
on_dump_signal(int)
{
    g_dump = 1;
}

int
cmd_serve(const CliOptions &opt)
{
    service::Service service;
    service::ServerOptions sopt;
    sopt.port = static_cast<std::uint16_t>(opt.port);
    sopt.workers = opt.threads;
    sopt.queue_capacity = opt.queue;
    sopt.access_log_path = opt.access_log_path;
    sopt.slow_ms = opt.slow_ms;
    service::Server server(service, sopt);
    if (!server.start()) {
        std::fprintf(stderr, "error: cannot start roboshaped: %s\n",
                     server.error().c_str());
        return 1;
    }
    std::printf("roboshaped listening on 127.0.0.1:%u "
                "(%zu workers, queue %zu)\n",
                static_cast<unsigned>(server.port()), opt.threads,
                opt.queue);
    std::fflush(stdout);

    std::signal(SIGINT, on_shutdown_signal);
    std::signal(SIGTERM, on_shutdown_signal);
    std::signal(SIGUSR1, on_dump_signal);
    // Socket writes already pass MSG_NOSIGNAL, but stdout/stderr may be
    // pipes owned by a supervisor that hangs up first; a dead log pipe
    // must not kill the daemon mid-drain.
    std::signal(SIGPIPE, SIG_IGN);
    while (!g_shutdown) {
        if (g_dump) {
            // SIGUSR1: post-mortem-without-the-mortem.  The handler only
            // sets a flag; the ring is snapshotted and serialized here,
            // on the main thread, where heap use is safe.
            g_dump = 0;
            const std::string dump = service::flight_recorder().dump_json();
            std::fputs("roboshaped: flight recorder dump follows\n",
                       stderr);
            std::fputs(dump.c_str(), stderr);
            std::fputc('\n', stderr);
            std::fflush(stderr);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    // Graceful drain: in-flight requests finish before stop() returns.
    server.stop();
    std::printf("roboshaped: drained and stopped\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = parse_args(argc, argv);
    if (!opt)
        return usage();

    if (opt->command == "serve")
        return cmd_serve(*opt);

    topology::RobotModel model;
    if (!opt->robot.empty()) {
        const auto id = topology::find_robot(opt->robot);
        if (!id) {
            std::fprintf(stderr, "error: unknown library robot '%s'\n",
                         opt->robot.c_str());
            return 1;
        }
        model = topology::build_robot(*id);
    } else if (!opt->urdf_path.empty()) {
        try {
            model = topology::parse_urdf_file(opt->urdf_path);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    } else {
        std::fprintf(stderr,
                     "error: command '%s' requires a <robot.urdf> path or "
                     "--robot NAME\n",
                     opt->command.c_str());
        return usage();
    }

    try {
        if (opt->command == "info")
            return cmd_info(model);
        if (opt->command == "gen")
            return cmd_gen(model, *opt);
        if (opt->command == "sweep")
            return cmd_sweep(model, *opt);
        if (opt->command == "rtl")
            return cmd_rtl(model, *opt);
        if (opt->command == "trace")
            return cmd_trace(model, *opt);
        if (opt->command == "stats")
            return cmd_stats(model, *opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    // Unreachable: parse_args validated the command.
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 opt->command.c_str());
    return usage();
}
