#include "service/handlers.h"

#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "accel/params.h"
#include "accel/platform.h"
#include "accel/resource_model.h"
#include "core/design_space.h"
#include "core/parse_uint.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "obs/wall_trace.h"
#include "service/flight_recorder.h"
#include "service/trace_vault.h"
#include "topology/robot_library.h"
#include "topology/urdf_parser.h"

namespace roboshape {
namespace service {

namespace {

using net::HttpRequest;
using net::HttpResponse;
using obs::JsonValue;

std::string
hash_hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
}

std::optional<sched::KernelKind>
resolve_kernel(const std::string &name)
{
    if (name == "gradient" || name == "dynamics-gradient")
        return sched::KernelKind::kDynamicsGradient;
    if (name == "crba" || name == "mass-matrix")
        return sched::KernelKind::kMassMatrix;
    if (name == "kinematics" || name == "forward-kinematics")
        return sched::KernelKind::kForwardKinematics;
    return std::nullopt;
}

/** Stable kernel tag used in responses and cache keys. */
const char *
kernel_tag(sched::KernelKind k)
{
    switch (k) {
      case sched::KernelKind::kDynamicsGradient: return "gradient";
      case sched::KernelKind::kMassMatrix: return "crba";
      case sched::KernelKind::kForwardKinematics: return "kinematics";
    }
    return "?";
}

void
write_diagnostics(obs::JsonWriter &w,
                  const topology::ValidationReport &report)
{
    w.kv("errors", static_cast<std::uint64_t>(report.error_count()));
    w.kv("warnings", static_cast<std::uint64_t>(report.warning_count()));
    w.key("diagnostics").begin_array();
    for (const topology::Diagnostic &d : report.diagnostics()) {
        w.begin_object();
        w.kv("severity", d.severity == topology::Severity::kError
                             ? "error"
                             : "warning");
        w.kv("code", topology::to_string(d.code));
        w.kv("line", static_cast<std::uint64_t>(d.location.line));
        w.kv("column", static_cast<std::uint64_t>(d.location.column));
        w.kv("message", d.message);
        w.end_object();
    }
    w.end_array();
}

/** 422 whose body is the full validation report. */
HttpResponse
invalid_urdf_response(const topology::ValidationReport &report)
{
    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", "roboshape.validate/1");
    w.kv("ok", false);
    w.kv("error", "URDF failed validation");
    write_diagnostics(w, report);
    w.end_object();
    return net::json_response(422, w.str());
}

/**
 * Parses a POST body that must be one JSON object.  Returns nullopt with
 * the 400 in @p error when the body is empty (@p missing_body_message),
 * is not valid JSON, or is some other JSON value.
 */
std::optional<JsonValue>
parse_object_body(const HttpRequest &request,
                  const char *missing_body_message, HttpResponse &error)
{
    if (request.body.empty()) {
        error = error_response(400, missing_body_message);
        return std::nullopt;
    }
    std::string parse_error;
    std::optional<JsonValue> body =
        obs::parse_json(request.body, &parse_error);
    if (!body || !body->is_object()) {
        error = error_response(
            400, body ? "request body must be a JSON object"
                      : "invalid JSON: " + parse_error);
        return std::nullopt;
    }
    return body;
}

/** Parsed, validated request context shared by the model endpoints. */
struct ResolvedRequest
{
    std::shared_ptr<const topology::RobotModel> model;
    std::uint64_t hash = 0; ///< model_hash(*model)
    sched::KernelKind kernel = sched::KernelKind::kDynamicsGradient;
    std::optional<std::size_t> max_pes_fwd;
    std::optional<std::size_t> max_pes_bwd;
    std::optional<std::size_t> max_block_size;
};

/**
 * Parses + validates one POST body.  Returns the failure response in
 * @p error when resolution fails.  @p allow_knobs gates the max_* keys
 * (they mean nothing for /v1/validate and /v1/sweep).  Inline URDF goes
 * through @p cache's text memo, so a text seen before is not parsed again.
 */
std::optional<ResolvedRequest>
resolve_request(const HttpRequest &request, bool allow_knobs,
                DesignCache &cache, HttpResponse &error)
{
    const std::optional<JsonValue> body = parse_object_body(
        request,
        "request body required: {\"robot\": name} or {\"urdf\": text}",
        error);
    if (!body)
        return std::nullopt;

    for (const auto &[key, value] : body->members()) {
        (void)value;
        const bool known =
            key == "robot" || key == "urdf" || key == "kernel" ||
            (allow_knobs &&
             (key == "max_pes_fwd" || key == "max_pes_bwd" ||
              key == "max_block_size"));
        if (!known) {
            error = error_response(400, "unknown request key '" + key +
                                            "'");
            return std::nullopt;
        }
    }

    ResolvedRequest out;
    if (const auto kernel_name = body->get_string("kernel")) {
        const auto kernel = resolve_kernel(*kernel_name);
        if (!kernel) {
            error = error_response(
                400, "unknown kernel '" + *kernel_name +
                         "' (expected gradient|crba|kinematics)");
            return std::nullopt;
        }
        out.kernel = *kernel;
    } else if (body->find("kernel")) {
        error = error_response(400, "'kernel' must be a string");
        return std::nullopt;
    }

    if (allow_knobs) {
        bool ok = true;
        const auto knob = [&](const char *key) {
            return body->get_uint(key, 1, 4096, ok);
        };
        const auto fwd = knob("max_pes_fwd");
        const auto bwd = knob("max_pes_bwd");
        const auto block = knob("max_block_size");
        if (!ok) {
            error = error_response(
                400, "knob caps must be integers in [1, 4096]");
            return std::nullopt;
        }
        if (fwd)
            out.max_pes_fwd = static_cast<std::size_t>(*fwd);
        if (bwd)
            out.max_pes_bwd = static_cast<std::size_t>(*bwd);
        if (block)
            out.max_block_size = static_cast<std::size_t>(*block);
    }

    const auto robot = body->get_string("robot");
    auto urdf = body->get_string("urdf");
    if ((robot && urdf) || (!robot && !urdf)) {
        error = error_response(
            400, "exactly one of 'robot' or 'urdf' is required");
        return std::nullopt;
    }
    if (robot) {
        const auto id = topology::find_robot(*robot);
        if (!id) {
            error = error_response(404, "unknown library robot '" +
                                            *robot + "'");
            return std::nullopt;
        }
        out.model = std::make_shared<const topology::RobotModel>(
            topology::build_robot(*id));
        out.hash = model_hash(*out.model);
        return out;
    }
    if (std::optional<ParsedUrdf> memo = cache.find_urdf(*urdf)) {
        out.model = std::move(memo->model);
        out.hash = memo->hash;
        return out;
    }
    // Untrusted URDF body: the PR 3 checked front end collects every
    // diagnostic; failures surface as a 422 validation report and are
    // never memoized.
    topology::UrdfParseResult parsed =
        topology::parse_urdf_checked(*urdf);
    if (!parsed.ok()) {
        error = invalid_urdf_response(parsed.report);
        return std::nullopt;
    }
    out.model = std::make_shared<const topology::RobotModel>(
        std::move(*parsed.model));
    out.hash = model_hash(*out.model);
    cache.remember_urdf(std::move(*urdf), {out.model, out.hash});
    return out;
}

HttpResponse
handle_healthz()
{
    obs::JsonWriter w;
    w.begin_object();
    w.kv("status", "ok");
    w.kv("service", "roboshaped");
    w.end_object();
    return net::json_response(200, w.str());
}

HttpResponse
handle_robots()
{
    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", "roboshape.robots/1");
    w.key("robots").begin_array();
    for (const auto &ids :
         {topology::all_robots(), topology::extended_robots()})
        for (topology::RobotId id : ids) {
            const topology::RobotModel model = topology::build_robot(id);
            w.begin_object();
            w.kv("name", topology::robot_name(id));
            w.kv("links", static_cast<std::uint64_t>(model.num_links()));
            w.kv("topology_hash", hash_hex(model_hash(model)));
            w.end_object();
        }
    w.end_array();
    w.end_object();
    return net::json_response(200, w.str());
}

HttpResponse
handle_validate(const HttpRequest &request)
{
    // /v1/validate reports rather than rejects: malformed URDF is a
    // *successful* validation request, so parse the body here instead of
    // going through resolve_request's 422 path.
    HttpResponse error;
    const std::optional<JsonValue> body =
        parse_object_body(request, "request body required", error);
    if (!body)
        return error;
    const auto robot = body->get_string("robot");
    const auto urdf = body->get_string("urdf");
    if ((robot && urdf) || (!robot && !urdf))
        return error_response(
            400, "exactly one of 'robot' or 'urdf' is required");

    std::string urdf_text;
    std::optional<topology::RobotId> library_id;
    if (robot) {
        library_id = topology::find_robot(*robot);
        if (!library_id)
            return error_response(404,
                                  "unknown library robot '" + *robot + "'");
        urdf_text = topology::robot_urdf(*library_id);
    } else {
        urdf_text = *urdf;
    }

    const topology::UrdfParseResult parsed =
        topology::parse_urdf_checked(urdf_text);
    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", "roboshape.validate/1");
    w.kv("ok", parsed.ok());
    if (parsed.ok()) {
        // Library robots hash their canonical in-memory model (what the
        // compute endpoints key on), not the URDF-rendered round trip —
        // the text render loses low double bits, and clients correlate
        // topology_hash across endpoints.
        const std::uint64_t hash =
            library_id ? model_hash(topology::build_robot(*library_id))
                       : model_hash(*parsed.model);
        w.kv("robot", parsed.model->name());
        w.kv("links",
             static_cast<std::uint64_t>(parsed.model->num_links()));
        w.kv("topology_hash", hash_hex(hash));
    }
    write_diagnostics(w, parsed.report);
    w.end_object();
    return net::json_response(200, w.str());
}

/** Sweeps @p context and renders the sweep body.  Entry mutex held. */
std::string
render_sweep_body(std::shared_ptr<core::SweepContext> context,
                  std::uint64_t hash)
{
    const core::DesignSpace space =
        core::DesignSpace::sweep(std::move(context));
    const core::SweepContext &ctx = *space.context();

    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", "roboshape.sweep/1");
    w.kv("robot", ctx.model().name());
    w.kv("kernel", kernel_tag(ctx.kernel()));
    w.kv("links", static_cast<std::uint64_t>(ctx.num_links()));
    w.kv("topology_hash", hash_hex(hash));
    w.kv("clock_period_ns", ctx.clock_period_ns());
    w.kv("total_points", static_cast<std::uint64_t>(space.size()));
    w.kv("min_cycles", space.min_cycles());
    w.kv("max_cycles", space.max_cycles());
    w.key("pareto").begin_array();
    for (const core::DesignPoint &p : space.pareto_frontier()) {
        w.begin_object();
        w.kv("pes_fwd", static_cast<std::uint64_t>(p.params.pes_fwd));
        w.kv("pes_bwd", static_cast<std::uint64_t>(p.params.pes_bwd));
        w.kv("block_size", static_cast<std::uint64_t>(p.params.block_size));
        w.kv("cycles", p.cycles);
        w.kv("latency_us", p.latency_us);
        w.kv("luts", p.resources.luts);
        w.kv("dsps", p.resources.dsps);
        w.kv("fits_vcu118", p.resources.fits(accel::vcu118()));
        w.kv("fits_vc707", p.resources.fits(accel::vc707()));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

/** Renders the design body for resolved params.  Entry mutex held. */
std::string
render_design_body(core::SweepContext &ctx,
                   const accel::AcceleratorParams &params,
                   std::uint64_t hash)
{
    const accel::AcceleratorDesign design = ctx.design(params);
    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", "roboshape.design/1");
    w.kv("robot", ctx.model().name());
    w.kv("kernel", kernel_tag(ctx.kernel()));
    w.kv("links", static_cast<std::uint64_t>(ctx.num_links()));
    w.kv("topology_hash", hash_hex(hash));
    w.key("params").begin_object();
    w.kv("pes_fwd", static_cast<std::uint64_t>(params.pes_fwd));
    w.kv("pes_bwd", static_cast<std::uint64_t>(params.pes_bwd));
    w.kv("block_size", static_cast<std::uint64_t>(params.block_size));
    w.end_object();
    w.key("cycles").begin_object();
    w.kv("no_pipelining", design.cycles_no_pipelining());
    w.kv("pipelined", design.cycles_pipelined());
    w.kv("overlapped", design.cycles_overlapped());
    w.end_object();
    w.kv("clock_period_ns", design.clock_period_ns());
    w.key("latency_us").begin_object();
    w.kv("no_pipelining", design.latency_us_no_pipelining());
    w.kv("pipelined", design.latency_us_pipelined());
    w.end_object();
    const accel::ResourceEstimate &r = design.resources();
    w.key("resources").begin_object();
    w.kv("luts", r.luts);
    w.kv("dsps", r.dsps);
    for (const accel::FpgaPlatform *platform :
         {&accel::vcu118(), &accel::vc707()}) {
        w.key(platform->name).begin_object();
        w.kv("fits", r.fits(*platform));
        w.kv("lut_utilization", r.lut_utilization(*platform));
        w.kv("dsp_utilization", r.dsp_utilization(*platform));
        w.end_object();
    }
    w.end_object();
    w.end_object();
    return w.str();
}

/** Response carrying non-JSON text (the Prometheus exposition). */
HttpResponse
text_response(int status, std::string body)
{
    HttpResponse r;
    r.status = status;
    r.reason = net::reason_phrase(status);
    r.set_header("Content-Type",
                 "text/plain; version=0.0.4; charset=utf-8");
    r.body = std::move(body);
    return r;
}

/** GET /metrics: the shared exposition encoder over the registry. */
HttpResponse
handle_metrics()
{
    return text_response(200, obs::prometheus_exposition());
}

/** GET /v1/statz: full registry snapshot with quantiles + provenance. */
HttpResponse
handle_statz(const DesignCache &cache)
{
    obs::JsonWriter w(2);
    w.begin_object();
    w.kv("schema", kMetricsDumpSchema);
    w.key("build").begin_object();
    w.kv("git_sha", obs::git_sha());
    w.kv("service", "roboshaped");
    w.end_object();
    w.kv("cache_entries", static_cast<std::uint64_t>(cache.size()));
    w.kv("wall_trace_enabled", obs::wall_trace_enabled());
    w.key("counters").begin_array();
    for (const obs::CounterSample &c : obs::registry().counters()) {
        w.begin_object();
        w.kv("name", c.name);
        w.kv("value", c.value);
        w.end_object();
    }
    w.end_array();
    w.key("histograms").begin_array();
    for (const obs::HistogramSample &h : obs::registry().histograms()) {
        w.begin_object();
        w.kv("name", h.name);
        w.kv("count", h.stats.count);
        w.kv("sum", h.stats.sum);
        w.kv("min", h.stats.min);
        w.kv("max", h.stats.max);
        w.kv("mean", h.stats.mean());
        w.kv("p50", h.stats.p50());
        w.kv("p90", h.stats.p90());
        w.kv("p99", h.stats.p99());
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return net::json_response(200, w.str());
}

/** {"enabled": bool} body of the trace-toggle endpoints. */
HttpResponse
trace_state_response()
{
    obs::JsonWriter w;
    w.begin_object();
    w.kv("enabled", obs::wall_trace_enabled());
    w.end_object();
    return net::json_response(200, w.str());
}

/** POST /v1/debug/trace: runtime wall-trace toggle. */
HttpResponse
handle_debug_trace_toggle(const HttpRequest &request)
{
    HttpResponse error;
    const std::optional<JsonValue> body = parse_object_body(
        request, "request body required: {\"enabled\": true|false}",
        error);
    if (!body)
        return error;
    const JsonValue *enabled = nullptr;
    for (const auto &[key, value] : body->members()) {
        if (key != "enabled")
            return error_response(400, "unknown request key '" + key +
                                           "'");
        enabled = &value;
    }
    if (enabled == nullptr || !enabled->is_bool())
        return error_response(400, "'enabled' must be a boolean");
    obs::set_wall_trace_enabled(enabled->as_bool());
    if (!enabled->as_bool())
        obs::clear_wall_trace();
    return trace_state_response();
}

/** GET /v1/debug/trace/last and /v1/debug/trace/<id>. */
HttpResponse
handle_debug_trace_dump(std::string_view suffix)
{
    std::shared_ptr<const std::string> dump;
    if (suffix == "last") {
        dump = trace_vault().last();
        if (!dump)
            return error_response(404, "no traced request yet (send one "
                                       "with X-Roboshape-Trace: 1)");
    } else {
        const std::optional<std::uint64_t> id = core::parse_uint(suffix);
        if (!id)
            return error_response(
                400, "trace id must be a decimal request id or 'last'");
        dump = trace_vault().find(*id);
        if (!dump)
            return error_response(404, "no trace recorded for request " +
                                           std::string(suffix));
    }
    return net::json_response(200, *dump);
}

/** GET /v1/debug/requests: the flight-recorder ring. */
HttpResponse
handle_debug_requests()
{
    return net::json_response(200, flight_recorder().dump_json());
}

/** Dispatch of everything under /v1/debug/. */
HttpResponse
handle_debug(const HttpRequest &request)
{
    const std::string &target = request.target;
    if (target == "/v1/debug/trace") {
        if (request.method == "POST")
            return handle_debug_trace_toggle(request);
        if (request.method == "GET")
            return trace_state_response();
        return error_response(405, "use GET or POST /v1/debug/trace");
    }
    const std::string_view prefix = "/v1/debug/trace/";
    if (target.size() > prefix.size() &&
        std::string_view(target).substr(0, prefix.size()) == prefix) {
        if (request.method != "GET")
            return error_response(405, "use GET " + target);
        return handle_debug_trace_dump(
            std::string_view(target).substr(prefix.size()));
    }
    if (target == "/v1/debug/requests") {
        if (request.method != "GET")
            return error_response(405, "use GET /v1/debug/requests");
        return handle_debug_requests();
    }
    return error_response(404, "no such endpoint: " + target);
}

} // namespace

Endpoint
classify_endpoint(std::string_view target) noexcept
{
    if (target == "/healthz")
        return Endpoint::kHealthz;
    if (target == "/v1/robots")
        return Endpoint::kRobots;
    if (target == "/v1/validate")
        return Endpoint::kValidate;
    if (target == "/v1/sweep")
        return Endpoint::kSweep;
    if (target == "/v1/design")
        return Endpoint::kDesign;
    if (target == "/v1/report")
        return Endpoint::kReport;
    if (target == "/metrics")
        return Endpoint::kMetrics;
    if (target == "/v1/statz")
        return Endpoint::kStatz;
    if (target.size() >= 9 && target.substr(0, 9) == "/v1/debug")
        return Endpoint::kDebug;
    return Endpoint::kOther;
}

const char *
endpoint_name(Endpoint e) noexcept
{
    switch (e) {
      case Endpoint::kHealthz: return "healthz";
      case Endpoint::kRobots: return "robots";
      case Endpoint::kValidate: return "validate";
      case Endpoint::kSweep: return "sweep";
      case Endpoint::kDesign: return "design";
      case Endpoint::kReport: return "report";
      case Endpoint::kMetrics: return "metrics";
      case Endpoint::kStatz: return "statz";
      case Endpoint::kDebug: return "debug";
      case Endpoint::kOther: break;
    }
    return "other";
}

HttpResponse
error_response(int status, const std::string &message)
{
    obs::JsonWriter w;
    w.begin_object();
    w.kv("error", message);
    w.end_object();
    return net::json_response(status, w.str());
}

HttpResponse
Service::handle(const net::HttpRequest &request)
{
    try {
        ROBOSHAPE_OBS_SPAN(handle_span, "svc.handle");
        const std::string &target = request.target;
        const bool is_post = request.method == "POST";
        const bool is_get = request.method == "GET";

        const Endpoint endpoint = classify_endpoint(target);
        switch (endpoint) {
          case Endpoint::kHealthz:
            return is_get ? handle_healthz()
                          : error_response(405, "use GET /healthz");
          case Endpoint::kRobots:
            return is_get ? handle_robots()
                          : error_response(405, "use GET /v1/robots");
          case Endpoint::kMetrics:
            return is_get ? handle_metrics()
                          : error_response(405, "use GET /metrics");
          case Endpoint::kStatz:
            return is_get ? handle_statz(cache_)
                          : error_response(405, "use GET /v1/statz");
          case Endpoint::kDebug:
            return handle_debug(request);
          case Endpoint::kValidate:
            return is_post ? handle_validate(request)
                           : error_response(405, "use POST /v1/validate");
          case Endpoint::kOther:
            return error_response(404, "no such endpoint: " + target);
          case Endpoint::kSweep:
          case Endpoint::kDesign:
          case Endpoint::kReport:
            break;
        }

        // The compute endpoints: /v1/sweep, /v1/design and /v1/report.
        if (!is_post)
            return error_response(405, "use POST " + target);
        const bool knobs = endpoint != Endpoint::kSweep;
        HttpResponse failure;
        const std::optional<ResolvedRequest> req =
            resolve_request(request, knobs, cache_, failure);
        if (!req)
            return failure;

        const std::uint64_t hash = req->hash;
        const std::shared_ptr<CacheEntry> entry =
            cache_.entry(hash, req->kernel, req->model);
        std::lock_guard<std::mutex> lock(entry->mutex());
        ROBOSHAPE_OBS_SPAN(cache_span, "svc.cache_entry");

        if (endpoint == Endpoint::kSweep) {
            const std::string *body = entry->find_body("sweep");
            const bool hit = body != nullptr;
            if (!body)
                body = &entry->store_body(
                    "sweep", render_sweep_body(entry->context(), hash));
            HttpResponse response = net::json_response(200, *body);
            response.set_header("X-Roboshape-Cache", hit ? "hit" : "miss");
            return response;
        }

        core::SweepContext &ctx = *entry->context();
        const accel::AcceleratorParams params = ctx.capped_params(
            req->max_pes_fwd, req->max_pes_bwd, req->max_block_size);
        if (endpoint == Endpoint::kDesign) {
            const std::string key = "design/" + params.to_string();
            const std::string *body = entry->find_body(key);
            const bool hit = body != nullptr;
            if (!body)
                body = &entry->store_body(
                    key, render_design_body(ctx, params, hash));
            HttpResponse response = net::json_response(200, *body);
            response.set_header("X-Roboshape-Cache", hit ? "hit" : "miss");
            return response;
        }

        // /v1/report: a RunReport document over the compiled design plus
        // the live counter registry.  Counters change between calls, so
        // reports are never body-cached.
        const accel::AcceleratorDesign design = ctx.design(params);
        obs::RunReport report("roboshaped", "design service report");
        report.set_robot(ctx.model().name());
        report.set_kernel(kernel_tag(ctx.kernel()));
        report.set_params(params.pes_fwd, params.pes_bwd, params.block_size);
        report.metric("topology_hash", hash_hex(hash));
        report.metric("pipelined_makespan_cycles",
                      static_cast<std::int64_t>(design.pipelined().makespan));
        report.metric("staged_cycles", static_cast<std::int64_t>(
                                           ctx.cycles_no_pipelining(params)));
        report.metric("clock_period_ns", design.clock_period_ns());
        report.metric("cache_entries",
                      static_cast<std::uint64_t>(cache_.size()));
        report.capture_counters();
        return net::json_response(200, report.to_json(2));
    } catch (const std::exception &e) {
        return error_response(500, std::string("internal error: ") +
                                       e.what());
    } catch (...) {
        return error_response(500, "internal error");
    }
}

} // namespace service
} // namespace roboshape
