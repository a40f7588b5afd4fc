/**
 * @file
 * JSON request handlers of the roboshaped daemon (docs/SERVICE.md).
 *
 * The Service maps HTTP requests onto the pipeline:
 *
 *   GET  /healthz      liveness probe
 *   GET  /v1/robots    bundled robot library listing
 *   POST /v1/validate  checked URDF parse -> ValidationReport JSON
 *   POST /v1/sweep     full design-space sweep -> Pareto frontier JSON
 *   POST /v1/design    compiled-design metrics for one knob setting
 *   POST /v1/report    roboshape.run_report/1 snapshot (design + counters)
 *   GET  /metrics      Prometheus text exposition (obs/prometheus.h)
 *   GET  /v1/statz     roboshape.metrics_dump/1 registry snapshot
 *   POST /v1/debug/trace           toggle wall tracing {"enabled": bool}
 *   GET  /v1/debug/trace           current toggle state
 *   GET  /v1/debug/trace/last      Chrome trace of the last traced request
 *   GET  /v1/debug/trace/<id>      ... of request <id> (X-Roboshape-Trace)
 *   GET  /v1/debug/requests        flight-recorder dump (last N requests)
 *
 * Request bodies name a robot either by library id ({"robot": "iiwa"}) or
 * as inline URDF text ({"urdf": "<robot ...>"}); URDF ingestion reuses
 * the hardened `parse_urdf_checked` front end, so malformed bodies come
 * back as a 422 carrying the full diagnostic report rather than a bare
 * error string.  Unknown body keys are rejected (400) — silent tolerance
 * of typos is the bug class this PR is stamping out.
 *
 * Handlers are pure with respect to the connection: they see one
 * HttpRequest and return one HttpResponse, so the whole surface is unit-
 * testable without sockets.  Compute-heavy endpoints share the process-
 * wide DesignCache; sweep schedule precompute runs as job graphs on the
 * core::Executor's one work-stealing pool.  The executor admits one
 * top-level region at a time (Executor::run and run_chunked hold its
 * region mutex), so the precomputes of concurrent cold sweeps queue
 * behind each other rather than share the pool; ROADMAP item 2 takes
 * this up.
 */

#ifndef ROBOSHAPE_SERVICE_HANDLERS_H
#define ROBOSHAPE_SERVICE_HANDLERS_H

#include <string>
#include <string_view>

#include "net/http.h"
#include "service/cache.h"

namespace roboshape {
namespace service {

/** Schema tag of the GET /v1/statz registry dump. */
inline constexpr const char *kMetricsDumpSchema =
    "roboshape.metrics_dump/1";

/**
 * Telemetry label of a request target: the per-endpoint latency split
 * (`svc.request_us.<endpoint>`, docs/OBSERVABILITY.md) and the flight
 * recorder key on these, so the set is fixed and each label is a static
 * string a lock-free record can point at.
 */
enum class Endpoint
{
    kHealthz,
    kRobots,
    kValidate,
    kSweep,
    kDesign,
    kReport,
    kMetrics,
    kStatz,
    kDebug,
    kOther,
};

Endpoint classify_endpoint(std::string_view target) noexcept;

/** Static label of @p e ("design", "sweep", ..., "other"). */
const char *endpoint_name(Endpoint e) noexcept;

class Service
{
  public:
    Service() = default;

    /** Dispatches one request; never throws (failures become 4xx/5xx). */
    net::HttpResponse handle(const net::HttpRequest &request);

    DesignCache &cache() { return cache_; }

  private:
    DesignCache cache_;
};

/** {"error": message} body with the given status. */
net::HttpResponse error_response(int status, const std::string &message);

} // namespace service
} // namespace roboshape

#endif // ROBOSHAPE_SERVICE_HANDLERS_H
