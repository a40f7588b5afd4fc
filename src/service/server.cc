#include "service/server.h"

#include <string>
#include <utility>
#include <vector>

#include "net/http.h"
#include "obs/registry.h"
#include "obs/trace_export.h"
#include "obs/wall_trace.h"
#include "service/flight_recorder.h"
#include "service/trace_vault.h"

namespace roboshape {
namespace service {

namespace {

/** Accept-poll granularity: how often loops re-check stopping_. */
constexpr int kPollMs = 50;

void
count_response_class(int status)
{
    if (status < 300) {
        ROBOSHAPE_OBS_COUNT("svc.responses_2xx", 1);
    } else if (status < 500) {
        ROBOSHAPE_OBS_COUNT("svc.responses_4xx", 1);
    } else {
        ROBOSHAPE_OBS_COUNT("svc.responses_5xx", 1);
    }
}

/**
 * Per-endpoint latency split.  One literal macro site per endpoint so
 * the counter catalog (docs/OBSERVABILITY.md) and roboshape_lint's
 * counter-name-sync rule keep seeing every histogram name in the tree.
 */
void
record_endpoint_latency(Endpoint endpoint, std::int64_t us)
{
    switch (endpoint) {
      case Endpoint::kHealthz:
        ROBOSHAPE_OBS_RECORD("svc.request_us.healthz", us);
        break;
      case Endpoint::kRobots:
        ROBOSHAPE_OBS_RECORD("svc.request_us.robots", us);
        break;
      case Endpoint::kValidate:
        ROBOSHAPE_OBS_RECORD("svc.request_us.validate", us);
        break;
      case Endpoint::kSweep:
        ROBOSHAPE_OBS_RECORD("svc.request_us.sweep", us);
        break;
      case Endpoint::kDesign:
        ROBOSHAPE_OBS_RECORD("svc.request_us.design", us);
        break;
      case Endpoint::kReport:
        ROBOSHAPE_OBS_RECORD("svc.request_us.report", us);
        break;
      case Endpoint::kMetrics:
        ROBOSHAPE_OBS_RECORD("svc.request_us.metrics", us);
        break;
      case Endpoint::kStatz:
        ROBOSHAPE_OBS_RECORD("svc.request_us.statz", us);
        break;
      case Endpoint::kDebug:
        ROBOSHAPE_OBS_RECORD("svc.request_us.debug", us);
        break;
      case Endpoint::kOther:
        ROBOSHAPE_OBS_RECORD("svc.request_us.other", us);
        break;
    }
}

const char *
method_label(const std::string &method)
{
    if (method == "GET")
        return "GET";
    if (method == "POST")
        return "POST";
    return "OTHER";
}

const char *
cache_label(const net::HttpResponse &response)
{
    const auto verdict = response.header("X-Roboshape-Cache");
    if (!verdict)
        return "none";
    if (*verdict == "hit")
        return "hit";
    if (*verdict == "miss")
        return "miss";
    return "none";
}

} // namespace

Server::Server(Service &service, ServerOptions options)
    : service_(service), options_(std::move(options))
{
    if (options_.workers == 0)
        options_.workers = 1;
    if (options_.queue_capacity == 0)
        options_.queue_capacity = 1;
}

Server::~Server()
{
    stop();
}

bool
Server::start()
{
    if (running_)
        return true;
    if (!options_.access_log_path.empty() &&
        !access_log_.open(options_.access_log_path)) {
        error_ = access_log_.error();
        return false;
    }
    if (!listener_.listen(options_.port)) {
        error_ = listener_.error();
        return false;
    }
    port_ = listener_.bound_port();
    stopping_ = false;
    running_ = true;
    accept_thread_ = std::thread([this] { accept_loop(); });
    workers_.reserve(options_.workers);
    for (std::size_t i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
    return true;
}

void
Server::stop()
{
    if (!running_)
        return;
    stopping_ = true;
    queue_cv_.notify_all();
    if (accept_thread_.joinable())
        accept_thread_.join();
    // Workers drain whatever the accept thread already admitted, then
    // exit; join order guarantees no new admissions race the drain.
    queue_cv_.notify_all();
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    listener_.close();
    // Every in-flight request is answered and logged by now: flush so a
    // SIGTERM'd daemon never loses its last access-log lines.
    access_log_.flush();
    running_ = false;
}

void
Server::accept_loop()
{
    while (!stopping_) {
        net::TcpConn conn = listener_.accept(kPollMs);
        if (!conn.valid())
            continue; // timeout: re-check stopping_
        ROBOSHAPE_OBS_COUNT("svc.connections", 1);
        std::size_t depth;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (queue_.size() >= options_.queue_capacity) {
                // Overload: shed at admission, before any parsing.
                ROBOSHAPE_OBS_COUNT("svc.rejected_overload", 1);
                const net::HttpResponse rejection = error_response(
                    429, "server overloaded: admission queue full");
                conn.write_all(rejection.serialize(false), kPollMs);
                continue; // conn closes on scope exit
            }
            queue_.push_back({std::move(conn), obs::wall_now_ns()});
            depth = queue_.size();
        }
        ROBOSHAPE_OBS_RECORD("svc.queue_depth",
                             static_cast<std::int64_t>(depth));
        queue_cv_.notify_one();
    }
}

void
Server::worker_loop()
{
    for (;;) {
        Admission admitted;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queue_cv_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping and fully drained
            admitted = std::move(queue_.front());
            queue_.pop_front();
        }
        const std::int64_t wait_us = static_cast<std::int64_t>(
            (obs::wall_now_ns() - admitted.enqueue_ns) / 1000);
        ROBOSHAPE_OBS_RECORD("svc.queue_wait_us", wait_us);
        serve_connection(std::move(admitted.conn), wait_us);
    }
}

void
Server::serve_connection(net::TcpConn conn, std::int64_t queue_wait_us)
{
    std::string leftover;
    for (;;) {
        net::HttpRequest request;
        const net::ReadResult read = net::read_request(
            conn, request, leftover, options_.request_timeout_ms);
        if (read != net::ReadResult::kOk) {
            // Transport-level failures that deserve a reply get one;
            // silence (kClosed) and idle timeouts just close.
            int status = 0;
            switch (read) {
              case net::ReadResult::kTooLarge: status = 413; break;
              case net::ReadResult::kMalformed: status = 400; break;
              case net::ReadResult::kUnsupported: status = 501; break;
              default: break;
            }
            if (status != 0) {
                const net::HttpResponse failure = error_response(
                    status, "request rejected by the HTTP layer");
                conn.write_all(failure.serialize(false),
                               options_.request_timeout_ms);
                count_response_class(status);
            }
            return;
        }

        ROBOSHAPE_OBS_COUNT("svc.requests", 1);
        const std::uint64_t id =
            next_request_id_.fetch_add(1, std::memory_order_relaxed);
        const Endpoint endpoint = classify_endpoint(request.target);
        const auto trace_header = request.header("X-Roboshape-Trace");
        const bool traced = trace_header && *trace_header == "1";

        // Per-request trace context: every span recorded on this thread
        // (and on executor workers draining this request's regions)
        // carries the request id.  A traced request also forces wall
        // tracing on for its duration.
        obs::set_trace_request_id(id);
        if (traced)
            obs::begin_forced_wall_trace();

        // Request-latency telemetry (the svc.request_us histograms):
        // measured around the handler, never visible to it.
        const std::uint64_t t0 = obs::wall_now_ns();
        net::HttpResponse response = service_.handle(request);
        const auto us = static_cast<std::int64_t>(
            (obs::wall_now_ns() - t0) / 1000);

        if (traced) {
            const std::vector<obs::WallSpan> spans =
                obs::take_wall_trace_spans(id);
            obs::end_forced_wall_trace();
            trace_vault().store(id, obs::wall_spans_trace_json(spans));
        }
        obs::set_trace_request_id(0);

        ROBOSHAPE_OBS_RECORD("svc.request_us", us);
        record_endpoint_latency(endpoint, us);
        count_response_class(response.status);
        response.set_header("X-Roboshape-Request-Id", std::to_string(id));

        RequestRecord record;
        record.id = id;
        record.endpoint = endpoint_name(endpoint);
        record.method = method_label(request.method);
        record.status = response.status;
        record.cache = cache_label(response);
        record.queue_wait_us = queue_wait_us;
        record.handle_us = us;
        record.bytes = response.body.size();
        record.slow =
            us >= static_cast<std::int64_t>(options_.slow_ms) * 1000;
        flight_recorder().record(record);
        if (access_log_.is_open())
            access_log_.write(record);

        // Only the first request of a session waited in the admission
        // queue; keep-alive successors were already on a worker.
        queue_wait_us = 0;

        // Stop extending sessions once shutdown begins: answer the
        // in-flight request, then hang up.
        const bool keep = request.keep_alive() && !stopping_;
        if (!conn.write_all(response.serialize(keep),
                            options_.request_timeout_ms))
            return;
        if (!keep)
            return;
    }
}

} // namespace service
} // namespace roboshape
