/**
 * @file
 * The three workloads of the repo benchmark and the helpers they share
 * (perfbench/README.md).
 */

#ifndef ROBOSHAPE_PERFBENCH_WORKLOADS_H
#define ROBOSHAPE_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "net/http.h"
#include "service/handlers.h"
#include "tracer.h"

namespace roboshape {
namespace perfbench {

Outcome run_design_cold(const Options &options);
Outcome run_ilqr_stream(const Options &options);
Outcome run_mpc_batch(const Options &options);

/** Host CPU time split read from /proc/stat (all CPUs, clock ticks). */
struct HostTicks
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0; ///< Time the hypervisor ran someone else.
};

HostTicks host_ticks();

/** Peak resident set of this process, MiB. */
double self_peak_rss_mb();

/**
 * net::parse_request_head plus Content-Length body framing over one
 * serialized request, as the `roboshape serve` read loop does it.  False
 * when the bytes are not one well-formed request.
 */
bool frame_request(std::string_view bytes, net::HttpRequest &out);

/**
 * One serialized request through the daemon's layers in-process: framing
 * ("net.http_parse"), Service::handle (@p handle_span) and serialization
 * ("net.serialize"), each spanned on @p lane when @p tracer is on.
 * Returns the response (status 0 when framing failed).
 */
net::HttpResponse replay_request(service::Service &service,
                                 std::string_view bytes,
                                 const char *handle_span, Tracer &tracer,
                                 std::size_t lane, std::uint64_t op);

/** Snapshot of the in-process obs counters, for per-op deltas. */
std::map<std::string, std::uint64_t> counter_snapshot();

/** counter(after) - counter(before) for @p name. */
double counter_delta(const std::map<std::string, std::uint64_t> &before,
                     const std::map<std::string, std::uint64_t> &after,
                     const std::string &name);

/** Median of the spans named @p name; 0 when there are none. */
double span_median(const Tracer &tracer, std::string_view name);

/** Writes @p tracer's spans as a Chrome trace under options.out_dir and
 *  records the path and the per-layer self times in @p out; false when
 *  the file is not valid JSON or cannot be written. */
bool write_trace(const Tracer &tracer, const Options &options, Outcome &out);

} // namespace perfbench
} // namespace roboshape

#endif // ROBOSHAPE_PERFBENCH_WORKLOADS_H
