#include <sys/resource.h>

#include <fstream>

#include "core/parse_uint.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "workloads.h"

namespace roboshape {
namespace perfbench {

double
self_peak_rss_mb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

HostTicks
host_ticks()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    HostTicks out;
    for (int field = 0; field < 8; ++field) {
        std::string token;
        stat >> token;
        const std::optional<std::uint64_t> v = core::parse_uint(token);
        if (!v)
            return {};
        out.total += *v;
        if (field == 7)
            out.steal = *v;
    }
    return out;
}

bool
frame_request(std::string_view bytes, net::HttpRequest &out)
{
    const std::size_t head_end = bytes.find("\r\n\r\n");
    if (head_end == std::string_view::npos)
        return false;
    out = net::HttpRequest{};
    if (net::parse_request_head(bytes.substr(0, head_end + 4), out) !=
        net::ReadResult::kOk)
        return false;
    std::uint64_t length = 0;
    if (const auto header = out.header("Content-Length")) {
        const std::optional<std::uint64_t> parsed =
            core::parse_uint(*header, 0, net::kMaxBodyBytes);
        if (!parsed)
            return false;
        length = *parsed;
    }
    if (bytes.size() - head_end - 4 < length)
        return false;
    out.body.assign(bytes.substr(head_end + 4, length));
    return true;
}

net::HttpResponse
replay_request(service::Service &service, std::string_view bytes,
               const char *handle_span, Tracer &tracer, std::size_t lane,
               std::uint64_t op)
{
    net::HttpRequest request;
    bool framed = false;
    {
        Tracer::Scope span(tracer, lane, "net.http_parse", op);
        framed = frame_request(bytes, request);
    }
    if (!framed) {
        net::HttpResponse failure;
        failure.status = 0;
        return failure;
    }
    net::HttpResponse response;
    {
        Tracer::Scope span(tracer, lane, handle_span, op);
        response = service.handle(request);
    }
    std::string wire;
    {
        Tracer::Scope span(tracer, lane, "net.serialize", op);
        wire = response.serialize(request.keep_alive());
    }
    if (wire.size() < response.body.size())
        response.status = 0;
    return response;
}

std::map<std::string, std::uint64_t>
counter_snapshot()
{
    std::map<std::string, std::uint64_t> out;
    for (const obs::CounterSample &c : obs::registry().counters())
        out[c.name] = c.value;
    return out;
}

double
counter_delta(const std::map<std::string, std::uint64_t> &before,
              const std::map<std::string, std::uint64_t> &after,
              const std::string &name)
{
    const auto a = after.find(name);
    const auto b = before.find(name);
    const std::uint64_t va = a == after.end() ? 0 : a->second;
    const std::uint64_t vb = b == before.end() ? 0 : b->second;
    return va >= vb ? static_cast<double>(va - vb) : 0.0;
}

double
span_median(const Tracer &tracer, std::string_view name)
{
    return median(tracer.durations_us(name));
}

bool
write_trace(const Tracer &tracer, const Options &options, Outcome &out)
{
    const std::string doc = tracer.chrome_json(options.workload, options.seed);
    out.layer_self_us = tracer.self_time_by_layer();
    out.note("trace.spans", "count",
             static_cast<double>(tracer.span_count()));
    std::string error;
    if (!obs::validate_json(doc, &error)) {
        out.misconfigured = "span file is not valid JSON: " + error;
        return false;
    }
    out.trace_path = options.out_dir + "/" + options.workload + "-seed" +
                     std::to_string(options.seed) + ".trace.json";
    std::ofstream file(out.trace_path, std::ios::binary | std::ios::trunc);
    file << doc;
    file.close();
    if (!file) {
        out.misconfigured = "cannot write " + out.trace_path;
        return false;
    }
    return true;
}

} // namespace perfbench
} // namespace roboshape
