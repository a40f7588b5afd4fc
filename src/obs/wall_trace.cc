/**
 * @file
 * Implementation of wall-clock span tracing.
 */

#include "obs/wall_trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

namespace roboshape {
namespace obs {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<int> g_forced{0};
thread_local std::uint64_t t_request_id = 0;

struct TraceStore
{
    std::mutex mu;
    std::vector<WallSpan> spans;
    std::map<std::thread::id, std::uint32_t> tids;

    std::uint32_t
    tid_of(std::thread::id id)
    {
        // Called under mu.
        const auto it = tids.find(id);
        if (it != tids.end())
            return it->second;
        const auto dense = static_cast<std::uint32_t>(tids.size());
        tids.emplace(id, dense);
        return dense;
    }
};

TraceStore &
store()
{
    static TraceStore s;
    return s;
}

} // namespace

std::uint64_t
wall_now_ns() noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool
wall_trace_enabled() noexcept
{
    return g_tracing.load(std::memory_order_relaxed) ||
           g_forced.load(std::memory_order_relaxed) > 0;
}

void
set_wall_trace_enabled(bool on) noexcept
{
    g_tracing.store(on, std::memory_order_relaxed);
}

void
set_trace_request_id(std::uint64_t id) noexcept
{
    t_request_id = id;
}

std::uint64_t
trace_request_id() noexcept
{
    return t_request_id;
}

void
begin_forced_wall_trace() noexcept
{
    g_forced.fetch_add(1, std::memory_order_relaxed);
}

void
end_forced_wall_trace() noexcept
{
    g_forced.fetch_sub(1, std::memory_order_relaxed);
}

void
clear_wall_trace()
{
    TraceStore &s = store();
    std::lock_guard<std::mutex> lock(s.mu);
    s.spans.clear();
    s.tids.clear();
}

void
record_wall_span(const char *name, const char *category,
                 std::uint64_t t0_ns, std::uint64_t t1_ns,
                 std::int32_t arg0, std::int32_t arg1)
{
    if (!wall_trace_enabled())
        return;
    TraceStore &s = store();
    std::lock_guard<std::mutex> lock(s.mu);
    WallSpan span;
    span.name = name;
    span.category = category;
    span.t0_ns = t0_ns;
    span.t1_ns = t1_ns;
    span.tid = s.tid_of(std::this_thread::get_id());
    span.arg0 = arg0;
    span.arg1 = arg1;
    span.req = t_request_id;
    s.spans.push_back(span);
}

namespace {

void
sort_spans(std::vector<WallSpan> &spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const WallSpan &a, const WallSpan &b) {
                  if (a.t0_ns != b.t0_ns)
                      return a.t0_ns < b.t0_ns;
                  if (a.t1_ns != b.t1_ns)
                      return a.t1_ns < b.t1_ns;
                  return std::strcmp(a.name, b.name) < 0;
              });
}

} // namespace

std::vector<WallSpan>
wall_trace_spans()
{
    TraceStore &s = store();
    std::vector<WallSpan> out;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        out = s.spans;
    }
    sort_spans(out);
    return out;
}

std::vector<WallSpan>
take_wall_trace_spans(std::uint64_t req)
{
    TraceStore &s = store();
    std::vector<WallSpan> out;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        auto keep = s.spans.begin();
        for (auto it = s.spans.begin(); it != s.spans.end(); ++it) {
            if (it->req == req)
                out.push_back(*it);
            else
                *keep++ = *it;
        }
        s.spans.erase(keep, s.spans.end());
    }
    sort_spans(out);
    return out;
}

} // namespace obs
} // namespace roboshape
