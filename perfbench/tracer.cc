#include "tracer.h"

#include "obs/json.h"

namespace roboshape {
namespace perfbench {

Tracer::Tracer(bool enabled, std::size_t lanes)
    : enabled_(enabled), origin_(now()), lanes_(lanes)
{
    if (enabled_)
        for (Lane &lane : lanes_)
            lane.spans.reserve(1 << 16);
}

Tracer::Scope::Scope(Tracer &tracer, std::size_t lane, const char *name,
                     std::uint64_t op)
{
    if (!tracer.enabled_)
        return;
    tracer_ = &tracer;
    lane_ = lane;
    Lane &l = tracer.lanes_[lane];
    index_ = l.spans.size();
    Span s;
    s.name = name;
    s.parent = l.open.empty() ? -1 : static_cast<std::int64_t>(l.open.back());
    s.op = op;
    l.spans.push_back(s);
    l.open.push_back(index_);
    l.spans[index_].t0 = now(); // last, so set-up is outside the span
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    const TimePoint t1 = now();
    Lane &l = tracer_->lanes_[lane_];
    l.spans[index_].t1 = t1;
    l.open.pop_back();
}

std::vector<double>
Tracer::durations_us(std::string_view name) const
{
    std::vector<double> out;
    for (const Lane &lane : lanes_)
        for (const Span &s : lane.spans)
            if (name == s.name)
                out.push_back(us_between(s.t0, s.t1));
    return out;
}

std::vector<std::vector<double>>
Tracer::durations_by_group_us(std::string_view name, std::size_t groups) const
{
    std::vector<std::vector<double>> out(groups);
    for (const Lane &lane : lanes_)
        for (const Span &s : lane.spans)
            if (name == s.name)
                out[s.op % groups].push_back(us_between(s.t0, s.t1));
    return out;
}

std::map<std::string, double>
Tracer::self_time_by_layer() const
{
    std::map<std::string, double> out;
    for (const Lane &lane : lanes_) {
        std::vector<double> self(lane.spans.size());
        for (std::size_t i = 0; i < lane.spans.size(); ++i)
            self[i] = us_between(lane.spans[i].t0, lane.spans[i].t1);
        // Children on one lane run inside their parent and never overlap
        // each other, so the covered time is the sum of their durations.
        for (const Span &s : lane.spans)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -=
                    us_between(s.t0, s.t1);
        for (std::size_t i = 0; i < lane.spans.size(); ++i) {
            const std::string_view name = lane.spans[i].name;
            out[std::string(name.substr(0, name.find('.')))] += self[i];
        }
    }
    return out;
}

std::size_t
Tracer::span_count() const
{
    std::size_t n = 0;
    for (const Lane &lane : lanes_)
        n += lane.spans.size();
    return n;
}

std::string
Tracer::chrome_json(const std::string &workload, std::uint64_t seed) const
{
    obs::JsonWriter w;
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
        const std::vector<Span> &spans = lanes_[lane].spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const std::string_view name = s.name;
            w.begin_object();
            w.kv("name", name);
            w.kv("cat", name.substr(0, name.find('.')));
            w.kv("ph", "X");
            w.kv("ts", us_between(origin_, s.t0));
            w.kv("dur", us_between(s.t0, s.t1));
            w.kv("pid", 1);
            w.kv("tid", static_cast<std::uint64_t>(lane));
            w.key("args").begin_object();
            w.kv("op", s.op);
            w.kv("span", static_cast<std::uint64_t>(i));
            w.kv("parent", s.parent);
            w.end_object();
            w.end_object();
        }
    }
    w.end_array();
    w.kv("displayTimeUnit", "ns");
    w.key("otherData").begin_object();
    w.kv("schema", "roboshape.perfbench_trace/1");
    w.kv("workload", workload);
    w.kv("seed", seed);
    w.end_object();
    w.end_object();
    return w.str();
}

} // namespace perfbench
} // namespace roboshape
