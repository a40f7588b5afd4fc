/**
 * @file
 * Tests for the observability subsystem (docs/OBSERVABILITY.md): the JSON
 * writer/validator, the counter/histogram registry, run reports, wall-span
 * tracing, and the Chrome trace exporter — including the golden-file check
 * and the busy+stall+idle == makespan tiling invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "accel/design.h"
#include "accel/sim_engine.h"
#include "accel/simd_lanes.h"
#include "core/sweep_context.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "obs/trace_export.h"
#include "obs/wall_trace.h"
#include "sched/timeline.h"
#include "topology/robot_library.h"
#include "topology/topology_info.h"

namespace roboshape {
namespace obs {
namespace {

using topology::RobotId;
using topology::RobotModel;
using topology::build_robot;
using topology::robot_name;

// ---------------------------------------------------------- JSON writer ----

TEST(JsonWriter, CompactEscapedOutput)
{
    JsonWriter w;
    w.begin_object();
    w.key("s").value("a\"b\\c\n\t\x01");
    w.key("arr").begin_array();
    w.value(1);
    w.value(true);
    w.null();
    w.end_array();
    w.end_object();
    EXPECT_EQ(w.str(),
              "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\",\"arr\":[1,true,null]}");
    EXPECT_TRUE(validate_json(w.str()));
}

TEST(JsonWriter, DoublesRoundTripAndNonFiniteBecomesNull)
{
    JsonWriter w;
    w.begin_array();
    w.value(0.1);
    w.value(1.0 / 3.0);
    w.value(std::nan(""));
    w.end_array();
    EXPECT_TRUE(validate_json(w.str()));
    EXPECT_NE(w.str().find("null"), std::string::npos);

    double back = 0.0;
    // Reads back the writer's own output; not parsing external input.
    std::sscanf(w.str().c_str() + 1, "%lf", &back); // NOLINT(banned-raw-parse)
    EXPECT_EQ(back, 0.1);
}

TEST(JsonWriter, IndentedOutputIsValidAndDeterministic)
{
    const auto render = [] {
        JsonWriter w(2);
        w.begin_object();
        w.kv("a", 1);
        w.key("b").begin_object();
        w.kv("c", "x");
        w.end_object();
        w.end_object();
        return w.str();
    };
    EXPECT_EQ(render(), render());
    EXPECT_TRUE(validate_json(render()));
}

TEST(ValidateJson, AcceptsAndRejects)
{
    EXPECT_TRUE(validate_json("{}"));
    EXPECT_TRUE(validate_json(" [1, 2.5e-3, \"x\", null, true] "));
    EXPECT_TRUE(validate_json("\"\\u00e9\""));

    std::string error;
    EXPECT_FALSE(validate_json("{", &error));
    EXPECT_FALSE(validate_json("[1,]", &error));
    EXPECT_FALSE(validate_json("{\"a\":1} trailing", &error));
    EXPECT_FALSE(validate_json("01", &error));
    EXPECT_FALSE(validate_json("\"\x01\"", &error));
    EXPECT_NE(error.find("at byte"), std::string::npos);
}

// ---------------------------------------------------------- JSON reader ----

TEST(JsonValue, ParsesRequestShapedDocument)
{
    const auto doc = parse_json(
        R"({"robot": "iiwa", "max_pes_fwd": 4, "deep": {"list": [1, 2.5,)"
        R"( true, null, "x"]}})");
    ASSERT_TRUE(doc);
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->get_string("robot"), "iiwa");
    bool ok = true;
    EXPECT_EQ(doc->get_uint("max_pes_fwd", 1, 4096, ok), 4u);
    EXPECT_TRUE(ok);
    const JsonValue *deep = doc->find("deep");
    ASSERT_NE(deep, nullptr);
    const JsonValue *list = deep->find("list");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->as_array().size(), 5u);
    EXPECT_DOUBLE_EQ(list->as_array()[1].as_number(), 2.5);
    EXPECT_TRUE(list->as_array()[3].is_null());
}

TEST(JsonValue, DecodesEscapesIncludingSurrogatePairs)
{
    const auto doc = parse_json(
        R"({"s": "a\"b\\c\n\u0041\u00e9\ud83d\ude00"})");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->get_string("s"),
              "a\"b\\c\nA\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonValue, RejectsMalformedDocuments)
{
    std::string error;
    EXPECT_FALSE(parse_json("", &error));
    EXPECT_FALSE(parse_json("{", &error));
    EXPECT_FALSE(parse_json("{}extra", &error));
    EXPECT_FALSE(parse_json("{\"a\": 01}", &error));
    EXPECT_FALSE(parse_json("{\"a\": 1,}", &error));
    EXPECT_FALSE(parse_json("{\"a\": nul}", &error));
    EXPECT_FALSE(parse_json("\"unpaired \\ud800\"", &error));
    EXPECT_FALSE(error.empty()); // failures carry a description
}

TEST(JsonValue, RejectsExcessNesting)
{
    std::string text;
    for (int i = 0; i < 80; ++i)
        text += '[';
    for (int i = 0; i < 80; ++i)
        text += ']';
    EXPECT_FALSE(parse_json(text));
}

TEST(JsonValue, GetUintDistinguishesAbsentFromMalformed)
{
    const auto doc = parse_json(
        R"({"str": "4", "frac": 1.5, "neg": -1, "big": 1e30, "ok": 3})");
    ASSERT_TRUE(doc);
    bool ok = true;
    EXPECT_FALSE(doc->get_uint("missing", 1, 10, ok));
    EXPECT_TRUE(ok); // absent is not an error
    EXPECT_FALSE(doc->get_uint("str", 1, 10, ok));
    EXPECT_FALSE(ok); // present but wrong type is
    ok = true;
    EXPECT_FALSE(doc->get_uint("frac", 1, 10, ok));
    EXPECT_FALSE(ok);
    ok = true;
    EXPECT_FALSE(doc->get_uint("neg", 1, 10, ok));
    EXPECT_FALSE(ok);
    ok = true;
    EXPECT_EQ(doc->get_uint("ok", 1, 10, ok), 3u);
    EXPECT_TRUE(ok);
}

// One policy behind both entry points: validate_json accepts exactly what
// parse_json accepts.  The last six rows are where the validator once
// applied looser rules than the request parser.
TEST(JsonReader, TableHoldsThroughBothEntryPoints)
{
    const auto nested = [](std::size_t levels) {
        return std::string(levels, '[') + std::string(levels, ']');
    };
    const std::vector<std::pair<std::string, bool>> rows = {
        // ValidateJson.AcceptsAndRejects
        {"{}", true},
        {" [1, 2.5e-3, \"x\", null, true] ", true},
        {"\"\\u00e9\"", true},
        {"{", false},
        {"[1,]", false},
        {"{\"a\":1} trailing", false},
        {"01", false},
        {"\"\x01\"", false},
        // JsonValue.RejectsMalformedDocuments
        {"", false},
        {"{}extra", false},
        {"{\"a\": 01}", false},
        {"{\"a\": 1,}", false},
        {"{\"a\": nul}", false},
        {"\"unpaired \\ud800\"", false},
        // Edges
        {"\"\"", true},
        {" \t\r\n", false},
        {nested(65), true},
        // Where the two readers used to disagree
        {"\"\\ud800\"", false},
        {"\"\\udc00\"", false},
        {"1e999", false},
        {"-1e400", false},
        {nested(66), false},
        {nested(257), false},
    };
    for (const auto &[text, accepted] : rows) {
        std::string error;
        EXPECT_EQ(validate_json(text, &error), accepted) << text;
        EXPECT_EQ(parse_json(text).has_value(), accepted) << text;
        if (!accepted) {
            EXPECT_NE(error.find(" at byte "), std::string::npos) << text;
        }
    }
}

// Expected bytes are written out by hand (Unicode Table 3-7), so the
// UTF-8 check is not its own oracle.  Each case sits between '<' and '>'
// so that the byte after it shows where the writer resumes.
TEST(JsonUtf8, WellFormedSequencesPassThroughByteIdentical)
{
    const std::string cases[] = {
        "<\xC3\xA9>",         // U+00E9
        "<\xE2\x82\xAC>",     // U+20AC
        "<\xED\x9F\xBF>",     // U+D7FF, just below the surrogates
        "<\xEE\x80\x80>",     // U+E000, just above them
        "<\xEF\xBF\xBF>",     // U+FFFF
        "<\xF0\x90\x80\x80>", // U+10000
        "<\xF4\x8F\xBF\xBF>", // U+10FFFF
    };
    for (const std::string &text : cases) {
        JsonWriter w;
        w.value(text);
        EXPECT_EQ(w.str(), "\"" + text + "\"") << text;
        std::string error;
        const std::optional<JsonValue> doc = parse_json(w.str(), &error);
        ASSERT_TRUE(doc) << error;
        EXPECT_EQ(doc->as_string(), text);
        EXPECT_TRUE(validate_json(w.str()));
    }
}

TEST(JsonUtf8, IllFormedBytesAreReplacedOnWriteAndRejectedOnRead)
{
    // {input, what the writer emits}: one U+FFFD (EF BF BD) per byte
    // that starts no well-formed sequence.
    const std::pair<std::string, std::string> cases[] = {
        {"<\x80>", "<\xEF\xBF\xBD>"}, // lone continuation byte
        {"<\xC0\xAF>", "<\xEF\xBF\xBD\xEF\xBF\xBD>"}, // overlong '/'
        {"<\xC1\xBF>", "<\xEF\xBF\xBD\xEF\xBF\xBD>"}, // overlong U+7F
        {"<\xE0\x80\xAF>", // overlong '/'
         "<\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD>"},
        {"<\xED\xA0\x80>", // encoded U+D800
         "<\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD>"},
        {"<\xED\xBF\xBF>", // encoded U+DFFF
         "<\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD>"},
        {"<\xF0\x80\x80\xAF>", // overlong '/'
         "<\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD>"},
        {"<\xF4\x90\x80\x80>", // U+110000
         "<\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD>"},
        {"<\xF5\x80\x80\x80>", // lead byte above F4
         "<\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD>"},
        {"<\xFF>", "<\xEF\xBF\xBD>"},
        {"<\xE2\x82", "<\xEF\xBF\xBD\xEF\xBF\xBD"}, // truncated at the end
        {"<\xE2\x82" "A>", "<\xEF\xBF\xBD\xEF\xBF\xBD" "A>"}, // truncated by 'A'
    };
    for (const auto &[input, written] : cases) {
        JsonWriter w;
        w.value(input);
        EXPECT_EQ(w.str(), "\"" + written + "\"") << input;
        EXPECT_TRUE(validate_json(w.str()));

        // Each input is read closed and cut off by the end of the text,
        // so "<\xE2\x82" also ends the whole input mid-sequence.  The
        // first ill-formed byte follows the opening quote and '<'.
        for (const std::string &text :
             {"\"" + input + "\"", "\"" + input}) {
            std::string error;
            EXPECT_FALSE(parse_json(text, &error)) << input;
            EXPECT_EQ(error, "invalid UTF-8 at byte 2") << input;
            EXPECT_FALSE(validate_json(text));
        }
    }
}

// ------------------------------------------------------------- registry ----

TEST(Registry, CountersAndHistogramsSnapshot)
{
    obs::set_enabled(true);
    Counter &c = registry().counter("test.obs.counter");
    const std::uint64_t before = c.value();
    ROBOSHAPE_OBS_COUNT("test.obs.counter", 3);
    ROBOSHAPE_OBS_COUNT("test.obs.counter", 2);
#ifndef ROBOSHAPE_NO_OBS
    EXPECT_EQ(c.value(), before + 5);
#else
    EXPECT_EQ(c.value(), before);
#endif

    Histogram &h = registry().histogram("test.obs.hist");
    h.reset();
    ROBOSHAPE_OBS_RECORD("test.obs.hist", 4);
    ROBOSHAPE_OBS_RECORD("test.obs.hist", -2);
    const Histogram::Snapshot s = h.snapshot();
#ifndef ROBOSHAPE_NO_OBS
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.sum, 2);
    EXPECT_EQ(s.min, -2);
    EXPECT_EQ(s.max, 4);
    EXPECT_DOUBLE_EQ(s.mean(), 1.0);
#else
    EXPECT_EQ(s.count, 0u);
#endif

    // Snapshots are sorted by name (deterministic report order).
    const auto counters = registry().counters();
    for (std::size_t i = 1; i < counters.size(); ++i)
        EXPECT_LT(counters[i - 1].name, counters[i].name);
}

TEST(Registry, DisableFreezesMacroUpdates)
{
    obs::set_enabled(true);
    Counter &c = registry().counter("test.obs.freeze");
    const std::uint64_t before = c.value();
    obs::set_enabled(false);
    ROBOSHAPE_OBS_COUNT("test.obs.freeze", 7);
    EXPECT_EQ(c.value(), before);
    obs::set_enabled(true);
}

// ------------------------------------------------- histogram quantiles ----

TEST(HistogramBuckets, IndexAndUpperRoundTrip)
{
    // Every probed value lands in a bucket whose upper bound is >= the
    // value and still maps back to the same bucket; indices are monotone.
    std::vector<std::int64_t> probes = {-5, 0, 1, 2, 7, 8, 9, 15, 16, 17,
                                        100, 1000, 123456, 1 << 20};
    for (int shift = 3; shift < 62; ++shift) {
        probes.push_back((std::int64_t{1} << shift) - 1);
        probes.push_back(std::int64_t{1} << shift);
        probes.push_back((std::int64_t{1} << shift) + 1);
    }
    probes.push_back(std::numeric_limits<std::int64_t>::max());

    std::size_t prev_index = 0;
    std::int64_t prev = std::numeric_limits<std::int64_t>::min();
    std::sort(probes.begin(), probes.end());
    for (const std::int64_t v : probes) {
        const std::size_t index = histogram_bucket_index(v);
        ASSERT_LT(index, kHistogramBuckets) << v;
        const std::int64_t upper = histogram_bucket_upper(index);
        EXPECT_GE(upper, v) << v;
        EXPECT_EQ(histogram_bucket_index(upper), index) << v;
        if (v > 0) {
            // <= 12.5% relative error at kSubBits = 3.
            EXPECT_LE(static_cast<double>(upper - v),
                      0.125 * static_cast<double>(v) + 1.0)
                << v;
        }
        EXPECT_GE(index, prev_index) << "not monotone at " << v
                                     << " (prev " << prev << ")";
        prev_index = index;
        prev = v;
    }
}

TEST(HistogramQuantiles, SmallValuesAreExact)
{
    Histogram h;
    for (std::int64_t v = 1; v <= 7; ++v)
        h.record(v);
    const Histogram::Snapshot s = h.snapshot();
    ASSERT_EQ(s.count, 7u);
    // Values below 2^kSubBits get a bucket each, so quantiles are exact:
    // rank ceil(0.5 * 7) = 4 -> value 4.
    EXPECT_EQ(s.quantile(0.50), 4);
    EXPECT_EQ(s.quantile(0.90), 7);
    EXPECT_EQ(s.quantile(0.99), 7);
    EXPECT_EQ(s.quantile(0.0), 1);
    EXPECT_EQ(s.quantile(1.0), 7);
}

TEST(HistogramQuantiles, EmptyAndMonotone)
{
    Histogram h;
    EXPECT_EQ(h.snapshot().quantile(0.5), 0);

    for (std::int64_t v = 1; v <= 10000; v += 7)
        h.record(v * 13 % 9973);
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_LE(s.p50(), s.p90());
    EXPECT_LE(s.p90(), s.p99());
    EXPECT_GE(s.p99(), s.max * 7 / 8); // p99 near the top of the range
}

TEST(HistogramQuantiles, BitIdenticalAcrossThreadCounts)
{
    // The same multiset of values must yield byte-identical bucket arrays
    // (and therefore quantiles) no matter how recording interleaves.
    const auto value_at = [](std::size_t i) {
        return static_cast<std::int64_t>((i * 2654435761u) % 2000003);
    };
    constexpr std::size_t kValues = 64 * 1024;

    Histogram serial;
    for (std::size_t i = 0; i < kValues; ++i)
        serial.record(value_at(i));

    Histogram threaded;
    {
        constexpr std::size_t kThreads = 8;
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                for (std::size_t i = t; i < kValues; i += kThreads)
                    threaded.record(value_at(i));
            });
        for (std::thread &th : threads)
            th.join();
    }

    const Histogram::Snapshot a = serial.snapshot();
    const Histogram::Snapshot b = threaded.snapshot();
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    ASSERT_EQ(a.buckets.size(), b.buckets.size());
    EXPECT_EQ(a.buckets, b.buckets);
    for (const double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(a.quantile(q), b.quantile(q)) << q;
}

// ----------------------------------------------------------- prometheus ----

TEST(Prometheus, NamesAreSanitized)
{
    EXPECT_EQ(prometheus_metric_name("svc.request_us.design"),
              "roboshape_svc_request_us_design");
    EXPECT_EQ(prometheus_metric_name("sim.phase-2"),
              "roboshape_sim_phase_2");
}

TEST(Prometheus, ExpositionIsDeterministicAndShaped)
{
    obs::set_enabled(true);
    registry().counter("test.prom.counter").add(5);
    Histogram &h = registry().histogram("test.prom.hist");
    h.reset();
    for (std::int64_t v = 1; v <= 100; ++v)
        h.record(v);

    const std::string a = prometheus_exposition();
    const std::string b = prometheus_exposition();
    EXPECT_EQ(a, b);

    EXPECT_NE(a.find("# TYPE roboshape_test_prom_counter counter"),
              std::string::npos);
    EXPECT_NE(a.find("roboshape_test_prom_counter 5"), std::string::npos);
    EXPECT_NE(a.find("# TYPE roboshape_test_prom_hist summary"),
              std::string::npos);
    EXPECT_NE(a.find("roboshape_test_prom_hist{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(a.find("roboshape_test_prom_hist{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(a.find("roboshape_test_prom_hist_count 100"),
              std::string::npos);
    EXPECT_NE(a.find("roboshape_test_prom_hist_sum 5050"),
              std::string::npos);
    EXPECT_NE(a.find("# TYPE roboshape_test_prom_hist_min gauge"),
              std::string::npos);
    EXPECT_NE(a.find("roboshape_test_prom_hist_max 100"),
              std::string::npos);
}

// ----------------------------------------------------------- run report ----

TEST(RunReport, SchemaFieldsInFixedOrder)
{
    RunReport report("test_tool", "Test Report");
    report.set_robot("iiwa");
    report.set_kernel("dynamics_gradient");
    report.set_params(7, 7, 7);
    report.metric("cycles", std::int64_t{893});
    report.metric("ok", true);
    const std::string json = report.to_json();

    std::string error;
    EXPECT_TRUE(validate_json(json, &error)) << error;

    // Field order is part of the schema contract.
    const char *order[] = {"\"schema\"",  "\"tool\"",     "\"name\"",
                           "\"git_sha\"", "\"robot\"",    "\"kernel\"",
                           "\"params\"",  "\"metrics\"",  "\"counters\"",
                           "\"histograms\""};
    std::size_t last = 0;
    for (const char *field : order) {
        const std::size_t at = json.find(field, last);
        ASSERT_NE(at, std::string::npos) << field;
        last = at;
    }
    EXPECT_NE(json.find(kRunReportSchema), std::string::npos);
    EXPECT_NE(json.find("\"pes_fwd\": 7"), std::string::npos);
}

TEST(RunReport, EmptySectionsArePresent)
{
    RunReport report("t", "n");
    const std::string json = report.to_json();
    EXPECT_TRUE(validate_json(json));
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ------------------------------------------------------- trace exporter ----

/** Tiling invariant: every PE's busy+stall+idle equals the makespan. */
void
expect_accounts_tile(const sched::TaskGraph &graph,
                     const sched::Schedule &schedule, const char *what)
{
    const auto accounts = account_schedule(graph, schedule);
    ASSERT_FALSE(accounts.empty()) << what;
    std::int64_t busy_total = 0;
    for (const PeAccount &a : accounts) {
        EXPECT_EQ(a.total(), schedule.makespan)
            << what << " pe " << a.pe << " busy " << a.busy << " stall "
            << a.stall << " idle " << a.idle;
        EXPECT_GE(a.busy, 0);
        EXPECT_GE(a.stall, 0);
        EXPECT_GE(a.idle, 0);
        busy_total += a.busy;
    }
    // Busy cycles are exactly the placed task durations.
    std::int64_t task_total = 0;
    for (const sched::Placement &p : schedule.placements)
        task_total += p.finish - p.start;
    EXPECT_EQ(busy_total, task_total) << what;
}

TEST(TraceExport, AccountsTileMakespanAcrossRobotsAndPools)
{
    // Two library robots x both PE pools (forward/backward stages and the
    // joint pipelined schedule, which carries both pools in one Schedule).
    for (RobotId id : {RobotId::kIiwa, RobotId::kHyq}) {
        const RobotModel model = build_robot(id);
        const accel::AcceleratorDesign design(model, {3, 2, 2});
        const sched::TaskGraph &graph = design.task_graph();
        expect_accounts_tile(graph, design.forward_stage(), robot_name(id));
        expect_accounts_tile(graph, design.backward_stage(), robot_name(id));
        expect_accounts_tile(graph, design.pipelined(), robot_name(id));

        // The pipelined accounts must cover both pools.
        const auto accounts = account_schedule(graph, design.pipelined());
        std::size_t fwd = 0, bwd = 0;
        for (const PeAccount &a : accounts)
            (a.pe_class == sched::PeClass::kForward ? fwd : bwd)++;
        EXPECT_EQ(fwd, 3u) << robot_name(id);
        EXPECT_EQ(bwd, 2u) << robot_name(id);
    }
}

TEST(TraceExport, TraceJsonIsValidDeterministicAndTagged)
{
    const RobotModel model = build_robot(RobotId::kHyq);
    const accel::AcceleratorDesign design(model, {3, 3, 6});
    ScheduleTraceOptions options;
    options.robot = "hyq";
    options.kernel = "dynamics_gradient";
    const std::string a =
        schedule_trace_json(design.task_graph(), design.pipelined(), options);
    const std::string b =
        schedule_trace_json(design.task_graph(), design.pipelined(), options);
    EXPECT_EQ(a, b);

    std::string error;
    EXPECT_TRUE(validate_json(a, &error)) << error;
    EXPECT_NE(a.find(kTraceSchema), std::string::npos);
    EXPECT_NE(a.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(a.find("\"robot\": \"hyq\""), std::string::npos);
}

/**
 * Golden-file check: the exporter's byte-exact output is part of its
 * contract (tools parse these artifacts).  Regenerate intentionally with
 *   ROBOSHAPE_UPDATE_GOLDEN=1 ctest -R TraceExport.GoldenFile
 */
TEST(TraceExport, GoldenFileByteExact)
{
    const RobotModel model = build_robot(RobotId::kBittle);
    const accel::AcceleratorDesign design(model, {2, 2, 1});
    ScheduleTraceOptions options;
    options.robot = "bittle";
    options.kernel = "dynamics_gradient";
    const std::string json =
        schedule_trace_json(design.task_graph(), design.pipelined(), options);

    const std::string path = std::string(ROBOSHAPE_SOURCE_DIR) +
                             "/tests/golden/trace_bittle_fwd2_bwd2.json";
    // Presence-only regeneration switch, not a parsed knob like
    // ROBOSHAPE_THREADS — no validated helper applies.
    if (std::getenv("ROBOSHAPE_UPDATE_GOLDEN") // NOLINT(banned-env-raw)
        != nullptr) {
        std::ofstream out(path);
        out << json;
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(json, buf.str())
        << "trace exporter output changed; if intentional, regenerate with "
           "ROBOSHAPE_UPDATE_GOLDEN=1";
}

TEST(TraceExport, WallSpansRenderAsValidTrace)
{
    std::vector<WallSpan> spans;
    spans.push_back(WallSpan{"sim.marshal", "phase", 1000, 2500, 0, -1, -1});
    spans.push_back(WallSpan{"rneaFwd", "op", 1100, 1300, 0, 4, -1});
    spans.push_back(WallSpan{"gradBwd", "op", 1300, 1900, 1, 2, 5});
    const std::string json = wall_spans_trace_json(spans);
    std::string error;
    EXPECT_TRUE(validate_json(json, &error)) << error;
    EXPECT_NE(json.find("sim.marshal"), std::string::npos);
    EXPECT_NE(json.find("\"tid\""), std::string::npos);
}

TEST(WallTrace, RecordsOnlyWhenEnabled)
{
    set_wall_trace_enabled(false);
    clear_wall_trace();
    record_wall_span("off", "phase", 10, 20);
    EXPECT_TRUE(wall_trace_spans().empty());

    set_wall_trace_enabled(true);
    record_wall_span("on", "phase", 10, 20);
#ifndef ROBOSHAPE_NO_OBS
    ASSERT_EQ(wall_trace_spans().size(), 1u);
    EXPECT_STREQ(wall_trace_spans()[0].name, "on");
#endif
    set_wall_trace_enabled(false);
    clear_wall_trace();
}

// ------------------------------------------------------ engine wall spans ----

TEST(WallTrace, SimEngineEmitsPhaseSpans)
{
    const RobotModel model = build_robot(RobotId::kIiwa);
    const topology::TopologyInfo topo(model);
    const accel::AcceleratorDesign design(model, {7, 7, 7});
    const accel::SimEngine engine(design);
    auto ws = engine.make_workspace();

    const auto state = dynamics::random_state(model, 7);
    const auto ref = dynamics::forward_dynamics_gradients(
        model, topo, state.q, state.qd, state.tau);
    const accel::InputPacket packet{&state.q, &state.qd, &ref.qdd,
                                    &ref.mass_inv};
    accel::EngineResult out;

    set_wall_trace_enabled(true);
    clear_wall_trace();
    engine.run(ws, packet, out);
    const auto spans = wall_trace_spans();
    set_wall_trace_enabled(false);
    clear_wall_trace();

#ifndef ROBOSHAPE_NO_OBS
    bool marshal = false, position = false, velocity = false, mm = false;
    std::size_t ops = 0;
    for (const WallSpan &s : spans) {
        const std::string name = s.name;
        marshal = marshal || name == "sim.marshal";
        position = position || name == "sim.position_pass";
        velocity = velocity || name == "sim.velocity_pass";
        mm = mm || name == "sim.mm_solve";
        if (std::string(s.category) == "op")
            ++ops;
        EXPECT_LE(s.t0_ns, s.t1_ns);
    }
    EXPECT_TRUE(marshal && position && velocity && mm);
    EXPECT_EQ(ops, out.tasks_executed);
#else
    EXPECT_TRUE(spans.empty());
#endif
}

// run_batch records the same spans as run(), once per lane group: a batch
// of exactly one group (lane_backend().width packets) yields each phase
// span once and one op span per trace op.  On the scalar backend the group
// is a single packet run through run().
TEST(WallTrace, RunBatchEmitsSpansPerLaneGroup)
{
    const RobotModel model = build_robot(RobotId::kIiwa);
    const topology::TopologyInfo topo(model);
    const accel::AcceleratorDesign design(model, {7, 7, 7});
    const accel::SimEngine engine(design);

    const std::size_t width = accel::simd::lane_backend().width;
    std::vector<dynamics::RobotState> states;
    std::vector<dynamics::ForwardDynamicsGradients> refs;
    for (std::size_t i = 0; i < width; ++i) {
        states.push_back(
            dynamics::random_state(model, 40 + static_cast<int>(i)));
        refs.push_back(dynamics::forward_dynamics_gradients(
            model, topo, states[i].q, states[i].qd, states[i].tau));
    }
    std::vector<accel::InputPacket> packets;
    for (std::size_t i = 0; i < width; ++i)
        packets.push_back({&states[i].q, &states[i].qd, &refs[i].qdd,
                           &refs[i].mass_inv});
    std::vector<accel::EngineResult> out(width);
    accel::SimEngine::BatchWorkspace batch;

    set_wall_trace_enabled(true);
    clear_wall_trace();
    engine.run_batch(packets, out, batch, 1);
    const auto spans = wall_trace_spans();
    set_wall_trace_enabled(false);
    clear_wall_trace();

#ifndef ROBOSHAPE_NO_OBS
    std::size_t marshal = 0, position = 0, velocity = 0, mm = 0, ops = 0;
    for (const WallSpan &s : spans) {
        const std::string name = s.name;
        marshal += name == "sim.marshal";
        position += name == "sim.position_pass";
        velocity += name == "sim.velocity_pass";
        mm += name == "sim.mm_solve";
        ops += std::string(s.category) == "op";
        EXPECT_LE(s.t0_ns, s.t1_ns);
    }
    EXPECT_EQ(marshal, 1u);
    EXPECT_EQ(position, 1u);
    EXPECT_EQ(velocity, 1u);
    EXPECT_EQ(mm, 1u);
    EXPECT_EQ(ops, engine.trace_length());
#else
    EXPECT_TRUE(spans.empty());
#endif
}

// ------------------------------------------------------ sweep memo stats ----

TEST(SweepMemoStats, CountsHitsAndMisses)
{
    const RobotModel model = build_robot(RobotId::kBittle);
    core::SweepContext ctx(model);
    EXPECT_EQ(ctx.memo_stats().hits() + ctx.memo_stats().misses(), 0u);

    ctx.forward(2);
    ctx.forward(2);
    ctx.forward(3);
    const core::SweepMemoStats s = ctx.memo_stats();
    EXPECT_EQ(s.forward_misses, 2u);
    EXPECT_EQ(s.forward_hits, 1u);

    ctx.block_multiply(1);
    ctx.block_multiply(1);
    EXPECT_EQ(ctx.memo_stats().block_misses, 1u);
    EXPECT_EQ(ctx.memo_stats().block_hits, 1u);

    ctx.pipelined(2, 2);
    ctx.pipelined(2, 2);
    EXPECT_EQ(ctx.memo_stats().pipelined_misses, 1u);
    EXPECT_EQ(ctx.memo_stats().pipelined_hits, 1u);
}

// ------------------------------------------------------ timeline glyphs ----

TEST(Timeline, Base36GlyphsAndLegend)
{
    // The humanoid has 27 links — beyond the old 10-digit glyph set, within
    // base 36.  Link 10 must render as 'a', not alias back to '0'.
    const RobotModel model = build_robot(RobotId::kHumanoid);
    const topology::TopologyInfo topo(model);
    const sched::TaskGraph graph(topo);
    const sched::Schedule schedule = sched::schedule_pipelined(
        graph, 4, 4, sched::TaskTiming{1, 1, 1, 1});
    const std::string text =
        sched::render_timeline(graph, schedule, 4096, true);

    EXPECT_NE(text.find('a'), std::string::npos);
    EXPECT_NE(text.find("glyphs:"), std::string::npos);
    EXPECT_NE(text.find("a=link10"), std::string::npos);
    EXPECT_NE(text.find("starts:"), std::string::npos);
}

} // namespace
} // namespace obs
} // namespace roboshape
