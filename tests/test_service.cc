/**
 * @file
 * Tests of the roboshaped service stack (docs/SERVICE.md): the shared
 * strict numeric parser, the request-body JSON reader, the HTTP message
 * layer, the handler surface (driven without sockets), and live-socket
 * end-to-end round trips including concurrent cache sharing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/parse_uint.h"
#include "net/http.h"
#include "net/socket.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/wall_trace.h"
#include "service/cache.h"
#include "service/flight_recorder.h"
#include "service/handlers.h"
#include "service/server.h"
#include "topology/robot_library.h"

namespace {

using namespace roboshape;

// ---------------------------------------------------------------------------
// core::parse_uint — the strict parser every CLI flag and env var uses.

TEST(ParseUint, AcceptsPlainDecimal)
{
    EXPECT_EQ(core::parse_uint("0"), 0u);
    EXPECT_EQ(core::parse_uint("7"), 7u);
    EXPECT_EQ(core::parse_uint("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseUint, RejectsTrailingGarbage)
{
    // The std::stoul failure mode this replaces: "4abc" parsed as 4.
    EXPECT_FALSE(core::parse_uint("4abc"));
    EXPECT_FALSE(core::parse_uint("12 "));
    EXPECT_FALSE(core::parse_uint(" 12"));
    EXPECT_FALSE(core::parse_uint("1.5"));
    EXPECT_FALSE(core::parse_uint("0x10"));
}

TEST(ParseUint, RejectsSignsAndEmpty)
{
    // strtoull wraps "-1" to UINT64_MAX; here it is simply not a digit.
    EXPECT_FALSE(core::parse_uint("-1"));
    EXPECT_FALSE(core::parse_uint("+1"));
    EXPECT_FALSE(core::parse_uint(""));
    EXPECT_FALSE(core::parse_uint("abc"));
}

TEST(ParseUint, RejectsOverflow)
{
    EXPECT_FALSE(core::parse_uint("18446744073709551616")); // 2^64
    EXPECT_FALSE(core::parse_uint("99999999999999999999"));
}

TEST(ParseUint, EnforcesRange)
{
    EXPECT_EQ(core::parse_uint("4", 1, 8), 4u);
    EXPECT_FALSE(core::parse_uint("0", 1, 8));
    EXPECT_FALSE(core::parse_uint("9", 1, 8));
    EXPECT_EQ(core::parse_uint("8", 1, 8), 8u);
}

// ---------------------------------------------------------------------------
// net: pure-buffer HTTP parsers.

TEST(Http, ParsesRequestHead)
{
    net::HttpRequest request;
    const auto result = net::parse_request_head(
        "POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\n",
        request);
    ASSERT_EQ(result, net::ReadResult::kOk);
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.target, "/v1/sweep");
    EXPECT_EQ(request.version, "HTTP/1.1");
    EXPECT_EQ(request.header("content-length"), "5"); // case-insensitive
    EXPECT_TRUE(request.keep_alive());
}

TEST(Http, KeepAliveSemantics)
{
    net::HttpRequest request;
    ASSERT_EQ(net::parse_request_head(
                  "GET / HTTP/1.1\r\nConnection: close\r\n\r\n", request),
              net::ReadResult::kOk);
    EXPECT_FALSE(request.keep_alive());
    ASSERT_EQ(net::parse_request_head("GET / HTTP/1.0\r\n\r\n", request),
              net::ReadResult::kOk);
    EXPECT_FALSE(request.keep_alive()); // 1.0 defaults to close
}

TEST(Http, RejectsMalformedAndUnsupported)
{
    net::HttpRequest request;
    EXPECT_EQ(net::parse_request_head("nonsense\r\n\r\n", request),
              net::ReadResult::kMalformed);
    EXPECT_EQ(net::parse_request_head("GET / HTTP/2.0\r\n\r\n", request),
              net::ReadResult::kUnsupported);
    EXPECT_EQ(net::parse_request_head("POST / HTTP/1.1\r\n"
                                      "Transfer-Encoding: chunked\r\n\r\n",
                                      request),
              net::ReadResult::kUnsupported);
}

TEST(Http, ResponseSerializeParseRoundTrip)
{
    net::HttpResponse out = net::json_response(200, "{\"a\":1}");
    out.set_header("X-Roboshape-Cache", "hit");
    const std::string wire = out.serialize(true);
    // Deterministic bodies: no Date or other time-varying headers.
    EXPECT_EQ(wire.find("Date:"), std::string::npos);

    net::HttpResponse in;
    std::size_t consumed = 0;
    ASSERT_TRUE(net::parse_response(wire, in, &consumed));
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(in.status, 200);
    EXPECT_EQ(in.body, "{\"a\":1}");
    EXPECT_EQ(in.header("x-roboshape-cache"), "hit");
}

// ---------------------------------------------------------------------------
// service: structural model hash.

TEST(ModelHash, StableAndDiscriminating)
{
    const auto iiwa = topology::build_robot(topology::RobotId::kIiwa);
    const auto iiwa2 = topology::build_robot(topology::RobotId::kIiwa);
    const auto hyq = topology::build_robot(topology::RobotId::kHyq);
    EXPECT_EQ(service::model_hash(iiwa), service::model_hash(iiwa2));
    EXPECT_NE(service::model_hash(iiwa), service::model_hash(hyq));
}

// ---------------------------------------------------------------------------
// service: handler surface, driven without sockets.

net::HttpRequest
post(const std::string &target, const std::string &body)
{
    net::HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = body;
    return request;
}

net::HttpRequest
get(const std::string &target)
{
    net::HttpRequest request;
    request.method = "GET";
    request.target = target;
    request.version = "HTTP/1.1";
    return request;
}

TEST(Service, HealthzAndRobots)
{
    service::Service svc;
    const auto health = svc.handle(get("/healthz"));
    EXPECT_EQ(health.status, 200);
    EXPECT_TRUE(obs::validate_json(health.body));

    const auto robots = svc.handle(get("/v1/robots"));
    EXPECT_EQ(robots.status, 200);
    EXPECT_TRUE(obs::validate_json(robots.body));
    EXPECT_NE(robots.body.find("\"iiwa\""), std::string::npos);
}

TEST(Service, RejectsBadRequests)
{
    service::Service svc;
    EXPECT_EQ(svc.handle(post("/v1/sweep", "")).status, 400);
    EXPECT_EQ(svc.handle(post("/v1/sweep", "{nope")).status, 400);
    EXPECT_EQ(svc.handle(post("/v1/sweep", "[1,2]")).status, 400);
    EXPECT_EQ(svc.handle(post("/v1/sweep", R"({"bogus": 1})")).status, 400);
    EXPECT_EQ(
        svc.handle(post("/v1/sweep", R"({"robot": "x", "urdf": "y"})"))
            .status,
        400);
    EXPECT_EQ(svc.handle(post("/v1/sweep", R"({"robot": "marvin"})")).status,
              404);
    EXPECT_EQ(svc.handle(
                     post("/v1/sweep",
                          R"({"robot": "iiwa", "kernel": "quantum"})"))
                  .status,
              400);
    // Knob caps only exist on design/report.
    EXPECT_EQ(svc.handle(post("/v1/sweep",
                              R"({"robot": "iiwa", "max_pes_fwd": 2})"))
                  .status,
              400);
    EXPECT_EQ(svc.handle(post("/v1/design",
                              R"({"robot": "iiwa", "max_pes_fwd": 0})"))
                  .status,
              400);
    EXPECT_EQ(svc.handle(get("/v1/sweep")).status, 405);
    EXPECT_EQ(svc.handle(get("/nope")).status, 404);
    // Every error body is machine-readable JSON.
    EXPECT_TRUE(obs::validate_json(svc.handle(get("/nope")).body));
}

// The three POST handlers that read a JSON object share one body check;
// these are its exact 400 bodies, and each handler keeps its own text for
// a missing body.
TEST(Service, PostHandlersAnswerBadBodiesIdentically)
{
    service::Service svc;
    const std::pair<const char *, const char *> bad_bodies[] = {
        {R"({"a": 01})",
         R"({"error":"invalid JSON: leading zero at byte 6"})"},
        {R"({"robot": "iiwa")",
         R"({"error":"invalid JSON: unterminated object at byte 16"})"},
        {"[1, 2]", R"({"error":"request body must be a JSON object"})"},
        {"not json", R"({"error":"invalid JSON: invalid literal at byte 0"})"},
    };
    const std::pair<const char *, const char *> targets[] = {
        {"/v1/sweep", R"({"error":"request body required: {\"robot\": )"
                      R"(name} or {\"urdf\": text}"})"},
        {"/v1/validate", R"({"error":"request body required"})"},
        {"/v1/debug/trace", R"({"error":"request body required: )"
                            R"({\"enabled\": true|false}"})"},
    };
    for (const auto &[target, missing_body] : targets) {
        const auto empty = svc.handle(post(target, ""));
        EXPECT_EQ(empty.status, 400) << target;
        EXPECT_EQ(empty.body, missing_body) << target;
        for (const auto &[body, expected] : bad_bodies) {
            const auto response = svc.handle(post(target, body));
            EXPECT_EQ(response.status, 400) << target << " " << body;
            EXPECT_EQ(response.body, expected) << target << " " << body;
        }
    }
}

// Requests (RFC 8259 §8.1) and responses are UTF-8: the reader refuses
// ill-formed bytes, and text echoed from the request line is repaired.
TEST(Service, IllFormedUtf8IsRefusedAndNeverEchoed)
{
    service::Service svc;
    const auto refused = svc.handle(post("/v1/sweep", "{\"\xff\xfe\": 1}"));
    EXPECT_EQ(refused.status, 400);
    EXPECT_EQ(refused.body,
              R"({"error":"invalid JSON: invalid UTF-8 at byte 2"})");

    const std::pair<const char *, const char *> probes[] = {
        {"/v1/sweep", "{\"robot\": \"\xff\"}"},
        {"/v1/sweep", "{\"robot\": \"iiwa\", \"kernel\": \"\xe9\"}"},
        {"/v1/validate", "{\"urdf\": \"<robot name='\xff'><link "
                         "name='base'/></robot>\"}"},
    };
    for (const auto &[target, body] : probes) {
        const auto response = svc.handle(post(target, body));
        EXPECT_EQ(response.status, 400) << body;
        EXPECT_NE(response.body.find("invalid UTF-8"), std::string::npos)
            << response.body;
    }

    const auto missing = svc.handle(get("/v1/\xff"));
    EXPECT_EQ(missing.status, 404);
    std::string error;
    EXPECT_TRUE(obs::validate_json(missing.body, &error)) << error;
    EXPECT_NE(missing.body.find("/v1/\xEF\xBF\xBD"), std::string::npos)
        << missing.body;
}

TEST(Service, ValidateReportsInsteadOfRejecting)
{
    service::Service svc;
    const auto good = svc.handle(post("/v1/validate", R"({"robot": "iiwa"})"));
    EXPECT_EQ(good.status, 200);
    EXPECT_TRUE(obs::validate_json(good.body));
    EXPECT_NE(good.body.find("\"ok\":true"), std::string::npos);

    // Malformed URDF is still a *successful* validation request.
    const auto bad = svc.handle(
        post("/v1/validate", R"({"urdf": "<robot name='x'><oops"})"));
    EXPECT_EQ(bad.status, 200);
    EXPECT_TRUE(obs::validate_json(bad.body));
    EXPECT_NE(bad.body.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(bad.body.find("diagnostics"), std::string::npos);
}

TEST(Service, ComputeEndpointsRejectBadUrdfWith422)
{
    service::Service svc;
    const auto response = svc.handle(
        post("/v1/sweep", R"({"urdf": "<robot name='x'><oops"})"));
    EXPECT_EQ(response.status, 422);
    EXPECT_TRUE(obs::validate_json(response.body));
    EXPECT_NE(response.body.find("diagnostics"), std::string::npos);
}

TEST(Service, SweepCachesByteIdentically)
{
    service::Service svc;
    const auto cold = svc.handle(post("/v1/sweep", R"({"robot": "iiwa"})"));
    ASSERT_EQ(cold.status, 200);
    EXPECT_TRUE(obs::validate_json(cold.body));
    EXPECT_EQ(cold.header("X-Roboshape-Cache"), "miss");

    const auto hot = svc.handle(post("/v1/sweep", R"({"robot": "IIWA"})"));
    ASSERT_EQ(hot.status, 200);
    EXPECT_EQ(hot.header("X-Roboshape-Cache"), "hit");
    EXPECT_EQ(hot.body, cold.body); // byte-identical, case-folded name

    // A different kernel is a different cache entry, not a hit.
    const auto crba = svc.handle(
        post("/v1/sweep", R"({"robot": "iiwa", "kernel": "crba"})"));
    ASSERT_EQ(crba.status, 200);
    EXPECT_EQ(crba.header("X-Roboshape-Cache"), "miss");
    EXPECT_NE(crba.body, cold.body);
    EXPECT_EQ(svc.cache().size(), 2u);
}

/**
 * Golden /v1/sweep bodies: every library robot under every kernel, each
 * on a fresh Service (a cold sweep), compared byte for byte with
 * tests/golden/sweep/<robot>_<kernel>.json.  The files are an oracle
 * independent of DesignSpace, which both the daemon and the perfbench
 * frontier check compose through.  Regenerate intentionally with
 *   ROBOSHAPE_UPDATE_GOLDEN=1 ctest -R Service.SweepBodiesMatchGoldens
 */
TEST(Service, SweepBodiesMatchGoldens)
{
    const bool update =
        // Presence-only regeneration switch, as in the trace golden.
        std::getenv("ROBOSHAPE_UPDATE_GOLDEN") // NOLINT(banned-env-raw)
        != nullptr;
    for (const auto &ids :
         {topology::all_robots(), topology::extended_robots()})
        for (const topology::RobotId id : ids)
            for (const char *kernel : {"gradient", "crba", "kinematics"}) {
                const std::string robot = topology::robot_name(id);
                std::string stem;
                for (const unsigned char c : robot)
                    stem += std::isalnum(c)
                                ? static_cast<char>(std::tolower(c))
                                : '_';
                const std::string path =
                    std::string(ROBOSHAPE_SOURCE_DIR) +
                    "/tests/golden/sweep/" + stem + "_" + kernel + ".json";

                service::Service svc;
                const auto response = svc.handle(
                    post("/v1/sweep", "{\"robot\": \"" + robot +
                                          "\", \"kernel\": \"" + kernel +
                                          "\"}"));
                ASSERT_EQ(response.status, 200) << path;
                if (update) {
                    std::ofstream out(path, std::ios::binary);
                    out << response.body;
                    ASSERT_TRUE(out.good()) << "cannot write " << path;
                    continue;
                }
                std::ifstream in(path, std::ios::binary);
                ASSERT_TRUE(in.good()) << "missing golden file " << path;
                std::stringstream buf;
                buf << in.rdbuf();
                EXPECT_EQ(response.body, buf.str())
                    << path << ": /v1/sweep body changed; if intentional, "
                    << "regenerate with ROBOSHAPE_UPDATE_GOLDEN=1";
            }
}

TEST(Service, DesignClampsKnobsAndReportsPlatforms)
{
    service::Service svc;
    const auto response = svc.handle(post(
        "/v1/design",
        R"({"robot": "iiwa", "max_pes_fwd": 4096, "max_pes_bwd": 2})"));
    ASSERT_EQ(response.status, 200);
    EXPECT_TRUE(obs::validate_json(response.body));
    // iiwa has 7 links: the 4096 cap clamps to 7.
    EXPECT_NE(response.body.find("\"pes_fwd\":7"), std::string::npos);
    EXPECT_NE(response.body.find("\"pes_bwd\":2"), std::string::npos);
    EXPECT_NE(response.body.find("VCU118"), std::string::npos);
    EXPECT_NE(response.body.find("VC707"), std::string::npos);

    // Same knobs again: served from the body cache.
    const auto again = svc.handle(post(
        "/v1/design",
        R"({"robot": "iiwa", "max_pes_fwd": 4096, "max_pes_bwd": 2})"));
    EXPECT_EQ(again.header("X-Roboshape-Cache"), "hit");
    EXPECT_EQ(again.body, response.body);
}

TEST(Service, ReportEmitsRunReportSchema)
{
    service::Service svc;
    const auto response =
        svc.handle(post("/v1/report", R"({"robot": "hyq"})"));
    ASSERT_EQ(response.status, 200);
    EXPECT_TRUE(obs::validate_json(response.body));
    EXPECT_NE(response.body.find("roboshape.run_report/1"),
              std::string::npos);
}

/** "/v1/design" body for iiwa at knob caps (f, b, k). */
std::string
iiwa_design_body(std::size_t f, std::size_t b, std::size_t k)
{
    return "{\"robot\": \"iiwa\", \"max_pes_fwd\": " + std::to_string(f) +
           ", \"max_pes_bwd\": " + std::to_string(b) +
           ", \"max_block_size\": " + std::to_string(k) + "}";
}

TEST(Service, DesignBodiesPerEntryAreCapped)
{
    service::Service svc;
    const auto first = svc.handle(post("/v1/design", iiwa_design_body(1, 1, 1)));
    ASSERT_EQ(first.status, 200);
    for (std::size_t f = 1; f <= 7; ++f)
        for (std::size_t b = 1; b <= 7; ++b)
            for (std::size_t k = 1; k <= 7; ++k) {
                const auto r =
                    svc.handle(post("/v1/design", iiwa_design_body(f, b, k)));
                ASSERT_EQ(r.status, 200);
                EXPECT_EQ(r.header("X-Roboshape-Cache"),
                          f + b + k == 3 ? "hit" : "miss");
            }
    const topology::RobotModel iiwa =
        topology::build_robot(topology::RobotId::kIiwa);
    const auto entry = svc.cache().entry(
        service::model_hash(iiwa), sched::KernelKind::kDynamicsGradient,
        iiwa);
    {
        std::lock_guard<std::mutex> lock(entry->mutex());
        EXPECT_EQ(entry->body_count(), service::kMaxDesignBodies);
    }
    // The first triple was evicted: rendered again, byte for byte.
    const auto again = svc.handle(post("/v1/design", iiwa_design_body(1, 1, 1)));
    EXPECT_EQ(again.header("X-Roboshape-Cache"), "miss");
    EXPECT_EQ(again.body, first.body);
    // A sweep body is never evicted by design bodies.
    const auto sweep = svc.handle(post("/v1/sweep", R"({"robot": "iiwa"})"));
    for (std::size_t k = 1; k <= 7; ++k)
        svc.handle(post("/v1/design", iiwa_design_body(7, 7, k)));
    const auto sweep_again =
        svc.handle(post("/v1/sweep", R"({"robot": "iiwa"})"));
    EXPECT_EQ(sweep_again.header("X-Roboshape-Cache"), "hit");
    EXPECT_EQ(sweep_again.body, sweep.body);
}

// ---------------------------------------------------------------------------
// service: the inline-URDF text memo (docs/SERVICE.md, "Caching").

std::uint64_t
counter_value(const char *name)
{
    return obs::registry().counter(name).value();
}

/** {"urdf": text, ...extra} with the text JSON-escaped. */
std::string
urdf_body(const std::string &text, std::optional<std::size_t> pes = {})
{
    obs::JsonWriter w;
    w.begin_object();
    w.kv("urdf", text);
    if (pes) {
        w.kv("max_pes_fwd", static_cast<std::uint64_t>(*pes));
        w.kv("max_pes_bwd", static_cast<std::uint64_t>(*pes));
    }
    w.end_object();
    return w.str();
}

std::string
topology_hash_of(const std::string &body)
{
    const std::string tag = "\"topology_hash\":\"";
    const std::size_t at = body.find(tag);
    return at == std::string::npos ? std::string()
                                   : body.substr(at + tag.size(), 16);
}

TEST(UrdfMemo, DesignAfterSweepOfTheSameTextSkipsTheParse)
{
    service::Service svc;
    const std::string text = topology::robot_urdf(topology::RobotId::kIiwa);
    const std::uint64_t hits = counter_value("svc.urdf_memo_hits");
    const std::uint64_t misses = counter_value("svc.urdf_memo_misses");

    const auto sweep = svc.handle(post("/v1/sweep", urdf_body(text)));
    ASSERT_EQ(sweep.status, 200);
    EXPECT_EQ(counter_value("svc.urdf_memo_misses"), misses + 1);
    EXPECT_EQ(counter_value("svc.urdf_memo_hits"), hits);

    const auto design = svc.handle(post("/v1/design", urdf_body(text, 3)));
    ASSERT_EQ(design.status, 200);
    EXPECT_EQ(counter_value("svc.urdf_memo_misses"), misses + 1);
    EXPECT_EQ(counter_value("svc.urdf_memo_hits"), hits + 1);
    EXPECT_FALSE(topology_hash_of(sweep.body).empty());
    EXPECT_EQ(topology_hash_of(design.body), topology_hash_of(sweep.body));
    EXPECT_EQ(svc.cache().urdf_memo_size(), 1u);
}

TEST(UrdfMemo, OneChangedInertiaByteMissesWithAnotherHash)
{
    service::Service svc;
    const std::string text = topology::robot_urdf(topology::RobotId::kIiwa);
    std::string changed = text;
    const std::size_t at = changed.find("ixx=\"");
    ASSERT_NE(at, std::string::npos);
    char &digit = changed[at + 5];
    ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(digit)));
    digit = digit == '9' ? '8' : static_cast<char>(digit + 1);

    const auto a = svc.handle(post("/v1/sweep", urdf_body(text)));
    const std::uint64_t misses = counter_value("svc.urdf_memo_misses");
    const auto b = svc.handle(post("/v1/sweep", urdf_body(changed)));
    ASSERT_EQ(a.status, 200);
    ASSERT_EQ(b.status, 200);
    EXPECT_EQ(counter_value("svc.urdf_memo_misses"), misses + 1);
    EXPECT_EQ(b.header("X-Roboshape-Cache"), "miss");
    EXPECT_NE(topology_hash_of(a.body), topology_hash_of(b.body));
}

TEST(UrdfMemo, FailingTextIsParsedEveryTimeAndNeverStored)
{
    service::Service svc;
    const std::string bad = "<robot name='x'><link name='a'/><oops";
    const std::uint64_t misses = counter_value("svc.urdf_memo_misses");
    const auto first = svc.handle(post("/v1/sweep", urdf_body(bad)));
    const auto second = svc.handle(post("/v1/sweep", urdf_body(bad)));
    EXPECT_EQ(first.status, 422);
    EXPECT_EQ(second.status, 422);
    EXPECT_EQ(second.body, first.body);
    EXPECT_EQ(counter_value("svc.urdf_memo_misses"), misses + 2);
    EXPECT_EQ(svc.cache().urdf_memo_size(), 0u);
}

TEST(UrdfMemo, WhitespaceVariantMissesTheMemoButHitsTheSweepBody)
{
    service::Service svc;
    const std::string text = topology::robot_urdf(topology::RobotId::kHyq);
    const auto cold = svc.handle(post("/v1/sweep", urdf_body(text)));
    const std::uint64_t misses = counter_value("svc.urdf_memo_misses");
    const auto variant =
        svc.handle(post("/v1/sweep", urdf_body(text + "\n  \n")));
    ASSERT_EQ(variant.status, 200);
    EXPECT_EQ(counter_value("svc.urdf_memo_misses"), misses + 1);
    EXPECT_EQ(variant.header("X-Roboshape-Cache"), "hit");
    EXPECT_EQ(variant.body, cold.body);
    EXPECT_EQ(svc.cache().urdf_memo_size(), 2u);
}

TEST(UrdfMemo, EvictsTheOldestTextBeyondTheEntryCap)
{
    service::Service svc;
    const std::string text = topology::robot_urdf(topology::RobotId::kBittle);
    const auto variant = [&](std::size_t i) {
        return urdf_body(text + "<!-- " + std::to_string(i) + " -->");
    };
    for (std::size_t i = 0; i <= service::kMaxCacheEntries; ++i)
        ASSERT_EQ(svc.handle(post("/v1/sweep", variant(i))).status, 200);
    EXPECT_EQ(svc.cache().urdf_memo_size(), service::kMaxCacheEntries);

    const std::uint64_t hits = counter_value("svc.urdf_memo_hits");
    const std::uint64_t misses = counter_value("svc.urdf_memo_misses");
    svc.handle(post("/v1/sweep", variant(service::kMaxCacheEntries)));
    EXPECT_EQ(counter_value("svc.urdf_memo_hits"), hits + 1);
    svc.handle(post("/v1/sweep", variant(0)));
    EXPECT_EQ(counter_value("svc.urdf_memo_misses"), misses + 1);
}

TEST(UrdfMemo, TextOverTheByteBudgetIsNeverStored)
{
    service::Service svc;
    const std::string text = topology::robot_urdf(topology::RobotId::kBittle) +
                             "<!--" +
                             std::string(service::kMaxMemoBytes, 'x') +
                             "-->";
    const std::uint64_t misses = counter_value("svc.urdf_memo_misses");
    const auto first = svc.handle(post("/v1/sweep", urdf_body(text)));
    const auto second = svc.handle(post("/v1/sweep", urdf_body(text)));
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(second.body, first.body);
    EXPECT_EQ(counter_value("svc.urdf_memo_misses"), misses + 2);
    EXPECT_EQ(svc.cache().urdf_memo_size(), 0u);
}

TEST(UrdfMemo, ConcurrentPostsOfOneTextGetIdenticalBodies)
{
    service::Service svc;
    const std::string body =
        urdf_body(topology::robot_urdf(topology::RobotId::kBaxter));
    constexpr std::size_t kThreads = 8;
    std::vector<std::string> sweeps(kThreads), designs(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            sweeps[t] = svc.handle(post("/v1/sweep", body)).body;
            designs[t] = svc.handle(post("/v1/design", body)).body;
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_FALSE(topology_hash_of(sweeps[0]).empty());
    for (std::size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(sweeps[t], sweeps[0]) << "thread " << t;
        EXPECT_EQ(designs[t], designs[0]) << "thread " << t;
    }
    EXPECT_EQ(svc.cache().urdf_memo_size(), 1u);
}

// ---------------------------------------------------------------------------
// service: telemetry endpoints (driven without sockets).

TEST(Service, ClassifyEndpointCoversTheSurface)
{
    using service::Endpoint;
    EXPECT_EQ(service::classify_endpoint("/healthz"), Endpoint::kHealthz);
    EXPECT_EQ(service::classify_endpoint("/v1/robots"), Endpoint::kRobots);
    EXPECT_EQ(service::classify_endpoint("/v1/validate"),
              Endpoint::kValidate);
    EXPECT_EQ(service::classify_endpoint("/v1/sweep"), Endpoint::kSweep);
    EXPECT_EQ(service::classify_endpoint("/v1/design"), Endpoint::kDesign);
    EXPECT_EQ(service::classify_endpoint("/v1/report"), Endpoint::kReport);
    EXPECT_EQ(service::classify_endpoint("/metrics"), Endpoint::kMetrics);
    EXPECT_EQ(service::classify_endpoint("/v1/statz"), Endpoint::kStatz);
    EXPECT_EQ(service::classify_endpoint("/v1/debug/trace"),
              Endpoint::kDebug);
    EXPECT_EQ(service::classify_endpoint("/v1/debug/trace/42"),
              Endpoint::kDebug);
    EXPECT_EQ(service::classify_endpoint("/v1/debug/requests"),
              Endpoint::kDebug);
    EXPECT_EQ(service::classify_endpoint("/nope"), Endpoint::kOther);
    EXPECT_STREQ(service::endpoint_name(Endpoint::kDesign), "design");
    EXPECT_STREQ(service::endpoint_name(Endpoint::kOther), "other");
}

TEST(Service, MetricsServesPrometheusText)
{
    service::Service svc;
    // Populate at least one counter before scraping.
    ASSERT_EQ(svc.handle(post("/v1/sweep", R"({"robot": "iiwa"})")).status,
              200);
    const auto response = svc.handle(get("/metrics"));
    ASSERT_EQ(response.status, 200);
    const auto type = response.header("Content-Type");
    ASSERT_TRUE(type);
    EXPECT_NE(type->find("text/plain"), std::string::npos);
    // The sweep above guarantees cache counters to scrape.
    EXPECT_NE(response.body.find("# TYPE"), std::string::npos);
    EXPECT_NE(response.body.find("roboshape_svc_cache_misses"),
              std::string::npos);
    // Deterministic ordering: two scrapes of a quiet registry agree on
    // the family ordering (values may move, names may not).
    const auto again = svc.handle(get("/metrics"));
    EXPECT_EQ(again.status, 200);

    EXPECT_EQ(svc.handle(post("/metrics", "")).status, 405);
}

TEST(Service, StatzDumpsTheRegistry)
{
    service::Service svc;
    ASSERT_EQ(svc.handle(post("/v1/sweep", R"({"robot": "iiwa"})")).status,
              200);
    const auto response = svc.handle(get("/v1/statz"));
    ASSERT_EQ(response.status, 200);
    std::string error;
    EXPECT_TRUE(obs::validate_json(response.body, &error)) << error;
    EXPECT_NE(response.body.find(service::kMetricsDumpSchema),
              std::string::npos);
    EXPECT_NE(response.body.find("\"git_sha\""), std::string::npos);
    EXPECT_NE(response.body.find("\"histograms\""), std::string::npos);
    EXPECT_NE(response.body.find("\"p99\""), std::string::npos);
    EXPECT_EQ(svc.handle(post("/v1/statz", "")).status, 405);
}

TEST(Service, DebugTraceTogglesAtRuntime)
{
    service::Service svc;
    obs::set_wall_trace_enabled(false);

    auto state = svc.handle(get("/v1/debug/trace"));
    ASSERT_EQ(state.status, 200);
    EXPECT_NE(state.body.find("false"), std::string::npos);

    const auto on =
        svc.handle(post("/v1/debug/trace", R"({"enabled": true})"));
    ASSERT_EQ(on.status, 200);
    EXPECT_TRUE(obs::wall_trace_enabled());
    state = svc.handle(get("/v1/debug/trace"));
    EXPECT_NE(state.body.find("true"), std::string::npos);

    const auto off =
        svc.handle(post("/v1/debug/trace", R"({"enabled": false})"));
    ASSERT_EQ(off.status, 200);
    EXPECT_FALSE(obs::wall_trace_enabled());

    // Strict body: unknown keys, wrong types, and non-objects are 400.
    EXPECT_EQ(svc.handle(post("/v1/debug/trace", "")).status, 400);
    EXPECT_EQ(svc.handle(post("/v1/debug/trace", R"({"enabled": 1})"))
                  .status,
              400);
    EXPECT_EQ(
        svc.handle(post("/v1/debug/trace", R"({"enabled": true, "x": 1})"))
            .status,
        400);
    // Unknown debug paths and bad trace ids.
    EXPECT_EQ(svc.handle(get("/v1/debug/nope")).status, 404);
    EXPECT_EQ(svc.handle(get("/v1/debug/trace/abc")).status, 400);
}

TEST(Service, DebugRequestsDumpIsValidJson)
{
    service::Service svc;
    const auto response = svc.handle(get("/v1/debug/requests"));
    ASSERT_EQ(response.status, 200);
    std::string error;
    EXPECT_TRUE(obs::validate_json(response.body, &error)) << error;
    EXPECT_NE(response.body.find(service::kRequestsDumpSchema),
              std::string::npos);
    EXPECT_NE(response.body.find("\"requests\""), std::string::npos);
}

TEST(FlightRecorder, KeepsTheLastNInOrder)
{
    service::FlightRecorder recorder;
    for (std::uint64_t i = 1; i <= service::kFlightRecorderCapacity + 10;
         ++i) {
        service::RequestRecord record;
        record.id = i;
        record.endpoint = "design";
        record.method = "POST";
        record.status = 200;
        recorder.record(record);
    }
    const auto records = recorder.snapshot();
    ASSERT_EQ(records.size(), service::kFlightRecorderCapacity);
    // Oldest-first, ending at the newest id.
    for (std::size_t i = 1; i < records.size(); ++i)
        EXPECT_EQ(records[i].id, records[i - 1].id + 1);
    EXPECT_EQ(records.back().id, service::kFlightRecorderCapacity + 10);
    EXPECT_EQ(recorder.total(), service::kFlightRecorderCapacity + 10);
}

// ---------------------------------------------------------------------------
// Live-socket end-to-end tests.

TEST(ServerE2E, EveryLibraryRobotRoundTrips)
{
    service::Service svc;
    service::ServerOptions options;
    options.port = 0;
    options.workers = 2;
    service::Server server(svc, options);
    ASSERT_TRUE(server.start()) << server.error();

    for (const auto &ids :
         {topology::all_robots(), topology::extended_robots()})
        for (topology::RobotId id : ids) {
            const std::string name = topology::robot_name(id);
            net::TcpConn conn = net::dial(server.port(), 5000);
            ASSERT_TRUE(conn.valid()) << name;
            std::string leftover;
            for (const char *target : {"/v1/validate", "/v1/design"}) {
                const auto response = net::roundtrip(
                    conn, post(target, "{\"robot\": \"" + name + "\"}"),
                    leftover, 30000);
                ASSERT_TRUE(response) << name << " " << target;
                EXPECT_EQ(response->status, 200) << name << " " << target;
                EXPECT_TRUE(obs::validate_json(response->body))
                    << name << " " << target;
            }
        }
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(ServerE2E, ConcurrentClientsShareTheCache)
{
    service::Service svc;
    service::ServerOptions options;
    options.port = 0;
    options.workers = 8;
    service::Server server(svc, options);
    ASSERT_TRUE(server.start()) << server.error();

    std::uint64_t hits_before = 0;
    for (const auto &c : obs::registry().counters())
        if (c.name == "svc.cache_hits")
            hits_before = c.value;

    // Single-client reference body first (the cold render).
    std::string reference;
    {
        net::TcpConn conn = net::dial(server.port(), 5000);
        ASSERT_TRUE(conn.valid());
        std::string leftover;
        const auto response = net::roundtrip(
            conn, post("/v1/sweep", R"({"robot": "baxter"})"), leftover,
            30000);
        ASSERT_TRUE(response);
        ASSERT_EQ(response->status, 200);
        reference = response->body;
    }

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 20;
    std::vector<std::size_t> mismatches(kThreads, 0);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kThreads; ++t)
        clients.emplace_back([&, t] {
            net::TcpConn conn = net::dial(server.port(), 5000);
            if (!conn.valid()) {
                mismatches[t] = kPerThread;
                return;
            }
            std::string leftover;
            for (std::size_t i = 0; i < kPerThread; ++i) {
                const auto response = net::roundtrip(
                    conn, post("/v1/sweep", R"({"robot": "baxter"})"),
                    leftover, 30000);
                if (!response || response->status != 200 ||
                    response->body != reference)
                    ++mismatches[t];
            }
        });
    for (std::thread &t : clients)
        t.join();
    server.stop();

    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "client " << t;

    std::uint64_t hits_after = 0;
    for (const auto &c : obs::registry().counters())
        if (c.name == "svc.cache_hits")
            hits_after = c.value;
    EXPECT_GT(hits_after, hits_before);
}

TEST(ServerE2E, OverloadShedsWith429)
{
    // One worker, queue capacity one.  An idle connection parks the
    // worker inside read_request (it blocks until request_timeout_ms), a
    // second idle connection fills the queue, so a third client MUST be
    // answered 429 by the accept thread — deterministically, no timing
    // races on how fast a "slow" request computes.
    service::Service svc;
    service::ServerOptions options;
    options.port = 0;
    options.workers = 1;
    options.queue_capacity = 1;
    options.request_timeout_ms = 3000;
    service::Server server(svc, options);
    ASSERT_TRUE(server.start()) << server.error();

    net::TcpConn parked = net::dial(server.port(), 5000);
    ASSERT_TRUE(parked.valid());
    // Let the worker dequeue it and block reading a request that never
    // comes; the queue is empty again afterwards.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    net::TcpConn queued = net::dial(server.port(), 5000);
    ASSERT_TRUE(queued.valid());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // Queue full, worker busy: this one is shed at admission.
    net::TcpConn probe = net::dial(server.port(), 5000);
    ASSERT_TRUE(probe.valid());
    std::string leftover;
    const auto response = net::roundtrip(probe, get("/healthz"), leftover,
                                         options.request_timeout_ms);
    ASSERT_TRUE(response);
    EXPECT_EQ(response->status, 429);
    EXPECT_TRUE(obs::validate_json(response->body));
    EXPECT_EQ(response->header("Connection"), "close");

    parked.close();
    queued.close();
    server.stop();
}

TEST(ServerE2E, RequestIdsEchoAndLandInTheFlightRecorder)
{
    service::Service svc;
    service::ServerOptions options;
    options.port = 0;
    options.workers = 2;
    service::Server server(svc, options);
    ASSERT_TRUE(server.start()) << server.error();

    net::TcpConn conn = net::dial(server.port(), 5000);
    ASSERT_TRUE(conn.valid());
    std::string leftover;
    std::vector<std::string> ids;
    for (int i = 0; i < 5; ++i) {
        const auto response =
            net::roundtrip(conn, get("/healthz"), leftover, 5000);
        ASSERT_TRUE(response);
        const auto id = response->header("X-Roboshape-Request-Id");
        ASSERT_TRUE(id);
        ids.emplace_back(*id);
    }
    // Ids on one keep-alive session are strictly increasing.
    for (std::size_t i = 1; i < ids.size(); ++i) {
        const auto prev = core::parse_uint(ids[i - 1]);
        const auto next = core::parse_uint(ids[i]);
        ASSERT_TRUE(prev && next);
        EXPECT_LT(*prev, *next);
    }

    const auto dump =
        net::roundtrip(conn, get("/v1/debug/requests"), leftover, 5000);
    ASSERT_TRUE(dump);
    ASSERT_EQ(dump->status, 200);
    std::string error;
    EXPECT_TRUE(obs::validate_json(dump->body, &error)) << error;
    // Every id appears, oldest first (the recorder preserves order).
    std::size_t last = 0;
    for (const std::string &id : ids) {
        const std::size_t at =
            dump->body.find("\"id\":" + id + ",", last);
        ASSERT_NE(at, std::string::npos) << id;
        last = at;
    }
    EXPECT_NE(dump->body.find("\"endpoint\":\"healthz\""),
              std::string::npos);
    server.stop();
}

TEST(ServerE2E, TracedRequestYieldsAChromeTrace)
{
    service::Service svc;
    service::ServerOptions options;
    options.port = 0;
    options.workers = 2;
    service::Server server(svc, options);
    ASSERT_TRUE(server.start()) << server.error();
    obs::set_wall_trace_enabled(false); // per-request tracing must not need it

    net::TcpConn conn = net::dial(server.port(), 5000);
    ASSERT_TRUE(conn.valid());
    std::string leftover;
    net::HttpRequest traced = post("/v1/design", R"({"robot": "iiwa"})");
    traced.headers.emplace_back("X-Roboshape-Trace", "1");
    const auto response = net::roundtrip(conn, traced, leftover, 30000);
    ASSERT_TRUE(response);
    ASSERT_EQ(response->status, 200);
    const auto id = response->header("X-Roboshape-Request-Id");
    ASSERT_TRUE(id);

    for (const std::string &target :
         {std::string("/v1/debug/trace/last"),
          "/v1/debug/trace/" + std::string(*id)}) {
        const auto dump = net::roundtrip(conn, get(target), leftover, 5000);
        ASSERT_TRUE(dump) << target;
        ASSERT_EQ(dump->status, 200) << target;
        std::string error;
        EXPECT_TRUE(obs::validate_json(dump->body, &error))
            << target << ": " << error;
        EXPECT_NE(dump->body.find("\"traceEvents\""), std::string::npos);
        // The handler span is always present; its events carry the id.
        EXPECT_NE(dump->body.find("svc.handle"), std::string::npos);
        EXPECT_NE(dump->body.find("\"req\": " + std::string(*id)),
                  std::string::npos);
    }
    // An untraced request must not disturb the vault.
    ASSERT_TRUE(net::roundtrip(conn, get("/healthz"), leftover, 5000));
    const auto still =
        net::roundtrip(conn, get("/v1/debug/trace/last"), leftover, 5000);
    ASSERT_TRUE(still);
    EXPECT_EQ(still->status, 200);
    server.stop();
    EXPECT_FALSE(obs::wall_trace_enabled());
}

TEST(ServerE2E, GracefulDrainFinishesInFlightAndFlushesTheAccessLog)
{
    const std::string log_path = "test_access_log.jsonl";
    std::remove(log_path.c_str());

    service::Service svc;
    service::ServerOptions options;
    options.port = 0;
    options.workers = 2;
    options.access_log_path = log_path;
    options.slow_ms = 1; // sweeps take > 1 ms: exercises the slow flag
    service::Server server(svc, options);
    ASSERT_TRUE(server.start()) << server.error();
    const std::uint16_t port = server.port();

    // A cold /v1/sweep on a big robot is genuinely in flight while the
    // main thread calls stop() below.
    std::optional<net::HttpResponse> slow_response;
    std::thread client([&] {
        net::TcpConn conn = net::dial(port, 5000);
        if (!conn.valid())
            return;
        std::string leftover;
        const auto response = net::roundtrip(
            conn, post("/v1/sweep", R"({"robot": "humanoid"})"), leftover,
            30000);
        if (response)
            slow_response = *response;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // stop() must let the in-flight sweep finish and answer.
    server.stop();
    client.join();
    ASSERT_TRUE(slow_response) << "in-flight request was dropped";
    EXPECT_EQ(slow_response->status, 200);
    EXPECT_TRUE(obs::validate_json(slow_response->body));

    // New connections are refused once stopped.
    net::TcpConn refused = net::dial(port, 500);
    if (refused.valid()) {
        std::string leftover;
        EXPECT_FALSE(
            net::roundtrip(refused, get("/healthz"), leftover, 1000));
    }

    // The access log was flushed: one JSON line per request, fields in
    // the documented order, the slow sweep flagged.
    std::ifstream log(log_path);
    ASSERT_TRUE(log.good());
    std::string line;
    std::size_t lines = 0;
    bool saw_slow_sweep = false;
    while (std::getline(log, line)) {
        ++lines;
        std::string error;
        EXPECT_TRUE(obs::validate_json(line, &error)) << error;
        EXPECT_EQ(line.rfind("{\"id\":", 0), 0u) << line;
        EXPECT_LT(line.find("\"endpoint\""), line.find("\"status\""));
        EXPECT_LT(line.find("\"status\""), line.find("\"handle_us\""));
        if (line.find("\"endpoint\":\"sweep\"") != std::string::npos &&
            line.find("\"slow\":true") != std::string::npos)
            saw_slow_sweep = true;
    }
    EXPECT_EQ(lines, 1u);
    EXPECT_TRUE(saw_slow_sweep);
    std::remove(log_path.c_str());
}

} // namespace
