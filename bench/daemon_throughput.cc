/**
 * @file
 * roboshaped load generator + "heavy traffic" regression gate
 * (docs/SERVICE.md).
 *
 * Starts an in-process server on an ephemeral port, records one cold
 * /v1/sweep (the request that actually runs the schedulers), then hammers
 * the same topology from concurrent keep-alive clients — the steady state
 * of a design service fronting a robot fleet, where topologies repeat and
 * almost every request should be a cache hit.
 *
 * The load runs in two modes: plain, and with a background Prometheus
 * scraper hitting GET /metrics at 10 Hz — the deployment posture
 * docs/OBSERVABILITY.md promises is free.  The modes are timed in kPairs
 * pairs of rounds, the order flipping from pair to pair, and the scrape
 * cost is the median of the per-pair costs (the obs_overhead gate's
 * discipline): host noise that drifts slower than one pair hits both of
 * its rounds alike, and the median drops the pairs a burst split, so no
 * single lucky round decides the gate.
 *
 * Gates (exit 1 on violation):
 *   - every hot response is byte-identical to the cold response body
 *     (the two-level cache must never serve a divergent rendering);
 *   - every request answers 200 with an X-Roboshape-Cache: hit header
 *     after the cold one;
 *   - median plain throughput >= 500 req/s across 8 concurrent clients;
 *   - the median per-pair cost of the 10 Hz scraper is < 2% of plain
 *     throughput.
 *
 * Reports p50/p99 per-request latency over every plain round, the
 * median requests/s per mode and the cost quartiles; `--json
 * <path>` writes the machine-readable document (committed baseline:
 * BENCH_daemon_throughput.json, fields explained in EXPERIMENTS.md).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/http.h"
#include "net/socket.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "service/handlers.h"
#include "service/server.h"

namespace {

using namespace roboshape;

constexpr std::size_t kClients = 8;
constexpr std::size_t kRequestsPerClient = 200;
constexpr std::size_t kPairs = 21; ///< Plain/scraped round pairs.
constexpr double kGateRps = 500.0;
constexpr double kGateScrapeCost = 0.02;
constexpr int kScrapePeriodMs = 100; // 10 Hz
constexpr int kTimeoutMs = 10000;

net::HttpRequest
sweep_request()
{
    net::HttpRequest request;
    request.method = "POST";
    request.target = "/v1/sweep";
    request.version = "HTTP/1.1";
    request.body = "{\"robot\": \"iiwa\"}";
    return request;
}

net::HttpRequest
metrics_request()
{
    net::HttpRequest request;
    request.method = "GET";
    request.target = "/metrics";
    request.version = "HTTP/1.1";
    return request;
}

/** Nearest-rank quantile of a sorted sample (0 when empty). */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

struct ClientResult
{
    std::vector<double> latencies_us;
    std::size_t mismatches = 0; ///< Non-200, missing hit, or body diff.
};

ClientResult
run_client(std::uint16_t port, const std::string &expected_body)
{
    ClientResult result;
    result.latencies_us.reserve(kRequestsPerClient);
    net::TcpConn conn = net::dial(port, kTimeoutMs);
    if (!conn.valid()) {
        result.mismatches = kRequestsPerClient;
        return result;
    }
    std::string leftover;
    const net::HttpRequest request = sweep_request();
    for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const auto response =
            net::roundtrip(conn, request, leftover, kTimeoutMs);
        const double us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (!response || response->status != 200 ||
            response->body != expected_body ||
            response->header("X-Roboshape-Cache") != "hit") {
            ++result.mismatches;
            continue;
        }
        result.latencies_us.push_back(us);
    }
    return result;
}

/** One full multi-client round; aggregate stats for gating. */
struct LoadResult
{
    std::vector<double> latencies_us; ///< Sorted.
    std::size_t mismatches = 0;
    double rps = 0.0;
};

LoadResult
run_load(std::uint16_t port, const std::string &expected_body)
{
    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<ClientResult> results(kClients);
    {
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (std::size_t c = 0; c < kClients; ++c)
            clients.emplace_back([&, c, port] {
                results[c] = run_client(port, expected_body);
            });
        for (std::thread &t : clients)
            t.join();
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    LoadResult load;
    for (const ClientResult &r : results) {
        load.latencies_us.insert(load.latencies_us.end(),
                                 r.latencies_us.begin(),
                                 r.latencies_us.end());
        load.mismatches += r.mismatches;
    }
    std::sort(load.latencies_us.begin(), load.latencies_us.end());
    load.rps = wall_s > 0.0
                   ? static_cast<double>(load.latencies_us.size()) / wall_s
                   : 0.0;
    return load;
}

/**
 * Background 10 Hz Prometheus scraper: one keep-alive connection hitting
 * GET /metrics until stopped, counting successful scrapes.
 */
class Scraper
{
  public:
    explicit Scraper(std::uint16_t port)
        : thread_([this, port] { loop(port); })
    {
    }

    /** Stops and joins; returns (scrapes, failures). */
    std::pair<std::size_t, std::size_t> finish()
    {
        stop_ = true;
        thread_.join();
        return {scrapes_, failures_};
    }

  private:
    void loop(std::uint16_t port)
    {
        net::TcpConn conn = net::dial(port, kTimeoutMs);
        std::string leftover;
        const net::HttpRequest request = metrics_request();
        while (!stop_) {
            if (!conn.valid()) {
                ++failures_;
                return;
            }
            const auto response =
                net::roundtrip(conn, request, leftover, kTimeoutMs);
            if (response && response->status == 200 &&
                !response->body.empty())
                ++scrapes_;
            else
                ++failures_;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kScrapePeriodMs));
        }
    }

    std::atomic<bool> stop_{false};
    std::size_t scrapes_ = 0;
    std::size_t failures_ = 0;
    std::thread thread_;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::print_header(
        "roboshaped daemon throughput: cached-topology sweep requests",
        "design-as-a-service layer (docs/SERVICE.md), heavy-traffic gate");

    service::Service svc;
    service::ServerOptions options;
    options.port = 0; // ephemeral
    options.workers = kClients;
    options.queue_capacity = 256;
    service::Server server(svc, options);
    if (!server.start()) {
        std::fprintf(stderr, "FAIL: cannot start server: %s\n",
                     server.error().c_str());
        return 1;
    }

    // Cold request: runs the schedulers and renders + caches the body.
    std::string cold_body;
    double cold_us = 0.0;
    {
        net::TcpConn conn = net::dial(server.port(), kTimeoutMs);
        std::string leftover;
        const auto start = std::chrono::steady_clock::now();
        const auto response =
            net::roundtrip(conn, sweep_request(), leftover, kTimeoutMs);
        cold_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count();
        if (!response || response->status != 200 ||
            response->header("X-Roboshape-Cache") != "miss") {
            std::fprintf(stderr, "FAIL: cold sweep request failed\n");
            return 1;
        }
        cold_body = response->body;
    }

    // Alternating pairs: even pairs run the plain round first, odd pairs
    // the scraped one, so neither mode always runs warmer.
    std::vector<double> plain_rps, scraped_rps, cost;
    std::vector<double> plain_latencies_us;
    std::size_t mismatches = 0;
    std::size_t completed_total = 0;
    std::size_t scrapes = 0;
    std::size_t scrape_failures = 0;
    const auto round = [&](bool scraped) {
        std::optional<Scraper> scraper;
        if (scraped)
            scraper.emplace(server.port());
        LoadResult load = run_load(server.port(), cold_body);
        if (scraper) {
            const auto counts = scraper->finish();
            scrapes += counts.first;
            scrape_failures += counts.second;
        } else {
            plain_latencies_us.insert(plain_latencies_us.end(),
                                      load.latencies_us.begin(),
                                      load.latencies_us.end());
        }
        mismatches += load.mismatches;
        completed_total += load.latencies_us.size();
        return load.rps;
    };
    for (std::size_t pair = 0; pair < kPairs; ++pair) {
        const bool plain_first = pair % 2 == 0;
        const double first = round(!plain_first);
        const double second = round(plain_first);
        const double plain = plain_first ? first : second;
        const double scraped = plain_first ? second : first;
        plain_rps.push_back(plain);
        scraped_rps.push_back(scraped);
        cost.push_back(plain > 0.0 ? (plain - scraped) / plain : 1.0);
    }
    server.stop();
    std::sort(plain_rps.begin(), plain_rps.end());
    std::sort(scraped_rps.begin(), scraped_rps.end());
    std::sort(cost.begin(), cost.end());
    std::sort(plain_latencies_us.begin(), plain_latencies_us.end());

    const std::size_t total = 2 * kPairs * kClients * kRequestsPerClient;
    const double p50 = percentile(plain_latencies_us, 0.50);
    const double p99 = percentile(plain_latencies_us, 0.99);
    const double throughput = percentile(plain_rps, 0.5);
    const double scraped_throughput = percentile(scraped_rps, 0.5);
    const double scrape_cost = percentile(cost, 0.5);

    std::printf("clients               %zu\n", kClients);
    std::printf("requests per client   %zu (x%zu pairs x2 modes)\n",
                kRequestsPerClient, kPairs);
    std::printf("cold sweep latency    %.1f us\n", cold_us);
    std::printf("hot p50 latency       %.1f us\n", p50);
    std::printf("hot p99 latency       %.1f us\n", p99);
    std::printf("throughput            %.0f req/s (median, gate >= %.0f)\n",
                throughput, kGateRps);
    std::printf("with 10 Hz scraper    %.0f req/s (median, %zu scrapes)\n",
                scraped_throughput, scrapes);
    std::printf("scrape cost           %+.2f%% [q1 %+.2f%%, q3 %+.2f%%] "
                "(median of pairs, gate < %.0f%%)\n",
                scrape_cost * 100.0, percentile(cost, 0.25) * 100.0,
                percentile(cost, 0.75) * 100.0, kGateScrapeCost * 100.0);
    std::printf("byte-identical        %s (%zu mismatches)\n",
                mismatches == 0 ? "yes" : "NO", mismatches);

    const bool complete = completed_total == total && mismatches == 0 &&
                          scrapes > 0 && scrape_failures == 0;
    const bool fast_enough = throughput >= kGateRps;
    const bool scrape_cheap = scrape_cost < kGateScrapeCost;

    obs::RunReport report("daemon_throughput",
                          "roboshaped cached-sweep load test");
    report.set_robot("iiwa");
    report.set_kernel("dynamics-gradient");
    report.metric("clients", static_cast<std::uint64_t>(kClients));
    report.metric("rounds", static_cast<std::uint64_t>(kPairs));
    report.metric("pairs", static_cast<std::uint64_t>(kPairs));
    report.metric("requests",
                  static_cast<std::uint64_t>(completed_total));
    report.metric("cold_latency_us", cold_us);
    report.metric("p50_us", p50);
    report.metric("p99_us", p99);
    report.metric("throughput_rps", throughput);
    report.metric("scraped_throughput_rps", scraped_throughput);
    report.metric("scrapes", static_cast<std::uint64_t>(scrapes));
    report.metric("scrape_cost_fraction", scrape_cost);
    report.metric("cost_q1", percentile(cost, 0.25));
    report.metric("cost_q3", percentile(cost, 0.75));
    report.metric("gate_scrape_cost", kGateScrapeCost);
    report.metric("gate_rps", kGateRps);
    report.metric("byte_identical", mismatches == 0);
    report.metric("ok", complete && fast_enough && scrape_cheap);
    if (!bench::write_report(report,
                             bench::json_out_path(argc, argv)))
        return 1;

    if (!complete) {
        std::fprintf(stderr,
                     "FAIL: %zu/%zu requests failed or diverged from the "
                     "cold response (%zu scrape failures)\n",
                     total - completed_total + mismatches, total,
                     scrape_failures);
        return 1;
    }
    if (!fast_enough) {
        std::fprintf(stderr, "FAIL: %.0f req/s below the %.0f req/s gate\n",
                     throughput, kGateRps);
        return 1;
    }
    if (!scrape_cheap) {
        std::fprintf(stderr,
                     "FAIL: 10 Hz /metrics scraper cost %.2f%% of "
                     "throughput, median of pairs (gate < %.0f%%)\n",
                     scrape_cost * 100.0, kGateScrapeCost * 100.0);
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
