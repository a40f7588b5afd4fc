/**
 * @file
 * Live end-to-end test of the roboshaped telemetry plane: forks the real
 * `roboshape` binary (path baked in as ROBOSHAPE_CLI_PATH), runs
 * `serve --port 0`, drives traffic over real sockets, and asserts the
 * whole observability surface at once (docs/OBSERVABILITY.md):
 *
 *   - /metrics exposes a populated svc.request_us.design p99;
 *   - a request carrying X-Roboshape-Trace: 1 yields a valid Chrome
 *     trace from /v1/debug/trace/last;
 *   - SIGUSR1 dumps exactly the last N request ids, in order, to stderr;
 *   - SIGTERM drains gracefully (exit 0) and flushes the access log.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/parse_uint.h"
#include "net/http.h"
#include "net/socket.h"
#include "obs/json.h"
#include "service/flight_recorder.h"

namespace {

using namespace roboshape;

constexpr const char *kAccessLogPath = "daemon_e2e_access.jsonl";
constexpr const char *kStderrPath = "daemon_e2e_stderr.log";

struct Daemon
{
    pid_t pid = -1;
    std::uint16_t port = 0;
};

/** Forks `roboshape serve --port 0 ...`; blocks until the bound port is
 *  announced on stdout.  stderr goes to kStderrPath for the SIGUSR1 and
 *  shutdown assertions. */
Daemon
spawn_daemon()
{
    Daemon daemon;
    int out_pipe[2];
    if (pipe(out_pipe) != 0)
        return daemon;

    const pid_t pid = fork();
    if (pid < 0) {
        close(out_pipe[0]);
        close(out_pipe[1]);
        return daemon;
    }
    if (pid == 0) {
        // Child: stdout -> pipe, stderr -> file, exec the daemon.
        dup2(out_pipe[1], STDOUT_FILENO);
        close(out_pipe[0]);
        close(out_pipe[1]);
        const int err = open(kStderrPath, O_WRONLY | O_CREAT | O_TRUNC,
                             0644);
        if (err >= 0) {
            dup2(err, STDERR_FILENO);
            close(err);
        }
        execl(ROBOSHAPE_CLI_PATH, "roboshape", "serve", "--port", "0",
              "--threads", "2", "--access-log", kAccessLogPath, "--slow-ms",
              "60000", static_cast<char *>(nullptr));
        _exit(127); // exec failed
    }
    close(out_pipe[1]);

    // Parent: read the startup line "roboshaped listening on 127.0.0.1:N".
    std::string banner;
    char buf[256];
    while (banner.find('\n') == std::string::npos) {
        const ssize_t n = read(out_pipe[0], buf, sizeof(buf));
        if (n <= 0)
            break;
        banner.append(buf, static_cast<std::size_t>(n));
    }
    close(out_pipe[0]);

    const std::string marker = "127.0.0.1:";
    const std::size_t at = banner.find(marker);
    if (at != std::string::npos) {
        const std::size_t start = at + marker.size();
        const std::size_t end = banner.find(' ', start);
        if (end != std::string::npos) {
            const auto port = core::parse_uint(
                banner.substr(start, end - start), 1, 65535);
            if (port) {
                daemon.pid = pid;
                daemon.port = static_cast<std::uint16_t>(*port);
                return daemon;
            }
        }
    }
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return daemon;
}

net::HttpRequest
request_for(const std::string &method, const std::string &target,
            const std::string &body = "")
{
    net::HttpRequest request;
    request.method = method;
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = body;
    return request;
}

std::string
slurp(const char *path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** All `"id":<n>` values inside the dump's requests array, in order. */
std::vector<std::uint64_t>
dump_request_ids(const std::string &dump)
{
    std::vector<std::uint64_t> ids;
    const std::size_t array_at = dump.find("\"requests\":[");
    if (array_at == std::string::npos)
        return ids;
    std::size_t pos = array_at;
    const std::string key = "\"id\":";
    while ((pos = dump.find(key, pos)) != std::string::npos) {
        pos += key.size();
        std::size_t end = pos;
        while (end < dump.size() && dump[end] >= '0' && dump[end] <= '9')
            ++end;
        const auto id = core::parse_uint(dump.substr(pos, end - pos));
        if (!id)
            return {};
        ids.push_back(*id);
        pos = end;
    }
    return ids;
}

TEST(DaemonE2E, LiveTelemetryPlane)
{
    std::remove(kAccessLogPath);
    std::remove(kStderrPath);

    const Daemon daemon = spawn_daemon();
    ASSERT_GT(daemon.pid, 0) << "daemon failed to start";
    ASSERT_NE(daemon.port, 0);

    net::TcpConn conn = net::dial(daemon.port, 5000);
    ASSERT_TRUE(conn.valid());
    std::string leftover;
    std::vector<std::uint64_t> ids; // every request id, in issue order

    const auto issue = [&](const net::HttpRequest &request)
        -> std::optional<net::HttpResponse> {
        const auto response =
            net::roundtrip(conn, request, leftover, 30000);
        if (response) {
            const auto id = response->header("X-Roboshape-Request-Id");
            if (id) {
                const auto parsed = core::parse_uint(std::string(*id));
                if (parsed)
                    ids.push_back(*parsed);
            }
        }
        return response;
    };

    // Enough /v1/design traffic to roll the flight recorder over.
    const std::size_t kDesignRequests =
        service::kFlightRecorderCapacity + 8;
    for (std::size_t i = 0; i < kDesignRequests; ++i) {
        const auto response = issue(request_for(
            "POST", "/v1/design", "{\"robot\": \"iiwa\"}"));
        ASSERT_TRUE(response) << i;
        ASSERT_EQ(response->status, 200) << i;
    }
    ASSERT_EQ(ids.size(), kDesignRequests);

    // The scrape surface: a populated p99 for the design endpoint.
    {
        const auto response = issue(request_for("GET", "/metrics"));
        ASSERT_TRUE(response);
        ASSERT_EQ(response->status, 200);
        const std::string needle =
            "roboshape_svc_request_us_design{quantile=\"0.99\"} ";
        const std::size_t at = response->body.find(needle);
        ASSERT_NE(at, std::string::npos);
        // The sample value is a positive integer (microseconds).
        const char first = response->body[at + needle.size()];
        EXPECT_GE(first, '1');
        EXPECT_LE(first, '9');
        EXPECT_NE(
            response->body.find("roboshape_svc_request_us_design_count"),
            std::string::npos);
    }

    // /v1/statz is valid JSON carrying the schema tag.
    {
        const auto response = issue(request_for("GET", "/v1/statz"));
        ASSERT_TRUE(response);
        ASSERT_EQ(response->status, 200);
        std::string error;
        EXPECT_TRUE(obs::validate_json(response->body, &error)) << error;
        EXPECT_NE(response->body.find("roboshape.metrics_dump/1"),
                  std::string::npos);
    }

    // A traced request produces a loadable Chrome trace.
    {
        net::HttpRequest traced =
            request_for("POST", "/v1/design", "{\"robot\": \"hyq\"}");
        traced.headers.emplace_back("X-Roboshape-Trace", "1");
        const auto response = issue(traced);
        ASSERT_TRUE(response);
        ASSERT_EQ(response->status, 200);

        const auto dump =
            issue(request_for("GET", "/v1/debug/trace/last"));
        ASSERT_TRUE(dump);
        ASSERT_EQ(dump->status, 200);
        std::string error;
        EXPECT_TRUE(obs::validate_json(dump->body, &error)) << error;
        EXPECT_NE(dump->body.find("\"traceEvents\""), std::string::npos);
        EXPECT_NE(dump->body.find("svc.handle"), std::string::npos);
    }

    // SIGUSR1: the daemon dumps exactly the last N request ids, in
    // order, to stderr — without interrupting service.
    {
        ASSERT_EQ(kill(daemon.pid, SIGUSR1), 0);
        std::string err_text;
        for (int tries = 0; tries < 50; ++tries) {
            err_text = slurp(kStderrPath);
            if (err_text.find("flight recorder dump follows") !=
                std::string::npos)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        ASSERT_NE(err_text.find("flight recorder dump follows"),
                  std::string::npos);
        const std::vector<std::uint64_t> dumped =
            dump_request_ids(err_text);
        ASSERT_EQ(dumped.size(), service::kFlightRecorderCapacity);
        const std::vector<std::uint64_t> expected(
            ids.end() - static_cast<std::ptrdiff_t>(
                            service::kFlightRecorderCapacity),
            ids.end());
        EXPECT_EQ(dumped, expected);

        // Still serving after the dump.
        const auto response = issue(request_for("GET", "/healthz"));
        ASSERT_TRUE(response);
        EXPECT_EQ(response->status, 200);
    }

    // SIGTERM: graceful drain, clean exit, flushed access log.
    conn.close();
    ASSERT_EQ(kill(daemon.pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(waitpid(daemon.pid, &status, 0), daemon.pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "raw status " << status << ", term signal "
        << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
    EXPECT_EQ(WEXITSTATUS(status), 0);

    std::ifstream log(kAccessLogPath);
    ASSERT_TRUE(log.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(log, line)) {
        ++lines;
        std::string error;
        EXPECT_TRUE(obs::validate_json(line, &error)) << error;
        EXPECT_EQ(line.rfind("{\"id\":", 0), 0u) << line;
    }
    EXPECT_EQ(lines, ids.size());

    std::remove(kAccessLogPath);
    std::remove(kStderrPath);
}

} // namespace
