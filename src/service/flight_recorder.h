/**
 * @file
 * Flight recorder of the roboshaped daemon (docs/OBSERVABILITY.md).
 *
 * A fixed-size lock-free ring holding summaries of the last
 * kFlightRecorderCapacity requests — id, endpoint, status, cache
 * hit/miss, queue wait, handle time, response bytes — so a live daemon
 * can answer "what just happened" without any logging enabled.  Readers
 * never block writers: each slot is a miniature seqlock (ticket-stamped
 * sequence word around relaxed-atomic fields), and a snapshot simply
 * skips slots that are mid-overwrite.
 *
 * Dumped via `GET /v1/debug/requests` and to stderr on SIGUSR1
 * (tools/roboshape_cli.cpp), and reused as the record type of the
 * JSON-lines access log (service/access_log.h).
 */

#ifndef ROBOSHAPE_SERVICE_FLIGHT_RECORDER_H
#define ROBOSHAPE_SERVICE_FLIGHT_RECORDER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace roboshape {
namespace obs {
class JsonWriter;
}
namespace service {

/** Requests remembered by the ring (the "last N" of SIGUSR1 dumps). */
inline constexpr std::size_t kFlightRecorderCapacity = 32;

/** Schema tag of the /v1/debug/requests and SIGUSR1 dump documents. */
inline constexpr const char *kRequestsDumpSchema =
    "roboshape.requests_dump/1";

/**
 * One request summary.  String fields point at static storage (endpoint
 * labels, method names, cache verdicts) so records are POD and the ring
 * never allocates.
 */
struct RequestRecord
{
    std::uint64_t id = 0;
    const char *endpoint = "other"; ///< endpoint_name() label.
    const char *method = "OTHER";   ///< "GET", "POST", or "OTHER".
    int status = 0;
    const char *cache = "none";     ///< "hit", "miss", or "none".
    std::int64_t queue_wait_us = 0; ///< Admission-queue wait (first
                                    ///< request of the connection).
    std::int64_t handle_us = 0;     ///< Service::handle wall time.
    std::uint64_t bytes = 0;        ///< Response body size.
    bool slow = false;              ///< handle_us >= slow-ms threshold.
};

/**
 * Writes @p r as one JSON object with its nine fields in declaration
 * order: each element of a requests dump and each access-log line
 * (service/access_log.h).
 */
void write_request_json(obs::JsonWriter &w, const RequestRecord &r);

class FlightRecorder
{
  public:
    /** Publishes @p r as the newest record.  Lock-free, any thread. */
    void record(const RequestRecord &r) noexcept;

    /** Last records, oldest first; torn (mid-write) slots skipped. */
    std::vector<RequestRecord> snapshot() const;

    /** Full dump as a roboshape.requests_dump/1 JSON document. */
    std::string dump_json() const;

    /** Total records ever published. */
    std::uint64_t total() const noexcept
    {
        return next_.load(std::memory_order_acquire);
    }

  private:
    /** Seqlocked slot: seq == 2*ticket+2 publishes ticket's record. */
    struct Slot
    {
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> id{0};
        std::atomic<const char *> endpoint{"other"};
        std::atomic<const char *> method{"OTHER"};
        std::atomic<int> status{0};
        std::atomic<const char *> cache{"none"};
        std::atomic<std::int64_t> queue_wait_us{0};
        std::atomic<std::int64_t> handle_us{0};
        std::atomic<std::uint64_t> bytes{0};
        std::atomic<bool> slow{false};
    };

    std::atomic<std::uint64_t> next_{0};
    Slot slots_[kFlightRecorderCapacity];
};

/** The process-wide recorder the daemon's request loop writes to. */
FlightRecorder &flight_recorder();

} // namespace service
} // namespace roboshape

#endif // ROBOSHAPE_SERVICE_FLIGHT_RECORDER_H
