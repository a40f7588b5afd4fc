/**
 * @file
 * Implementation of the request flight recorder.
 */

#include "service/flight_recorder.h"

#include "obs/json.h"

namespace roboshape {
namespace service {

void
write_request_json(obs::JsonWriter &w, const RequestRecord &r)
{
    w.begin_object();
    w.kv("id", r.id);
    w.kv("endpoint", r.endpoint);
    w.kv("method", r.method);
    w.kv("status", static_cast<std::int64_t>(r.status));
    w.kv("cache", r.cache);
    w.kv("queue_wait_us", r.queue_wait_us);
    w.kv("handle_us", r.handle_us);
    w.kv("bytes", r.bytes);
    w.kv("slow", r.slow);
    w.end_object();
}

void
FlightRecorder::record(const RequestRecord &r) noexcept
{
    const std::uint64_t ticket =
        next_.fetch_add(1, std::memory_order_acq_rel);
    Slot &slot = slots_[ticket % kFlightRecorderCapacity];
    // Seqlock write: odd marks the slot torn while fields change; the
    // final even store publishes.  Fields are relaxed atomics, so a
    // racing reader sees a mix at worst — and then rejects the slot
    // because seq does not match its ticket on both sides of the read.
    slot.seq.store(2 * ticket + 1, std::memory_order_release);
    slot.id.store(r.id, std::memory_order_relaxed);
    slot.endpoint.store(r.endpoint, std::memory_order_relaxed);
    slot.method.store(r.method, std::memory_order_relaxed);
    slot.status.store(r.status, std::memory_order_relaxed);
    slot.cache.store(r.cache, std::memory_order_relaxed);
    slot.queue_wait_us.store(r.queue_wait_us, std::memory_order_relaxed);
    slot.handle_us.store(r.handle_us, std::memory_order_relaxed);
    slot.bytes.store(r.bytes, std::memory_order_relaxed);
    slot.slow.store(r.slow, std::memory_order_relaxed);
    slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<RequestRecord>
FlightRecorder::snapshot() const
{
    const std::uint64_t end = next_.load(std::memory_order_acquire);
    const std::uint64_t begin =
        end > kFlightRecorderCapacity ? end - kFlightRecorderCapacity : 0;
    std::vector<RequestRecord> out;
    out.reserve(static_cast<std::size_t>(end - begin));
    for (std::uint64_t ticket = begin; ticket < end; ++ticket) {
        const Slot &slot = slots_[ticket % kFlightRecorderCapacity];
        const std::uint64_t want = 2 * ticket + 2;
        if (slot.seq.load(std::memory_order_acquire) != want)
            continue; // being overwritten by a newer ticket
        RequestRecord r;
        r.id = slot.id.load(std::memory_order_relaxed);
        r.endpoint = slot.endpoint.load(std::memory_order_relaxed);
        r.method = slot.method.load(std::memory_order_relaxed);
        r.status = slot.status.load(std::memory_order_relaxed);
        r.cache = slot.cache.load(std::memory_order_relaxed);
        r.queue_wait_us =
            slot.queue_wait_us.load(std::memory_order_relaxed);
        r.handle_us = slot.handle_us.load(std::memory_order_relaxed);
        r.bytes = slot.bytes.load(std::memory_order_relaxed);
        r.slow = slot.slow.load(std::memory_order_relaxed);
        if (slot.seq.load(std::memory_order_acquire) != want)
            continue; // torn mid-read
        out.push_back(r);
    }
    return out;
}

std::string
FlightRecorder::dump_json() const
{
    const std::vector<RequestRecord> records = snapshot();
    obs::JsonWriter w;
    w.begin_object();
    w.kv("schema", kRequestsDumpSchema);
    w.kv("capacity", static_cast<std::uint64_t>(kFlightRecorderCapacity));
    w.kv("total", total());
    w.key("requests").begin_array();
    for (const RequestRecord &r : records)
        write_request_json(w, r);
    w.end_array();
    w.end_object();
    return w.str();
}

FlightRecorder &
flight_recorder()
{
    static FlightRecorder instance;
    return instance;
}

} // namespace service
} // namespace roboshape
