/**
 * @file
 * Implementation of the persistent executor.
 *
 * Synchronization map (every shared access is an atomic or under a lock,
 * the tree builds TSan-clean):
 *
 *  - region_mutex_ serializes top-level regions; one Region descriptor
 *    (member storage, never a stack object) is reused for all of them.
 *
 *  - park_mutex_ guards epoch_, shutdown_ and the region install.  A
 *    leader takes park_mutex_, waits until active_ is 0 (every worker of
 *    the previous region has left), rewrites the region fields, resets
 *    next and remaining, bumps the epoch, then unlocks and notifies.  A
 *    worker wakes on an epoch change and, still under park_mutex_, joins
 *    by incrementing active_ if its lane is below the width; it leaves
 *    with a release decrement that the leader's acquire load pairs with.
 *    So no worker reads a field while it is being rewritten, and a worker
 *    that wakes late joins the current region, at worst to find every
 *    chunk claimed.
 *
 *  - next is the claim counter: every lane takes the next chunk id with
 *    one relaxed fetch_add until the ids run out, so chunks go in
 *    ascending order to whichever lane is free first.
 *
 *  - remaining is the region's chunk countdown.  Every chunk decrements it
 *    with release ordering after its writes; the leader's acquire load of
 *    0 therefore publishes every output to the caller — this is the
 *    visibility half of the bit-identical-at-any-width guarantee (the
 *    other half is that index ownership of output slots never depends on
 *    the interleaving).  Workers also stay until remaining reads 0: a
 *    worker that parked as soon as the claims ran out would be asleep on
 *    the futex when the next back-to-back region installs.
 *
 *  - failed and error carry a throwing callback out of the region.  Every
 *    chunk counts off remaining, thrown or not, so a throw cannot strand
 *    the lanes.  The first chunk to flip failed stores error before its
 *    release decrement; the leader reads it after its acquire load of 0,
 *    releases region_mutex_, then rethrows it on the submitting thread.
 */

#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/parse_uint.h"
#include "obs/registry.h"
#include "obs/wall_trace.h"

namespace roboshape {
namespace core {

namespace {

/**
 * Thread-count override from ROBOSHAPE_THREADS, 0 when unset or invalid.
 * The full value must be a positive decimal integer (core::parse_uint);
 * garbage warns once and falls back, because silently falling back to
 * hardware concurrency would hide typos like ROBOSHAPE_THREADS=abc.
 */
std::size_t
env_thread_override()
{
    static std::atomic<bool> warned{false};
    const char *value = std::getenv("ROBOSHAPE_THREADS");
    if (value == nullptr || *value == '\0')
        return 0;
    const std::optional<std::uint64_t> parsed = parse_uint(
        value, 1, std::numeric_limits<std::size_t>::max());
    if (!parsed) {
        if (!warned.exchange(true))
            std::fprintf(stderr,
                         "roboshape: ignoring invalid ROBOSHAPE_THREADS='%s' "
                         "(expected a positive integer); using the default "
                         "worker count\n",
                         value);
        return 0;
    }
    return static_cast<std::size_t>(*parsed);
}

/** True while this thread executes inside a region (leader or worker);
 *  nested parallel calls then run inline instead of deadlocking on the
 *  region mutex. */
thread_local bool t_inside_region = false;

} // namespace

struct Executor::Impl
{
    /** One region descriptor, reused for every region (see file comment:
     *  member storage means late-waking workers never dangle). */
    struct Region
    {
        void *ctx = nullptr;
        ChunkInvoke invoke = nullptr;
        std::size_t count = 0;
        std::size_t grain = 1;
        std::size_t num_chunks = 0;
        std::size_t width = 1;

        /** Trace-request id of the leading thread: workers adopt it for
         *  the region so their exec.worker spans attribute to the request
         *  whose region they are draining (obs/wall_trace.h). */
        std::uint64_t trace_req = 0;

        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> remaining{0};

        /** Set by the first chunk that throws; that chunk alone writes
         *  error, before its release decrement of remaining. */
        std::atomic<bool> failed{false};
        std::exception_ptr error;
    };

    std::mutex region_mutex_;

    std::mutex park_mutex_;
    std::condition_variable park_cv_;
    std::uint64_t epoch_ = 0; ///< Guarded by park_mutex_.
    bool shutdown_ = false;   ///< Guarded by park_mutex_.
    /** Workers inside a region: joined under park_mutex_, left with a
     *  release decrement. */
    std::atomic<std::size_t> active_{0};

    Region region_;
    std::vector<std::thread> workers_; ///< Lanes 1..workers_.size().

    /** Grows the pool so lanes [1, lanes) exist.  Leader-only, under
     *  region_mutex_. */
    void ensure_workers(std::size_t lanes)
    {
        while (workers_.size() + 1 < lanes) {
            const std::size_t lane = workers_.size() + 1;
            workers_.emplace_back([this, lane] { worker_loop(lane); });
        }
    }

    // Steady-state worker protocol: park/join/claim runs for the process
    // lifetime and must never allocate — pool growth happens in
    // ensure_workers() outside this region.  Enforced lexically by
    // roboshape_lint (no-alloc-warm-path).
    // lint: warm-path begin
    void worker_loop(std::size_t lane)
    {
        t_inside_region = true; // nested submissions from chunks run inline
        std::uint64_t last_epoch = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(park_mutex_);
                ROBOSHAPE_OBS_COUNT("exec.parks", 1);
                park_cv_.wait(lock, [&] {
                    return shutdown_ || epoch_ != last_epoch;
                });
                if (shutdown_)
                    return;
                last_epoch = epoch_;
                if (lane >= region_.width)
                    continue;
                active_.fetch_add(1, std::memory_order_relaxed);
            }
            obs::set_trace_request_id(region_.trace_req);
            run_lane(lane);
            obs::set_trace_request_id(0);
            active_.fetch_sub(1, std::memory_order_release);
        }
    }

    /** Claims and runs chunks as @p lane until the ids run out, then
     *  waits until every chunk of the region has run.  A chunk that throws
     *  still counts off remaining; the first exception is kept for the
     *  leader, and chunks claimed after it skip the callback.  Returns the
     *  number of chunks this lane claimed. */
    std::size_t run_lane(std::size_t lane)
    {
        Region &r = region_;
        const bool traced = obs::wall_trace_enabled();
        std::uint64_t t_first = 0, t_last = 0;
        std::size_t executed = 0;
        for (std::size_t c = r.next.fetch_add(1, std::memory_order_relaxed);
             c < r.num_chunks;
             c = r.next.fetch_add(1, std::memory_order_relaxed)) {
            if (traced && executed == 0)
                t_first = obs::wall_now_ns();
            const std::size_t begin = c * r.grain;
            if (!r.failed.load(std::memory_order_relaxed)) {
                try {
                    r.invoke(r.ctx, begin,
                             std::min(r.count, begin + r.grain), lane);
                } catch (...) {
                    if (!r.failed.exchange(true, std::memory_order_relaxed))
                        r.error = std::current_exception();
                }
            }
            r.remaining.fetch_sub(1, std::memory_order_release);
            ++executed;
            if (traced)
                t_last = obs::wall_now_ns();
        }
        while (r.remaining.load(std::memory_order_acquire) != 0)
            std::this_thread::yield();
        if (traced && executed != 0)
            obs::record_wall_span("exec.worker", "exec", t_first, t_last,
                                  static_cast<std::int32_t>(lane),
                                  static_cast<std::int32_t>(executed));
        return executed;
    }
    // lint: warm-path end
};

Executor::Executor() : impl_(std::make_unique<Impl>())
{
    // Pre-register every exec.* entry so first use inside a measured
    // region never allocates (the allocation-free warm-submission test
    // depends on this).
    obs::registry().counter("exec.regions");
    obs::registry().counter("exec.tasks");
    obs::registry().counter("exec.steals");
    obs::registry().counter("exec.parks");
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(impl_->park_mutex_);
        impl_->shutdown_ = true;
    }
    impl_->park_cv_.notify_all();
    for (std::thread &worker : impl_->workers_)
        worker.join();
}

Executor &
Executor::instance()
{
    static Executor executor;
    return executor;
}

std::size_t
Executor::worker_count() const
{
    std::size_t n = env_thread_override();
    if (n == 0)
        n = std::max<std::size_t>(1,
                                  std::thread::hardware_concurrency());
    return std::min(n, kMaxExecutorLanes);
}

std::size_t
Executor::resolve_width(std::size_t count, std::size_t requested) const
{
    std::size_t width = requested != 0 ? requested : worker_count();
    width = std::min(width, kMaxExecutorLanes);
    return std::clamp<std::size_t>(width, 1,
                                   std::max<std::size_t>(count, 1));
}

void
Executor::run_chunked(void *ctx, ChunkInvoke invoke, std::size_t count,
                      std::size_t requested)
{
    if (count == 0)
        return;
    const std::size_t width = resolve_width(count, requested);
    if (width <= 1 || t_inside_region) {
        invoke(ctx, 0, count, 0);
        return;
    }

    // Chunk granularity: several chunks per lane so claiming can balance
    // heterogeneous costs, without per-index counter traffic.  The chunk
    // map depends only on (count, width) — and outputs depend on neither,
    // because fn(i) owns slot i regardless of who runs it.
    constexpr std::size_t kChunksPerLane = 8;
    const std::size_t max_chunks =
        std::min(count, width * kChunksPerLane);
    const std::size_t grain = (count + max_chunks - 1) / max_chunks;
    const std::size_t num_chunks = (count + grain - 1) / grain;

    Impl &impl = *impl_;
    std::unique_lock<std::mutex> region_lock(impl.region_mutex_);
    impl.ensure_workers(width);
    {
        std::lock_guard<std::mutex> lock(impl.park_mutex_);
        while (impl.active_.load(std::memory_order_acquire) != 0)
            std::this_thread::yield();
        Impl::Region &r = impl.region_;
        r.ctx = ctx;
        r.invoke = invoke;
        r.count = count;
        r.grain = grain;
        r.num_chunks = num_chunks;
        r.width = width;
        r.trace_req = obs::trace_request_id();
        r.next.store(0, std::memory_order_relaxed);
        r.remaining.store(num_chunks, std::memory_order_relaxed);
        r.failed.store(false, std::memory_order_relaxed);
        ++impl.epoch_;
    }
    impl.park_cv_.notify_all();

    t_inside_region = true;
    const std::size_t led = impl.run_lane(0);
    t_inside_region = false;
    // run_lane(0) returned after its acquire load of remaining == 0, so
    // the failing chunk's write of error is visible here.
    const std::exception_ptr error = std::exchange(impl.region_.error,
                                                   nullptr);
    region_lock.unlock();

    ROBOSHAPE_OBS_COUNT("exec.regions", 1);
    ROBOSHAPE_OBS_COUNT("exec.tasks", num_chunks);
    // Every chunk the submitting thread did not claim ran on a pool worker.
    ROBOSHAPE_OBS_COUNT("exec.steals", num_chunks - led);
    if (error)
        std::rethrow_exception(error);
}

} // namespace core
} // namespace roboshape
