/**
 * @file
 * Implementation of the persistent work-stealing executor.
 *
 * Synchronization map (every shared access is an atomic or under a lock,
 * the tree builds TSan-clean):
 *
 *  - region_mutex_ serializes top-level regions; one Region descriptor
 *    (member storage, never a stack object) is reused for all of them.
 *
 *  - Workers park on {park_mutex_, park_cv_, epoch_}.  A leader installs
 *    the region, bumps the epoch under park_mutex_, and notifies; workers
 *    re-park when the region drains.
 *
 *  - Region install uses a seqlock (install_seq_ odd = writing) against
 *    joined_, the count of workers currently inside the region protocol.
 *    A worker joins with joined_++ (seq_cst) then reads install_seq_; a
 *    leader writes install_seq_ odd (seq_cst) then waits for joined_ == 0.
 *    By the seq_cst total order either the worker observes the odd mark
 *    and backs off, or the leader observes the join and waits — region
 *    fields are never read while being rewritten, and late-waking workers
 *    from a previous epoch at worst join the *current* region, which is
 *    legitimate (they hold a lane < width or leave immediately).
 *
 *  - Task queues are Chase-Lev deques: the owning lane pushes/takes at
 *    the bottom, thieves CAS the top.  Cells are atomics (no data races),
 *    the racy take/steal handoff uses seq_cst, and grown buffers are
 *    retired to a graveyard freed at destruction so a thief holding a
 *    stale buffer pointer never reads freed memory (indices [top, bottom)
 *    are immutable in a retired buffer).
 *
 *  - remaining_ is the region's task countdown.  Every task decrements it
 *    with release ordering after its writes (and its per-lane tallies);
 *    the leader's acquire load of 0 therefore publishes every output and
 *    every tally to the caller — this is the visibility half of the
 *    bit-identical-at-any-width guarantee (the other half is that index
 *    ownership of output slots never depends on the interleaving).
 */

#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/parse_uint.h"
#include "obs/registry.h"
#include "obs/wall_trace.h"

namespace roboshape {
namespace core {

namespace {

/**
 * Strictly parses a thread-count environment value: the full string must
 * be a positive decimal integer (core::parse_uint).  Returns 0 (no
 * override) and warns once per variable on garbage — the pre-PR-7
 * behavior of silently falling back to hardware concurrency hid typos
 * like ROBOSHAPE_THREADS=abc.
 */
std::size_t
parse_thread_env(const char *name, std::atomic<bool> &warned)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return 0;
    const std::optional<std::uint64_t> parsed = parse_uint(
        value, 1, std::numeric_limits<std::size_t>::max());
    if (!parsed) {
        if (!warned.exchange(true))
            std::fprintf(stderr,
                         "roboshape: ignoring invalid %s='%s' (expected a "
                         "positive integer); using the default worker "
                         "count\n",
                         name, value);
        return 0;
    }
    return static_cast<std::size_t>(*parsed);
}

/** Thread-count override from the environment, 0 when unset/invalid.
 *  ROBOSHAPE_THREADS wins; ROBOSHAPE_SWEEP_THREADS is a deprecated
 *  alias kept for pre-executor scripts. */
std::size_t
env_thread_override()
{
    static std::atomic<bool> warned_threads{false};
    static std::atomic<bool> warned_sweep{false};
    if (const std::size_t n =
            parse_thread_env("ROBOSHAPE_THREADS", warned_threads))
        return n;
    return parse_thread_env("ROBOSHAPE_SWEEP_THREADS", warned_sweep);
}

/** splitmix64 step; seeds the per-lane steal-victim shuffle. */
inline std::uint64_t
next_rng(std::uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Chase-Lev work-stealing deque of 64-bit payloads.  push()/take() are
 * owner-only (the lane the deque belongs to); steal() is safe from any
 * thread.  Grows geometrically; old buffers are retired, not freed, so
 * concurrent thieves never touch reclaimed memory.
 */
class TaskDeque
{
  public:
    TaskDeque() : buffer_(new Buffer(kInitialCapacity, nullptr)) {}

    ~TaskDeque()
    {
        Buffer *b = buffer_.load(std::memory_order_relaxed);
        while (b != nullptr) {
            Buffer *prev = b->prev;
            delete b;
            b = prev;
        }
    }

    TaskDeque(const TaskDeque &) = delete;
    TaskDeque &operator=(const TaskDeque &) = delete;

    /** Owner-only.  Returns the deque size after the push. */
    std::size_t push(std::uint64_t v)
    {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed);
        const std::int64_t t = top_.load(std::memory_order_acquire);
        Buffer *buf = buffer_.load(std::memory_order_relaxed);
        if (b - t >= static_cast<std::int64_t>(buf->capacity)) {
            // Retire into the graveyard chain; thieves may still read
            // [t, b) from the old cells, which stay untouched.
            Buffer *grown = new Buffer(buf->capacity * 2, buf);
            for (std::int64_t i = t; i < b; ++i)
                grown->cell(i).store(
                    buf->cell(i).load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
            buffer_.store(grown, std::memory_order_release);
            buf = grown;
        }
        buf->cell(b).store(v, std::memory_order_release);
        bottom_.store(b + 1, std::memory_order_seq_cst);
        return static_cast<std::size_t>(b + 1 - t);
    }

    /** Owner-only LIFO pop. */
    bool take(std::uint64_t &v)
    {
        const std::int64_t b =
            bottom_.load(std::memory_order_relaxed) - 1;
        Buffer *buf = buffer_.load(std::memory_order_relaxed);
        bottom_.store(b, std::memory_order_seq_cst);
        std::int64_t t = top_.load(std::memory_order_seq_cst);
        if (t <= b) {
            v = buf->cell(b).load(std::memory_order_relaxed);
            if (t == b) {
                // Last element: race the thieves for it via top.
                const bool won = top_.compare_exchange_strong(
                    t, t + 1, std::memory_order_seq_cst,
                    std::memory_order_relaxed);
                bottom_.store(b + 1, std::memory_order_relaxed);
                return won;
            }
            return true;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;
    }

    enum class Steal
    {
        kEmpty,
        kAbort, ///< Lost a race; retrying may succeed.
        kOk,
    };

    /** FIFO steal from any thread. */
    Steal steal(std::uint64_t &v)
    {
        std::int64_t t = top_.load(std::memory_order_seq_cst);
        const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
        if (t >= b)
            return Steal::kEmpty;
        Buffer *buf = buffer_.load(std::memory_order_acquire);
        const std::uint64_t cell =
            buf->cell(t).load(std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
            return Steal::kAbort;
        v = cell;
        return Steal::kOk;
    }

  private:
    static constexpr std::size_t kInitialCapacity = 256;

    struct Buffer
    {
        Buffer(std::size_t cap, Buffer *prev_buffer)
            : capacity(cap), mask(cap - 1),
              cells(new std::atomic<std::uint64_t>[cap]),
              prev(prev_buffer)
        {
        }

        std::atomic<std::uint64_t> &cell(std::int64_t i)
        {
            return cells[static_cast<std::size_t>(i) & mask];
        }

        std::size_t capacity;
        std::size_t mask;
        std::unique_ptr<std::atomic<std::uint64_t>[]> cells;
        Buffer *prev; ///< Graveyard chain of retired buffers.
    };

    alignas(64) std::atomic<std::int64_t> top_{0};
    alignas(64) std::atomic<std::int64_t> bottom_{0};
    alignas(64) std::atomic<Buffer *> buffer_;
};

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
        // Chunked parallel-for: payloads are chunk ids.
        void *ctx = nullptr;
        ChunkInvoke invoke = nullptr;
        std::size_t count = 0;
        std::size_t grain = 1;

        std::size_t width = 1;
        std::atomic<std::size_t> remaining{0};

        /** Trace-request id of the leading thread: workers adopt it for
         *  the region so their exec.worker spans attribute to the request
         *  whose region they are draining (obs/wall_trace.h). */
        std::uint64_t trace_req = 0;

        /** Per-lane steal tallies, updated before the remaining_
         *  decrement so the leader's acquire of remaining == 0 publishes
         *  them. */
        struct alignas(64) LaneTally
        {
            std::atomic<std::uint64_t> steals{0};
        };
        LaneTally tally[kMaxExecutorLanes];
    };

    std::mutex region_mutex_;

    std::mutex park_mutex_;
    std::condition_variable park_cv_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<bool> shutdown_{false};

    /** Seqlock guarding region_ rewrites (odd = leader writing). */
    std::atomic<std::uint64_t> install_seq_{0};
    /** Workers currently inside the region protocol. */
    std::atomic<std::uint32_t> joined_{0};

    Region region_;
    std::unique_ptr<TaskDeque[]> deques_{new TaskDeque[kMaxExecutorLanes]};

    std::mutex grow_mutex_;
    std::vector<std::thread> workers_; ///< Lanes 1..workers_.size().
    std::atomic<std::size_t> spawned_{0};

    // --- worker pool ---------------------------------------------------

    /** Grows the pool so lanes [1, lanes) exist.  Leader-only, under
     *  region_mutex_; racing instance() callers are excluded by it. */
    void ensure_workers(std::size_t lanes)
    {
        if (spawned_.load(std::memory_order_acquire) + 1 >= lanes)
            return;
        std::lock_guard<std::mutex> lock(grow_mutex_);
        while (workers_.size() + 1 < lanes) {
            const std::size_t lane = workers_.size() + 1;
            workers_.emplace_back([this, lane] { worker_loop(lane); });
        }
        spawned_.store(workers_.size(), std::memory_order_release);
    }

    // Steady-state worker protocol: park/join/execute/steal runs for the
    // process lifetime and must never allocate — growth (pool spawn, deque
    // buffers) happens in ensure_workers()/TaskDeque::push() outside this
    // region.  Enforced lexically by roboshape_lint (no-alloc-warm-path).
    // lint: warm-path begin
    void worker_loop(std::size_t lane)
    {
        t_inside_region = true; // nested submissions from tasks run inline
        std::uint64_t last_epoch = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(park_mutex_);
                ROBOSHAPE_OBS_COUNT("exec.parks", 1);
                park_cv_.wait(lock, [&] {
                    return shutdown_.load(std::memory_order_relaxed) ||
                           epoch_.load(std::memory_order_relaxed) !=
                               last_epoch;
                });
            }
            if (shutdown_.load(std::memory_order_relaxed))
                return;
            last_epoch = epoch_.load(std::memory_order_acquire);
            join_region(lane);
        }
    }

    /** Worker half of the install seqlock (see file comment). */
    void join_region(std::size_t lane)
    {
        for (;;) {
            joined_.fetch_add(1, std::memory_order_seq_cst);
            if ((install_seq_.load(std::memory_order_seq_cst) & 1) == 0)
                break; // fields are stable while we hold joined_
            joined_.fetch_sub(1, std::memory_order_seq_cst);
            while (install_seq_.load(std::memory_order_seq_cst) & 1)
                std::this_thread::yield();
        }
        Region &r = region_;
        if (lane < r.width &&
            r.remaining.load(std::memory_order_acquire) != 0) {
            obs::set_trace_request_id(r.trace_req);
            work_loop(r, lane);
            obs::set_trace_request_id(0);
        }
        joined_.fetch_sub(1, std::memory_order_release);
    }

    // --- task execution ------------------------------------------------

    void execute(Region &r, std::uint64_t payload, std::size_t lane)
    {
        const std::size_t begin = payload * r.grain;
        const std::size_t end = std::min(r.count, begin + r.grain);
        r.invoke(r.ctx, begin, end, lane);
        r.remaining.fetch_sub(1, std::memory_order_release);
    }

    bool try_steal(Region &r, std::size_t lane, std::uint64_t &payload,
                   std::uint64_t &rng)
    {
        const std::size_t width = r.width;
        const std::size_t start =
            static_cast<std::size_t>(next_rng(rng)) % width;
        for (std::size_t k = 0; k < width; ++k) {
            const std::size_t victim = (start + k) % width;
            if (victim == lane)
                continue;
            std::uint64_t v = 0;
            switch (deques_[victim].steal(v)) {
              case TaskDeque::Steal::kOk:
                payload = v;
                r.tally[lane].steals.fetch_add(
                    1, std::memory_order_relaxed);
                return true;
              case TaskDeque::Steal::kAbort:
                // Contended victim: retry it once before moving on.
                if (deques_[victim].steal(v) ==
                    TaskDeque::Steal::kOk) {
                    payload = v;
                    r.tally[lane].steals.fetch_add(
                        1, std::memory_order_relaxed);
                    return true;
                }
                break;
              case TaskDeque::Steal::kEmpty:
                break;
            }
        }
        return false;
    }

    /** Drains the region from @p lane: own deque first, then randomized
     *  stealing, yielding while starved, until every task completed. */
    void work_loop(Region &r, std::size_t lane)
    {
        const bool traced = obs::wall_trace_enabled();
        std::uint64_t t_first = 0, t_last = 0;
        std::uint64_t executed = 0;
        std::uint64_t rng = 0xE5C0 + lane;
        while (r.remaining.load(std::memory_order_acquire) != 0) {
            std::uint64_t payload = 0;
            bool got = deques_[lane].take(payload);
            if (!got)
                got = try_steal(r, lane, payload, rng);
            if (!got) {
                std::this_thread::yield();
                continue;
            }
            if (traced && t_first == 0)
                t_first = obs::wall_now_ns();
            execute(r, payload, lane);
            ++executed;
            if (traced)
                t_last = obs::wall_now_ns();
        }
        if (traced && t_first != 0)
            obs::record_wall_span("exec.worker", "exec", t_first, t_last,
                                  static_cast<std::int32_t>(lane),
                                  static_cast<std::int32_t>(executed));
    }
    // lint: warm-path end

    // --- region lifecycle (leader side) --------------------------------

    /**
     * Runs the installed-region protocol: pushes chunk ids
     * [0, @p num_chunks) to lane 0's deque, wakes the workers and drains
     * the region as lane 0.  Assumes the chunk fields (ctx, invoke, count,
     * grain) were already set by the caller, which holds region_mutex_.
     */
    void lead_region(std::size_t width, std::size_t num_chunks)
    {
        ensure_workers(width);

        // Install under the seqlock: no worker reads fields while odd.
        install_seq_.fetch_add(1, std::memory_order_seq_cst);
        while (joined_.load(std::memory_order_seq_cst) != 0)
            std::this_thread::yield();
        region_.width = width;
        region_.remaining.store(num_chunks, std::memory_order_relaxed);
        region_.trace_req = obs::trace_request_id();
        for (std::size_t lane = 0; lane < width; ++lane)
            region_.tally[lane].steals.store(0, std::memory_order_relaxed);
        std::size_t depth = 0;
        for (std::size_t c = 0; c < num_chunks; ++c)
            depth = deques_[0].push(c);
        install_seq_.fetch_add(1, std::memory_order_seq_cst);

        {
            std::lock_guard<std::mutex> lock(park_mutex_);
            epoch_.fetch_add(1, std::memory_order_release);
        }
        park_cv_.notify_all();

        t_inside_region = true;
        work_loop(region_, 0);
        t_inside_region = false;

        flush_tallies(width, num_chunks, depth);
    }

    /** Publishes the region's counters; the only deque pushes are the
     *  seed, so its depth is the region's queue-depth peak. */
    void flush_tallies(std::size_t width, std::size_t num_chunks,
                       std::size_t seed_depth)
    {
        (void)width;
        (void)num_chunks;
        (void)seed_depth;
#ifndef ROBOSHAPE_NO_OBS
        std::uint64_t steals = 0;
        for (std::size_t lane = 0; lane < width; ++lane)
            steals += region_.tally[lane].steals.load(
                std::memory_order_relaxed);
        ROBOSHAPE_OBS_COUNT("exec.regions", 1);
        ROBOSHAPE_OBS_COUNT("exec.tasks", num_chunks);
        ROBOSHAPE_OBS_COUNT("exec.steals", steals);
        ROBOSHAPE_OBS_RECORD("exec.queue_depth_peak", seed_depth);
#endif
    }
};

Executor::Executor() : impl_(std::make_unique<Impl>())
{
#ifndef ROBOSHAPE_NO_OBS
    // Pre-register every exec.* entry so first use inside a measured
    // region never allocates (the allocation-free warm-submission test
    // depends on this).
    obs::registry().counter("exec.regions");
    obs::registry().counter("exec.tasks");
    obs::registry().counter("exec.steals");
    obs::registry().counter("exec.parks");
    obs::registry().histogram("exec.queue_depth_peak");
#endif
}

Executor::~Executor()
{
    impl_->shutdown_.store(true, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(impl_->park_mutex_);
        impl_->epoch_.fetch_add(1, std::memory_order_release);
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

    // Chunk granularity: several chunks per lane so stealing can
    // rebalance heterogeneous costs, without per-index queue traffic.
    // The chunk map depends only on (count, width) — and outputs depend
    // on neither, because fn(i) owns slot i regardless of who runs it.
    constexpr std::size_t kChunksPerLane = 8;
    const std::size_t max_chunks =
        std::min(count, width * kChunksPerLane);
    const std::size_t grain = (count + max_chunks - 1) / max_chunks;
    const std::size_t num_chunks = (count + grain - 1) / grain;

    Impl &impl = *impl_;
    std::lock_guard<std::mutex> region_lock(impl.region_mutex_);
    impl.region_.ctx = ctx;
    impl.region_.invoke = invoke;
    impl.region_.count = count;
    impl.region_.grain = grain;
    impl.lead_region(width, num_chunks);
}

} // namespace core
} // namespace roboshape
