/**
 * @file
 * Persistent chunked executor (docs/PARALLELISM.md).
 *
 * Every parallel region in the pipeline — sweep precompute,
 * `SimEngine::run_batch` shards, fuzz iterations — used to spawn and join
 * fresh `std::thread`s per call and statically stride the index space.
 * The executor replaces that with one process-lifetime pool of parked
 * workers: submitting a region wakes the workers, every lane claims the
 * region's chunks in ascending order from one shared counter, and the
 * pool parks again when the region drains.  Two consequences:
 *
 *  - Fork-join overhead is paid once per process, not once per call.
 *    Waking a parked worker is a futex, not a clone(2) — small batches
 *    stop paying thread-spawn latency (`bench/executor_throughput`).
 *
 *  - Irregular task costs (hyper-redundant robots, heterogeneous schedule
 *    jobs) no longer idle the workers whose static stride happened to get
 *    the cheap indices; a lane that frees up claims the next chunk, so
 *    balance holds at chunk granularity.
 *
 * Determinism contract (the guarantee every caller relies on): claiming
 * may reorder *execution*, never *writes*.  `parallel_for` hands index i
 * to exactly one task, the callback may only write state owned by index i
 * (or by its lane, see below), and the caller observes all writes after
 * the region returns.  Outputs are therefore bit-identical at any worker
 * count, on any claim interleaving — the property the sweep and run_batch
 * equivalence suites assert.
 *
 * Lanes: a region runs on `width` lanes, lane 0 being the calling thread
 * and lanes 1..width-1 parked pool workers.  The lane index passed to
 * `parallel_for_lanes` callbacks is a dense id that is exclusive to one OS
 * thread for the whole region, so per-lane scratch (e.g. SimEngine
 * workspaces) needs no locking even though task->lane assignment is
 * nondeterministic.
 *
 * Regions: every region is a chunked `parallel_for` over an index range;
 * there is no dependency-graph submission.  Dependent phases are separate
 * regions or run serially on the caller: `DesignSpace::sweep` fills its
 * schedule caches in one region and reads their makespans on the calling
 * thread.
 *
 * Worker count: `ROBOSHAPE_THREADS` (validated; garbage values warn once
 * on stderr and fall back), else hardware concurrency.  A region may
 * request more lanes than cores (tests force {2, 7}); the pool grows up
 * to `kMaxExecutorLanes`.
 *
 * Observability: counters `exec.regions`, `exec.tasks` (chunks run),
 * `exec.steals` (chunks run by a pool worker rather than the submitting
 * thread), `exec.parks`, and per-worker wall spans (`exec.worker`,
 * category "exec") when wall tracing is on.
 */

#ifndef ROBOSHAPE_CORE_EXECUTOR_H
#define ROBOSHAPE_CORE_EXECUTOR_H

#include <cstddef>
#include <memory>
#include <type_traits>

namespace roboshape {
namespace core {

/** Hard cap on lanes (calling thread + pool workers) per region. */
inline constexpr std::size_t kMaxExecutorLanes = 64;

class Executor
{
  public:
    /** The process-wide executor.  Created on first use; workers park
     *  between regions and are joined at process exit. */
    static Executor &instance();

    /**
     * Lanes a default-width region uses: the validated ROBOSHAPE_THREADS
     * override when set, else hardware concurrency, capped at
     * kMaxExecutorLanes.  Re-reads the environment
     * on each call (cheap; benches call it once for reporting).
     */
    std::size_t worker_count() const;

    /**
     * Width a region over @p count tasks runs at: @p requested when
     * nonzero, else worker_count(); always clamped to [1, count] and
     * kMaxExecutorLanes.
     */
    std::size_t resolve_width(std::size_t count,
                              std::size_t requested = 0) const;

    /**
     * Runs fn(i) for every i in [0, count).  Index i is executed exactly
     * once, by whichever lane claims its chunk; fn may only write state
     * owned by i.  Blocks until every index ran; all writes are visible to
     * the caller afterwards.  Runs inline when one lane suffices.  Nested
     * calls from inside a region run inline.
     *
     * If fn throws, the first exception is rethrown on the submitting
     * thread once the region has ended; which indices ran is then
     * unspecified.
     */
    template <typename Fn>
    void parallel_for(std::size_t count, Fn &&fn,
                      std::size_t requested = 0)
    {
        auto wrapped = [&fn](std::size_t i, std::size_t) { fn(i); };
        parallel_for_lanes(count, wrapped, requested);
    }

    /**
     * parallel_for variant whose callback also receives the executing
     * lane in [0, width): fn(i, lane).  The lane id is exclusive to one
     * OS thread for the region, so fn may use per-lane scratch without
     * locking.  Task->lane assignment is NOT deterministic — only use the
     * lane for scratch, never for anything that reaches an output.
     */
    template <typename Fn>
    void parallel_for_lanes(std::size_t count, Fn &&fn,
                            std::size_t requested = 0)
    {
        using Decayed = std::remove_reference_t<Fn>;
        const auto invoke = [](void *ctx, std::size_t begin,
                               std::size_t end, std::size_t lane) {
            Decayed &f = *static_cast<Decayed *>(ctx);
            for (std::size_t i = begin; i < end; ++i)
                f(i, lane);
        };
        run_chunked(std::addressof(fn),
                    static_cast<ChunkInvoke>(invoke), count, requested);
    }

    ~Executor();

  private:
    using ChunkInvoke = void (*)(void *, std::size_t, std::size_t,
                                 std::size_t);

    Executor();
    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Type-erased core of parallel_for_lanes. */
    void run_chunked(void *ctx, ChunkInvoke invoke, std::size_t count,
                     std::size_t requested);

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace core
} // namespace roboshape

#endif // ROBOSHAPE_CORE_EXECUTOR_H
