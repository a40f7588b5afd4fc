/**
 * @file
 * Memoized schedule state shared across one robot's design-space sweep.
 *
 * Every knob triple (PEs_fwd, PEs_bwd, size_block) used to construct a
 * full AcceleratorDesign from scratch, rebuilding the TopologyInfo and
 * TaskGraph and re-running four scheduler passes — even though the
 * topology and task graph are invariant across the sweep and each
 * schedule depends on only one knob (forward on PEs_fwd, backward on
 * PEs_bwd, blocked multiply on size_block) or two (pipelined on the PE
 * pair).  A SweepContext builds the invariants once and memoizes the n
 * forward, n backward and n blocked-multiply schedules, so an n^3-point
 * sweep performs O(n) scheduler passes instead of O(n^3).  Sweep points
 * need no pipelined schedule at all; full designs compute it lazily, and
 * the context keeps only the last PE pair's, so a long-lived context that
 * designs at many pairs holds one pipelined schedule, not n^2.
 *
 * Thread-safety: precompute_stage_schedules() fills the single-knob caches
 * across the executor's lanes (each cache slot is written by exactly
 * one job, no locks).  The lazy accessors mutate the caches and must not
 * race each other; call them from one thread, or precompute first, after
 * which reads are safe from any number of threads.
 */

#ifndef ROBOSHAPE_CORE_SWEEP_CONTEXT_H
#define ROBOSHAPE_CORE_SWEEP_CONTEXT_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "accel/design.h"
#include "accel/params.h"
#include "sched/block_schedule.h"
#include "sched/list_scheduler.h"
#include "sched/task_graph.h"
#include "topology/robot_model.h"
#include "topology/topology_info.h"

namespace roboshape {
namespace core {

/**
 * Memoization effectiveness of one SweepContext, split by cache.  A "hit"
 * is an accessor call that found its slot already filled; a "miss" ran the
 * scheduler.  A cold DesignSpace sweep makes O(n) misses and then reads
 * each cached schedule once (O(n) hits); later designs, strategy
 * evaluations and cycles_no_pipelining calls add hits (see memo_stats()).
 */
struct SweepMemoStats
{
    std::uint64_t forward_hits = 0, forward_misses = 0;
    std::uint64_t backward_hits = 0, backward_misses = 0;
    std::uint64_t pipelined_hits = 0, pipelined_misses = 0;
    std::uint64_t block_hits = 0, block_misses = 0;

    std::uint64_t hits() const
    {
        return forward_hits + backward_hits + pipelined_hits + block_hits;
    }

    std::uint64_t misses() const
    {
        return forward_misses + backward_misses + pipelined_misses +
               block_misses;
    }
};

class SweepContext
{
  public:
    /** Builds the sweep invariants (topology, task graph, sparsity masks)
     *  for @p model; schedules are computed on demand or in bulk via
     *  precompute_stage_schedules(). */
    explicit SweepContext(const topology::RobotModel &model,
                          const accel::TimingModel &timing =
                              accel::default_timing(),
                          sched::KernelKind kernel =
                              sched::KernelKind::kDynamicsGradient);

    const topology::RobotModel &model() const { return *model_; }
    const topology::TopologyInfo &topology() const { return *topo_; }
    const sched::TaskGraph &task_graph() const { return *graph_; }
    const accel::TimingModel &timing() const { return timing_; }
    sched::KernelKind kernel() const { return kernel_; }

    std::size_t num_links() const { return model_->num_links(); }

    /** Upper bound of the size_block knob: N for kernels ending in the
     *  blocked multiply, 1 otherwise (the knob is unused). */
    std::size_t block_knob_max() const;

    /** Memoized forward-stage schedule for @p pes_fwd in [1, N]. */
    const sched::Schedule &forward(std::size_t pes_fwd);
    /** Memoized backward-stage schedule for @p pes_bwd in [1, N]. */
    const sched::Schedule &backward(std::size_t pes_bwd);
    /** Joint pipelined schedule for one PE-pool pair, memoized for the
     *  last pair asked only.  The reference is valid until the next
     *  pipelined() call; design() copies it at once. */
    const sched::Schedule &pipelined(std::size_t pes_fwd,
                                     std::size_t pes_bwd);
    /** Memoized blocked-multiply schedule for @p block_size in [1, N];
     *  only valid for kernels with a blocked-multiply stage. */
    const sched::BlockSchedule &block_multiply(std::size_t block_size);

    /**
     * Fills the forward, backward, and blocked-multiply caches (the
     * single-knob schedules every sweep point needs) across the executor
     * with @p threads workers (0 = ROBOSHAPE_THREADS or hardware
     * concurrency).
     * Afterwards the corresponding accessors are read-only and safe to
     * call concurrently.
     */
    void precompute_stage_schedules(std::size_t threads = 0);

    /** No-pipelining latency of one knob triple, composed from caches. */
    std::int64_t cycles_no_pipelining(const accel::AcceleratorParams &p);

    /** Synthesized clock period (invariant across the sweep). */
    double clock_period_ns() const { return clock_period_ns_; }

    /** Block size in [1, N] minimizing the blocked-multiply makespan
     *  (smallest size wins ties), memoized. */
    std::size_t best_block_size();

    /**
     * Knobs of one explicitly requested design: each PE cap clamped to
     * [1, N], an absent PE cap meaning N.  Gradient kernels take the block
     * cap clamped to [1, N], else best_block_size(); other kernels always
     * use block 1.  Shared by the CLI and the daemon.
     */
    accel::AcceleratorParams
    capped_params(std::optional<std::size_t> max_pes_fwd,
                  std::optional<std::size_t> max_pes_bwd,
                  std::optional<std::size_t> max_block_size);

    /** Full AcceleratorDesign composed from cached schedules — the cheap
     *  construction path (no scheduler re-runs beyond cache misses). */
    accel::AcceleratorDesign design(const accel::AcceleratorParams &p);

    /**
     * Snapshot of the memoization hit/miss counters since construction.
     * Counters are atomic (precompute_stage_schedules fills caches from
     * multiple workers) and also mirrored into the obs registry as
     * sweep.memo_hits / sweep.memo_misses.
     */
    SweepMemoStats memo_stats() const;

  private:
    std::shared_ptr<const topology::RobotModel> model_;
    std::shared_ptr<const topology::TopologyInfo> topo_;
    std::shared_ptr<const sched::TaskGraph> graph_;
    accel::TimingModel timing_;
    sched::KernelKind kernel_;
    double clock_period_ns_ = 0.0;

    sched::SparsityMask mask_a_, mask_b_; // blocked-multiply operands

    // Caches indexed by knob - 1; null = not yet computed.
    std::vector<std::unique_ptr<sched::Schedule>> fwd_;
    std::vector<std::unique_ptr<sched::Schedule>> bwd_;
    std::vector<std::unique_ptr<sched::BlockSchedule>> mm_;
    // The last pipelined schedule computed and its (pes_fwd, pes_bwd).
    std::optional<sched::Schedule> pipelined_;
    std::size_t pipelined_fwd_ = 0, pipelined_bwd_ = 0;
    std::optional<std::size_t> best_block_;

    /** Per-cache hit/miss tallies behind memo_stats().  Atomic because
     *  precompute_stage_schedules() drives the accessors from a pool. */
    struct MemoTally
    {
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};

        void count(bool hit) noexcept
        {
            (hit ? hits : misses).fetch_add(1, std::memory_order_relaxed);
        }
    };
    mutable MemoTally tally_fwd_, tally_bwd_, tally_pipelined_, tally_mm_;
};

} // namespace core
} // namespace roboshape

#endif // ROBOSHAPE_CORE_SWEEP_CONTEXT_H
