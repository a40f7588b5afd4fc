/**
 * @file
 * Design-space enumeration, Pareto analysis, and optimal-point search
 * (paper Sec. 5.3-5.5).
 *
 * RoboShape's knobs are topology-bounded — PE pools range over [1, N] and
 * the block size over [1, N] — so each robot's space holds N^3 points
 * (343-6859 for the paper's robots: "1000s of design points", Fig. 12).
 * A point's cycles are fwd[pes_fwd] + bwd[pes_bwd] + mm[block_size], three
 * makespan arrays of N entries, and its LUTs and DSPs depend only on
 * (pes_fwd + pes_bwd, block_size).  So the space keeps the three arrays
 * and answers every query from them.  Only the cheapest split of each PE
 * total can be on a frontier, which leaves 2N - 1 candidates per block
 * size instead of N^2.
 */

#ifndef ROBOSHAPE_CORE_DESIGN_SPACE_H
#define ROBOSHAPE_CORE_DESIGN_SPACE_H

#include <memory>
#include <optional>
#include <vector>

#include "accel/design.h"
#include "sched/allocation.h"
#include "topology/robot_model.h"

namespace roboshape {
namespace core {

class SweepContext;

/** One evaluated knob combination. */
struct DesignPoint
{
    accel::AcceleratorParams params;
    std::int64_t cycles = 0; ///< No-pipelining latency in cycles.
    double latency_us = 0.0;
    accel::ResourceEstimate resources;
};

/** The design space of one robot, kept as three makespan arrays. */
class DesignSpace
{
  public:
    /**
     * The design space of @p context, over every knob combination in
     * [1, N]^3.
     *
     * One executor region fills the context's single-knob schedule caches
     * (SweepContext::precompute_stage_schedules), so the N^3 points cost
     * O(N) scheduler passes.  Each cached makespan is then read once into
     * the three arrays the space keeps (mm = {0} for kernels without a
     * blocked multiply); their sum is the same int64 sum
     * SweepContext::cycles_no_pipelining makes.  Every query returns the
     * same points at any worker count.
     *
     * @param context the robot, timing model and kernel to sweep; the
     *        space keeps it (see context()).
     * @param threads worker count of the precompute region; 0 defers to
     *        ROBOSHAPE_THREADS or the hardware default.
     */
    static DesignSpace sweep(std::shared_ptr<SweepContext> context,
                             std::size_t threads = 0);

    /** Sweeps a fresh SweepContext of @p model (copied into the space)
     *  for @p kernel (paper Table 1). */
    static DesignSpace sweep(const topology::RobotModel &model,
                             const accel::TimingModel &timing =
                                 accel::default_timing(),
                             sched::KernelKind kernel =
                                 sched::KernelKind::kDynamicsGradient,
                             std::size_t threads = 0);

    /**
     * Three-objective (cycles, LUTs, DSPs) Pareto subset — the candidate
     * set for SoC co-design pairing.
     */
    std::vector<DesignPoint> pareto_frontier_3d() const;

    /**
     * Every point, composed on each call in (pes_fwd, pes_bwd, block_size)
     * order: N^3 points for gradient kernels.  For tests and exhaustive
     * checks; every query below answers without it.  Hold the returned
     * vector before keeping pointers into it.
     */
    std::vector<DesignPoint> points() const;

    /** Number of knob combinations: N * N * the block knob's range. */
    std::size_t size() const
    {
        return fwd_.size() * bwd_.size() * mm_.size();
    }

    /**
     * Latency/LUT Pareto frontier (paper Fig. 12's red crosses), sorted by
     * ascending LUTs.  Among points tied on (LUTs, cycles), the first in
     * (pes_fwd, pes_bwd, block_size) order is the one kept.
     */
    std::vector<DesignPoint> pareto_frontier() const;

    /**
     * The paper's "Optimal Minimum Latency" point: minimum cycles,
     * tie-broken by fewest LUTs then fewest DSPs.
     */
    DesignPoint optimal_min_latency() const;

    /** Optimal point among designs fitting @p platform at @p threshold;
     *  empty when nothing fits (e.g. HyQ+arm on the VC707, Fig. 16). */
    std::optional<DesignPoint>
    constrained_min_latency(const accel::FpgaPlatform &platform,
                            double threshold =
                                accel::kUtilizationThreshold) const;

    /**
     * The maximally-allocated feasible point: largest PE pools, then
     * largest block, that still fits (paper Fig. 16's "Max Alloc" bars).
     */
    std::optional<DesignPoint>
    max_allocation(const accel::FpgaPlatform &platform,
                   double threshold = accel::kUtilizationThreshold) const;

    /** Minimum cycles over the whole space. */
    std::int64_t min_cycles() const;
    /** Maximum cycles over the whole space (paper Fig. 12 caption). */
    std::int64_t max_cycles() const;
    std::int64_t min_luts() const;
    std::int64_t max_luts() const;

    /** The memoized schedule caches this space was swept with; shared by
     *  evaluate_strategy so strategy evaluation re-runs no schedules.
     *  Lazy accessors on the context are not thread-safe (see
     *  SweepContext). */
    const std::shared_ptr<SweepContext> &context() const
    {
        return context_;
    }

  private:
    /** The point at one knob triple, each knob in [1, its range]. */
    DesignPoint point(std::size_t pes_fwd, std::size_t pes_bwd,
                      std::size_t block_size) const;

    /**
     * Points whose fwd + bwd cycles are the fewest of their PE total
     * pes_fwd + pes_bwd, at every block size, in (pes_fwd, pes_bwd,
     * block_size) order: every such split, or with @p first_only the first
     * split of each total only.
     */
    std::vector<DesignPoint> cheapest_splits(bool first_only) const;

    std::vector<std::int64_t> fwd_; ///< Forward makespan per PE count.
    std::vector<std::int64_t> bwd_; ///< Backward makespan per PE count.
    std::vector<std::int64_t> mm_;  ///< Blocked multiply per block size.
    double period_ = 0.0;           ///< Clock period in ns.
    std::shared_ptr<SweepContext> context_;
};

/**
 * Evaluation of one metric-based allocation strategy (paper Fig. 13): the
 * strategy fixes the PE pools; the block size is chosen as the best
 * unconstrained blocked-multiply setting for the robot.
 */
struct StrategyEvaluation
{
    sched::AllocationStrategy strategy;
    accel::AcceleratorParams params;
    std::int64_t cycles = 0;
    accel::ResourceEstimate resources;
    bool meets_minimum_latency = false; ///< Equals the space's min cycles.
};

/** Evaluates one strategy against @p model. */
StrategyEvaluation evaluate_strategy(const topology::RobotModel &model,
                                     sched::AllocationStrategy strategy,
                                     const DesignSpace &space,
                                     const accel::TimingModel &timing =
                                         accel::default_timing());

} // namespace core
} // namespace roboshape

#endif // ROBOSHAPE_CORE_DESIGN_SPACE_H
