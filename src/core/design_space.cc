/**
 * @file
 * Implementation of design-space enumeration and search.
 */

#include "core/design_space.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>

#include "core/sweep_context.h"

namespace roboshape {
namespace core {

DesignSpace
DesignSpace::sweep(const topology::RobotModel &model,
                   const accel::TimingModel &timing,
                   sched::KernelKind kernel, std::size_t threads)
{
    return sweep(std::make_shared<SweepContext>(model, timing, kernel),
                 threads);
}

DesignSpace
DesignSpace::sweep(std::shared_ptr<SweepContext> context,
                   std::size_t threads)
{
    SweepContext &ctx = *context;
    ctx.precompute_stage_schedules(threads);

    // Every point is a sum of three cached makespans: read each once.
    // Kernels without a blocked multiply keep mm = {0}.
    const std::size_t n = ctx.num_links();
    const std::size_t block_max = ctx.block_knob_max();
    DesignSpace space;
    space.fwd_.resize(n);
    space.bwd_.resize(n);
    space.mm_.assign(block_max, 0);
    for (std::size_t k = 0; k < n; ++k) {
        space.fwd_[k] = ctx.forward(k + 1).makespan;
        space.bwd_[k] = ctx.backward(k + 1).makespan;
    }
    if (ctx.kernel() == sched::KernelKind::kDynamicsGradient)
        for (std::size_t b = 0; b < block_max; ++b)
            space.mm_[b] = ctx.block_multiply(b + 1).makespan;
    space.period_ = ctx.clock_period_ns();
    space.context_ = std::move(context);
    return space;
}

DesignPoint
DesignSpace::point(std::size_t pes_fwd, std::size_t pes_bwd,
                   std::size_t block_size) const
{
    DesignPoint point;
    point.params = {pes_fwd, pes_bwd, block_size};
    point.cycles =
        fwd_[pes_fwd - 1] + bwd_[pes_bwd - 1] + mm_[block_size - 1];
    point.latency_us = static_cast<double>(point.cycles) * period_ * 1e-3;
    point.resources = accel::estimate_resources(point.params, fwd_.size());
    return point;
}

std::vector<DesignPoint>
DesignSpace::points() const
{
    const std::size_t n = fwd_.size();
    std::vector<DesignPoint> points;
    points.reserve(size());
    for (std::size_t pf = 1; pf <= n; ++pf)
        for (std::size_t pb = 1; pb <= n; ++pb)
            for (std::size_t b = 1; b <= mm_.size(); ++b)
                points.push_back(point(pf, pb, b));
    return points;
}

std::vector<DesignPoint>
DesignSpace::cheapest_splits(bool first_only) const
{
    // Min-plus convolution of fwd and bwd: the fewest cycles of each PE
    // total s = pes_fwd + pes_bwd, at index s - 2.
    const std::size_t n = fwd_.size();
    std::vector<std::int64_t> least(2 * n - 1,
                                    std::numeric_limits<std::int64_t>::max());
    for (std::size_t pf = 1; pf <= n; ++pf)
        for (std::size_t pb = 1; pb <= n; ++pb)
            least[pf + pb - 2] =
                std::min(least[pf + pb - 2], fwd_[pf - 1] + bwd_[pb - 1]);

    // Walking pes_fwd upward meets the first split of each total first.
    std::vector<char> taken(2 * n - 1, 0);
    std::vector<DesignPoint> splits;
    for (std::size_t pf = 1; pf <= n; ++pf)
        for (std::size_t pb = 1; pb <= n; ++pb) {
            const std::size_t s = pf + pb - 2;
            if (fwd_[pf - 1] + bwd_[pb - 1] != least[s] ||
                (first_only && taken[s]))
                continue;
            taken[s] = 1;
            for (std::size_t b = 1; b <= mm_.size(); ++b)
                splits.push_back(point(pf, pb, b));
        }
    return splits;
}

std::vector<DesignPoint>
DesignSpace::pareto_frontier_3d() const
{
    // A split of a PE total that is not its cheapest is dominated by the
    // cheapest at the same block size: same LUTs and DSPs, fewer cycles.
    // So every split that ties the cheapest is run through the staircase,
    // ties included, because the frontier keeps duplicates.
    //
    // Sort-then-sweep instead of the quadratic all-pairs dominance check.
    // Points ordered lexicographically by (LUTs, DSPs, cycles) can only be
    // dominated by points sorting no later, so one pass with a running
    // (DSPs -> min cycles) staircase of all strictly-cheaper-LUT points
    // decides dominance; equal-LUT groups are handled in-group, where
    // strictness must come from DSPs or cycles.  Output (set and order)
    // is identical to the quadratic check, duplicates included.
    const std::vector<DesignPoint> points = cheapest_splits(false);
    const std::size_t count = points.size();
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto key = [&points](std::size_t i) {
        const DesignPoint &p = points[i];
        return std::make_tuple(p.resources.luts, p.resources.dsps,
                               p.cycles);
    };
    std::sort(order.begin(), order.end(),
              [&key](std::size_t x, std::size_t y) {
                  return key(x) < key(y) || (key(x) == key(y) && x < y);
              });

    // Staircase entries (dsps asc, min cycles strictly desc) over every
    // point of the already-processed (strictly smaller LUT) groups.
    std::vector<std::pair<std::int64_t, std::int64_t>> stair;
    const auto stair_min = [&stair](std::int64_t dsps) {
        const auto it = std::upper_bound(
            stair.begin(), stair.end(), dsps,
            [](std::int64_t d, const auto &e) { return d < e.first; });
        return it == stair.begin() ? std::numeric_limits<std::int64_t>::max()
                                   : std::prev(it)->second;
    };
    const auto stair_insert = [&stair, &stair_min](std::int64_t dsps,
                                                   std::int64_t cycles) {
        if (stair_min(dsps) <= cycles)
            return; // an existing entry already covers (dsps, cycles)
        auto it = std::lower_bound(
            stair.begin(), stair.end(), dsps,
            [](const auto &e, std::int64_t d) { return e.first < d; });
        if (it != stair.end() && it->first == dsps)
            it->second = cycles;
        else
            it = stair.insert(it, {dsps, cycles});
        const auto tail = std::next(it);
        auto last = tail;
        while (last != stair.end() && last->second >= cycles)
            ++last;
        stair.erase(tail, last);
    };

    std::vector<char> dominated(count, 0);
    for (std::size_t i = 0; i < count;) {
        std::size_t j = i;
        const std::int64_t luts = points[order[i]].resources.luts;
        while (j < count && points[order[j]].resources.luts == luts)
            ++j;
        // In-group running minima: cycles over strictly-smaller DSPs and
        // over equal DSPs (where domination needs strictly fewer cycles).
        constexpr std::int64_t kInf =
            std::numeric_limits<std::int64_t>::max();
        std::int64_t prev_dsps = 0;
        std::int64_t min_c_below = kInf, min_c_at = kInf;
        for (std::size_t k = i; k < j; ++k) {
            const DesignPoint &p = points[order[k]];
            const std::int64_t dsps = p.resources.dsps;
            if (k == i || dsps != prev_dsps) {
                min_c_below = std::min(min_c_below, min_c_at);
                min_c_at = kInf;
                prev_dsps = dsps;
            }
            if (stair_min(dsps) <= p.cycles || min_c_below <= p.cycles ||
                min_c_at < p.cycles)
                dominated[order[k]] = 1;
            min_c_at = std::min(min_c_at, p.cycles);
        }
        for (std::size_t k = i; k < j; ++k)
            stair_insert(points[order[k]].resources.dsps,
                         points[order[k]].cycles);
        i = j;
    }

    std::vector<DesignPoint> kept;
    for (std::size_t i = 0; i < count; ++i)
        if (!dominated[i])
            kept.push_back(points[i]);
    return kept;
}

std::vector<DesignPoint>
DesignSpace::pareto_frontier() const
{
    // Every split of a PE total has the same LUTs, so only the cheapest
    // split of each (total, block size) can be on the frontier.  A point
    // is dominated when another point has <= LUTs and <= cycles with at
    // least one strict: sort by LUTs then cycles and sweep.  Among points
    // tied on (LUTs, cycles) the first in knob order comes first, and the
    // first split of each total is the first of its ties in the cube.
    std::vector<DesignPoint> candidates = cheapest_splits(true);
    const auto key = [](const DesignPoint &p) {
        return std::make_tuple(p.resources.luts, p.cycles, p.params.pes_fwd,
                               p.params.pes_bwd, p.params.block_size);
    };
    std::sort(candidates.begin(), candidates.end(),
              [&key](const DesignPoint &a, const DesignPoint &b) {
                  return key(a) < key(b);
              });
    std::vector<DesignPoint> frontier;
    std::int64_t best_cycles = std::numeric_limits<std::int64_t>::max();
    for (const DesignPoint &p : candidates)
        if (p.cycles < best_cycles) {
            frontier.push_back(p);
            best_cycles = p.cycles;
        }
    return frontier;
}

DesignPoint
DesignSpace::optimal_min_latency() const
{
    // The cheapest split of a (total, block size) has the fewest cycles of
    // its LUTs and DSPs, and is the first of its ties in knob order.
    const std::vector<DesignPoint> candidates = cheapest_splits(true);
    assert(!candidates.empty());
    const DesignPoint *best = &candidates.front();
    for (const DesignPoint &p : candidates) {
        const auto key = [](const DesignPoint &d) {
            return std::make_tuple(d.cycles, d.resources.luts,
                                   d.resources.dsps);
        };
        if (key(p) < key(*best))
            best = &p;
    }
    return *best;
}

std::optional<DesignPoint>
DesignSpace::constrained_min_latency(const accel::FpgaPlatform &platform,
                                     double threshold) const
{
    // As in optimal_min_latency: whether a point fits depends only on its
    // PE total and block size.
    std::optional<DesignPoint> best;
    for (const DesignPoint &p : cheapest_splits(true)) {
        if (!p.resources.fits(platform, threshold))
            continue;
        if (!best || p.cycles < best->cycles ||
            (p.cycles == best->cycles &&
             p.resources.luts < best->resources.luts)) {
            best = p;
        }
    }
    return best;
}

std::optional<DesignPoint>
DesignSpace::max_allocation(const accel::FpgaPlatform &platform,
                            double threshold) const
{
    // Most total PEs, then the largest block, preferring balanced pools
    // among ties: the first split with the larger smaller pool is
    // pes_fwd = floor(total / 2).
    const std::size_t n = fwd_.size();
    for (std::size_t total = 2 * n; total >= 2; --total)
        for (std::size_t b = mm_.size(); b >= 1; --b) {
            const DesignPoint p = point(total / 2, total - total / 2, b);
            if (p.resources.fits(platform, threshold))
                return p;
        }
    return std::nullopt;
}

std::int64_t
DesignSpace::min_cycles() const
{
    return *std::min_element(fwd_.begin(), fwd_.end()) +
           *std::min_element(bwd_.begin(), bwd_.end()) +
           *std::min_element(mm_.begin(), mm_.end());
}

std::int64_t
DesignSpace::max_cycles() const
{
    return *std::max_element(fwd_.begin(), fwd_.end()) +
           *std::max_element(bwd_.begin(), bwd_.end()) +
           *std::max_element(mm_.begin(), mm_.end());
}

std::int64_t
DesignSpace::min_luts() const
{
    std::int64_t v = std::numeric_limits<std::int64_t>::max();
    for (std::size_t total = 2; total <= 2 * fwd_.size(); ++total)
        for (std::size_t b = 1; b <= mm_.size(); ++b)
            v = std::min(v, point(total / 2, total - total / 2, b)
                                .resources.luts);
    return v;
}

std::int64_t
DesignSpace::max_luts() const
{
    std::int64_t v = 0;
    for (std::size_t total = 2; total <= 2 * fwd_.size(); ++total)
        for (std::size_t b = 1; b <= mm_.size(); ++b)
            v = std::max(v, point(total / 2, total - total / 2, b)
                                .resources.luts);
    return v;
}

StrategyEvaluation
evaluate_strategy(const topology::RobotModel &model,
                  sched::AllocationStrategy strategy,
                  const DesignSpace &space,
                  const accel::TimingModel &timing)
{
    // Reuse the space's memoized schedules when it was swept with the same
    // timing model and the gradient kernel; each strategy then costs at
    // most two stage schedules (likely cache hits).  Otherwise a local
    // context schedules the same stages from scratch.
    SweepContext *ctx = space.context().get();
    std::optional<SweepContext> local;
    if (!ctx || ctx->timing() != timing ||
        ctx->kernel() != sched::KernelKind::kDynamicsGradient ||
        ctx->num_links() != model.num_links())
        ctx = &local.emplace(model, timing);

    const std::size_t n = ctx->num_links();
    const sched::Allocation alloc =
        sched::allocate(strategy, ctx->topology().metrics());
    StrategyEvaluation eval;
    eval.strategy = strategy;
    // PE pools are capped at N: allocating beyond the link count cannot
    // create more parallelism than tasks exist per slot.
    eval.params = accel::AcceleratorParams{std::min(alloc.pes_fwd, n),
                                           std::min(alloc.pes_bwd, n),
                                           ctx->best_block_size()};
    eval.cycles = ctx->cycles_no_pipelining(eval.params);
    eval.resources = accel::estimate_resources(eval.params, n);
    eval.meets_minimum_latency = eval.cycles == space.min_cycles();
    return eval;
}

} // namespace core
} // namespace roboshape
