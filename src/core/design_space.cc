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
    std::vector<std::int64_t> fwd(n), bwd(n), mm(block_max, 0);
    for (std::size_t k = 0; k < n; ++k) {
        fwd[k] = ctx.forward(k + 1).makespan;
        bwd[k] = ctx.backward(k + 1).makespan;
    }
    if (ctx.kernel() == sched::KernelKind::kDynamicsGradient)
        for (std::size_t b = 0; b < block_max; ++b)
            mm[b] = ctx.block_multiply(b + 1).makespan;

    DesignSpace space;
    const double period = ctx.clock_period_ns();
    space.points_.reserve(n * n * block_max);
    for (std::size_t pf = 1; pf <= n; ++pf)
        for (std::size_t pb = 1; pb <= n; ++pb)
            for (std::size_t b = 1; b <= block_max; ++b) {
                DesignPoint &point = space.points_.emplace_back();
                point.params = {pf, pb, b};
                point.cycles = fwd[pf - 1] + bwd[pb - 1] + mm[b - 1];
                point.latency_us =
                    static_cast<double>(point.cycles) * period * 1e-3;
                point.resources = accel::estimate_resources(point.params, n);
            }
    space.context_ = std::move(context);
    return space;
}

std::vector<DesignPoint>
DesignSpace::pareto_frontier_3d() const
{
    // Sort-then-sweep instead of the quadratic all-pairs dominance check.
    // Points ordered lexicographically by (LUTs, DSPs, cycles) can only be
    // dominated by points sorting no later, so one pass with a running
    // (DSPs -> min cycles) staircase of all strictly-cheaper-LUT points
    // decides dominance; equal-LUT groups are handled in-group, where
    // strictness must come from DSPs or cycles.  Output (set and order)
    // is identical to the quadratic check, duplicates included.
    const std::size_t count = points_.size();
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto key = [this](std::size_t i) {
        const DesignPoint &p = points_[i];
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
        const std::int64_t luts = points_[order[i]].resources.luts;
        while (j < count && points_[order[j]].resources.luts == luts)
            ++j;
        // In-group running minima: cycles over strictly-smaller DSPs and
        // over equal DSPs (where domination needs strictly fewer cycles).
        constexpr std::int64_t kInf =
            std::numeric_limits<std::int64_t>::max();
        std::int64_t prev_dsps = 0;
        std::int64_t min_c_below = kInf, min_c_at = kInf;
        for (std::size_t k = i; k < j; ++k) {
            const DesignPoint &p = points_[order[k]];
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
            stair_insert(points_[order[k]].resources.dsps,
                         points_[order[k]].cycles);
        i = j;
    }

    std::vector<DesignPoint> kept;
    for (std::size_t i = 0; i < count; ++i)
        if (!dominated[i])
            kept.push_back(points_[i]);
    return kept;
}

std::vector<DesignPoint>
DesignSpace::pareto_frontier() const
{
    // A point is dominated when another point has <= LUTs and <= cycles
    // with at least one strict.  Sort by LUTs then cycles and sweep.
    std::vector<DesignPoint> frontier;
    std::int64_t best_cycles = std::numeric_limits<std::int64_t>::max();
    const auto sweep = [&](const DesignPoint &p) {
        if (p.cycles < best_cycles) {
            frontier.push_back(p);
            best_cycles = p.cycles;
        }
    };

    // When LUTs, cycles and indices fit in 32 bits, sort packed
    // (LUTs << 32 | cycles) keys, which sit together in memory.  Each key
    // comparison has the outcome of the (LUTs, cycles) comparison below,
    // and std::sort's moves depend only on those outcomes, so both paths
    // make one permutation and pick the same point among ties.
    constexpr std::int64_t kLimit = std::int64_t{1} << 32;
    const auto fits = [](std::int64_t v) { return v >= 0 && v < kLimit; };
    const bool packable =
        points_.size() < static_cast<std::uint64_t>(kLimit) &&
        std::all_of(points_.begin(), points_.end(),
                    [&](const DesignPoint &p) {
                        return fits(p.resources.luts) && fits(p.cycles);
                    });
    if (packable) {
        struct PackedKey
        {
            std::uint64_t key;
            std::uint32_t index;
        };
        std::vector<PackedKey> sorted(points_.size());
        for (std::size_t i = 0; i < points_.size(); ++i)
            sorted[i] = {
                static_cast<std::uint64_t>(points_[i].resources.luts) << 32 |
                    static_cast<std::uint64_t>(points_[i].cycles),
                static_cast<std::uint32_t>(i)};
        std::sort(sorted.begin(), sorted.end(),
                  [](const PackedKey &a, const PackedKey &b) {
                      return a.key < b.key;
                  });
        for (const PackedKey &k : sorted)
            sweep(points_[k.index]);
        return frontier;
    }

    // Sorting pointers leaves the N^3 points in place; std::sort makes
    // the same permutation it would make on the values.
    std::vector<const DesignPoint *> sorted;
    sorted.reserve(points_.size());
    for (const DesignPoint &p : points_)
        sorted.push_back(&p);
    std::sort(sorted.begin(), sorted.end(),
              [](const DesignPoint *a, const DesignPoint *b) {
                  if (a->resources.luts != b->resources.luts)
                      return a->resources.luts < b->resources.luts;
                  return a->cycles < b->cycles;
              });
    for (const DesignPoint *p : sorted)
        sweep(*p);
    return frontier;
}

DesignPoint
DesignSpace::optimal_min_latency() const
{
    assert(!points_.empty());
    const DesignPoint *best = &points_.front();
    for (const DesignPoint &p : points_) {
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
    std::optional<DesignPoint> best;
    for (const DesignPoint &p : points_) {
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
    std::optional<DesignPoint> best;
    const auto key = [](const DesignPoint &d) {
        // Most total PEs, then the largest block, preferring balanced
        // pools among ties.
        return std::make_tuple(d.params.pes_fwd + d.params.pes_bwd,
                               d.params.block_size,
                               std::min(d.params.pes_fwd,
                                        d.params.pes_bwd));
    };
    for (const DesignPoint &p : points_) {
        if (!p.resources.fits(platform, threshold))
            continue;
        if (!best || key(p) > key(*best))
            best = p;
    }
    return best;
}

std::int64_t
DesignSpace::min_cycles() const
{
    std::int64_t v = std::numeric_limits<std::int64_t>::max();
    for (const DesignPoint &p : points_)
        v = std::min(v, p.cycles);
    return v;
}

std::int64_t
DesignSpace::max_cycles() const
{
    std::int64_t v = 0;
    for (const DesignPoint &p : points_)
        v = std::max(v, p.cycles);
    return v;
}

std::int64_t
DesignSpace::min_luts() const
{
    std::int64_t v = std::numeric_limits<std::int64_t>::max();
    for (const DesignPoint &p : points_)
        v = std::min(v, p.resources.luts);
    return v;
}

std::int64_t
DesignSpace::max_luts() const
{
    std::int64_t v = 0;
    for (const DesignPoint &p : points_)
        v = std::max(v, p.resources.luts);
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
