/**
 * @file
 * Implementation of the memoized sweep context.
 */

#include "core/sweep_context.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/executor.h"
#include "obs/registry.h"

namespace {

/** Mirrors a memo lookup into the process-wide registry. */
void
count_memo(bool hit)
{
    if (hit)
        ROBOSHAPE_OBS_COUNT("sweep.memo_hits", 1);
    else
        ROBOSHAPE_OBS_COUNT("sweep.memo_misses", 1);
}

} // namespace

namespace roboshape {
namespace core {

using sched::TaskType;

SweepContext::SweepContext(const topology::RobotModel &model,
                           const accel::TimingModel &timing,
                           sched::KernelKind kernel)
    : model_(std::make_shared<topology::RobotModel>(model)),
      timing_(timing), kernel_(kernel)
{
    topo_ = std::make_shared<topology::TopologyInfo>(*model_);
    graph_ = std::make_shared<sched::TaskGraph>(*topo_, kernel_);
    clock_period_ns_ = accel::clock_period_ns(topo_->metrics());

    const std::size_t n = num_links();
    fwd_.resize(n);
    bwd_.resize(n);
    if (kernel_ == sched::KernelKind::kDynamicsGradient) {
        mask_a_ = sched::mass_inverse_mask(*topo_);
        mask_b_ = sched::derivative_mask(*topo_);
        mm_.resize(n);
    }
}

std::size_t
SweepContext::block_knob_max() const
{
    return kernel_ == sched::KernelKind::kDynamicsGradient ? num_links()
                                                           : 1;
}

const sched::Schedule &
SweepContext::forward(std::size_t pes_fwd)
{
    assert(pes_fwd >= 1 && pes_fwd <= fwd_.size());
    std::unique_ptr<sched::Schedule> &slot = fwd_[pes_fwd - 1];
    tally_fwd_.count(slot != nullptr);
    count_memo(slot != nullptr);
    if (!slot)
        slot = std::make_unique<sched::Schedule>(sched::schedule_stage(
            *graph_, {TaskType::kRneaForward, TaskType::kGradForward},
            pes_fwd, timing_.traversal));
    return *slot;
}

const sched::Schedule &
SweepContext::backward(std::size_t pes_bwd)
{
    assert(pes_bwd >= 1 && pes_bwd <= bwd_.size());
    std::unique_ptr<sched::Schedule> &slot = bwd_[pes_bwd - 1];
    tally_bwd_.count(slot != nullptr);
    count_memo(slot != nullptr);
    if (!slot)
        slot = std::make_unique<sched::Schedule>(sched::schedule_stage(
            *graph_, {TaskType::kRneaBackward, TaskType::kGradBackward},
            pes_bwd, timing_.traversal));
    return *slot;
}

const sched::Schedule &
SweepContext::pipelined(std::size_t pes_fwd, std::size_t pes_bwd)
{
    assert(pes_fwd >= 1 && pes_fwd <= num_links() && pes_bwd >= 1 &&
           pes_bwd <= num_links());
    const bool hit = pipelined_ && pipelined_fwd_ == pes_fwd &&
                     pipelined_bwd_ == pes_bwd;
    tally_pipelined_.count(hit);
    count_memo(hit);
    if (!hit) {
        pipelined_ = sched::schedule_pipelined(*graph_, pes_fwd, pes_bwd,
                                               timing_.traversal);
        pipelined_fwd_ = pes_fwd;
        pipelined_bwd_ = pes_bwd;
    }
    return *pipelined_;
}

const sched::BlockSchedule &
SweepContext::block_multiply(std::size_t block_size)
{
    assert(kernel_ == sched::KernelKind::kDynamicsGradient &&
           "kernel has no blocked-multiply stage");
    assert(block_size >= 1 && block_size <= mm_.size());
    std::unique_ptr<sched::BlockSchedule> &slot = mm_[block_size - 1];
    tally_mm_.count(slot != nullptr);
    count_memo(slot != nullptr);
    if (!slot)
        slot = std::make_unique<sched::BlockSchedule>(
            sched::schedule_block_multiply(mask_a_, mask_b_, block_size,
                                           timing_.mm_units, timing_.tile,
                                           /*num_products=*/2));
    return *slot;
}

void
SweepContext::precompute_stage_schedules(std::size_t threads)
{
    const std::size_t n = num_links();
    const std::size_t mm_jobs = mm_.size();
    // Job layout: [0, n) forward, [n, 2n) backward, [2n, 2n + mm) blocked
    // multiply.  Each job owns exactly one cache slot, so no lock is needed
    // at any claim interleaving; already-filled slots are kept.  This is
    // the one executor region of a DesignSpace sweep.
    Executor::instance().parallel_for(
        2 * n + mm_jobs,
        [this, n](std::size_t job) {
            if (job < n)
                forward(job + 1);
            else if (job < 2 * n)
                backward(job - n + 1);
            else
                block_multiply(job - 2 * n + 1);
        },
        threads);
}

std::int64_t
SweepContext::cycles_no_pipelining(const accel::AcceleratorParams &p)
{
    std::int64_t cycles =
        forward(p.pes_fwd).makespan + backward(p.pes_bwd).makespan;
    if (kernel_ == sched::KernelKind::kDynamicsGradient)
        cycles += block_multiply(p.block_size).makespan;
    return cycles;
}

std::size_t
SweepContext::best_block_size()
{
    assert(kernel_ == sched::KernelKind::kDynamicsGradient);
    if (!best_block_) {
        std::size_t best = 1;
        std::int64_t best_ms = std::numeric_limits<std::int64_t>::max();
        for (std::size_t bs = 1; bs <= mm_.size(); ++bs) {
            const std::int64_t ms = block_multiply(bs).makespan;
            if (ms < best_ms) {
                best_ms = ms;
                best = bs;
            }
        }
        best_block_ = best;
    }
    return *best_block_;
}

accel::AcceleratorParams
SweepContext::capped_params(std::optional<std::size_t> max_pes_fwd,
                            std::optional<std::size_t> max_pes_bwd,
                            std::optional<std::size_t> max_block_size)
{
    const std::size_t n = num_links();
    const auto clamp_knob = [n](std::size_t v) {
        return std::clamp<std::size_t>(v, 1, n);
    };
    accel::AcceleratorParams p;
    p.pes_fwd = clamp_knob(max_pes_fwd.value_or(n));
    p.pes_bwd = clamp_knob(max_pes_bwd.value_or(n));
    if (kernel_ == sched::KernelKind::kDynamicsGradient)
        p.block_size = max_block_size ? clamp_knob(*max_block_size)
                                      : best_block_size();
    else
        p.block_size = 1;
    return p;
}

SweepMemoStats
SweepContext::memo_stats() const
{
    const auto load = [](const std::atomic<std::uint64_t> &v) {
        return v.load(std::memory_order_relaxed);
    };
    SweepMemoStats s;
    s.forward_hits = load(tally_fwd_.hits);
    s.forward_misses = load(tally_fwd_.misses);
    s.backward_hits = load(tally_bwd_.hits);
    s.backward_misses = load(tally_bwd_.misses);
    s.pipelined_hits = load(tally_pipelined_.hits);
    s.pipelined_misses = load(tally_pipelined_.misses);
    s.block_hits = load(tally_mm_.hits);
    s.block_misses = load(tally_mm_.misses);
    return s;
}

accel::AcceleratorDesign
SweepContext::design(const accel::AcceleratorParams &p)
{
    return accel::AcceleratorDesign(
        model_, topo_, graph_, p, timing_, kernel_, forward(p.pes_fwd),
        backward(p.pes_bwd), pipelined(p.pes_fwd, p.pes_bwd),
        kernel_ == sched::KernelKind::kDynamicsGradient
            ? block_multiply(p.block_size)
            : sched::BlockSchedule{});
}

} // namespace core
} // namespace roboshape
