/**
 * @file
 * Tests for the generator façade and the design-space machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "accel/params.h"
#include "core/design_space.h"
#include "core/generator.h"
#include "core/design_export.h"
#include "core/soc_codesign.h"
#include "core/sweep_context.h"
#include "obs/registry.h"
#include "topology/parametric_robots.h"
#include "topology/robot_library.h"

namespace roboshape {
namespace core {
namespace {

using topology::RobotId;
using topology::RobotModel;
using topology::all_robots;
using topology::build_robot;
using topology::robot_name;

TEST(DesignSpace, CoversFullKnobCube)
{
    const RobotModel m = build_robot(RobotId::kIiwa);
    const DesignSpace space = DesignSpace::sweep(m);
    EXPECT_EQ(space.points().size(), 343u); // 7^3
}

TEST(DesignSpace, ParetoFrontierIsMinimalAndSorted)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const DesignSpace space = DesignSpace::sweep(m);
    const auto frontier = space.pareto_frontier();
    ASSERT_FALSE(frontier.empty());
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GE(frontier[i].resources.luts,
                  frontier[i - 1].resources.luts);
        EXPECT_LT(frontier[i].cycles, frontier[i - 1].cycles);
    }
    // No point in the space dominates a frontier point.
    for (const DesignPoint &f : frontier) {
        for (const DesignPoint &p : space.points()) {
            const bool dominates =
                p.resources.luts <= f.resources.luts &&
                p.cycles <= f.cycles &&
                (p.resources.luts < f.resources.luts ||
                 p.cycles < f.cycles);
            EXPECT_FALSE(dominates);
        }
    }
}

TEST(DesignSpace, OptimalPointHasMinimumCycles)
{
    const RobotModel m = build_robot(RobotId::kBaxter);
    const DesignSpace space = DesignSpace::sweep(m);
    const DesignPoint opt = space.optimal_min_latency();
    EXPECT_EQ(opt.cycles, space.min_cycles());
    // Tie-break: nothing at minimum cycles uses fewer LUTs.
    for (const DesignPoint &p : space.points()) {
        if (p.cycles == opt.cycles) {
            EXPECT_GE(p.resources.luts, opt.resources.luts);
        }
    }
}

TEST(DesignSpace, MaxCyclesRangeMatchesPaperFig12Scale)
{
    // Paper Fig. 12: maximum latencies across the six robots' spaces span
    // 829-7230 cycles.  The reproduction's calibrated model lands in the
    // same order of magnitude with the same ordering (HyQ smallest,
    // Jaco-3 largest).
    std::int64_t lo = std::numeric_limits<std::int64_t>::max(), hi = 0;
    std::int64_t hyq_max = 0, jaco3_max = 0;
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const std::int64_t mx = DesignSpace::sweep(m).max_cycles();
        lo = std::min(lo, mx);
        hi = std::max(hi, mx);
        if (id == RobotId::kHyq)
            hyq_max = mx;
        if (id == RobotId::kJaco3)
            jaco3_max = mx;
    }
    EXPECT_EQ(lo, hyq_max);
    EXPECT_EQ(hi, jaco3_max);
    EXPECT_GT(lo, 400);
    EXPECT_LT(hi, 10000);
}

TEST(DesignSpace, Vc707HasNoFeasibleHyqArmPoint)
{
    // Paper Fig. 16: no design point within the VC707 constraints exists
    // for HyQ+arm.
    const RobotModel m = build_robot(RobotId::kHyqWithArm);
    const DesignSpace space = DesignSpace::sweep(m);
    EXPECT_FALSE(space.constrained_min_latency(accel::vc707()).has_value());
    EXPECT_FALSE(space.max_allocation(accel::vc707()).has_value());
    // The big VCU118 fits it.
    EXPECT_TRUE(space.constrained_min_latency(accel::vcu118()).has_value());
    // Every other robot has VC707-feasible points (Fig. 16 shows bars for
    // all of them).
    for (RobotId id : all_robots()) {
        if (id == RobotId::kHyqWithArm)
            continue;
        const RobotModel other = build_robot(id);
        EXPECT_TRUE(DesignSpace::sweep(other)
                        .constrained_min_latency(accel::vc707())
                        .has_value())
            << robot_name(id);
    }
}

TEST(DesignSpace, MaxAllocationOftenMissesMinimumLatency)
{
    // Paper Insight #3: maximally-allocated designs often fail to match
    // the constrained minimum latency while using more resources.
    bool observed = false;
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const DesignSpace space = DesignSpace::sweep(m);
        const auto maxalloc = space.max_allocation(accel::vcu118());
        const auto best = space.constrained_min_latency(accel::vcu118());
        if (!maxalloc || !best)
            continue;
        EXPECT_GE(maxalloc->cycles, best->cycles);
        if (maxalloc->cycles > best->cycles &&
            maxalloc->resources.luts > best->resources.luts)
            observed = true;
    }
    EXPECT_TRUE(observed);
}

TEST(DesignSpace, BestBlockSizeAlignsWithHyqLegs)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const std::size_t best = SweepContext(m).best_block_size();
    EXPECT_TRUE(best == 3 || best == 6 || best == 9 || best == 12)
        << best;
}

TEST(Strategies, HybridMeetsMinimumLatencyOnDeepRobots)
{
    // For robots whose parallelism is depth-dominated (iiwa and the Jaco
    // variants), the Hybrid heuristic reaches the exhaustive-search
    // minimum exactly, as in paper Fig. 13.  (For limb-dominated robots
    // our work-conserving scheduler still profits from extra PEs; see
    // EXPERIMENTS.md, deviations.)
    for (RobotId id :
         {RobotId::kIiwa, RobotId::kJaco2, RobotId::kJaco3}) {
        const RobotModel m = build_robot(id);
        const DesignSpace space = DesignSpace::sweep(m);
        const StrategyEvaluation hybrid = evaluate_strategy(
            m, sched::AllocationStrategy::kHybrid, space);
        EXPECT_TRUE(hybrid.meets_minimum_latency) << robot_name(id);
    }
}

TEST(Strategies, HybridImprovesOnItsComponentStrategies)
{
    // Paper Sec. 5.4: the Hybrid of Max Leaf Depth (forward) and Max
    // Descendants (backward) improves on both constituent strategies.
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const DesignSpace space = DesignSpace::sweep(m);
        const auto hybrid = evaluate_strategy(
            m, sched::AllocationStrategy::kHybrid, space);
        const auto maxleaf = evaluate_strategy(
            m, sched::AllocationStrategy::kMaxLeafDepth, space);
        EXPECT_LE(hybrid.cycles, maxleaf.cycles) << robot_name(id);
        // And it never exceeds the naive Total-Links resource budget.
        const auto total = evaluate_strategy(
            m, sched::AllocationStrategy::kTotalLinks, space);
        EXPECT_LE(hybrid.resources.luts, total.resources.luts)
            << robot_name(id);
        EXPECT_LE(hybrid.resources.dsps, total.resources.dsps)
            << robot_name(id);
    }
}

TEST(Strategies, TotalLinksMeetsLatencyButWastesResources)
{
    // Paper Insight #1: naive Total-Links allocation reaches minimum
    // latency but over-provisions resources relative to Hybrid.
    for (RobotId id : {RobotId::kBaxter, RobotId::kJaco2}) {
        const RobotModel m = build_robot(id);
        const DesignSpace space = DesignSpace::sweep(m);
        const auto total = evaluate_strategy(
            m, sched::AllocationStrategy::kTotalLinks, space);
        const auto hybrid = evaluate_strategy(
            m, sched::AllocationStrategy::kHybrid, space);
        EXPECT_TRUE(total.meets_minimum_latency) << robot_name(id);
        EXPECT_GE(total.resources.luts, hybrid.resources.luts)
            << robot_name(id);
    }
}

TEST(Strategies, AvgLeafDepthUnderprovisionsAsymmetricRobots)
{
    // Paper Sec. 5.4: average leaf depth gives poor latency on every robot
    // whose metrics do not coincide with max leaf depth (e.g. Baxter).
    const RobotModel m = build_robot(RobotId::kBaxter);
    const DesignSpace space = DesignSpace::sweep(m);
    const auto avg = evaluate_strategy(
        m, sched::AllocationStrategy::kAvgLeafDepth, space);
    EXPECT_FALSE(avg.meets_minimum_latency);
}

TEST(Strategies, MismatchedSpaceEvaluatesLikeTheGradientSpace)
{
    // A space swept for another kernel cannot lend its schedules, so
    // evaluate_strategy schedules the gradient stages itself; the result
    // must equal evaluation against the gradient space.
    for (RobotId id : all_robots()) {
        const RobotModel m = build_robot(id);
        const DesignSpace gradient = DesignSpace::sweep(m);
        const DesignSpace crba = DesignSpace::sweep(
            m, accel::default_timing(), sched::KernelKind::kMassMatrix);
        for (const sched::AllocationStrategy strategy :
             sched::all_strategies()) {
            const StrategyEvaluation want =
                evaluate_strategy(m, strategy, gradient);
            const StrategyEvaluation got =
                evaluate_strategy(m, strategy, crba);
            EXPECT_EQ(got.params, want.params) << robot_name(id);
            EXPECT_EQ(got.cycles, want.cycles) << robot_name(id);
            EXPECT_EQ(got.resources.luts, want.resources.luts)
                << robot_name(id);
            EXPECT_EQ(got.resources.dsps, want.resources.dsps)
                << robot_name(id);
        }
    }
}

TEST(Generator, FromUrdfProducesFeasibleDesignWithReport)
{
    GeneratorConstraints constraints;
    constraints.platform = &accel::vcu118();
    const Generator gen;
    const GeneratedAccelerator out =
        gen.from_urdf(topology::robot_urdf(RobotId::kBaxter), constraints);
    EXPECT_TRUE(out.design.resources().fits(accel::vcu118()));
    EXPECT_NE(out.report.find("baxter"), std::string::npos);
    EXPECT_NE(out.report.find("knobs"), std::string::npos);
}

TEST(Generator, RespectsExplicitKnobCaps)
{
    GeneratorConstraints constraints;
    constraints.max_pes_fwd = 2;
    constraints.max_pes_bwd = 3;
    constraints.max_block_size = 2;
    const Generator gen;
    const auto out =
        gen.from_model(build_robot(RobotId::kHyqWithArm), constraints);
    EXPECT_LE(out.design.params().pes_fwd, 2u);
    EXPECT_LE(out.design.params().pes_bwd, 3u);
    EXPECT_LE(out.design.params().block_size, 2u);
}

TEST(Generator, ShrinksOntoSmallPlatform)
{
    // HyQ must be shrunk to fit the VC707 but remains feasible.
    GeneratorConstraints constraints;
    constraints.platform = &accel::vc707();
    const Generator gen;
    const auto out =
        gen.from_model(build_robot(RobotId::kHyq), constraints);
    EXPECT_TRUE(out.design.resources().fits(accel::vc707()));
}

TEST(Generator, ThrowsWhenNothingFits)
{
    // HyQ+arm cannot fit the VC707 at 80% (paper Fig. 16).
    GeneratorConstraints constraints;
    constraints.platform = &accel::vc707();
    const Generator gen;
    EXPECT_THROW(gen.from_model(build_robot(RobotId::kHyqWithArm),
                                constraints),
                 GenerationError);
}

TEST(DesignExport, JsonContainsEverySection)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const accel::AcceleratorDesign d(m, {3, 3, 6});
    const std::string json = design_to_json(d);
    for (const char *key :
         {"\"robot\": \"hyq\"", "\"kernel\"", "\"total_links\": 12",
          "\"pes_fwd\": 3", "\"size_block\": 6",
          "\"clock_period_ns\": 18", "\"luts\": 507158",
          "\"forward\"", "\"backward\"", "rneaFwd[i=0]"})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // Braces and brackets balance.
    int braces = 0, brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
        brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
    }
    EXPECT_EQ(braces, 0);
    // ROM labels contain brackets; net balance still closes.
    EXPECT_EQ(brackets, 0);
}

// ------------------------------------------------------ SoC co-design ----

TEST(SocCodesign, FrontierTradesLatenciesUnderSharedBudget)
{
    const RobotModel hyq = build_robot(RobotId::kHyq);
    const auto frontier = codesign_pareto(
        {&hyq, sched::KernelKind::kDynamicsGradient},
        {&hyq, sched::KernelKind::kMassMatrix}, accel::vcu118());
    ASSERT_GE(frontier.size(), 2u);
    const double lut_budget = accel::vcu118().luts * 0.8;
    const double dsp_budget = accel::vcu118().dsps * 0.8;
    for (std::size_t k = 0; k < frontier.size(); ++k) {
        EXPECT_LE(frontier[k].total_luts(), lut_budget);
        EXPECT_LE(frontier[k].total_dsps(), dsp_budget);
        if (k > 0) {
            // Strictly increasing first latency, decreasing second.
            EXPECT_GT(frontier[k].first.cycles,
                      frontier[k - 1].first.cycles);
            EXPECT_LT(frontier[k].second.cycles,
                      frontier[k - 1].second.cycles);
        }
    }
}

TEST(SocCodesign, ReportsInfeasiblePairings)
{
    const RobotModel iiwa = build_robot(RobotId::kIiwa);
    const RobotModel hyq = build_robot(RobotId::kHyq);
    EXPECT_TRUE(codesign_pareto(
                    {&iiwa, sched::KernelKind::kDynamicsGradient},
                    {&hyq, sched::KernelKind::kDynamicsGradient},
                    accel::vc707())
                    .empty());
}

TEST(DesignSpace, KernelSweepsDropUnusedBlockKnob)
{
    const RobotModel m = build_robot(RobotId::kIiwa);
    const DesignSpace grad = DesignSpace::sweep(m);
    const DesignSpace crba = DesignSpace::sweep(
        m, accel::default_timing(), sched::KernelKind::kMassMatrix);
    EXPECT_EQ(grad.points().size(), 343u);
    EXPECT_EQ(crba.points().size(), 49u); // block fixed at 1
}

// ---------------------------------------------- memoized sweep (ISSUE 1) --

/** The pre-memoization sweep: one full AcceleratorDesign per knob triple. */
std::vector<DesignPoint>
reference_serial_sweep(const RobotModel &model)
{
    std::vector<DesignPoint> points;
    const std::size_t n = model.num_links();
    for (std::size_t pf = 1; pf <= n; ++pf) {
        for (std::size_t pb = 1; pb <= n; ++pb) {
            for (std::size_t b = 1; b <= n; ++b) {
                const accel::AcceleratorDesign design(model, {pf, pb, b});
                DesignPoint point;
                point.params = design.params();
                point.cycles = design.cycles_no_pipelining();
                point.latency_us = design.latency_us_no_pipelining();
                point.resources = design.resources();
                points.push_back(point);
            }
        }
    }
    return points;
}

void
expect_points_identical(const std::vector<DesignPoint> &a,
                        const std::vector<DesignPoint> &b,
                        const char *robot)
{
    ASSERT_EQ(a.size(), b.size()) << robot;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].params == b[i].params)
            << robot << " point " << i << ": " << a[i].params.to_string()
            << " vs " << b[i].params.to_string();
        EXPECT_EQ(a[i].cycles, b[i].cycles) << robot << " point " << i;
        EXPECT_EQ(a[i].latency_us, b[i].latency_us)
            << robot << " point " << i;
        EXPECT_EQ(a[i].resources.luts, b[i].resources.luts)
            << robot << " point " << i;
        EXPECT_EQ(a[i].resources.dsps, b[i].resources.dsps)
            << robot << " point " << i;
    }
}

TEST(SweepEquivalence, MatchesSerialReferencePointForPoint)
{
    // The memoized + threaded sweep must be a pure optimization: identical
    // (params, cycles, latency_us, resources) per point, in identical
    // order, while running the list scheduler once per forward and once
    // per backward PE count (no pipelined schedules at all) and the block
    // scheduler once per block size (gradient only), instead of O(n^3)
    // times.  The registry counts every scheduler run.
    obs::set_enabled(true);
    const obs::Counter &list = obs::registry().counter("sched.list_runs");
    const obs::Counter &block = obs::registry().counter("sched.block_runs");
    for (RobotId id : {RobotId::kIiwa, RobotId::kHyq, RobotId::kBaxter}) {
        const RobotModel m = build_robot(id);
        const std::size_t n = m.num_links();
        for (sched::KernelKind kernel : sched::all_kernels()) {
            const bool gradient =
                kernel == sched::KernelKind::kDynamicsGradient;
            const std::string what =
                std::string(robot_name(id)) + " " + sched::to_string(kernel);

            const std::uint64_t list0 = list.value(), block0 = block.value();
            const DesignSpace space =
                DesignSpace::sweep(m, accel::default_timing(), kernel);
            EXPECT_EQ(list.value() - list0, 2 * n) << what;
            EXPECT_EQ(block.value() - block0, gradient ? n : 0) << what;

            if (gradient)
                expect_points_identical(space.points(),
                                        reference_serial_sweep(m),
                                        robot_name(id));
        }
    }
}

TEST(SweepEquivalence, SweepIsDeterministicAcrossRuns)
{
    const RobotModel m = build_robot(RobotId::kBaxter);
    const DesignSpace first = DesignSpace::sweep(m);
    const DesignSpace second = DesignSpace::sweep(m);
    expect_points_identical(first.points(), second.points(), "baxter");
}

TEST(SweepEquivalence, ThreadedPrecomputeMatchesLazySchedules)
{
    // Force a multi-worker pool even on single-core hosts; this test is
    // the TSan gate for the sweep thread pool (build with
    // -DROBOSHAPE_SANITIZE=thread).
    const RobotModel m = build_robot(RobotId::kHyqWithArm);
    SweepContext threaded(m);
    threaded.precompute_stage_schedules(/*threads=*/4);
    SweepContext lazy(m);
    for (std::size_t k = 1; k <= m.num_links(); ++k) {
        EXPECT_EQ(threaded.forward(k).makespan, lazy.forward(k).makespan);
        EXPECT_EQ(threaded.forward(k).forward_rom,
                  lazy.forward(k).forward_rom);
        EXPECT_EQ(threaded.backward(k).makespan,
                  lazy.backward(k).makespan);
        EXPECT_EQ(threaded.backward(k).backward_rom,
                  lazy.backward(k).backward_rom);
        EXPECT_EQ(threaded.block_multiply(k).makespan,
                  lazy.block_multiply(k).makespan);
        EXPECT_EQ(threaded.block_multiply(k).executed_tiles,
                  lazy.block_multiply(k).executed_tiles);
    }
}

TEST(SweepEquivalence, ContextDesignMatchesFromScratchConstruction)
{
    const RobotModel m = build_robot(RobotId::kJaco2);
    SweepContext ctx(m);
    for (const accel::AcceleratorParams params :
         {accel::AcceleratorParams{1, 1, 1},
          accel::AcceleratorParams{3, 2, 4},
          accel::AcceleratorParams{12, 12, 12}}) {
        const accel::AcceleratorDesign cheap = ctx.design(params);
        const accel::AcceleratorDesign scratch(m, params);
        EXPECT_EQ(cheap.cycles_no_pipelining(),
                  scratch.cycles_no_pipelining());
        EXPECT_EQ(cheap.cycles_pipelined(), scratch.cycles_pipelined());
        EXPECT_EQ(cheap.cycles_overlapped(), scratch.cycles_overlapped());
        EXPECT_EQ(cheap.clock_period_ns(), scratch.clock_period_ns());
        EXPECT_EQ(cheap.resources().luts, scratch.resources().luts);
        EXPECT_EQ(cheap.resources().dsps, scratch.resources().dsps);
        EXPECT_EQ(cheap.forward_stage().forward_rom,
                  scratch.forward_stage().forward_rom);
        EXPECT_EQ(cheap.pipelined().makespan,
                  scratch.pipelined().makespan);
    }
}

TEST(DesignSpace, Pareto3dMatchesQuadraticReference)
{
    // The sort-then-sweep frontier must reproduce the all-pairs dominance
    // check exactly — same set, same order, duplicates included.
    std::vector<RobotModel> models;
    models.push_back(build_robot(RobotId::kHyq));
    models.push_back(build_robot(RobotId::kJaco3));
    models.push_back(topology::make_star(3, 3, "star3x3"));
    for (const RobotModel &m : models) {
        const DesignSpace space = DesignSpace::sweep(m);
        std::vector<DesignPoint> reference;
        for (const DesignPoint &p : space.points()) {
            bool dominated = false;
            for (const DesignPoint &q : space.points()) {
                if (q.cycles <= p.cycles &&
                    q.resources.luts <= p.resources.luts &&
                    q.resources.dsps <= p.resources.dsps &&
                    (q.cycles < p.cycles ||
                     q.resources.luts < p.resources.luts ||
                     q.resources.dsps < p.resources.dsps)) {
                    dominated = true;
                    break;
                }
            }
            if (!dominated)
                reference.push_back(p);
        }
        const auto frontier = space.pareto_frontier_3d();
        ASSERT_EQ(frontier.size(), reference.size()) << m.name();
        for (std::size_t i = 0; i < frontier.size(); ++i) {
            EXPECT_TRUE(frontier[i].params == reference[i].params)
                << m.name() << " index " << i;
        }
    }
}

/** The pointer sort pareto_frontier() falls back to beyond 32-bit keys:
 *  the oracle for the packed-key path's order and picks among ties. */
std::vector<DesignPoint>
pointer_sort_frontier(const DesignSpace &space)
{
    std::vector<const DesignPoint *> sorted;
    for (const DesignPoint &p : space.points())
        sorted.push_back(&p);
    std::sort(sorted.begin(), sorted.end(),
              [](const DesignPoint *a, const DesignPoint *b) {
                  if (a->resources.luts != b->resources.luts)
                      return a->resources.luts < b->resources.luts;
                  return a->cycles < b->cycles;
              });
    std::vector<DesignPoint> frontier;
    std::int64_t best_cycles = std::numeric_limits<std::int64_t>::max();
    for (const DesignPoint *p : sorted)
        if (p->cycles < best_cycles) {
            frontier.push_back(*p);
            best_cycles = p->cycles;
        }
    return frontier;
}

TEST(DesignSpace, ParetoFrontierKeepsThePointerSortPicks)
{
    struct Case
    {
        RobotModel model;
        sched::KernelKind kernel;
        accel::TimingModel timing = accel::default_timing();
    };
    std::vector<Case> cases;
    for (const auto &ids :
         {topology::all_robots(), topology::extended_robots()})
        for (const RobotId id : ids)
            for (const sched::KernelKind kernel :
                 {sched::KernelKind::kDynamicsGradient,
                  sched::KernelKind::kMassMatrix,
                  sched::KernelKind::kForwardKinematics})
                cases.push_back({build_robot(id), kernel});
    for (std::size_t n = 6; n <= 40; ++n)
        cases.push_back({topology::make_serial_chain(n),
                         sched::KernelKind::kDynamicsGradient});
    for (RobotModel m : {topology::make_star(4, 3), topology::make_star(6, 2),
                         topology::make_branching_tree(3, 3),
                         topology::make_branching_tree(4, 2),
                         topology::make_gantry(), topology::make_gantry(6)})
        cases.push_back(
            {std::move(m), sched::KernelKind::kDynamicsGradient});
    // Past 32-bit keys: traversal tasks of 2^30 cycles each put every
    // point of these sweeps at 2^32 cycles or more, so pareto_frontier()
    // sorts pointers.  A 32-bit check that let these keys through would
    // wrap them and change the picks.
    constexpr std::int64_t kWideTask = std::int64_t{1} << 30;
    accel::TimingModel wide = accel::default_timing();
    wide.traversal = {kWideTask, kWideTask, kWideTask, kWideTask};
    for (const RobotId id : {RobotId::kIiwa, RobotId::kHyq})
        cases.push_back(
            {build_robot(id), sched::KernelKind::kDynamicsGradient, wide});

    std::size_t points = 0;
    for (const auto &[model, kernel, timing] : cases) {
        const DesignSpace space = DesignSpace::sweep(model, timing, kernel);
        if (timing == wide) {
            ASSERT_GE(space.min_cycles(), std::int64_t{1} << 32)
                << model.name();
        }
        const std::vector<DesignPoint> got = space.pareto_frontier();
        const std::vector<DesignPoint> want = pointer_sort_frontier(space);
        ASSERT_EQ(got.size(), want.size()) << model.name();
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_TRUE(got[i].params == want[i].params)
                << model.name() << " point " << i << ": "
                << got[i].params.to_string() << " vs "
                << want[i].params.to_string();
            EXPECT_EQ(got[i].cycles, want[i].cycles) << model.name();
        }
        points += got.size();
    }
    EXPECT_GT(points, cases.size());
}

TEST(DesignSpace, Pareto3dContains2dFrontier)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const DesignSpace space = DesignSpace::sweep(m);
    const auto p2 = space.pareto_frontier();
    const auto p3 = space.pareto_frontier_3d();
    for (const DesignPoint &p : p2) {
        bool found = false;
        for (const DesignPoint &q : p3)
            if (q.params == p.params)
                found = true;
        EXPECT_TRUE(found) << p.params.to_string();
    }
}

} // namespace
} // namespace core
} // namespace roboshape
