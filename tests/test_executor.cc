/**
 * @file
 * Suite for the persistent executor (core::Executor), whose every region
 * is a chunked parallel_for claimed from one shared counter: index
 * coverage, lane exclusivity, idle lanes taking over a blocked lane's
 * chunks, a throwing callback rethrown on the submitter with the pool left
 * usable, the exec.* counters, byte-identical sweep and run_batch outputs
 * across thread counts {1, 2, 7, hw} and repeated runs, env-var
 * validation, and a counting-operator-new proof that warm submissions
 * never touch the heap.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accel/sim_engine.h"
#include "core/design_space.h"
#include "core/executor.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "linalg/matrix.h"
#include "obs/registry.h"
#include "topology/parametric_robots.h"
#include "topology/robot_library.h"
#include "topology/topology_info.h"

// ----------------------------------------------- allocation counting ----
// Same hook as test_sim_engine.cc: global new/delete are replaced for this
// binary, ticking only between arm() and read(); sanitizer builds keep
// their own allocator interceptors, so the hook is compiled out there.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ROBOSHAPE_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ROBOSHAPE_COUNT_ALLOCS 0
#else
#define ROBOSHAPE_COUNT_ALLOCS 1
#endif
#else
#define ROBOSHAPE_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<bool> g_alloc_count_armed{false};
std::atomic<std::size_t> g_alloc_count{0};

void
alloc_counter_arm()
{
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_alloc_count_armed.store(true, std::memory_order_relaxed);
}

std::size_t
alloc_counter_read()
{
    g_alloc_count_armed.store(false, std::memory_order_relaxed);
    return g_alloc_count.load(std::memory_order_relaxed);
}

#if ROBOSHAPE_COUNT_ALLOCS
void *
counted_alloc(std::size_t size)
{
    if (g_alloc_count_armed.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
#endif
} // namespace

#if ROBOSHAPE_COUNT_ALLOCS
void *
operator new(std::size_t size)
{
    return counted_alloc(size);
}

void *
operator new[](std::size_t size)
{
    return counted_alloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
#endif

namespace {

using roboshape::core::DesignPoint;
using roboshape::core::DesignSpace;
using roboshape::core::Executor;
using roboshape::core::kMaxExecutorLanes;

/** The widths the determinism suites pin: serial, small, more lanes than
 *  this machine likely has cores, and the hardware default (0). */
constexpr std::size_t kWidths[] = {1, 2, 7, 0};

// ------------------------------------------------------- parallel_for ----

TEST(ExecutorParallelFor, RunsEveryIndexExactlyOnceAtAnyWidth)
{
    constexpr std::size_t kCount = 1000;
    Executor &exec = Executor::instance();
    for (const std::size_t width : kWidths) {
        std::vector<std::atomic<int>> hits(kCount);
        std::vector<std::uint64_t> out(kCount, 0);
        exec.parallel_for(
            kCount,
            [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
                out[i] = i * i + 1;
            },
            width);
        for (std::size_t i = 0; i < kCount; ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at width "
                                         << width;
            EXPECT_EQ(out[i], i * i + 1);
        }
    }
}

TEST(ExecutorParallelFor, LaneIdsAreDenseAndExclusive)
{
    constexpr std::size_t kCount = 500;
    constexpr std::size_t kWidth = 7;
    Executor &exec = Executor::instance();
    const std::size_t width = exec.resolve_width(kCount, kWidth);
    ASSERT_EQ(width, kWidth);

    std::vector<std::atomic<bool>> in_use(kWidth);
    std::vector<std::atomic<std::uint64_t>> per_lane(kWidth);
    exec.parallel_for_lanes(
        kCount,
        [&](std::size_t i, std::size_t lane) {
            (void)i;
            ASSERT_LT(lane, kWidth);
            // A lane id is exclusive to one OS thread for the region, so
            // this flag can never be observed already set.
            EXPECT_FALSE(in_use[lane].exchange(true));
            per_lane[lane].fetch_add(1, std::memory_order_relaxed);
            in_use[lane].store(false);
        },
        kWidth);

    std::uint64_t total = 0;
    for (std::size_t lane = 0; lane < kWidth; ++lane)
        total += per_lane[lane].load();
    EXPECT_EQ(total, kCount);
}

TEST(ExecutorParallelFor, NestedCallsRunInlineWithoutDeadlock)
{
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 8;
    Executor &exec = Executor::instance();
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    exec.parallel_for(
        kOuter,
        [&](std::size_t i) {
            exec.parallel_for_lanes(
                kInner,
                [&](std::size_t j, std::size_t lane) {
                    // Nested regions run inline on the submitting thread.
                    EXPECT_EQ(lane, 0u);
                    hits[i * kInner + j].fetch_add(1);
                },
                4);
        },
        4);
    for (std::size_t k = 0; k < kOuter * kInner; ++k)
        EXPECT_EQ(hits[k].load(), 1);
}

TEST(ExecutorParallelFor, IdleLanesRunABlockedLanesChunks)
{
    // 2 x width indices is one index per chunk for any kChunksPerLane >= 2.
    // Index 0 blocks until the other seven have run, so the lanes that are
    // free must take them; a static stride would leave index 4 to the lane
    // blocked in index 0 and never finish.
    constexpr std::size_t kWidth = 4;
    constexpr std::size_t kCount = 2 * kWidth;
    constexpr int kDeadlineMs = 30000; // fail instead of hanging
    std::atomic<std::size_t> done{0};
    std::vector<std::atomic<int>> hits(kCount);
    Executor::instance().parallel_for(
        kCount,
        [&](std::size_t i) {
            for (int waited_ms = 0; i == 0 && done.load() < kCount - 1;
                 ++waited_ms) {
                if (waited_ms == kDeadlineMs) {
                    ADD_FAILURE() << "the other indices never ran";
                    break;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            hits[i].fetch_add(1);
            done.fetch_add(1);
        },
        kWidth);
    EXPECT_EQ(done.load(), kCount);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExecutorParallelFor, ZeroCountReturnsImmediately)
{
    bool ran = false;
    Executor::instance().parallel_for(
        0, [&](std::size_t) { ran = true; }, 4);
    EXPECT_FALSE(ran);
}

// ------------------------------------------------------- exceptions ----

constexpr int kThrowDeadlineMs = 30000; // fail instead of hanging

/** Sleeps in 1 ms steps until @p flag is set; false after the deadline. */
bool
wait_for(const std::atomic<bool> &flag)
{
    for (int waited_ms = 0; !flag.load(); ++waited_ms) {
        if (waited_ms == kThrowDeadlineMs)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/** A normal 4-lane region still runs every index exactly once. */
void
expect_pool_runs_every_index()
{
    constexpr std::size_t kCount = 256;
    std::vector<std::atomic<int>> hits(kCount);
    Executor::instance().parallel_for(
        kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExecutorExceptions, CallerThrowLeavesThePoolUsable)
{
    // Workers wait in their first chunk until lane 0 has thrown, so lane 0
    // is sure to claim a chunk of its own (32 chunks, 3 held by workers).
    constexpr std::size_t kWidth = 4;
    std::atomic<bool> thrown{false};
    const auto region = [&] {
        Executor::instance().parallel_for_lanes(
            8 * kWidth,
            [&](std::size_t, std::size_t lane) {
                if (lane == 0) {
                    thrown.store(true);
                    throw std::runtime_error("lane 0");
                }
                if (!wait_for(thrown))
                    ADD_FAILURE() << "lane 0 never threw";
            },
            kWidth);
    };
    EXPECT_THROW(region(), std::runtime_error);

    // A region submitted from another thread must still run.  A pool whose
    // lanes wait forever on the thrown chunk would hang here, so the
    // deadline ends the process instead.
    std::atomic<bool> returned{false};
    std::atomic<std::size_t> ran{0};
    std::thread other([&] {
        Executor::instance().parallel_for(
            64, [&](std::size_t) { ran.fetch_add(1); }, kWidth);
        returned.store(true);
    });
    if (!wait_for(returned)) {
        std::fprintf(stderr, "FAILED: a region submitted after a throwing "
                             "region never returned\n");
        std::fflush(stderr);
        std::_Exit(1);
    }
    other.join();
    EXPECT_EQ(ran.load(), 64u);
    expect_pool_runs_every_index();
}

TEST(ExecutorExceptions, WorkerThrowIsRethrownOnTheSubmitter)
{
    // Lane 0 blocks in its chunk until a worker lane has run an index, so
    // the other chunks run off lane 0 (the trick of
    // IdleLanesRunABlockedLanesChunks), and every one of them throws.
    constexpr std::size_t kWidth = 4;
    std::atomic<bool> off_lane0{false};
    const auto region = [&] {
        Executor::instance().parallel_for_lanes(
            2 * kWidth,
            [&](std::size_t, std::size_t lane) {
                if (lane != 0) {
                    off_lane0.store(true);
                    throw std::runtime_error("worker lane");
                }
                if (!wait_for(off_lane0))
                    ADD_FAILURE() << "no index ran off lane 0";
            },
            kWidth);
    };
    EXPECT_THROW(region(), std::runtime_error);
    expect_pool_runs_every_index();
}

TEST(ExecutorWidth, ResolveWidthClampsToCountAndCap)
{
    const Executor &exec = Executor::instance();
    EXPECT_EQ(exec.resolve_width(100, 7), 7u);
    EXPECT_EQ(exec.resolve_width(3, 7), 3u);
    EXPECT_EQ(exec.resolve_width(0, 7), 1u);
    EXPECT_EQ(exec.resolve_width(1, 0), 1u);
    EXPECT_LE(exec.resolve_width(1 << 20, 0), kMaxExecutorLanes);
    EXPECT_EQ(exec.resolve_width(1 << 20, 2 * kMaxExecutorLanes),
              kMaxExecutorLanes);
}

// ------------------------------------------------- sweep determinism ----

void
expect_points_identical(const std::vector<DesignPoint> &a,
                        const std::vector<DesignPoint> &b,
                        const std::string &label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].params, b[i].params) << label << " point " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << label << " point " << i;
        // Bit-exact, not approximately-equal: the composition arithmetic
        // is identical work regardless of which lane runs it.
        EXPECT_EQ(a[i].latency_us, b[i].latency_us)
            << label << " point " << i;
        EXPECT_EQ(a[i].resources.luts, b[i].resources.luts);
        EXPECT_EQ(a[i].resources.dsps, b[i].resources.dsps);
    }
}

TEST(ExecutorDeterminism, SweepPointsIdenticalAcrossThreadCounts)
{
    // An irregular topology (branching quadruped) and a deep serial chain
    // exercise heterogeneous job costs, so lanes claim uneven shares.
    const roboshape::topology::RobotModel models[] = {
        roboshape::topology::build_robot(
            roboshape::topology::RobotId::kHyq),
        roboshape::topology::make_serial_chain(12),
    };
    for (const auto &m : models) {
        const DesignSpace reference = DesignSpace::sweep(
            m, roboshape::accel::default_timing(),
            roboshape::sched::KernelKind::kDynamicsGradient, 1);
        for (const std::size_t width : kWidths) {
            const DesignSpace space = DesignSpace::sweep(
                m, roboshape::accel::default_timing(),
                roboshape::sched::KernelKind::kDynamicsGradient, width);
            expect_points_identical(reference.points(), space.points(),
                                    m.name() + " at width " +
                                        std::to_string(width));
        }
        // Repeated runs at one width must also agree (claim interleaving
        // differs run to run; outputs must not).
        for (int rep = 0; rep < 3; ++rep) {
            const DesignSpace space = DesignSpace::sweep(
                m, roboshape::accel::default_timing(),
                roboshape::sched::KernelKind::kDynamicsGradient, 7);
            expect_points_identical(reference.points(), space.points(),
                                    m.name() + " repeat " +
                                        std::to_string(rep));
        }
    }
}

TEST(ExecutorDeterminism, RunBatchIdenticalAcrossThreadCounts)
{
    using roboshape::accel::AcceleratorDesign;
    using roboshape::accel::EngineResult;
    using roboshape::accel::InputPacket;
    using roboshape::accel::SimEngine;

    const roboshape::topology::RobotModel m =
        roboshape::topology::build_robot(
            roboshape::topology::RobotId::kIiwa);
    const roboshape::topology::TopologyInfo topo(m);
    const AcceleratorDesign design(m, {4, 4, 4});
    const SimEngine engine(design);

    constexpr std::size_t kPackets = 23; // prime: uneven chunking
    std::vector<roboshape::dynamics::RobotState> states;
    std::vector<roboshape::dynamics::ForwardDynamicsGradients> refs;
    std::vector<InputPacket> packets;
    for (std::size_t i = 0; i < kPackets; ++i) {
        states.push_back(roboshape::dynamics::random_state(
            m, 500 + static_cast<int>(i)));
        const auto &s = states.back();
        refs.push_back(roboshape::dynamics::forward_dynamics_gradients(
            m, topo, s.q, s.qd, s.tau));
    }
    for (std::size_t i = 0; i < kPackets; ++i)
        packets.push_back({&states[i].q, &states[i].qd, &refs[i].qdd,
                           &refs[i].mass_inv});

    std::vector<EngineResult> serial(kPackets);
    auto ws = engine.make_workspace();
    for (std::size_t i = 0; i < kPackets; ++i)
        engine.run(ws, packets[i], serial[i]);

    for (const std::size_t width : kWidths) {
        for (int rep = 0; rep < 2; ++rep) {
            std::vector<EngineResult> batched(kPackets);
            SimEngine::BatchWorkspace batch;
            engine.run_batch(packets, batched, batch, width);
            for (std::size_t i = 0; i < kPackets; ++i) {
                EXPECT_EQ(roboshape::linalg::max_abs_diff(
                              batched[i].dqdd_dq, serial[i].dqdd_dq),
                          0.0)
                    << "packet " << i << " width " << width << " rep "
                    << rep;
                EXPECT_EQ(roboshape::linalg::max_abs_diff(
                              batched[i].dqdd_dqd, serial[i].dqdd_dqd),
                          0.0);
                EXPECT_EQ(roboshape::linalg::max_abs_diff(batched[i].tau,
                                                          serial[i].tau),
                          0.0);
            }
        }
    }
}

// ---------------------------------------------------- allocation-free ----

// A warm executor must keep parallel_for submissions off the heap
// entirely: the region descriptor is member storage, callbacks stay on
// the caller's stack, and the exec.* registry entries are pre-registered
// by the constructor.
TEST(ExecutorAllocations, WarmParallelForIsAllocationFree)
{
#if !ROBOSHAPE_COUNT_ALLOCS
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
    constexpr std::size_t kCount = 128;
    constexpr std::size_t kWidth = 4;
    Executor &exec = Executor::instance();
    std::vector<std::uint64_t> out(kCount, 0);
    const auto body = [&](std::size_t i) { out[i] = i + 7; };
    exec.parallel_for(kCount, body, kWidth); // warm-up spawns workers
    alloc_counter_arm();
    exec.parallel_for(kCount, body, kWidth);
    exec.parallel_for(kCount, body, kWidth);
    EXPECT_EQ(alloc_counter_read(), 0u);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(out[i], i + 7);
}

// ----------------------------------------------------------- counters ----

TEST(ExecutorObs, StealsCountChunksRunOffTheSubmittingThread)
{
    // 8 indices at width 4 are 8 one-index chunks, so exec.steals must
    // grow by the indices whose callback ran on a lane other than 0.
    constexpr std::size_t kRegions = 50;
    constexpr std::size_t kWidth = 4;
    constexpr std::size_t kCount = 2 * kWidth;
    roboshape::obs::set_enabled(true);
    auto &regions = roboshape::obs::registry().counter("exec.regions");
    auto &tasks = roboshape::obs::registry().counter("exec.tasks");
    auto &steals = roboshape::obs::registry().counter("exec.steals");
    Executor &exec = Executor::instance();
    for (std::size_t rep = 0; rep < kRegions; ++rep) {
        const std::uint64_t regions0 = regions.value();
        const std::uint64_t tasks0 = tasks.value();
        const std::uint64_t steals0 = steals.value();
        std::atomic<std::uint64_t> off_lane0{0};
        exec.parallel_for_lanes(
            kCount,
            [&](std::size_t, std::size_t lane) {
                if (lane != 0)
                    off_lane0.fetch_add(1);
            },
            kWidth);
        EXPECT_EQ(regions.value() - regions0, 1u) << "region " << rep;
        EXPECT_EQ(tasks.value() - tasks0, kCount) << "region " << rep;
        EXPECT_EQ(steals.value() - steals0, off_lane0.load())
            << "region " << rep;
    }
}

// ------------------------------------------------------ env validation ----

// The env tests mutate the process environment; each restores it so the
// surrounding tests see the default worker count.
class ExecutorEnv : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        unsetenv("ROBOSHAPE_THREADS");
        unsetenv("ROBOSHAPE_SWEEP_THREADS");
    }
};

TEST_F(ExecutorEnv, ValidOverrideIsHonored)
{
    setenv("ROBOSHAPE_THREADS", "3", 1);
    EXPECT_EQ(Executor::instance().worker_count(), 3u);
    setenv("ROBOSHAPE_THREADS", "1", 1);
    EXPECT_EQ(Executor::instance().worker_count(), 1u);
}

TEST_F(ExecutorEnv, GarbageValuesFallBackToDefault)
{
    unsetenv("ROBOSHAPE_THREADS");
    unsetenv("ROBOSHAPE_SWEEP_THREADS");
    const std::size_t fallback = Executor::instance().worker_count();
    // Pre-PR-7 strtoul parsed "7abc" as 7 and "abc" as 0 silently; all of
    // these must now be rejected whole, not prefix-parsed.
    const char *garbage[] = {"abc", "7abc", "-2", "0", " 4",
                             "99999999999999999999999999"};
    for (const char *value : garbage) {
        setenv("ROBOSHAPE_THREADS", value, 1);
        EXPECT_EQ(Executor::instance().worker_count(), fallback)
            << "value '" << value << "' must be rejected";
    }
    // The retired ROBOSHAPE_SWEEP_THREADS name is no longer read.
    unsetenv("ROBOSHAPE_THREADS");
    setenv("ROBOSHAPE_SWEEP_THREADS", fallback == 1 ? "2" : "1", 1);
    EXPECT_EQ(Executor::instance().worker_count(), fallback);
}

TEST_F(ExecutorEnv, OverrideIsCappedAtMaxLanes)
{
    setenv("ROBOSHAPE_THREADS", "100000", 1);
    EXPECT_EQ(Executor::instance().worker_count(), kMaxExecutorLanes);
}

} // namespace
