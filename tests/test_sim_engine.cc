/**
 * @file
 * Golden-equivalence suite for the compiled simulation engine
 * (accel::SimEngine): across the whole robot library and both functional
 * orders, the engine must be *bit-identical* to the legacy one-shot
 * simulators it replaces, reject the adversarial order with the exact
 * legacy diagnostics (at compile time rather than mid-run), shard batches
 * deterministically at any thread count, and perform zero heap
 * allocations once warm — checked through a counting operator new hook.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/functional_sim.h"
#include "accel/kernel_sim.h"
#include "accel/sim_engine.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "topology/robot_library.h"
#include "topology/topology_info.h"

// ----------------------------------------------- allocation counting ----
// Global new/delete are replaced for this binary; the counter only ticks
// between alloc_counter_arm() and alloc_counter_read(), so gtest's own
// allocations stay out of the way.  Sanitizer builds keep their own
// allocator interceptors — replacing operator new under them trips
// alloc-dealloc-mismatch, so the hook (and the test that needs it) is
// compiled out there.

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

void *
counted_aligned_alloc(std::size_t size, std::size_t align)
{
    if (g_alloc_count_armed.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, size ? size : 1) != 0)
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

// Aligned forms: the SIMD lane workspaces allocate 64-byte-aligned
// buffers through these, so they must count too (and must pair with an
// allocator whose pointers plain free() can release).

void *
operator new(std::size_t size, std::align_val_t al)
{
    return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}

void *
operator new[](std::size_t size, std::align_val_t al)
{
    return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
#endif

namespace roboshape {
namespace accel {
namespace {

using dynamics::RobotState;
using dynamics::random_state;
using sched::KernelKind;
using topology::RobotId;
using topology::RobotModel;
using topology::TopologyInfo;
using topology::build_robot;
using topology::robot_name;

/** all_robots() plus extended_robots(): the whole shipped library. */
const std::vector<RobotId> &
library_robots()
{
    static const std::vector<RobotId> robots = [] {
        std::vector<RobotId> out = topology::all_robots();
        for (RobotId id : topology::extended_robots())
            out.push_back(id);
        return out;
    }();
    return robots;
}

std::string
robot_param_name(const ::testing::TestParamInfo<RobotId> &info)
{
    std::string name = robot_name(info.param);
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

/** Exact (bit-level up to zero signs) gradient comparison. */
void
expect_gradient_exact(const EngineResult &sim, const SimResult &legacy)
{
    EXPECT_EQ(linalg::max_abs_diff(sim.tau, legacy.tau), 0.0);
    EXPECT_EQ(linalg::max_abs_diff(sim.dtau_dq, legacy.dtau_dq), 0.0);
    EXPECT_EQ(linalg::max_abs_diff(sim.dtau_dqd, legacy.dtau_dqd), 0.0);
    EXPECT_EQ(linalg::max_abs_diff(sim.dqdd_dq, legacy.dqdd_dq), 0.0);
    EXPECT_EQ(linalg::max_abs_diff(sim.dqdd_dqd, legacy.dqdd_dqd), 0.0);
    EXPECT_EQ(sim.tasks_executed, legacy.tasks_executed);
    EXPECT_EQ(sim.mm_stats.block_macs, legacy.mm_stats.block_macs);
    EXPECT_EQ(sim.mm_stats.block_nops, legacy.mm_stats.block_nops);
    EXPECT_EQ(sim.mm_stats.scalar_macs, legacy.mm_stats.scalar_macs);
}

class SimEngineGolden : public ::testing::TestWithParam<RobotId>
{
};

// Engine output == legacy simulate() to the last bit, both orders.
TEST_P(SimEngineGolden, GradientMatchesLegacyExactly)
{
    const RobotModel m = build_robot(GetParam());
    const TopologyInfo topo(m);
    const RobotState s = random_state(m, 17);
    const auto ref = dynamics::forward_dynamics_gradients(m, topo, s.q,
                                                          s.qd, s.tau);
    const AcceleratorDesign design(m, {3, 3, 3});
    for (SimOrder order : {SimOrder::kStaged, SimOrder::kPipelined}) {
        const SimEngine engine(design, order);
        auto ws = engine.make_workspace();
        EngineResult sim;
        const InputPacket packet{&s.q, &s.qd, &ref.qdd, &ref.mass_inv};
        engine.run(ws, packet, sim);
        const SimResult legacy =
            simulate(design, s.q, s.qd, ref.qdd, ref.mass_inv,
                     dynamics::kDefaultGravity, order);
        expect_gradient_exact(sim, legacy);
        EXPECT_EQ(engine.trace_length(), legacy.tasks_executed);
    }
}

TEST_P(SimEngineGolden, MassMatrixMatchesLegacyExactly)
{
    const RobotModel m = build_robot(GetParam());
    const RobotState s = random_state(m, 19);
    const AcceleratorDesign design(m, {3, 3, 1}, default_timing(),
                                   KernelKind::kMassMatrix);
    for (SimOrder order : {SimOrder::kStaged, SimOrder::kPipelined}) {
        const SimEngine engine(design, order);
        auto ws = engine.make_workspace();
        EngineResult sim;
        const InputPacket packet{&s.q};
        engine.run(ws, packet, sim);
        const MassMatrixSimResult legacy =
            simulate_mass_matrix(design, s.q, order);
        EXPECT_EQ(linalg::max_abs_diff(sim.mass, legacy.mass), 0.0);
        EXPECT_EQ(sim.tasks_executed, legacy.tasks_executed);
    }
}

TEST_P(SimEngineGolden, KinematicsMatchesLegacyExactly)
{
    const RobotModel m = build_robot(GetParam());
    const RobotState s = random_state(m, 23);
    const AcceleratorDesign design(m, {4, 1, 1}, default_timing(),
                                   KernelKind::kForwardKinematics);
    for (SimOrder order : {SimOrder::kStaged, SimOrder::kPipelined}) {
        const SimEngine engine(design, order);
        auto ws = engine.make_workspace();
        EngineResult sim;
        const InputPacket packet{&s.q, &s.qd};
        engine.run(ws, packet, sim);
        const KinematicsSimResult legacy =
            simulate_forward_kinematics(design, s.q, s.qd, order);
        ASSERT_EQ(sim.base_to_link.size(), legacy.base_to_link.size());
        for (std::size_t i = 0; i < m.num_links(); ++i) {
            EXPECT_EQ((sim.base_to_link[i].to_matrix() -
                       legacy.base_to_link[i].to_matrix())
                          .max_abs(),
                      0.0);
            EXPECT_EQ((sim.velocities[i] - legacy.velocities[i]).max_abs(),
                      0.0);
            EXPECT_EQ(linalg::max_abs_diff(sim.jacobians[i],
                                           legacy.jacobians[i]),
                      0.0);
        }
        EXPECT_EQ(sim.tasks_executed, legacy.tasks_executed);
    }
}

INSTANTIATE_TEST_SUITE_P(Robots, SimEngineGolden,
                         ::testing::ValuesIn(library_robots()),
                         robot_param_name);

// ------------------------------------------------- hazard rejection ----

// The engine front-loads the legacy simulators' hazard checks into
// compilation: the adversarial order must throw from the constructor,
// with the exact message the legacy simulator raises mid-run.
TEST(SimEngineHazards, AdversarialOrderThrowsAtCompileTime)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const TopologyInfo topo(m);
    const RobotState s = random_state(m, 3);
    const auto ref = dynamics::forward_dynamics_gradients(m, topo, s.q,
                                                          s.qd, s.tau);

    const AcceleratorDesign gradient(m, {3, 3, 3});
    const AcceleratorDesign mass(m, {3, 3, 1}, default_timing(),
                                 KernelKind::kMassMatrix);
    const AcceleratorDesign kinematics(m, {4, 1, 1}, default_timing(),
                                       KernelKind::kForwardKinematics);

    // What does the legacy simulator say?
    auto legacy_message = [&](const AcceleratorDesign &design) {
        try {
            switch (design.kernel()) {
              case KernelKind::kDynamicsGradient:
                simulate(design, s.q, s.qd, ref.qdd, ref.mass_inv,
                         dynamics::kDefaultGravity,
                         SimOrder::kAdversarialReversed);
                break;
              case KernelKind::kMassMatrix:
                simulate_mass_matrix(design, s.q,
                                     SimOrder::kAdversarialReversed);
                break;
              case KernelKind::kForwardKinematics:
                simulate_forward_kinematics(
                    design, s.q, s.qd, SimOrder::kAdversarialReversed);
                break;
            }
        } catch (const DataHazardError &e) {
            return std::string(e.what());
        }
        return std::string();
    };

    for (const AcceleratorDesign *design :
         {&gradient, &mass, &kinematics}) {
        const std::string expected = legacy_message(*design);
        ASSERT_FALSE(expected.empty());
        try {
            const SimEngine engine(*design,
                                   SimOrder::kAdversarialReversed);
            FAIL() << "adversarial order compiled without a hazard";
        } catch (const DataHazardError &e) {
            EXPECT_EQ(std::string(e.what()), expected);
        }
    }
}

// ------------------------------------------------- batch determinism ----

TEST(SimEngineBatch, BitIdenticalToSerialAtAnyThreadCount)
{
    const RobotModel m = build_robot(RobotId::kBaxter);
    const TopologyInfo topo(m);
    const AcceleratorDesign design(m, {4, 4, 4});
    const SimEngine engine(design);

    constexpr std::size_t kPackets = 10;
    std::vector<RobotState> states;
    std::vector<dynamics::ForwardDynamicsGradients> refs;
    std::vector<InputPacket> packets;
    for (std::size_t i = 0; i < kPackets; ++i) {
        states.push_back(random_state(m, 100 + static_cast<int>(i)));
        const RobotState &s = states.back();
        refs.push_back(dynamics::forward_dynamics_gradients(m, topo, s.q,
                                                            s.qd, s.tau));
    }
    for (std::size_t i = 0; i < kPackets; ++i)
        packets.push_back({&states[i].q, &states[i].qd, &refs[i].qdd,
                           &refs[i].mass_inv});

    // Serial reference.
    std::vector<EngineResult> serial(kPackets);
    auto ws = engine.make_workspace();
    for (std::size_t i = 0; i < kPackets; ++i)
        engine.run(ws, packets[i], serial[i]);

    for (std::size_t threads : {1u, 2u, 4u}) {
        std::vector<EngineResult> batched(kPackets);
        SimEngine::BatchWorkspace batch;
        engine.run_batch(packets, batched, batch, threads);
        for (std::size_t i = 0; i < kPackets; ++i) {
            EXPECT_EQ(linalg::max_abs_diff(batched[i].dqdd_dq,
                                           serial[i].dqdd_dq),
                      0.0)
                << "packet " << i << " at " << threads << " threads";
            EXPECT_EQ(linalg::max_abs_diff(batched[i].dqdd_dqd,
                                           serial[i].dqdd_dqd),
                      0.0);
            EXPECT_EQ(linalg::max_abs_diff(batched[i].tau, serial[i].tau),
                      0.0);
        }
        // Reusing the batch workspace must stay deterministic too.
        engine.run_batch(packets, batched, batch, threads);
        for (std::size_t i = 0; i < kPackets; ++i)
            EXPECT_EQ(linalg::max_abs_diff(batched[i].dqdd_dq,
                                           serial[i].dqdd_dq),
                      0.0);
    }
}

// ------------------------------------------------------ input checks ----

// Optimized builds compile asserts out, so a result span or workspace of
// the wrong size must be rejected by a check that stays in every build.
TEST(SimEngineInputs, RunBatchRejectsBadInputBeforeAnyWork)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const TopologyInfo topo(m);
    constexpr std::size_t kPackets = 10;
    std::vector<RobotState> states;
    std::vector<dynamics::ForwardDynamicsGradients> refs;
    std::vector<InputPacket> gradient_packets, mass_packets;
    for (std::size_t i = 0; i < kPackets; ++i) {
        states.push_back(random_state(m, 300 + static_cast<int>(i)));
        const RobotState &s = states.back();
        refs.push_back(dynamics::forward_dynamics_gradients(m, topo, s.q,
                                                            s.qd, s.tau));
    }
    for (std::size_t i = 0; i < kPackets; ++i) {
        gradient_packets.push_back({&states[i].q, &states[i].qd,
                                    &refs[i].qdd, &refs[i].mass_inv});
        mass_packets.push_back({&states[i].q});
    }

    const AcceleratorDesign gradient(m, {4, 4, 4});
    const AcceleratorDesign mass(m, {3, 3, 1}, default_timing(),
                                 KernelKind::kMassMatrix);
    for (const AcceleratorDesign *design : {&gradient, &mass}) {
        const SimEngine engine(*design);
        const std::vector<InputPacket> &packets =
            design == &gradient ? gradient_packets : mass_packets;
        std::vector<EngineResult> out(kPackets - 1);
        SimEngine::BatchWorkspace batch;
        EXPECT_THROW(engine.run_batch(packets, out, batch, 4),
                     std::invalid_argument);
        for (const EngineResult &r : out)
            EXPECT_EQ(r.tau.size() + r.mass.rows(), 0u);
    }

    // A packet without q, and per-lane workspaces from a 7-link engine,
    // would otherwise throw from inside the executor region.
    const SimEngine engine(mass);
    std::vector<EngineResult> out(kPackets);
    std::vector<InputPacket> missing_q = mass_packets;
    missing_q[kPackets / 2].q = nullptr;
    SimEngine::BatchWorkspace batch;
    EXPECT_THROW(engine.run_batch(missing_q, out, batch, 4),
                 std::invalid_argument);
    const RobotModel iiwa = build_robot(RobotId::kIiwa);
    const AcceleratorDesign iiwa_mass(iiwa, {3, 3, 1}, default_timing(),
                                      KernelKind::kMassMatrix);
    const SimEngine iiwa_engine(iiwa_mass);
    const RobotState iiwa_state = random_state(iiwa, 7);
    const std::vector<InputPacket> iiwa_packets(kPackets,
                                                InputPacket{&iiwa_state.q});
    SimEngine::BatchWorkspace iiwa_batch;
    iiwa_engine.run_batch(iiwa_packets, out, iiwa_batch, 4);
    EXPECT_THROW(engine.run_batch(mass_packets, out, iiwa_batch, 4),
                 std::invalid_argument);
}

// A packet field the kernel reads must hold n entries (minv n x n): the
// kernels index them without bounds checks.  run() and run_batch both
// throw a message naming the field and n, and run_batch writes no result.
TEST(SimEngineInputs, MisSizedFieldsThrowBeforeAnyWork)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const std::size_t n = m.num_links();
    const TopologyInfo topo(m);
    const RobotState s = random_state(m, 11);
    const auto ref =
        dynamics::forward_dynamics_gradients(m, topo, s.q, s.qd, s.tau);
    const linalg::Vector short_vector(n - 1);
    const linalg::Matrix narrow_minv(n, n - 1);

    const AcceleratorDesign gradient(m, {4, 4, 4});
    const AcceleratorDesign mass(m, {3, 3, 1}, default_timing(),
                                 KernelKind::kMassMatrix);
    const AcceleratorDesign kinematics(m, {4, 1, 1}, default_timing(),
                                       KernelKind::kForwardKinematics);
    const InputPacket good_gradient{&s.q, &s.qd, &ref.qdd, &ref.mass_inv};
    struct Case
    {
        const AcceleratorDesign *design;
        InputPacket good, bad;
        const char *field;
    };
    const Case cases[] = {
        {&gradient, good_gradient,
         {&short_vector, &s.qd, &ref.qdd, &ref.mass_inv}, "'q'"},
        {&gradient, good_gradient,
         {&s.q, &s.qd, &short_vector, &ref.mass_inv}, "'qdd'"},
        {&gradient, good_gradient,
         {&s.q, &s.qd, &ref.qdd, &narrow_minv}, "'minv'"},
        {&mass, InputPacket{&s.q}, InputPacket{&short_vector}, "'q'"},
        {&kinematics, InputPacket{&s.q, &s.qd},
         InputPacket{&s.q, &short_vector}, "'qd'"},
    };
    const std::string size = "n = " + std::to_string(n);

    for (const Case &c : cases) {
        const std::string what =
            std::string(to_string(c.design->kernel())) + " " + c.field;
        const SimEngine engine(*c.design);
        auto ws = engine.make_workspace();
        EngineResult one;
        try {
            engine.run(ws, c.bad, one);
            ADD_FAILURE() << what << ": run() did not throw";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
                << what << ": " << e.what();
            EXPECT_NE(std::string(e.what()).find(size), std::string::npos)
                << what << ": " << e.what();
        }

        // The bad packet sits after a full lane group of good ones.
        std::vector<InputPacket> packets(simd::kMaxLaneWidth + 2, c.good);
        packets.back() = c.bad;
        std::vector<EngineResult> out(packets.size());
        SimEngine::BatchWorkspace batch;
        EXPECT_THROW(engine.run_batch(packets, out, batch, 4),
                     std::invalid_argument)
            << what;
        for (const EngineResult &r : out)
            EXPECT_EQ(r.tau.size() + r.mass.rows() + r.base_to_link.size(),
                      0u)
                << what;
    }
}

TEST(SimEngineInputs, RunRejectsWorkspacesOfAnotherEngine)
{
    const RobotModel iiwa = build_robot(RobotId::kIiwa); // 7 links
    const RobotModel hyq = build_robot(RobotId::kHyq);   // 12 links
    const RobotState s = random_state(hyq, 5);
    const AcceleratorDesign iiwa_mass(iiwa, {3, 3, 1}, default_timing(),
                                      KernelKind::kMassMatrix);
    const AcceleratorDesign hyq_mass(hyq, {3, 3, 1}, default_timing(),
                                     KernelKind::kMassMatrix);
    const AcceleratorDesign hyq_kinematics(hyq, {4, 1, 1}, default_timing(),
                                           KernelKind::kForwardKinematics);
    const SimEngine iiwa_mass_engine(iiwa_mass);
    const SimEngine hyq_mass_engine(hyq_mass);
    const SimEngine hyq_kinematics_engine(hyq_kinematics);
    EngineResult out;

    auto small = iiwa_mass_engine.make_workspace();
    EXPECT_THROW(hyq_mass_engine.run(small, InputPacket{&s.q}, out),
                 std::invalid_argument);
    // Same n, but a CRBA workspace has no kinematics carry buffer.
    auto crba = hyq_mass_engine.make_workspace();
    EXPECT_THROW(
        hyq_kinematics_engine.run(crba, InputPacket{&s.q, &s.qd}, out),
        std::invalid_argument);
}

// ---------------------------------------------------- allocation-free ----

// After one warm-up run() with a given workspace/result pair, further
// runs must not touch the heap at all — the property that makes the
// engine usable inside a real-time control loop.
TEST(SimEngineAllocations, WarmRunsAreAllocationFree)
{
#if !ROBOSHAPE_COUNT_ALLOCS
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
    const RobotModel m = build_robot(RobotId::kIiwa);
    const TopologyInfo topo(m);
    const RobotState s = random_state(m, 31);
    const auto ref = dynamics::forward_dynamics_gradients(m, topo, s.q,
                                                          s.qd, s.tau);

    struct Case
    {
        const AcceleratorDesign *design;
        InputPacket packet;
    };
    const AcceleratorDesign gradient(m, {7, 7, 7});
    const AcceleratorDesign mass(m, {3, 3, 1}, default_timing(),
                                 KernelKind::kMassMatrix);
    const AcceleratorDesign kinematics(m, {4, 1, 1}, default_timing(),
                                       KernelKind::kForwardKinematics);
    const Case cases[] = {
        {&gradient, InputPacket{&s.q, &s.qd, &ref.qdd, &ref.mass_inv}},
        {&mass, InputPacket{&s.q}},
        {&kinematics, InputPacket{&s.q, &s.qd}},
    };

    for (const Case &c : cases) {
        const SimEngine engine(*c.design);
        auto ws = engine.make_workspace();
        EngineResult out;
        engine.run(ws, c.packet, out); // warm-up sizes everything
        alloc_counter_arm();
        engine.run(ws, c.packet, out);
        engine.run(ws, c.packet, out);
        const std::size_t allocs = alloc_counter_read();
        EXPECT_EQ(allocs, 0u)
            << to_string(c.design->kernel()) << " allocated on a warm run";
    }
}

// Batch fixture of the warm-batch test: `count` iiwa gradient packets.
struct BatchFixture
{
    RobotModel m = build_robot(RobotId::kIiwa);
    TopologyInfo topo{m};
    AcceleratorDesign design{m, {7, 7, 7}};
    std::vector<RobotState> states;
    std::vector<dynamics::ForwardDynamicsGradients> refs;
    std::vector<InputPacket> packets;

    explicit BatchFixture(std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i) {
            states.push_back(random_state(m, 700 + static_cast<int>(i)));
            const RobotState &s = states.back();
            refs.push_back(dynamics::forward_dynamics_gradients(
                m, topo, s.q, s.qd, s.tau));
        }
        for (std::size_t i = 0; i < count; ++i)
            packets.push_back({&states[i].q, &states[i].qd, &refs[i].qdd,
                               &refs[i].mass_inv});
    }
};

// run_batch with a caller workspace must be heap-free once warm — SIMD
// lane groups included (their SoA buffers grow on the first call only;
// the aligned operator new hook above counts them).  At W = 8 the 13
// packets are one full group and a padded group of 5 (13 = W + 5), and
// the 2W + 1 packets end in a lone W = 1 packet, so the padded group and
// the tail are both checked.  threads=1 keeps the fork-join pool from
// spawning (thread creation allocates by design).
TEST(SimEngineAllocations, WarmBatchesAreAllocationFree)
{
#if !ROBOSHAPE_COUNT_ALLOCS
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
    const std::size_t width = simd::lane_backend().width;
    for (const std::size_t count : {std::size_t{13}, 2 * width + 1}) {
        const BatchFixture fx(count);
        const SimEngine engine(fx.design);
        std::vector<EngineResult> out(fx.packets.size());
        SimEngine::BatchWorkspace ws;
        engine.run_batch(fx.packets, out, ws, 1); // warm-up sizes everything
        alloc_counter_arm();
        engine.run_batch(fx.packets, out, ws, 1);
        engine.run_batch(fx.packets, out, ws, 1);
        EXPECT_EQ(alloc_counter_read(), 0u) << count << " packets";
    }
}

} // namespace
} // namespace accel
} // namespace roboshape
