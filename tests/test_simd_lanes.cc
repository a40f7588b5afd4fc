/**
 * @file
 * SIMD batch-lane suite (accel/simd_lanes.h): backend dispatch behaves as
 * documented, and — the exactness policy — every instantiation of the lane
 * kernel (W = 1 through run(), the scalar backend and leftover packets,
 * the AVX2 and AVX-512 groups) produces results bit-identical to the
 * legacy simulate(), an independently written interpreter, packet for
 * packet, at every batch size (especially ones that are not a multiple of
 * the lane width) and every thread count.
 *
 * On a -DROBOSHAPE_SIMD=OFF build (or a non-x86 host without the AVX
 * TUs) the backend list is scalar alone and the exactness loops run over
 * it; the dispatch tests still run.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/functional_sim.h"
#include "accel/sim_engine.h"
#include "accel/simd_lanes.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "topology/robot_library.h"
#include "topology/topology_info.h"

namespace roboshape {
namespace accel {
namespace {

using dynamics::RobotState;
using dynamics::random_state;
using topology::RobotId;
using topology::RobotModel;
using topology::TopologyInfo;
using topology::build_robot;

/** Restores automatic backend detection when a test scope ends. */
struct BackendGuard
{
    ~BackendGuard() { simd::set_lane_backend("auto"); }
};

/** Gradient batch inputs for @p count packets of robot @p id, with the
 *  legacy simulate() result of each packet as the expected output. */
struct GradientBatch
{
    RobotModel m;
    TopologyInfo topo;
    AcceleratorDesign design;
    std::vector<RobotState> states;
    std::vector<dynamics::ForwardDynamicsGradients> refs;
    std::vector<InputPacket> packets;
    std::vector<SimResult> want;

    GradientBatch(RobotId id, std::size_t count, int seed)
        : m(build_robot(id)), topo(m), design(m, {4, 4, 4})
    {
        states.reserve(count);
        refs.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            states.push_back(random_state(m, seed + static_cast<int>(i)));
            const RobotState &s = states.back();
            refs.push_back(dynamics::forward_dynamics_gradients(
                m, topo, s.q, s.qd, s.tau));
        }
        for (std::size_t i = 0; i < count; ++i) {
            packets.push_back({&states[i].q, &states[i].qd, &refs[i].qdd,
                               &refs[i].mass_inv});
            want.push_back(simulate(design, states[i].q, states[i].qd,
                                    refs[i].qdd, refs[i].mass_inv));
        }
    }
};

/** 0 ulp on every output (max |diff| == 0 admits only the sign of exact
 *  zeros, which the legacy `* -1.0` and the fused negation may differ in)
 *  and identical operation counts. */
void
expect_packet_exact(const EngineResult &got, const SimResult &want,
                    const std::string &what)
{
    EXPECT_EQ(linalg::max_abs_diff(got.tau, want.tau), 0.0) << what;
    EXPECT_EQ(linalg::max_abs_diff(got.dtau_dq, want.dtau_dq), 0.0) << what;
    EXPECT_EQ(linalg::max_abs_diff(got.dtau_dqd, want.dtau_dqd), 0.0)
        << what;
    EXPECT_EQ(linalg::max_abs_diff(got.dqdd_dq, want.dqdd_dq), 0.0) << what;
    EXPECT_EQ(linalg::max_abs_diff(got.dqdd_dqd, want.dqdd_dqd), 0.0)
        << what;
    EXPECT_EQ(got.tasks_executed, want.tasks_executed) << what;
    EXPECT_EQ(got.mm_stats.block_macs, want.mm_stats.block_macs) << what;
    EXPECT_EQ(got.mm_stats.block_nops, want.mm_stats.block_nops) << what;
    EXPECT_EQ(got.mm_stats.scalar_macs, want.mm_stats.scalar_macs) << what;
}

// ----------------------------------------------------------- dispatch ----

TEST(SimdLaneDispatch, ScalarBackendAlwaysAvailable)
{
    const auto backends = simd::available_lane_backends();
    ASSERT_FALSE(backends.empty());
    EXPECT_STREQ(backends.front()->name, "scalar");
    EXPECT_EQ(backends.front()->width, 1u);
    EXPECT_EQ(backends.front()->gradient, &simd::run_gradient_lanes_scalar);
    for (std::size_t i = 1; i < backends.size(); ++i) {
        EXPECT_NE(backends[i]->gradient, nullptr) << backends[i]->name;
        EXPECT_GE(backends[i]->width, 4u) << backends[i]->name;
    }
}

TEST(SimdLaneDispatch, SetBackendByNameAndRejectUnknown)
{
    BackendGuard guard;
    // Every listed backend is selectable by its own name.
    for (const simd::LaneBackend *b : simd::available_lane_backends()) {
        EXPECT_TRUE(simd::set_lane_backend(b->name)) << b->name;
        EXPECT_STREQ(simd::lane_backend().name, b->name);
    }
    // An unknown name fails and leaves the selection unchanged.
    ASSERT_TRUE(simd::set_lane_backend("scalar"));
    EXPECT_FALSE(simd::set_lane_backend("not-a-backend"));
    EXPECT_STREQ(simd::lane_backend().name, "scalar");
    // "auto" re-runs detection: the last, widest listed backend.
    EXPECT_TRUE(simd::set_lane_backend("auto"));
    EXPECT_STREQ(simd::lane_backend().name,
                 simd::available_lane_backends().back()->name);
}

// ------------------------------------- lane-vs-legacy bit exactness ----

// The core tail-handling matrix: for every backend available on this
// build + CPU (scalar included: its packets run through the W = 1 kernel),
// batch sizes around the lane width W (1, W-1, W, W+1, a prime spanning
// multiple groups) must produce results identical to legacy simulate()
// packet-for-packet, at every thread count.  "Identical" is exact
// equality — the documented lane exactness policy is 0 ulp.
TEST(SimdLaneExactness, TailSizesMatchScalarAtEveryThreadCount)
{
    BackendGuard guard;
    for (const RobotId robot : {RobotId::kIiwa, RobotId::kHyq}) {
        const GradientBatch fx(robot, 19, 400);
        const SimEngine engine(fx.design);

        for (const simd::LaneBackend *b : simd::available_lane_backends()) {
            ASSERT_TRUE(simd::set_lane_backend(b->name));
            const std::size_t w = b->width;
            const std::size_t sizes[] = {1, w - 1, w, w + 1, 13, 19};
            for (const std::size_t count : sizes) {
                ASSERT_LE(count, fx.packets.size());
                if (count == 0)
                    continue;
                for (const std::size_t threads : {1u, 2u, 4u}) {
                    std::vector<EngineResult> got(count);
                    SimEngine::BatchWorkspace batch;
                    engine.run_batch(
                        std::span(fx.packets).first(count), got, batch,
                        threads);
                    for (std::size_t i = 0; i < count; ++i)
                        expect_packet_exact(
                            got[i], fx.want[i],
                            std::string(b->name) + " packet " +
                                std::to_string(i) + "/" +
                                std::to_string(count) + " threads " +
                                std::to_string(threads));
                }
            }
        }
    }
}

// Reusing one BatchWorkspace across different batch sizes and backends
// must not leak state between runs (buffers are grow-only and fully
// rewritten per group, and a worker's lane workspace serves both its
// W-wide groups and the W = 1 tail).
TEST(SimdLaneExactness, WorkspaceReuseAcrossSizesStaysExact)
{
    BackendGuard guard;
    const GradientBatch fx(RobotId::kBaxter, 17, 900);
    const SimEngine engine(fx.design);

    for (const simd::LaneBackend *b : simd::available_lane_backends()) {
        ASSERT_TRUE(simd::set_lane_backend(b->name));
        SimEngine::BatchWorkspace batch;
        std::vector<EngineResult> got(fx.packets.size());
        // Descending then ascending sizes over the same workspace/results.
        for (const std::size_t count :
             {fx.packets.size(), std::size_t{5}, fx.packets.size()}) {
            engine.run_batch(std::span(fx.packets).first(count),
                             std::span(got).first(count), batch, 1);
            for (std::size_t i = 0; i < count; ++i)
                expect_packet_exact(got[i], fx.want[i],
                                    std::string(b->name) + " size " +
                                        std::to_string(count) + " packet " +
                                        std::to_string(i));
        }
    }
}

// Forcing the scalar backend must run even wide batches one packet at a
// time through the W = 1 kernel, and run() must match legacy on its own.
TEST(SimdLaneExactness, ForcedScalarWideBatchMatches)
{
    BackendGuard guard;
    const GradientBatch fx(RobotId::kIiwa, 16, 1300);
    const SimEngine engine(fx.design);

    auto ws = engine.make_workspace();
    for (std::size_t i = 0; i < fx.packets.size(); ++i) {
        EngineResult got;
        engine.run(ws, fx.packets[i], got);
        expect_packet_exact(got, fx.want[i],
                            "run() packet " + std::to_string(i));
    }

    ASSERT_TRUE(simd::set_lane_backend("scalar"));
    std::vector<EngineResult> got(fx.packets.size());
    SimEngine::BatchWorkspace batch;
    engine.run_batch(fx.packets, got, batch, 2);
    for (std::size_t i = 0; i < fx.packets.size(); ++i)
        expect_packet_exact(got[i], fx.want[i],
                            "forced-scalar packet " + std::to_string(i));
}

// Lane-path input validation: a gradient packet missing a field must
// throw before any work happens, exactly like the scalar path.
TEST(SimdLaneExactness, InvalidPacketThrowsOnLanePath)
{
    BackendGuard guard;
    const GradientBatch fx(RobotId::kIiwa, 9, 1700);
    const SimEngine engine(fx.design);
    for (const simd::LaneBackend *b : simd::available_lane_backends()) {
        if (b->width == 1)
            continue;
        ASSERT_TRUE(simd::set_lane_backend(b->name));
        std::vector<InputPacket> packets = fx.packets;
        packets[packets.size() - 1].minv = nullptr; // tail packet
        packets[0].qdd = nullptr;                   // lane-group packet
        std::vector<EngineResult> out(packets.size());
        SimEngine::BatchWorkspace batch;
        EXPECT_THROW(engine.run_batch(packets, out, batch, 1),
                     std::invalid_argument)
            << b->name;
    }
}

} // namespace
} // namespace accel
} // namespace roboshape
