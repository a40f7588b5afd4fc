/**
 * @file
 * SIMD batch-lane suite (accel/simd_lanes.h): backend dispatch behaves as
 * documented, and — the exactness policy — every instantiation of the lane
 * kernel (W = 1 through run(), the scalar backend and a lone leftover
 * packet, the AVX2 and AVX-512 groups, padded last groups included)
 * produces results bit-identical to the legacy simulate(), an
 * independently written interpreter, packet for packet, at every batch
 * size (especially ones that are not a multiple of the lane width) and
 * every thread count.
 *
 * On a -DROBOSHAPE_SIMD=OFF build (or a non-x86 host without the AVX
 * TUs) the backend list is scalar alone and the exactness loops run over
 * it; the dispatch tests still run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "accel/functional_sim.h"
#include "accel/sim_engine.h"
#include "accel/simd_lanes.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/robot_state.h"
#include "obs/wall_trace.h"
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

/** Same bits, the sign of zero included. */
bool
same_bits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

/** Bit-identical gradient outputs and identical operation counts. */
void
expect_packet_identical(const EngineResult &got, const EngineResult &want,
                        const std::string &what)
{
    EXPECT_TRUE(same_bits(got.tau.data(), want.tau.data())) << what;
    EXPECT_TRUE(same_bits(got.dtau_dq.data(), want.dtau_dq.data())) << what;
    EXPECT_TRUE(same_bits(got.dtau_dqd.data(), want.dtau_dqd.data()))
        << what;
    EXPECT_TRUE(same_bits(got.dqdd_dq.data(), want.dqdd_dq.data())) << what;
    EXPECT_TRUE(same_bits(got.dqdd_dqd.data(), want.dqdd_dqd.data()))
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
// rewritten per group, and a worker's lane workspace serves its full and
// padded W-wide groups and a lone W = 1 packet alike).
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

// ------------------------------------------------ padded last group ----

// A 2W + r batch runs its r >= 2 leftover packets as one more W-wide group
// whose lanes r .. W - 1 repeat packet r - 1.  For every backend, every r
// in [0, W) and each paper robot, every packet must equal run() bit for
// bit, and the group must write only its r real results: the batch runs
// on the front of a longer result vector whose trailing sentinel slots
// must come back untouched.
TEST(SimdLanePadding, RaggedBatchesMatchRunBitForBit)
{
    BackendGuard guard;
    const auto backends = simd::available_lane_backends();
    // 2W + r < 3W for the widest backend.
    const std::size_t max_count = 3 * backends.back()->width;
    for (const RobotId robot :
         {RobotId::kIiwa, RobotId::kHyq, RobotId::kBaxter, RobotId::kJaco2,
          RobotId::kJaco3, RobotId::kHyqWithArm}) {
        const GradientBatch fx(robot, max_count, 2100);
        const SimEngine engine(fx.design);
        auto ws = engine.make_workspace();
        std::vector<EngineResult> want(max_count);
        for (std::size_t i = 0; i < max_count; ++i)
            engine.run(ws, fx.packets[i], want[i]);

        for (const simd::LaneBackend *b : backends) {
            ASSERT_TRUE(simd::set_lane_backend(b->name));
            const std::size_t w = b->width;
            for (std::size_t r = 0; r < w; ++r) {
                const std::size_t count = 2 * w + r;
                for (const std::size_t threads : {1u, 4u}) {
                    std::vector<EngineResult> got(count + w);
                    for (std::size_t i = count; i < got.size(); ++i)
                        got[i].tasks_executed = 777;
                    SimEngine::BatchWorkspace batch;
                    engine.run_batch(std::span(fx.packets).first(count),
                                     std::span(got).first(count), batch,
                                     threads);
                    const std::string what =
                        std::string(topology::robot_name(robot)) + " " +
                        b->name + " r " +
                        std::to_string(r) + " threads " +
                        std::to_string(threads);
                    for (std::size_t i = 0; i < count; ++i)
                        expect_packet_identical(
                            got[i], want[i],
                            what + " packet " + std::to_string(i));
                    for (std::size_t i = count; i < got.size(); ++i) {
                        EXPECT_EQ(got[i].tasks_executed, 777u)
                            << what << " sentinel " << i;
                        EXPECT_EQ(got[i].tau.size(), 0u)
                            << what << " sentinel " << i;
                    }
                }
            }
        }
    }
}

// With wall tracing on, a W + 2 batch runs two lane groups, the full one
// and the padded one, and the kernel records one sim.marshal span per
// group (a W = 1 tail would record one per leftover packet).
TEST(SimdLanePadding, PaddedGroupRecordsOneMarshalSpan)
{
    BackendGuard guard;
    const GradientBatch fx(RobotId::kIiwa, simd::kMaxLaneWidth + 2, 2500);
    const SimEngine engine(fx.design);
    bool measured = false;
    for (const simd::LaneBackend *b : simd::available_lane_backends()) {
        if (b->width == 1)
            continue;
        measured = true;
        ASSERT_TRUE(simd::set_lane_backend(b->name));
        const std::size_t count = b->width + 2;
        std::vector<EngineResult> got(count);
        SimEngine::BatchWorkspace batch;
        obs::set_wall_trace_enabled(true);
        obs::clear_wall_trace();
        engine.run_batch(std::span(fx.packets).first(count), got, batch, 1);
        const auto spans = obs::wall_trace_spans();
        obs::set_wall_trace_enabled(false);
        obs::clear_wall_trace();
        std::size_t marshal = 0;
        for (const obs::WallSpan &s : spans)
            marshal += std::string(s.name) == "sim.marshal";
        EXPECT_EQ(marshal, 2u) << b->name;
    }
    if (!measured)
        GTEST_SKIP() << "no backend wider than one lane";
}

} // namespace
} // namespace accel
} // namespace roboshape
