/**
 * @file
 * Golden suite for the compiled simulation engine (accel::SimEngine):
 * across the whole robot library, all three kernels and both functional
 * orders, the engine must reproduce the pinned digest of its outputs bit
 * for bit, reject the adversarial order at compile time with the pinned
 * diagnostics, shard batches deterministically at any thread count, and
 * perform zero heap allocations once warm — checked through a counting
 * operator new hook.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

// ------------------------------------------------------------- pins ----
// The golden suite feeds fixed, seeded inputs, so what the engine must
// compute is a constant.  Each case (robot, kernel, knobs, order) is
// pinned as one FNV-1a digest over every output field of its kernel.  The
// digests were taken where the engine and an independently written
// one-shot interpreter of the same schedules agreed on every case.  A
// digest moves only when the arithmetic changes on purpose, and such a
// change must re-derive them under a bound against the host dynamics
// library (docs/SIM_ENGINE.md); there is no switch that rewrites them.

/** FNV-1a over the little-endian bytes of 64-bit words, the hash of
 *  UrdfGolden.MutationDigestIsPinned. */
class Digest
{
  public:
    void
    add_word(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (word >> (8 * byte)) & 0xFFu;
            hash_ *= 0x100000001B3ull;
        }
    }

    /** -0.0 folds as +0.0: the engine folds the -M^-1 negation into the
     *  blocked multiply, which may flip the sign of an exact zero, and the
     *  pins were taken at max |diff| == 0, which never told the two
     *  apart. */
    void
    add_value(double v)
    {
        add_word(std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
    }

    void
    add_values(const std::vector<double> &values)
    {
        for (const double v : values)
            add_value(v);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ull; // FNV-1a offset basis
};

/** tau, the four derivative matrices, the mm_stats counts, the task
 *  count. */
std::string
gradient_digest(const EngineResult &r)
{
    Digest d;
    for (const std::vector<double> *values :
         {&r.tau.data(), &r.dtau_dq.data(), &r.dtau_dqd.data(),
          &r.dqdd_dq.data(), &r.dqdd_dqd.data()})
        d.add_values(*values);
    d.add_word(r.mm_stats.block_macs);
    d.add_word(r.mm_stats.block_nops);
    d.add_word(r.mm_stats.scalar_macs);
    d.add_word(r.tasks_executed);
    return d.hex();
}

/** The mass matrix, then the task count. */
std::string
mass_matrix_digest(const EngineResult &r)
{
    Digest d;
    d.add_values(r.mass.data());
    d.add_word(r.tasks_executed);
    return d.hex();
}

/** Per link: the base-to-link transform as a 6x6 matrix, the velocity and
 *  the Jacobian; then the task count. */
std::string
kinematics_digest(const EngineResult &r)
{
    Digest d;
    for (std::size_t i = 0; i < r.base_to_link.size(); ++i) {
        const spatial::SpatialMatrix x = r.base_to_link[i].to_matrix();
        for (std::size_t row = 0; row < 6; ++row)
            for (std::size_t col = 0; col < 6; ++col)
                d.add_value(x(row, col));
        for (std::size_t k = 0; k < 6; ++k)
            d.add_value(r.velocities[i][k]);
        d.add_values(r.jacobians[i].data());
    }
    d.add_word(r.tasks_executed);
    return d.hex();
}

/** One pinned design: its digests in the staged and pipelined orders. */
struct Pin
{
    RobotId robot;
    KernelKind kernel;
    AcceleratorParams params;
    const char *staged;
    const char *pipelined;

    const char *
    digest(SimOrder order) const
    {
        return order == SimOrder::kStaged ? staged : pipelined;
    }
};

constexpr KernelKind kGradient = KernelKind::kDynamicsGradient;
constexpr KernelKind kMass = KernelKind::kMassMatrix;
constexpr KernelKind kKinematics = KernelKind::kForwardKinematics;

// Per robot: the golden knobs of each kernel (gradient {3,3,3} on seed 17,
// mass matrix {3,3,1} on seed 19, kinematics {4,1,1} on seed 23), then
// the designs bench/sim_throughput and table1 run: the gradient kernel at
// bench::shipped_params and kinematics at {3,3,1}, on the same seeds.
const Pin kPins[] = {
    {RobotId::kIiwa, kGradient, {3, 3, 3},
     "4788ec91f6ba4754", "4788ec91f6ba4754"},
    {RobotId::kIiwa, kMass, {3, 3, 1},
     "063e2cb4744ea78a", "063e2cb4744ea78a"},
    {RobotId::kIiwa, kKinematics, {4, 1, 1},
     "3fedc8436bf5ea10", "3fedc8436bf5ea10"},
    {RobotId::kIiwa, kGradient, {7, 7, 7},
     "d28f630022f9f5c0", "d28f630022f9f5c0"},
    {RobotId::kIiwa, kKinematics, {3, 3, 1},
     "3fedc8436bf5ea10", "3fedc8436bf5ea10"},
    {RobotId::kHyq, kGradient, {3, 3, 3},
     "6b5938bcb5f1df03", "6b5938bcb5f1df03"},
    {RobotId::kHyq, kMass, {3, 3, 1},
     "289eaf5abbff8f0f", "289eaf5abbff8f0f"},
    {RobotId::kHyq, kKinematics, {4, 1, 1},
     "c0971c0b698c26fb", "c0971c0b698c26fb"},
    {RobotId::kHyq, kGradient, {3, 3, 6},
     "8296c77df223bc8e", "8296c77df223bc8e"},
    {RobotId::kHyq, kKinematics, {3, 3, 1},
     "c0971c0b698c26fb", "c0971c0b698c26fb"},
    {RobotId::kBaxter, kGradient, {3, 3, 3},
     "1db61f662e1ef97e", "1db61f662e1ef97e"},
    {RobotId::kBaxter, kMass, {3, 3, 1},
     "ac824dc7b66d04a8", "ac824dc7b66d04a8"},
    {RobotId::kBaxter, kKinematics, {4, 1, 1},
     "63b7b2d6a8fbbb3c", "63b7b2d6a8fbbb3c"},
    {RobotId::kBaxter, kGradient, {4, 4, 4},
     "8f9929a11443e970", "8f9929a11443e970"},
    {RobotId::kBaxter, kKinematics, {3, 3, 1},
     "63b7b2d6a8fbbb3c", "63b7b2d6a8fbbb3c"},
    {RobotId::kJaco2, kGradient, {3, 3, 3},
     "b5a0983865a0f888", "b5a0983865a0f888"},
    {RobotId::kJaco2, kMass, {3, 3, 1},
     "0b4834727671e373", "0b4834727671e373"},
    {RobotId::kJaco2, kKinematics, {4, 1, 1},
     "ec1e7bde3f848a8c", "ec1e7bde3f848a8c"},
    {RobotId::kJaco2, kGradient, {1, 1, 1},
     "92e526c9d7edb91d", "92e526c9d7edb91d"},
    {RobotId::kJaco2, kKinematics, {3, 3, 1},
     "ec1e7bde3f848a8c", "ec1e7bde3f848a8c"},
    {RobotId::kJaco3, kGradient, {3, 3, 3},
     "c0c8c766c4ae50f2", "221860ab216bf6e2"},
    {RobotId::kJaco3, kMass, {3, 3, 1},
     "70925939bc2d9e76", "70925939bc2d9e76"},
    {RobotId::kJaco3, kKinematics, {4, 1, 1},
     "5c08c2cd5e17cd01", "5c08c2cd5e17cd01"},
    {RobotId::kJaco3, kGradient, {1, 1, 1},
     "cbb1b951418c4176", "cbb1b951418c4176"},
    {RobotId::kJaco3, kKinematics, {3, 3, 1},
     "5c08c2cd5e17cd01", "5c08c2cd5e17cd01"},
    {RobotId::kHyqWithArm, kGradient, {3, 3, 3},
     "0d183e43cbb32df6", "0d183e43cbb32df6"},
    {RobotId::kHyqWithArm, kMass, {3, 3, 1},
     "163a583ceade9a64", "163a583ceade9a64"},
    {RobotId::kHyqWithArm, kKinematics, {4, 1, 1},
     "d5782b828ebe0f49", "d5782b828ebe0f49"},
    {RobotId::kHyqWithArm, kGradient, {1, 1, 1},
     "2e98a1183351ead2", "2e98a1183351ead2"},
    {RobotId::kHyqWithArm, kKinematics, {3, 3, 1},
     "d5782b828ebe0f49", "d5782b828ebe0f49"},
    {RobotId::kBittle, kGradient, {3, 3, 3},
     "8017702f04bfcf6c", "8017702f04bfcf6c"},
    {RobotId::kBittle, kMass, {3, 3, 1},
     "070e6885754693f6", "070e6885754693f6"},
    {RobotId::kBittle, kKinematics, {4, 1, 1},
     "bc1f4d054de9094b", "bc1f4d054de9094b"},
    {RobotId::kBittle, kGradient, {1, 1, 1},
     "8831d1cfd55286a8", "8831d1cfd55286a8"},
    {RobotId::kBittle, kKinematics, {3, 3, 1},
     "bc1f4d054de9094b", "bc1f4d054de9094b"},
    {RobotId::kPepper, kGradient, {3, 3, 3},
     "423e7e507d04d17b", "449f4b2cc1885746"},
    {RobotId::kPepper, kMass, {3, 3, 1},
     "ef453385d28c3327", "75711bac6aaf13d3"},
    {RobotId::kPepper, kKinematics, {4, 1, 1},
     "31751879d04f8e52", "31751879d04f8e52"},
    {RobotId::kPepper, kGradient, {1, 1, 1},
     "c890ce969141a3cd", "c890ce969141a3cd"},
    {RobotId::kPepper, kKinematics, {3, 3, 1},
     "31751879d04f8e52", "31751879d04f8e52"},
    {RobotId::kHumanoid, kGradient, {3, 3, 3},
     "4dcaa2c19c46f7ac", "4dcaa2c19c46f7ac"},
    {RobotId::kHumanoid, kMass, {3, 3, 1},
     "741c0260ad647b7e", "741c0260ad647b7e"},
    {RobotId::kHumanoid, kKinematics, {4, 1, 1},
     "722f1c55c68ca0b9", "722f1c55c68ca0b9"},
    {RobotId::kHumanoid, kGradient, {1, 1, 1},
     "6a2f8c128a2ef014", "6a2f8c128a2ef014"},
    {RobotId::kHumanoid, kKinematics, {3, 3, 1},
     "722f1c55c68ca0b9", "722f1c55c68ca0b9"},
};

/** The pins of @p robot's @p kernel designs, in table order. */
std::vector<const Pin *>
pins_of(RobotId robot, KernelKind kernel)
{
    std::vector<const Pin *> out;
    for (const Pin &pin : kPins)
        if (pin.robot == robot && pin.kernel == kernel)
            out.push_back(&pin);
    return out;
}

std::string
case_name(const Pin &pin, SimOrder order)
{
    return std::string(robot_name(pin.robot)) + " " +
           to_string(pin.kernel) + " " + pin.params.to_string() +
           (order == SimOrder::kStaged ? " staged" : " pipelined");
}

constexpr SimOrder kOrders[] = {SimOrder::kStaged, SimOrder::kPipelined};

class SimEngineGolden : public ::testing::TestWithParam<RobotId>
{
};

// Engine output == the pinned digest to the last bit, both orders.
TEST_P(SimEngineGolden, GradientMatchesLegacyExactly)
{
    const RobotModel m = build_robot(GetParam());
    const TopologyInfo topo(m);
    const RobotState s = random_state(m, 17);
    const auto ref = dynamics::forward_dynamics_gradients(m, topo, s.q,
                                                          s.qd, s.tau);
    const InputPacket packet{&s.q, &s.qd, &ref.qdd, &ref.mass_inv};
    const std::vector<const Pin *> pins = pins_of(GetParam(), kGradient);
    ASSERT_EQ(pins.size(), 2u); // {3,3,3} and the shipped knobs
    for (const Pin *pin : pins) {
        const AcceleratorDesign design(m, pin->params);
        for (SimOrder order : kOrders) {
            const SimEngine engine(design, order);
            auto ws = engine.make_workspace();
            EngineResult sim;
            engine.run(ws, packet, sim);
            EXPECT_EQ(gradient_digest(sim), pin->digest(order))
                << case_name(*pin, order);
            EXPECT_EQ(engine.trace_length(), sim.tasks_executed)
                << case_name(*pin, order);
        }
    }
}

TEST_P(SimEngineGolden, MassMatrixMatchesLegacyExactly)
{
    const RobotModel m = build_robot(GetParam());
    const RobotState s = random_state(m, 19);
    const InputPacket packet{&s.q};
    const std::vector<const Pin *> pins = pins_of(GetParam(), kMass);
    ASSERT_EQ(pins.size(), 1u);
    for (const Pin *pin : pins) {
        const AcceleratorDesign design(m, pin->params, default_timing(),
                                       kMass);
        for (SimOrder order : kOrders) {
            const SimEngine engine(design, order);
            auto ws = engine.make_workspace();
            EngineResult sim;
            engine.run(ws, packet, sim);
            EXPECT_EQ(mass_matrix_digest(sim), pin->digest(order))
                << case_name(*pin, order);
        }
    }
}

TEST_P(SimEngineGolden, KinematicsMatchesLegacyExactly)
{
    const RobotModel m = build_robot(GetParam());
    const RobotState s = random_state(m, 23);
    const InputPacket packet{&s.q, &s.qd};
    const std::vector<const Pin *> pins = pins_of(GetParam(), kKinematics);
    ASSERT_EQ(pins.size(), 2u); // {4,1,1} and {3,3,1}
    for (const Pin *pin : pins) {
        const AcceleratorDesign design(m, pin->params, default_timing(),
                                       kKinematics);
        for (SimOrder order : kOrders) {
            const SimEngine engine(design, order);
            auto ws = engine.make_workspace();
            EngineResult sim;
            engine.run(ws, packet, sim);
            EXPECT_EQ(kinematics_digest(sim), pin->digest(order))
                << case_name(*pin, order);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Robots, SimEngineGolden,
                         ::testing::ValuesIn(library_robots()),
                         robot_param_name);

// ------------------------------------------------- hazard rejection ----

// The engine runs the hazard checks at compilation: the adversarial order
// must throw from the constructor, with the pinned message of each kernel
// (the one the one-shot interpreters raised mid-run).
TEST(SimEngineHazards, AdversarialOrderThrowsAtCompileTime)
{
    const RobotModel m = build_robot(RobotId::kHyq);
    const AcceleratorDesign gradient(m, {3, 3, 3});
    const AcceleratorDesign mass(m, {3, 3, 1}, default_timing(),
                                 KernelKind::kMassMatrix);
    const AcceleratorDesign kinematics(m, {4, 1, 1}, default_timing(),
                                       KernelKind::kForwardKinematics);

    const std::pair<const AcceleratorDesign *, const char *> cases[] = {
        {&gradient, "data hazard: gradBwd before gradFwd on link 9"},
        {&mass, "data hazard: force walk out of order for column 8"},
        {&kinematics, "data hazard: jacobian before pose of link 11"},
    };
    for (const auto &[design, expected] : cases) {
        try {
            const SimEngine engine(*design,
                                   SimOrder::kAdversarialReversed);
            ADD_FAILURE() << to_string(design->kernel())
                          << ": adversarial order compiled without a hazard";
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
