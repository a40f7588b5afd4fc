/**
 * @file
 * Lane backend dispatch and the SoA marshal/demarshal layer.
 *
 * This TU is compiled into every build (including -DROBOSHAPE_SIMD=OFF):
 * the scalar backend always exists, and the ISA kernels are only
 * referenced when their ROBOSHAPE_SIMD_HAVE_* macro says the matching
 * translation unit was compiled in.
 */

#include "accel/simd_lanes.h"

#include <atomic>

#include "accel/sim_engine.h"
#include "spatial/spatial_transform.h"
#include "spatial/spatial_vector.h"
#include "spatial/vec3.h"
#include "topology/robot_model.h"

namespace roboshape {
namespace accel {
namespace simd {

namespace {

// CPU feature probes (x86 only; false elsewhere).  One function per
// feature because __builtin_cpu_supports requires a literal argument.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
// [[maybe_unused]]: with ROBOSHAPE_SIMD=OFF no ISA backend references
// the probes, and -Werror build configs must stay warning-free.
[[maybe_unused]] bool cpu_has_avx2()
{
    return __builtin_cpu_supports("avx2");
}
[[maybe_unused]] bool cpu_has_avx512f()
{
    return __builtin_cpu_supports("avx512f");
}
#else
[[maybe_unused]] bool cpu_has_avx2() { return false; }
[[maybe_unused]] bool cpu_has_avx512f() { return false; }
#endif

const LaneBackend kScalar{"scalar", 1, &run_gradient_lanes_scalar};
#ifdef ROBOSHAPE_SIMD_HAVE_AVX2
const LaneBackend kAvx2{"avx2", 4, &run_gradient_lanes_avx2};
#endif
#ifdef ROBOSHAPE_SIMD_HAVE_AVX512
const LaneBackend kAvx512{"avx512", 8, &run_gradient_lanes_avx512};
#endif

std::atomic<const LaneBackend *> g_active{nullptr};

} // namespace

std::vector<const LaneBackend *>
available_lane_backends()
{
    // Reserve + push_back rather than list-init: GCC 12 under
    // -fsanitize=undefined emits a spurious -Warray-bounds for the
    // one-element initializer_list backing array here.
    std::vector<const LaneBackend *> out;
    out.reserve(3);
    out.push_back(&kScalar);
#ifdef ROBOSHAPE_SIMD_HAVE_AVX2
    if (cpu_has_avx2())
        out.push_back(&kAvx2);
#endif
#ifdef ROBOSHAPE_SIMD_HAVE_AVX512
    if (cpu_has_avx512f())
        out.push_back(&kAvx512);
#endif
    return out;
}

const LaneBackend &
lane_backend()
{
    const LaneBackend *b = g_active.load(std::memory_order_acquire);
    if (!b) {
        // First resolver wins; a concurrent set_lane_backend still takes
        // effect for later loads.
        const LaneBackend *expected = nullptr;
        g_active.compare_exchange_strong(expected,
                                         available_lane_backends().back(),
                                         std::memory_order_acq_rel);
        b = g_active.load(std::memory_order_acquire);
    }
    return *b;
}

bool
set_lane_backend(std::string_view name)
{
    const std::vector<const LaneBackend *> backends =
        available_lane_backends();
    const LaneBackend *b = name == "auto" ? backends.back() : nullptr;
    for (const LaneBackend *candidate : backends)
        if (name == candidate->name)
            b = candidate;
    if (!b)
        return false;
    g_active.store(b, std::memory_order_release);
    return true;
}

void
marshal_gradient_group([[maybe_unused]] const topology::RobotModel &model,
                       std::size_t n, std::size_t width,
                       const InputPacket *packets, LaneWorkspace &ws)
{
    const std::size_t W = width;
    ws.q.resize(n * W);
    ws.qd.resize(n * W);
    ws.qdd.resize(n * W);
    ws.abase.resize(6 * W);
    ws.minv.resize(n * n * W);
    ws.xup_e.resize(n * 9 * W);
    ws.xup_r.resize(n * 3 * W);
    ws.v.resize(n * 6 * W);
    ws.a.resize(n * 6 * W);
    ws.f.resize(n * 6 * W);
    ws.dv.resize(n * n * 6 * W);
    ws.da.resize(n * n * 6 * W);
    ws.df.resize(n * n * 6 * W);
    ws.tau.resize(n * W);
    ws.dtau_dq.resize(n * n * W);
    ws.dtau_dqd.resize(n * n * W);
    ws.dqdd_dq.resize(n * n * W);
    ws.dqdd_dqd.resize(n * n * W);

    // Transposition runs element-major: the inner loops walk the lanes,
    // so every store fills one contiguous W-wide lane row (one cache
    // line at W == 8) while the reads advance sequentially inside each
    // packet.  A lane-major loop order would instead land every store
    // W*8 bytes from the previous one — a different cache line each
    // time — and the scatter cost then rivals the kernel itself on
    // robots whose compute is cheap.  (The resize preamble above is the
    // grow-only cold setup — AlignedBuffer::resize reallocates only on
    // capacity growth; the loops below are the warm transposition.)
    // lint: warm-path begin
    for (std::size_t i = 0; i < n; ++i) {
        double *qi = ws.q.data() + i * W;
        double *qdi = ws.qd.data() + i * W;
        double *qddi = ws.qdd.data() + i * W;
        for (std::size_t l = 0; l < W; ++l) {
            qi[l] = (*packets[l].q)[i];
            qdi[l] = (*packets[l].qd)[i];
            qddi[l] = (*packets[l].qdd)[i];
        }
    }
    // xup_e / xup_r are sized here but filled by the lane kernel itself:
    // the X_J(q) * X_tree compositions vectorize across lanes (only the
    // sin/cos calls stay scalar), so they belong in the per-ISA TU.
    for (std::size_t l = 0; l < W; ++l) {
        const spatial::SpatialVector a_base(spatial::Vec3::zero(),
                                            -packets[l].gravity);
        for (std::size_t k = 0; k < 6; ++k)
            ws.abase.data()[k * W + l] = a_base[k];
    }
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            double *dst = ws.minv.data() + (r * n + c) * W;
            for (std::size_t l = 0; l < W; ++l)
                dst[l] = (*packets[l].minv)(r, c);
        }
    }
    // lint: warm-path end
}

void
demarshal_gradient_group(std::size_t n, std::size_t width, std::size_t count,
                         std::size_t tasks, const LaneWorkspace &ws,
                         EngineResult *out)
{
    const std::size_t W = width;
    // lint: warm-path begin
    for (std::size_t l = 0; l < count; ++l) {
        EngineResult &o = out[l];
        // Cold on first touch only: a warm EngineResult is already n-sized.
        o.tau.resize(n); // NOLINT(no-alloc-warm-path)
        o.mm_stats.block_macs =
            ws.stats_q.block_macs[l] + ws.stats_qd.block_macs[l];
        o.mm_stats.block_nops =
            ws.stats_q.block_nops[l] + ws.stats_qd.block_nops[l];
        o.mm_stats.scalar_macs =
            ws.stats_q.scalar_macs[l] + ws.stats_qd.scalar_macs[l];
        o.tasks_executed = tasks;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double *src = ws.tau.data() + i * W;
        for (std::size_t l = 0; l < count; ++l)
            out[l].tau[i] = src[l];
    }
    // Element-major untransposition, mirror-image of the marshal: each
    // inner lane loop reads one contiguous W-wide lane row and scatters
    // it across the per-packet result matrices, whose row-major storage
    // is advanced sequentially by the outer element loop.
    const auto scatter = [&](const AlignedBuffer &src,
                             linalg::Matrix EngineResult::*field) {
        double *dst[kMaxLaneWidth];
        for (std::size_t l = 0; l < count; ++l) {
            linalg::Matrix &m = out[l].*field;
            if (m.rows() != n || m.cols() != n)
                m.resize(n, n); // NOLINT(no-alloc-warm-path) cold first touch
            dst[l] = m.data().data();
        }
        for (std::size_t k = 0; k < n * n; ++k) {
            const double *row = src.data() + k * W;
            for (std::size_t l = 0; l < count; ++l)
                dst[l][k] = row[l];
        }
    };
    scatter(ws.dtau_dq, &EngineResult::dtau_dq);
    scatter(ws.dtau_dqd, &EngineResult::dtau_dqd);
    scatter(ws.dqdd_dq, &EngineResult::dqdd_dq);
    scatter(ws.dqdd_dqd, &EngineResult::dqdd_dqd);
    // lint: warm-path end
}

} // namespace simd
} // namespace accel
} // namespace roboshape
