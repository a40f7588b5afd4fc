/**
 * @file
 * SIMD batch lanes for the compiled simulation engine (docs/SIM_ENGINE.md
 * § "SIMD batch lanes").
 *
 * SimEngine streams independent InputPackets through one compiled op
 * trace.  The trace is *uniform* across packets — which ops run, in which
 * order, reading which links — only the floating-point data differs.  That
 * is textbook data-level parallelism: this layer re-lays a group of W
 * packets out as structure-of-arrays ("lane-major": the W copies of each
 * scalar quantity sit contiguously, 64-byte aligned) and executes every
 * compiled op once for all W packets with W-wide vector arithmetic.
 *
 * One kernel source (simd_lanes_impl.inl) is instantiated at W = 1 (the
 * interpreter behind SimEngine::run and the scalar backend, built in every
 * configuration), W = 4 (AVX2) and W = 8 (AVX-512).
 *
 * Exactness policy (the part that makes this safe to deploy):
 *
 *  - Every width evaluates the same expression trees operation for
 *    operation — same multiplies, same adds, same association order,
 *    evaluated per lane by IEEE-754 vector instructions that round exactly
 *    like their scalar counterparts.  Every kernel TU is compiled with
 *    -ffp-contract=off so the compiler cannot fuse a*b+c into an FMA
 *    (which would change rounding).  Under this policy every width is
 *    BIT-IDENTICAL to the W = 1 kernel behind SimEngine::run, packet for
 *    packet, and the tests/gates assert exactly that (0 ulp).  What run()
 *    computes is pinned by the digests of tests/test_sim_engine.cc.
 *
 *  - Any future relaxation (e.g. enabling FMA in the lane kernels) must
 *    raise the documented ulp bound in bench/sim_throughput's lane gate
 *    and docs/SIM_ENGINE.md in the same change, and re-derive the pinned
 *    digests under a bound against the host dynamics library.
 *
 * Backend selection is a one-time runtime dispatch: AVX-512 (8 lanes) when
 * the CPU has it, else AVX2 (4 lanes), else scalar (the W = 1 kernel).
 * Building with -DROBOSHAPE_SIMD=OFF (CMake) compiles the wide kernels out
 * entirely, so run_batch runs every packet through the W = 1 kernel.
 */

#ifndef ROBOSHAPE_ACCEL_SIMD_LANES_H
#define ROBOSHAPE_ACCEL_SIMD_LANES_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string_view>
#include <vector>

namespace roboshape {

namespace spatial {
struct SpatialVector;
}
namespace topology {
class RobotModel;
}

namespace accel {

struct EngineOp;
struct InputPacket;
struct EngineResult;

namespace simd {

/** Widest lane group any backend uses (AVX-512: 8 doubles per zmm). */
inline constexpr std::size_t kMaxLaneWidth = 8;

/** Alignment of every lane-major buffer (one full AVX-512 cache line). */
inline constexpr std::size_t kLaneAlign = 64;

/**
 * Grow-only 64-byte-aligned double buffer.  resize() only reallocates
 * when capacity is insufficient, so a warm lane workspace performs zero
 * heap allocations — the same steady-state guarantee as
 * SimEngine::Workspace.  Contents after resize() are unspecified; the kernels
 * overwrite or zero-fill what they read.
 */
class AlignedBuffer
{
  public:
    AlignedBuffer() = default;

    double *data() noexcept { return ptr_.get(); }
    const double *data() const noexcept { return ptr_.get(); }
    std::size_t size() const noexcept { return size_; }

    void resize(std::size_t n)
    {
        if (n > capacity_) {
            ptr_.reset(static_cast<double *>(::operator new[](
                n * sizeof(double), std::align_val_t(kLaneAlign))));
            capacity_ = n;
        }
        size_ = n;
    }

  private:
    struct Deleter
    {
        void operator()(double *p) const noexcept
        {
            ::operator delete[](p, std::align_val_t(kLaneAlign));
        }
    };
    std::unique_ptr<double[], Deleter> ptr_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

/** Per-lane blocked-multiply tile counts (the fields of BlockMultiplyStats). */
struct LaneStats
{
    std::array<std::uint64_t, kMaxLaneWidth> block_macs{};
    std::array<std::uint64_t, kMaxLaneWidth> block_nops{};
    std::array<std::uint64_t, kMaxLaneWidth> scalar_macs{};
};

/**
 * Structure-of-arrays state for one lane group of W packets.  Every buffer
 * is lane-major: the scalar quantity with flat index k for lane l lives at
 * data()[k * W + l], so one W-wide vector load reads quantity k for every
 * packet of the group at once.  Flat indices: per-link spatial vectors use
 * k = link*6 + component, per-column derivative states
 * k = (column*n + link)*6 + component, matrices k = row*cols + col.
 *
 * Buffers are grown by marshal_gradient_group() and reused forever after
 * (allocation-free once warm).  One LaneWorkspace may be used by one
 * thread at a time.
 */
struct LaneWorkspace
{
    // Marshaled inputs.
    AlignedBuffer q, qd, qdd; ///< n x W each.
    AlignedBuffer abase;      ///< Base acceleration (-gravity), 6 x W.
    AlignedBuffer minv;       ///< Host M^-1, n*n x W.
    AlignedBuffer xup_e;      ///< Joint transform rotations, n*9 x W.
    AlignedBuffer xup_r;      ///< Joint transform translations, n*3 x W.
    // Interpreter state.
    AlignedBuffer v, a, f;    ///< n*6 x W each.
    AlignedBuffer dv, da, df; ///< n*n*6 x W each.
    // Outputs, demarshaled into EngineResults after the kernel runs.
    AlignedBuffer tau;                  ///< n x W.
    AlignedBuffer dtau_dq, dtau_dqd;    ///< n*n x W each.
    AlignedBuffer dqdd_dq, dqdd_dqd;    ///< n*n x W each.
    // Blocked-multiply tile masks: bit l of entry (br*bcols + bc) is set
    // when lane l's tile (br, bc) holds a nonzero element.
    std::vector<std::uint8_t> minv_mask, dq_mask, dqd_mask;
    LaneStats stats_q, stats_qd;
};

/**
 * Read-only view of one engine's compiled gradient trace, handed to the
 * lane kernels.  All pointers borrow from the engine and stay valid for
 * its lifetime; the trace is uniform across lanes by construction.
 */
struct GradientTraceView
{
    const EngineOp *trace = nullptr;
    std::size_t trace_size = 0;
    const EngineOp *velocity_trace = nullptr;
    std::size_t velocity_size = 0;
    const std::int32_t *root_paths = nullptr;
    const spatial::SpatialVector *s = nullptr; ///< Motion subspaces, n.
    const topology::RobotModel *model = nullptr;
    std::size_t n = 0;
    std::size_t block_size = 0; ///< -M^-1 multiply tile edge.
};

/** Executes the gradient trace for one marshaled lane group. */
using GradientLaneFn = void (*)(const GradientTraceView &, LaneWorkspace &);

// Kernel entry points, one per width/ISA (defined in simd_lanes_<isa>.cc).
// The 1-wide kernel is compiled into every build; the AVX ones only on
// x86-64 with ROBOSHAPE_SIMD=ON, and only their backends reference them.
void run_gradient_lanes_scalar(const GradientTraceView &, LaneWorkspace &);
void run_gradient_lanes_avx2(const GradientTraceView &, LaneWorkspace &);
void run_gradient_lanes_avx512(const GradientTraceView &, LaneWorkspace &);

/**
 * One selectable lane backend: @c gradient runs groups of @c width
 * packets.  Every backend has a kernel; the scalar one (width 1) is the
 * W = 1 kernel that SimEngine::run uses.
 */
struct LaneBackend
{
    const char *name = "scalar";
    std::size_t width = 1;
    GradientLaneFn gradient = &run_gradient_lanes_scalar;
};

/**
 * The active backend.  Resolved on first use to the last entry of
 * available_lane_backends(), the widest this build and CPU support
 * (AVX-512, else AVX2, else scalar); that first call allocates, later
 * ones do not.  Thread-safe; the result is cached.
 */
const LaneBackend &lane_backend();

/**
 * Selects the backend of available_lane_backends() named @p name, or its
 * last entry for "auto".  Returns false, leaving the selection unchanged,
 * for any other name.  For tests and benches; do not call concurrently
 * with run_batch.
 */
bool set_lane_backend(std::string_view name);

/** Backends usable on this build + CPU, scalar first, widest last. */
std::vector<const LaneBackend *> available_lane_backends();

/**
 * Transposes W gradient packets into @p ws (lane-major SoA), growing its
 * buffers on first use.  The xup buffers are sized but not filled: the
 * per-link joint transforms X_up = X_joint(q) * X_tree are built inside
 * the lane kernel, where the 3x3 compositions vectorize across lanes
 * (only sin/cos stay scalar).  @p packets must hold @p width validated
 * gradient packets.
 */
void marshal_gradient_group(const topology::RobotModel &model,
                            std::size_t n, std::size_t width,
                            const InputPacket *packets, LaneWorkspace &ws);

/**
 * Scatters lanes 0 .. @p count - 1 of one executed group of @p width
 * lanes into @p out[0 .. count), sizing their gradient fields on first
 * use; @p width stays the stride of every lane-major row.  Lanes @p count
 * .. width - 1 are padding (run_batch fills a short last group with
 * copies of its last packet) and write no result.  @p tasks is the
 * engine's trace length (position + velocity passes).
 */
void demarshal_gradient_group(std::size_t n, std::size_t width,
                              std::size_t count, std::size_t tasks,
                              const LaneWorkspace &ws, EngineResult *out);

} // namespace simd
} // namespace accel
} // namespace roboshape

#endif // ROBOSHAPE_ACCEL_SIMD_LANES_H
