/**
 * @file
 * Compiled, allocation-free, batched functional simulation engine: the
 * repository's functional model of a generated accelerator, and its
 * substitute for RTL simulation of the paper's Verilog.
 *
 * The engine executes a design's schedules op by op on real
 * floating-point data.  It splits the work the way the hardware does, so
 * one fixed design can stream thousands of input packets (iLQR linearizes
 * horizon x iterations states per solve; the multi-core deployment of
 * Sec. 5.2 feeds replicas from a request stream):
 *
 *  - compile() (the constructor) resolves the chosen SimOrder into a flat
 *    trace of fully-resolved ops — task kind, link, parent, derivative
 *    column, root-path spans, CRBA walk predecessors — and runs the
 *    read-before-write hazard analysis ONCE over that trace (the checks
 *    are purely structural, so an order that passes them passes for every
 *    input).  Invalid orders throw DataHazardError at compile time.
 *
 *  - run() executes the trace against a persistent Workspace and a
 *    reusable EngineResult.  After one warm-up call, run() performs zero
 *    heap allocations.  Gradient designs run on the lane kernel of
 *    accel/simd_lanes.h at width 1: the same source that run_batch
 *    instantiates at width 4 and 8.  What run() computes is pinned by
 *    tests/test_sim_engine.cc (one digest per golden case) and checked
 *    against the host dynamics library (docs/SIM_ENGINE.md).
 *
 *  - run_batch() runs independent packets in one region of the
 *    persistent executor (core/executor.h) with one Workspace per lane:
 *    W-wide SIMD lane groups, the last one padded when two or more
 *    packets are left over, and a lone leftover packet through run().
 *    Packets never share mutable state, so results are bit-identical at
 *    any thread count and claim interleaving.
 *
 * All three Table 1 kernels are covered: the dynamics-gradient pipeline
 * (RNEA + dRNEA + blocked -M^-1 multiply), the CRBA mass matrix, and
 * forward kinematics with Jacobians.  Matching the paper's coprocessor
 * dataflow, the host supplies q, qd, the linearization qdd and M^-1; the
 * accelerator returns the partial-derivative matrices.
 */

#ifndef ROBOSHAPE_ACCEL_SIM_ENGINE_H
#define ROBOSHAPE_ACCEL_SIM_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/design.h"
#include "accel/simd_lanes.h"
#include "dynamics/rnea.h"
#include "linalg/matrix.h"
#include "spatial/spatial_inertia.h"
#include "spatial/spatial_transform.h"
#include "spatial/spatial_vector.h"

namespace roboshape {
namespace accel {

/** Raised when a scheduled task reads an operand that was never written. */
class DataHazardError : public std::logic_error
{
  public:
    explicit DataHazardError(const std::string &msg)
        : std::logic_error(msg)
    {
    }
};

/** Which schedule ordering drives execution. */
enum class SimOrder
{
    kStaged,    ///< Forward stage, then backward stage (no pipelining).
    kPipelined, ///< Joint cross-stage order.
    /** Deliberately invalid (stages reversed): exists so tests can prove
     *  the hazard checker rejects dependency-violating orders. */
    kAdversarialReversed,
};

/**
 * One input set for the engine.  Pointers must stay valid for the duration
 * of the run; which fields are required depends on the design's kernel:
 * gradient needs all four, mass-matrix only q, kinematics q and qd.  Each
 * required vector holds the robot's n entries and minv is n x n.
 */
struct InputPacket
{
    const linalg::Vector *q = nullptr;
    const linalg::Vector *qd = nullptr;
    const linalg::Vector *qdd = nullptr;   ///< Linearization point (gradient).
    const linalg::Matrix *minv = nullptr;  ///< Host-computed M^-1 (gradient).
    spatial::Vec3 gravity = dynamics::kDefaultGravity;
};

/** Tile counts of the gradient kernel's two blocked multiplies. */
struct BlockMultiplyStats
{
    std::size_t block_macs = 0;  ///< Tile products executed.
    std::size_t block_nops = 0;  ///< Tile products skipped as zero.
    std::size_t scalar_macs = 0; ///< Scalar MACs inside executed tiles.
};

/**
 * Reusable output block.  The engine sizes every field on first use and
 * only overwrites afterwards; keep the object alive across runs for the
 * allocation-free steady state.  Only the fields of the design's kernel
 * are meaningful after a run.
 */
struct EngineResult
{
    // kDynamicsGradient
    linalg::Vector tau;
    linalg::Matrix dtau_dq, dtau_dqd;
    linalg::Matrix dqdd_dq, dqdd_dqd;
    BlockMultiplyStats mm_stats;
    // kMassMatrix
    linalg::Matrix mass;
    // kForwardKinematics
    std::vector<spatial::SpatialTransform> base_to_link;
    std::vector<spatial::SpatialVector> velocities;
    std::vector<linalg::Matrix> jacobians;

    std::size_t tasks_executed = 0;
};

/**
 * One fully-resolved trace step.  Namespace-scope (rather than nested in
 * SimEngine) so the SIMD lane kernels can interpret the same trace; the
 * fields are engine implementation detail and may change between releases.
 */
struct EngineOp
{
    enum class Kind : std::uint8_t
    {
        kRneaForward,
        kRneaBackward,
        kGradForward,
        kGradBackward,
        kCrbaSetup,
        kCrbaComposite,
        kCrbaWalk,
        kFkPose,
        kFkJacobian,
    };
    Kind kind = Kind::kRneaForward;
    bool seed = false;        ///< Gradient/CRBA: link == column.
    bool in_subtree = false;  ///< Gradient backward: i in subtree(j).
    std::int32_t link = 0;
    std::int32_t parent = topology::kBaseParent;
    std::int32_t column = -1;
    std::int32_t prev = -1;   ///< CRBA walk predecessor link.
    std::uint32_t path_begin = 0, path_end = 0; ///< Into root_paths_.
};

/** Chrome-trace span name of an op kind (static storage); shared by the
 *  engine and the lane kernels so every width records the same names. */
const char *engine_op_name(EngineOp::Kind k) noexcept;

class SimEngine
{
  public:
    /**
     * Per-run mutable state, allocated once by make_workspace() and reused
     * forever after.  A Workspace may be used by one thread at a time.
     */
    class Workspace
    {
      public:
        Workspace() = default;

      private:
        friend class SimEngine;
        // Gradient kernel: the lane workspace, grown on first use to the
        // widest group run through it (1 for run(), W inside run_batch).
        simd::LaneWorkspace lanes;
        // Mass-matrix and kinematics kernels.
        std::vector<spatial::SpatialTransform> xup;
        std::vector<spatial::SpatialInertia> ic_children, ic_total;
        std::vector<spatial::SpatialVector> f_walk;
        std::vector<spatial::SpatialVector> carry;
    };

    /**
     * Per-worker workspaces for run_batch; grown lazily, then reused.
     * Executor lane t runs every unit it claims, SIMD lane group or
     * single packet, in per_thread[t].
     */
    struct BatchWorkspace
    {
        std::vector<Workspace> per_thread;
    };

    /**
     * Compiles @p design's @p order into the flat execution trace and
     * hazard-checks it.  The engine keeps a reference to @p design, which
     * must outlive it.
     *
     * @throws DataHazardError when the order violates a data dependency
     *         (e.g. SimOrder::kAdversarialReversed).
     */
    explicit SimEngine(const AcceleratorDesign &design,
                       SimOrder order = SimOrder::kStaged);

    const AcceleratorDesign &design() const { return *design_; }
    SimOrder order() const { return order_; }

    /** Ops executed per run (velocity re-pass included for gradients). */
    std::size_t trace_length() const
    {
        return trace_.size() + velocity_trace_.size();
    }

    /** Allocates a workspace sized for this engine. */
    Workspace make_workspace() const;

    /**
     * Executes one packet.  Zero heap allocations once @p ws and @p out
     * are warm (one prior run() with them).  Only the fields of the
     * design's kernel are written (docs/SIM_ENGINE.md, "Inputs and
     * outputs").
     *
     * @throws std::invalid_argument when @p in lacks a field the kernel
     *         reads or a field it reads is not n-sized (n x n for minv),
     *         or @p ws is not sized for this engine (e.g. made by an
     *         engine of another kernel or link count).
     */
    void run(Workspace &ws, const InputPacket &in, EngineResult &out) const;

    /**
     * Executes @p in[i] into @p out[i] for every i in one executor region.
     * Results are bit-identical to serial run() calls at any thread count
     * and lane width: the executor decides which lane runs a unit, never
     * where its output lands.
     *
     * The region's units are, for dynamics-gradient engines with
     * W = simd::lane_backend().width > 1, the full groups of W
     * consecutive packets in ascending order, each run by the backend's
     * W-wide kernel, then the r = in.size() mod W leftover packets: for
     * r >= 2 one more W-wide group whose lanes r .. W - 1 repeat the last
     * packet and write no result, for r = 1 the lone packet through run().
     * For the other kernels and at W = 1 every unit is one packet through
     * run().  The lane kernel is one source at every width and its lanes
     * never mix, so grouping and padding change no output bit.  No packet
     * past @p in is read and no slot past @p out is written.
     *
     * @param threads worker count; 0 defers to ROBOSHAPE_THREADS /
     *        hardware concurrency (see core::Executor::resolve_width).
     * @throws std::invalid_argument before any packet runs when
     *         @p out.size() != @p in.size(), or on any packet or workspace
     *         run() would reject.
     */
    void run_batch(std::span<const InputPacket> in,
                   std::span<EngineResult> out, BatchWorkspace &ws,
                   std::size_t threads = 0) const;

  private:
    using Op = EngineOp;

    void compile_gradient(const std::vector<const sched::Placement *> &ops);
    void compile_mass_matrix(
        const std::vector<const sched::Placement *> &ops);
    void compile_kinematics(
        const std::vector<const sched::Placement *> &ops);
    std::uint32_t intern_root_path(std::size_t link);

    void prepare(EngineResult &out) const;
    /** Throw std::invalid_argument on what run() must not execute. */
    void check_packet(const InputPacket &in) const;
    void check_workspace(const Workspace &ws) const;
    /** Marshals @p width validated gradient packets into @p lw, runs
     *  @p kernel over them and scatters the first @p count results into
     *  @p out; the other lanes are padding. */
    void run_gradient_group(simd::GradientLaneFn kernel, std::size_t width,
                            std::size_t count, const InputPacket *in,
                            simd::LaneWorkspace &lw, EngineResult *out) const;
    void run_mass_matrix(Workspace &ws, const InputPacket &in,
                         EngineResult &out) const;
    void run_kinematics(Workspace &ws, const InputPacket &in,
                        EngineResult &out) const;

    const AcceleratorDesign *design_;
    SimOrder order_;
    std::size_t n_ = 0;

    /** Position-pass ops in final execution order. */
    std::vector<Op> trace_;
    /** Gradient kernels re-run their gradient ops with velocity seeds. */
    std::vector<Op> velocity_trace_;
    /** Flattened root paths referenced by Op::path_begin/path_end. */
    std::vector<std::int32_t> root_paths_;
    /** Constant per-link motion subspaces S_i. */
    std::vector<spatial::SpatialVector> s_;
};

} // namespace accel
} // namespace roboshape

#endif // ROBOSHAPE_ACCEL_SIM_ENGINE_H
