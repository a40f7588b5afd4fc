/**
 * @file
 * Implementation of the compiled functional simulation engine.
 *
 * Order resolution, task lookup, root-path expansion and hazard checking
 * all happen in the constructor, leaving run() as a straight-line sweep
 * over precomputed ops.  The mass-matrix and kinematics sweeps live here;
 * the gradient sweep is the lane kernel (simd_lanes_impl.inl), run at
 * width 1 by run() and at the backend width by run_batch().  What the
 * sweeps compute is pinned bit for bit by tests/test_sim_engine.cc, so an
 * arithmetic change here must re-derive those digests (docs/SIM_ENGINE.md,
 * "Exactness policy").
 */

#include "accel/sim_engine.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "core/executor.h"
#include "obs/registry.h"
#include "obs/wall_trace.h"

namespace roboshape {
namespace accel {

using sched::Placement;
using sched::TaskType;
using spatial::SpatialInertia;
using spatial::SpatialTransform;
using spatial::SpatialVector;
using topology::kBaseParent;

namespace {

/**
 * Placements of the chosen composition, in execution order: each schedule's
 * real placements sorted by start cycle (stable, so placement order breaks
 * ties).  The staged order sorts the stages separately, because
 * backward-stage placements restart at cycle 0 yet run strictly after the
 * forward stage.  The adversarial order runs the staged one backwards.
 */
std::vector<const Placement *>
ordered_placements(const AcceleratorDesign &design, SimOrder order)
{
    std::vector<const Placement *> out;
    out.reserve(design.task_graph().size());
    const auto append = [&out](const sched::Schedule &s) {
        const auto begin = static_cast<std::ptrdiff_t>(out.size());
        for (const Placement &p : s.placements)
            if (p.task != sched::kNoTask)
                out.push_back(&p);
        std::stable_sort(out.begin() + begin, out.end(),
                         [](const Placement *a, const Placement *b) {
                             return a->start < b->start;
                         });
    };
    if (order == SimOrder::kPipelined) {
        append(design.pipelined());
    } else {
        append(design.forward_stage());
        append(design.backward_stage());
    }
    if (order == SimOrder::kAdversarialReversed)
        std::reverse(out.begin(), out.end());
    return out;
}

[[noreturn]] void
hazard(const std::string &what)
{
    throw DataHazardError("data hazard: " + what);
}

} // namespace

SimEngine::SimEngine(const AcceleratorDesign &design, SimOrder order)
    : design_(&design), order_(order), n_(design.model().num_links())
{
    s_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i)
        s_[i] = design.model().link(i).joint.motion_subspace();

    const auto ops = ordered_placements(design, order);
    trace_.reserve(ops.size());
    switch (design.kernel()) {
      case sched::KernelKind::kDynamicsGradient:
        compile_gradient(ops);
        break;
      case sched::KernelKind::kMassMatrix:
        compile_mass_matrix(ops);
        break;
      case sched::KernelKind::kForwardKinematics:
        compile_kinematics(ops);
        break;
    }
    // Every compiled op passed its structural read-before-write validation
    // above; the count stands in for hazard checks performed.
    ROBOSHAPE_OBS_COUNT("sim.engines_compiled", 1);
    ROBOSHAPE_OBS_COUNT("sim.hazard_checks", trace_.size());
}

const char *
engine_op_name(EngineOp::Kind k) noexcept
{
    using Kind = EngineOp::Kind;
    switch (k) {
      case Kind::kRneaForward:   return "rneaFwd";
      case Kind::kRneaBackward:  return "rneaBwd";
      case Kind::kGradForward:   return "gradFwd";
      case Kind::kGradBackward:  return "gradBwd";
      case Kind::kCrbaSetup:     return "crbaSetup";
      case Kind::kCrbaComposite: return "crbaComposite";
      case Kind::kCrbaWalk:      return "crbaWalk";
      case Kind::kFkPose:        return "fkPose";
      case Kind::kFkJacobian:    return "fkJacobian";
    }
    return "op";
}

std::uint32_t
SimEngine::intern_root_path(std::size_t link)
{
    const auto begin = static_cast<std::uint32_t>(root_paths_.size());
    for (std::size_t j : design_->topology().root_path(link))
        root_paths_.push_back(static_cast<std::int32_t>(j));
    return begin;
}

void
SimEngine::compile_gradient(const std::vector<const Placement *> &ops)
{
    const auto &model = design_->model();
    const auto &topo = design_->topology();
    // Written-flags per operand.  The checks are structural (they depend
    // only on the order, never on input values), so validating the trace
    // once here validates every future run().
    std::vector<bool> fwd(n_, false), bwd(n_, false), gf(n_, false);
    std::vector<bool> gb(n_ * n_, false);

    for (const Placement *p : ops) {
        const sched::Task &t = design_->task_graph().task(p->task);
        const auto i = static_cast<std::size_t>(t.link);
        Op op;
        op.link = t.link;
        op.parent = static_cast<std::int32_t>(model.parent(i));
        switch (t.type) {
          case TaskType::kRneaForward:
            if (op.parent != kBaseParent && !fwd[op.parent])
                hazard("rneaFwd reads unwritten parent state of link " +
                       std::to_string(i));
            op.kind = Op::Kind::kRneaForward;
            fwd[i] = true;
            break;
          case TaskType::kRneaBackward:
            if (!fwd[i])
                hazard("rneaBwd before rneaFwd on link " +
                       std::to_string(i));
            for (int c : model.children(i))
                if (!bwd[c])
                    hazard("rneaBwd before child accumulation on link " +
                           std::to_string(i));
            op.kind = Op::Kind::kRneaBackward;
            bwd[i] = true;
            break;
          case TaskType::kGradForward:
            if (!fwd[i])
                hazard("gradFwd before rneaFwd on link " +
                       std::to_string(i));
            if (op.parent != kBaseParent && !gf[op.parent])
                hazard("gradFwd before parent gradFwd on link " +
                       std::to_string(i));
            op.kind = Op::Kind::kGradForward;
            op.path_begin = intern_root_path(i);
            op.path_end = static_cast<std::uint32_t>(root_paths_.size());
            gf[i] = true;
            break;
          case TaskType::kGradBackward: {
            const auto j = static_cast<std::size_t>(t.column);
            op.column = t.column;
            op.seed = i == j;
            op.in_subtree = topo.is_ancestor_or_self(j, i);
            if (op.in_subtree && !gf[i])
                hazard("gradBwd before gradFwd on link " +
                       std::to_string(i));
            if (op.seed && !bwd[j])
                hazard("gradBwd needs accumulated RNEA force of link " +
                       std::to_string(j));
            if (op.in_subtree)
                for (int c : model.children(i))
                    if (!gb[j * n_ + c])
                        hazard("gradBwd before child column accumulation");
            op.kind = Op::Kind::kGradBackward;
            gb[j * n_ + i] = true;
            break;
          }
        }
        trace_.push_back(op);
    }
    // The velocity pass re-runs the gradient ops with velocity seeds; its
    // hazard flags reset to the same starting state, so the position-pass
    // validation above covers it.
    for (const Op &op : trace_)
        if (op.kind == Op::Kind::kGradForward ||
            op.kind == Op::Kind::kGradBackward)
            velocity_trace_.push_back(op);
}

void
SimEngine::compile_mass_matrix(const std::vector<const Placement *> &ops)
{
    const auto &model = design_->model();
    std::vector<bool> fwd(n_, false), bwd(n_, false);
    std::vector<int> walk_link(n_, -1);

    for (const Placement *p : ops) {
        const sched::Task &t = design_->task_graph().task(p->task);
        const auto link = static_cast<std::size_t>(t.link);
        Op op;
        op.link = t.link;
        op.parent = static_cast<std::int32_t>(model.parent(link));
        switch (t.type) {
          case TaskType::kRneaForward:
            op.kind = Op::Kind::kCrbaSetup;
            fwd[link] = true;
            break;
          case TaskType::kRneaBackward:
            if (!fwd[link])
                hazard("composite inertia before setup of link " +
                       std::to_string(link));
            for (int c : model.children(link))
                if (!bwd[c])
                    hazard("composite inertia before child of link " +
                           std::to_string(link));
            op.kind = Op::Kind::kCrbaComposite;
            bwd[link] = true;
            break;
          case TaskType::kGradBackward: {
            const auto col = static_cast<std::size_t>(t.column);
            op.column = t.column;
            if (link == col) {
                if (!bwd[col])
                    hazard("force walk before composite inertia of link " +
                           std::to_string(col));
                op.seed = true;
            } else {
                const int prev = walk_link[col];
                if (prev < 0 ||
                    model.parent(prev) != static_cast<int>(link))
                    hazard("force walk out of order for column " +
                           std::to_string(col));
                if (!fwd[link])
                    hazard("force walk before setup of link " +
                           std::to_string(link));
                op.prev = prev;
            }
            op.kind = Op::Kind::kCrbaWalk;
            walk_link[col] = static_cast<int>(link);
            break;
          }
          case TaskType::kGradForward:
            hazard("unexpected task type in a CRBA schedule");
        }
        trace_.push_back(op);
    }
}

void
SimEngine::compile_kinematics(const std::vector<const Placement *> &ops)
{
    const auto &model = design_->model();
    std::vector<bool> fwd(n_, false), jc(n_, false);

    for (const Placement *p : ops) {
        const sched::Task &t = design_->task_graph().task(p->task);
        const auto link = static_cast<std::size_t>(t.link);
        Op op;
        op.link = t.link;
        op.parent = static_cast<std::int32_t>(model.parent(link));
        switch (t.type) {
          case TaskType::kRneaForward:
            if (op.parent != kBaseParent && !fwd[op.parent])
                hazard("pose before parent pose of link " +
                       std::to_string(link));
            op.kind = Op::Kind::kFkPose;
            fwd[link] = true;
            break;
          case TaskType::kGradForward:
            if (!fwd[link])
                hazard("jacobian before pose of link " +
                       std::to_string(link));
            if (op.parent != kBaseParent && !jc[op.parent])
                hazard("jacobian before parent jacobian of link " +
                       std::to_string(link));
            op.kind = Op::Kind::kFkJacobian;
            op.path_begin = intern_root_path(link);
            op.path_end = static_cast<std::uint32_t>(root_paths_.size());
            jc[link] = true;
            break;
          default:
            hazard("unexpected task type in a kinematics schedule");
        }
        trace_.push_back(op);
    }
}

void
SimEngine::check_packet(const InputPacket &in) const
{
    const auto check_length = [this](const linalg::Vector &v,
                                     const char *field) {
        if (v.size() != n_)
            throw std::invalid_argument(
                std::string("packet field '") + field + "' has " +
                std::to_string(v.size()) + " entries, expected n = " +
                std::to_string(n_));
    };
    switch (design_->kernel()) {
      case sched::KernelKind::kDynamicsGradient:
        if (!in.q || !in.qd || !in.qdd || !in.minv)
            throw std::invalid_argument(
                "gradient packet requires q, qd, qdd, and minv");
        check_length(*in.q, "q");
        check_length(*in.qd, "qd");
        check_length(*in.qdd, "qdd");
        if (in.minv->rows() != n_ || in.minv->cols() != n_)
            throw std::invalid_argument(
                "packet field 'minv' is " +
                std::to_string(in.minv->rows()) + " x " +
                std::to_string(in.minv->cols()) +
                ", expected n x n with n = " + std::to_string(n_));
        break;
      case sched::KernelKind::kMassMatrix:
        if (!in.q)
            throw std::invalid_argument("mass-matrix packet requires q");
        check_length(*in.q, "q");
        break;
      case sched::KernelKind::kForwardKinematics:
        if (!in.q || !in.qd)
            throw std::invalid_argument(
                "kinematics packet requires q and qd");
        check_length(*in.q, "q");
        check_length(*in.qd, "qd");
        break;
    }
}

void
SimEngine::check_workspace(const Workspace &ws) const
{
    bool sized = true;
    switch (design_->kernel()) {
      case sched::KernelKind::kDynamicsGradient:
        break;
      case sched::KernelKind::kMassMatrix:
        sized = ws.xup.size() == n_ && ws.ic_children.size() == n_ &&
                ws.ic_total.size() == n_ && ws.f_walk.size() == n_;
        break;
      case sched::KernelKind::kForwardKinematics:
        sized = ws.xup.size() == n_ && ws.carry.size() == n_ * n_;
        break;
    }
    if (!sized)
        throw std::invalid_argument(
            "workspace is not sized for this engine; use make_workspace()");
}

SimEngine::Workspace
SimEngine::make_workspace() const
{
    // Gradient workspaces are lane workspaces, sized by their first group.
    Workspace ws;
    switch (design_->kernel()) {
      case sched::KernelKind::kDynamicsGradient:
        break;
      case sched::KernelKind::kMassMatrix:
        ws.xup.resize(n_);
        ws.ic_children.resize(n_);
        ws.ic_total.resize(n_);
        ws.f_walk.resize(n_);
        break;
      case sched::KernelKind::kForwardKinematics:
        ws.xup.resize(n_);
        ws.carry.resize(n_ * n_);
        break;
    }
    return ws;
}

void
SimEngine::prepare(EngineResult &out) const
{
    switch (design_->kernel()) {
      case sched::KernelKind::kDynamicsGradient:
        break; // demarshal_gradient_group sizes the gradient fields
      case sched::KernelKind::kMassMatrix:
        if (out.mass.rows() == n_ && out.mass.cols() == n_)
            out.mass.set_zero();
        else
            out.mass.resize(n_, n_);
        break;
      case sched::KernelKind::kForwardKinematics:
        if (out.base_to_link.size() == n_) {
            std::fill(out.base_to_link.begin(), out.base_to_link.end(),
                      SpatialTransform());
            std::fill(out.velocities.begin(), out.velocities.end(),
                      SpatialVector::zero());
            for (linalg::Matrix &jac : out.jacobians)
                jac.set_zero();
        } else {
            out.base_to_link.assign(n_, SpatialTransform());
            out.velocities.assign(n_, SpatialVector::zero());
            out.jacobians.assign(n_, linalg::Matrix(6, n_));
        }
        break;
    }
}

// The interpreters below are the zero-allocation warm path (asserted by
// the counting-operator-new tests); roboshape_lint enforces it lexically
// on top (docs/STATIC_ANALYSIS.md).  Growth belongs in compile()/
// prepare()/the batch wrappers/the lane marshal, all outside this region.
// lint: warm-path begin
void
SimEngine::run(Workspace &ws, const InputPacket &in, EngineResult &out) const
{
    check_packet(in);
    check_workspace(ws);
    switch (design_->kernel()) {
      case sched::KernelKind::kDynamicsGradient:
        run_gradient_group(&simd::run_gradient_lanes_scalar, 1, 1, &in,
                           ws.lanes, &out);
        break;
      case sched::KernelKind::kMassMatrix:
        run_mass_matrix(ws, in, out);
        break;
      case sched::KernelKind::kForwardKinematics:
        run_kinematics(ws, in, out);
        break;
    }
    ROBOSHAPE_OBS_COUNT("sim.runs", 1);
    ROBOSHAPE_OBS_COUNT("sim.ops_executed", out.tasks_executed);
}

void
SimEngine::run_gradient_group(simd::GradientLaneFn kernel, std::size_t width,
                              std::size_t count, const InputPacket *in,
                              simd::LaneWorkspace &lw, EngineResult *out) const
{
    simd::GradientTraceView tv;
    tv.trace = trace_.data();
    tv.trace_size = trace_.size();
    tv.velocity_trace = velocity_trace_.data();
    tv.velocity_size = velocity_trace_.size();
    tv.root_paths = root_paths_.data();
    tv.s = s_.data();
    tv.model = &design_->model();
    tv.n = n_;
    tv.block_size = design_->params().block_size;

    simd::marshal_gradient_group(design_->model(), n_, width, in, lw);
    kernel(tv, lw);
    simd::demarshal_gradient_group(n_, width, count, trace_length(), lw,
                                   out);
}

void
SimEngine::run_mass_matrix(Workspace &ws, const InputPacket &in,
                           EngineResult &out) const
{
    const auto &model = design_->model();
    const linalg::Vector &q = *in.q;
    const bool traced = obs::wall_trace_enabled();
    prepare(out);

    const std::uint64_t t_phase = traced ? obs::wall_now_ns() : 0;
    std::fill(ws.ic_children.begin(), ws.ic_children.end(),
              SpatialInertia());
    for (const Op &op : trace_) {
        const std::uint64_t t_op = traced ? obs::wall_now_ns() : 0;
        const auto link = static_cast<std::size_t>(op.link);
        switch (op.kind) {
          case Op::Kind::kCrbaSetup: {
            const auto &l = model.link(link);
            ws.xup[link] = l.joint.transform(q[link]) * l.x_tree;
            break;
          }
          case Op::Kind::kCrbaComposite:
            ws.ic_total[link] = model.link(link).inertia +
                                ws.ic_children[link];
            if (op.parent != kBaseParent)
                ws.ic_children[op.parent] =
                    ws.ic_children[op.parent] +
                    ws.ic_total[link].expressed_in_parent(ws.xup[link]);
            break;
          default: {
            const auto col = static_cast<std::size_t>(op.column);
            if (op.seed)
                ws.f_walk[col] = ws.ic_total[col].apply(s_[col]);
            else
                ws.f_walk[col] =
                    ws.xup[static_cast<std::size_t>(op.prev)]
                        .apply_transpose_to_force(ws.f_walk[col]);
            out.mass(col, link) = out.mass(link, col) =
                ws.f_walk[col].dot(s_[link]);
            break;
          }
        }
        if (traced)
            obs::record_wall_span(engine_op_name(op.kind), "op", t_op,
                                  obs::wall_now_ns(), op.link, op.column);
    }
    if (traced)
        obs::record_wall_span("sim.mass_matrix", "phase", t_phase,
                              obs::wall_now_ns());
    out.tasks_executed = trace_.size();
}

void
SimEngine::run_kinematics(Workspace &ws, const InputPacket &in,
                          EngineResult &out) const
{
    const auto &model = design_->model();
    const linalg::Vector &q = *in.q;
    const linalg::Vector &qd = *in.qd;
    const bool traced = obs::wall_trace_enabled();
    prepare(out);

    const std::uint64_t t_phase = traced ? obs::wall_now_ns() : 0;
    for (const Op &op : trace_) {
        const std::uint64_t t_op = traced ? obs::wall_now_ns() : 0;
        const auto link = static_cast<std::size_t>(op.link);
        const std::int32_t parent = op.parent;
        if (op.kind == Op::Kind::kFkPose) {
            const auto &l = model.link(link);
            ws.xup[link] = l.joint.transform(q[link]) * l.x_tree;
            const SpatialVector vj = s_[link] * qd[link];
            if (parent == kBaseParent) {
                out.base_to_link[link] = ws.xup[link];
                out.velocities[link] = vj;
            } else {
                out.base_to_link[link] =
                    ws.xup[link] * out.base_to_link[parent];
                out.velocities[link] =
                    ws.xup[link].apply(out.velocities[parent]) + vj;
            }
        } else {
            for (std::uint32_t k = op.path_begin; k < op.path_end; ++k) {
                const auto j = static_cast<std::size_t>(root_paths_[k]);
                ws.carry[j * n_ + link] =
                    j == link
                        ? s_[link]
                        : ws.xup[link].apply(
                              ws.carry[j * n_ +
                                       static_cast<std::size_t>(parent)]);
                for (std::size_t r = 0; r < 6; ++r)
                    out.jacobians[link](r, j) = ws.carry[j * n_ + link][r];
            }
        }
        if (traced)
            obs::record_wall_span(engine_op_name(op.kind), "op", t_op,
                                  obs::wall_now_ns(), op.link, op.column);
    }
    if (traced)
        obs::record_wall_span("sim.kinematics", "phase", t_phase,
                              obs::wall_now_ns());
    out.tasks_executed = trace_.size();
}
// lint: warm-path end

void
SimEngine::run_batch(std::span<const InputPacket> in,
                     std::span<EngineResult> out, BatchWorkspace &ws,
                     std::size_t threads) const
{
    if (in.size() != out.size())
        throw std::invalid_argument(
            "run_batch needs one result slot per packet");
    // Every packet is checked up front, so a bad one throws before any
    // result is written.
    for (const InputPacket &p : in)
        check_packet(p);
    ROBOSHAPE_OBS_COUNT("sim.batch_calls", 1);
    ROBOSHAPE_OBS_COUNT("sim.batch_packets", in.size());

    // Units of the region: the full W-wide lane groups in ascending order,
    // then the r = in.size() mod W leftover packets.  Two or more leftovers
    // run as one more W-wide group whose lanes r .. W - 1 repeat packet
    // r - 1 and write no result; a lone leftover runs through run().  Why
    // r >= 2: in a microbenchmark over the six paper robots one padded
    // group cost 1.3-1.8 W = 1 runs at W = 8 and 1.0-1.5 at W = 4, and
    // bench/sim_throughput's lane gate (fleet geomean >= min(4, W/2))
    // bounds a group at two W = 1 runs on the gated fleet, so two
    // leftovers already gain and one would lose.  Mass-matrix and
    // kinematics engines and the scalar backend have no groups.  Every
    // width runs the same kernel source (accel/simd_lanes.h) and its lanes
    // never mix (per-lane blend masks and LaneStats).  A copy of packet
    // r - 1 computes exactly what lane r - 1 computes (its tile-mask
    // bits, NaNs and denormals mirror that lane's), and the group is built
    // on the stack, so grouping and padding are pure throughput decisions.
    const simd::LaneBackend &backend = simd::lane_backend();
    const std::size_t width =
        design_->kernel() == sched::KernelKind::kDynamicsGradient
            ? backend.width
            : 1;
    const std::size_t groups = width > 1 ? in.size() / width : 0;
    const std::size_t rest = in.size() - groups * width;
    const bool padded = width > 1 && rest >= 2;
    // Packets run inside lane groups; run() counts the others itself.
    const std::size_t laned = padded ? in.size() : groups * width;
    const std::size_t units = groups + (padded ? 1 : rest);

    core::Executor &exec = core::Executor::instance();
    const std::size_t workers = exec.resolve_width(units, threads);
    while (ws.per_thread.size() < workers)
        ws.per_thread.push_back(make_workspace());
    for (std::size_t t = 0; t < workers; ++t)
        check_workspace(ws.per_thread[t]);

    ROBOSHAPE_OBS_RECORD("sim.lane_width", laned > 0 ? width : 1);
    if (width > 1) {
        ROBOSHAPE_OBS_COUNT("sim.batch_tail_packets", in.size() - laned);
        ROBOSHAPE_OBS_COUNT("sim.batch_pad_lanes", padded ? width - rest : 0);
    }

    // A lane index is exclusive to one OS thread for the whole region, so
    // workspace[lane] is single-threaded whichever lane claims a unit, and
    // its lane workspace serves W-wide groups and single packets alike.
    // Results stay bit-identical at any thread count because a unit's
    // output slots are fixed and a warm workspace never leaks state
    // between runs (the zero-allocation contract).
    std::array<std::uint64_t, core::kMaxExecutorLanes> shard{};
    exec.parallel_for_lanes(
        units,
        [&](std::size_t u, std::size_t lane) {
            Workspace &lane_ws = ws.per_thread[lane];
            const std::size_t first = u * width;
            if (u < groups) {
                run_gradient_group(backend.gradient, width, width,
                                   in.data() + first, lane_ws.lanes,
                                   out.data() + first);
                shard[lane] += width;
            } else if (padded) {
                std::array<InputPacket, simd::kMaxLaneWidth> group;
                std::copy_n(in.data() + first, rest, group.data());
                std::fill_n(group.data() + rest, width - rest, in.back());
                run_gradient_group(backend.gradient, width, rest,
                                   group.data(), lane_ws.lanes,
                                   out.data() + first);
                shard[lane] += rest;
            } else {
                // One packet: unit u at W = 1, else the lone leftover.
                run(lane_ws, in[first], out[first]);
                ++shard[lane];
            }
        },
        workers);
    // Shard balance: packets each lane actually executed, padding excluded.
    for (std::size_t t = 0; t < workers; ++t)
        ROBOSHAPE_OBS_RECORD("sim.batch_shard_packets", shard[t]);
    ROBOSHAPE_OBS_COUNT("sim.runs", laned);
    ROBOSHAPE_OBS_COUNT("sim.ops_executed", laned * trace_length());
}

} // namespace accel
} // namespace roboshape
