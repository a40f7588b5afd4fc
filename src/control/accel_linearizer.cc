/**
 * @file
 * Implementation of the accelerator-backed iLQR linearizer.
 */

#include "control/accel_linearizer.h"

#include <stdexcept>

#include "dynamics/crba.h"

namespace roboshape {
namespace control {

namespace {

/** Throws std::invalid_argument unless @p x has 2n entries and @p u n. */
void
check_knot(const linalg::Vector &x, const linalg::Vector &u, std::size_t n)
{
    if (x.size() != 2 * n || u.size() != n)
        throw std::invalid_argument(
            "AcceleratorLinearizer: a knot needs a state of 2n entries and "
            "a control of n");
}

} // namespace

AcceleratorLinearizer::AcceleratorLinearizer(
    const accel::AcceleratorDesign &design, accel::SimOrder order,
    const spatial::Vec3 &gravity)
    : design_(&design), engine_(design, order),
      ws_(engine_.make_workspace()), gravity_(gravity)
{
    if (design.kernel() != sched::KernelKind::kDynamicsGradient)
        throw std::logic_error(
            "AcceleratorLinearizer needs a dynamics-gradient design");
    reserve_knots(1);
}

void
AcceleratorLinearizer::reserve_knots(std::size_t knots)
{
    const std::size_t n = design_->model().num_links();
    while (knots_.size() < knots) {
        knots_.push_back({linalg::Vector(n), linalg::Vector(n), {}, {}});
        packets_.emplace_back();
        results_.emplace_back();
    }
}

accel::InputPacket
AcceleratorLinearizer::front_end(const linalg::Vector &x,
                                 const linalg::Vector &u, Knot &knot) const
{
    const auto &model = design_->model();
    const std::size_t n = model.num_links();
    for (std::size_t i = 0; i < n; ++i) {
        knot.q[i] = x[i];
        knot.qd[i] = x[n + i];
    }

    // The linearization point, exactly as
    // dynamics::forward_dynamics_gradients computes it.
    knot.mass_inv = dynamics::mass_matrix_inverse(
        design_->topology(), dynamics::crba(model, knot.q));
    const linalg::Vector bias =
        dynamics::bias_forces(model, knot.q, knot.qd, gravity_);
    knot.qdd = knot.mass_inv * (u - bias);

    accel::InputPacket packet;
    packet.q = &knot.q;
    packet.qd = &knot.qd;
    packet.qdd = &knot.qdd;
    packet.minv = &knot.mass_inv;
    packet.gravity = gravity_;
    return packet;
}

void
AcceleratorLinearizer::linearize(const linalg::Vector &x,
                                 const linalg::Vector &u, double dt,
                                 linalg::Matrix &a, linalg::Matrix &b)
{
    check_knot(x, u, design_->model().num_links());
    Knot &knot = knots_[0];
    accel::EngineResult &result = results_[0];
    engine_.run(ws_, front_end(x, u, knot), result);
    ++calls_;
    discretize_gradients(result.dqdd_dq, result.dqdd_dqd, knot.mass_inv, dt,
                         a, b);
}

void
AcceleratorLinearizer::linearize_horizon(
    std::span<const linalg::Vector> states,
    std::span<const linalg::Vector> controls, double dt,
    std::span<linalg::Matrix> a, std::span<linalg::Matrix> b)
{
    const std::size_t knots = controls.size();
    if (states.size() != knots || a.size() != knots || b.size() != knots)
        throw std::invalid_argument(
            "AcceleratorLinearizer: states, controls, a and b need one "
            "entry per knot");
    for (std::size_t k = 0; k < knots; ++k)
        check_knot(states[k], controls[k], design_->model().num_links());
    reserve_knots(knots);
    for (std::size_t k = 0; k < knots; ++k)
        packets_[k] = front_end(states[k], controls[k], knots_[k]);
    engine_.run_batch(std::span(packets_).first(knots),
                      std::span(results_).first(knots), batch_ws_);
    calls_ += knots;
    for (std::size_t k = 0; k < knots; ++k)
        discretize_gradients(results_[k].dqdd_dq, results_[k].dqdd_dqd,
                             knots_[k].mass_inv, dt, a[k], b[k]);
}

} // namespace control
} // namespace roboshape
