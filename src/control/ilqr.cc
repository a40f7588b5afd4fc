/**
 * @file
 * Implementation of the iLQR solver.
 */

#include "control/ilqr.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "dynamics/aba.h"
#include "dynamics/fd_derivatives.h"

namespace roboshape {
namespace control {

namespace {

using linalg::Matrix;
using linalg::Vector;
// Solve-time telemetry only (IlqrResult::*_us): the clock never enters
// the optimization arithmetic, so trajectories stay bit-identical.
using Clock = std::chrono::steady_clock; // NOLINT(no-nondeterminism)

double
us_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** Splits x = [q; qd]. */
void
split(const Vector &x, Vector &q, Vector &qd)
{
    const std::size_t n = x.size() / 2;
    for (std::size_t i = 0; i < n; ++i) {
        q[i] = x[i];
        qd[i] = x[n + i];
    }
}

/** Semi-implicit Euler step of the true dynamics. */
Vector
step(const topology::RobotModel &model, const Vector &x, const Vector &u,
     double dt)
{
    const std::size_t n = model.num_links();
    Vector q(n), qd(n);
    split(x, q, qd);
    const Vector qdd = dynamics::aba(model, q, qd, u);
    Vector x_next(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const double qd_next = qd[i] + dt * qdd[i];
        x_next[n + i] = qd_next;
        x_next[i] = q[i] + dt * qd_next;
    }
    return x_next;
}

/** The host dynamics library's linearization, used when
 *  IlqrOptions::linearizer is null. */
class HostLinearizer : public DynamicsLinearizer
{
  public:
    HostLinearizer(const topology::RobotModel &model,
                   const topology::TopologyInfo &topo)
        : model_(&model), topo_(&topo)
    {
    }

    void
    linearize(const Vector &x, const Vector &u, double dt, Matrix &a,
              Matrix &b) override
    {
        const std::size_t n = model_->num_links();
        Vector q(n), qd(n);
        split(x, q, qd);
        const auto g =
            dynamics::forward_dynamics_gradients(*model_, *topo_, q, qd, u);
        discretize_gradients(g.dqdd_dq, g.dqdd_dqd, g.mass_inv, dt, a, b);
    }

  private:
    const topology::RobotModel *model_;
    const topology::TopologyInfo *topo_;
};

/** Running cost of one knot.  Its Hessian is diagonal: w_q, w_qd on x
 *  and w_u on u. */
double
running_cost(const IlqrProblem &p, const Vector &x, const Vector &u)
{
    const std::size_t n = u.size();
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double eq = x[i] - p.q_goal[i];
        value += 0.5 * p.w_q * eq * eq + 0.5 * p.w_qd * x[n + i] * x[n + i] +
                 0.5 * p.w_u * u[i] * u[i];
    }
    return value;
}

/** Terminal cost; Hessian diagonal with w_terminal, w_qd. */
double
terminal_cost(const IlqrProblem &p, const Vector &x)
{
    const std::size_t n = p.q_goal.size();
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double eq = x[i] - p.q_goal[i];
        value += 0.5 * p.w_terminal * eq * eq +
                 0.5 * p.w_qd * x[n + i] * x[n + i];
    }
    return value;
}

} // namespace

void
DynamicsLinearizer::linearize_horizon(std::span<const Vector> states,
                                      std::span<const Vector> controls,
                                      double dt, std::span<Matrix> a,
                                      std::span<Matrix> b)
{
    if (states.size() != controls.size() || a.size() != controls.size() ||
        b.size() != controls.size())
        throw std::invalid_argument(
            "linearize_horizon: states, controls, a and b need one entry "
            "per knot");
    for (std::size_t k = 0; k < controls.size(); ++k)
        linearize(states[k], controls[k], dt, a[k], b[k]);
}

void
discretize_gradients(const Matrix &dqdd_dq, const Matrix &dqdd_dqd,
                     const Matrix &mass_inv, double dt, Matrix &a, Matrix &b)
{
    const std::size_t n = mass_inv.rows();
    a.resize(2 * n, 2 * n);
    b.resize(2 * n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const double dq = dt * dqdd_dq(i, j);
            const double dqd = dt * dqdd_dqd(i, j);
            // qd' rows.
            a(n + i, j) = dq;
            a(n + i, n + j) = (i == j ? 1.0 : 0.0) + dqd;
            // q' rows = q + dt qd'.
            a(i, j) = (i == j ? 1.0 : 0.0) + dt * dq;
            a(i, n + j) = dt * ((i == j ? 1.0 : 0.0) + dqd);
            const double du = dt * mass_inv(i, j);
            b(n + i, j) = du;
            b(i, j) = dt * du;
        }
    }
}

RiccatiWorkspace::Limb::Limb(std::size_t first, std::size_t links)
    : begin(first), size(links), a(2 * links, 2 * links), b(2 * links, links),
      vx(2 * links), qx(2 * links), qu(links), vxx(2 * links, 2 * links),
      at_vxx(2 * links, 2 * links), bt_vxx(links, 2 * links),
      qxx(2 * links, 2 * links), quu(links, links), qux(links, 2 * links),
      rhs(links, 2 * links + 1), ff(links), gain(links, 2 * links),
      quu_ldlt(Matrix::identity(links))
{
}

RiccatiWorkspace::RiccatiWorkspace(std::span<const LimbSpan> spans)
{
    limbs_.reserve(spans.size());
    for (const auto &[first, end] : spans) {
        if (first != num_links_ || end <= first)
            throw std::invalid_argument(
                "RiccatiWorkspace: limb spans must tile [0, n) in order");
        limbs_.emplace_back(first, end - first);
        num_links_ = end;
    }
}

/**
 * Each limb runs the dense pass's sequence of linalg calls on its own
 * blocks.  A^T Vxx and B^T Vxx (= (Vxx A)^T and (Vxx B)^T, Vxx being
 * symmetric) are formed once per knot and shared by
 * Qxx = lxx + (A^T Vxx) A, Quu = luu + (B^T Vxx) B + mu I and
 * Qux = (B^T Vxx) A, so for a given value function the Q terms and gains
 * are bit-identical to the textbook products.  [k | K] = -Quu^-1
 * [Qu | Qux] is one multi-right-hand-side solve.  The value update
 * Vx = Qx + Qux^T k, Vxx = Qxx + Qux^T K is the four-term form
 * Qx + K^T Quu k + K^T Qu + Qux^T k (likewise for Vxx) with the terms
 * that cancel removed, exactly because the gains solve the same
 * regularized Quu; dropping them also drops their rounding.
 *
 * The split is exact, not an approximation: off the limb blocks A, B,
 * the diagonal costs and hence Vxx, Qxx, Quu and Qux are exact zeros,
 * and LDL^T of a block-diagonal Quu has no fill.  The products skip zero
 * left-hand entries, and the vector products add the zero terms to sums
 * that started at +0, where adding a zero changes nothing.  So every
 * in-limb entry sums the same terms in the same order as the single
 * span [0, n) (docs/ALGORITHMS.md).
 */
bool
riccati_backward_pass(const IlqrProblem &p, const std::vector<Vector> &states,
                      const std::vector<Vector> &controls,
                      const std::vector<Matrix> &a,
                      const std::vector<Matrix> &b, double mu,
                      RiccatiWorkspace &ws, std::vector<Vector> &ff,
                      std::vector<Matrix> &gain)
{
    const std::size_t n = ws.num_links();
    const std::size_t horizon = controls.size();
    bool sizes_ok = p.q_goal.size() == n && states.size() == horizon + 1 &&
                    a.size() == horizon && b.size() == horizon &&
                    ff.size() == horizon && gain.size() == horizon;
    for (std::size_t kk = 0; sizes_ok && kk < horizon; ++kk)
        sizes_ok = states[kk].size() == 2 * n && controls[kk].size() == n &&
                   a[kk].rows() == 2 * n && a[kk].cols() == 2 * n &&
                   b[kk].rows() == 2 * n && b[kk].cols() == n &&
                   ff[kk].size() == n && gain[kk].rows() == n &&
                   gain[kk].cols() == 2 * n;
    if (!sizes_ok || states[horizon].size() != 2 * n)
        throw std::invalid_argument(
            "riccati_backward_pass: sizes do not match the workspace");

    const Vector &xt = states[horizon];
    for (RiccatiWorkspace::Limb &limb : ws.limbs_) {
        const std::size_t m = limb.size;
        limb.vxx.set_zero();
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t g = limb.begin + i;
            limb.vx[i] = p.w_terminal * (xt[g] - p.q_goal[g]);
            limb.vx[m + i] = p.w_qd * xt[n + g];
            limb.vxx(i, i) = p.w_terminal;
            limb.vxx(m + i, m + i) = p.w_qd;
        }
    }
    // lint: warm-path begin
    for (std::size_t kk = horizon; kk-- > 0;) {
        const Vector &x = states[kk];
        const Vector &u = controls[kk];
        for (RiccatiWorkspace::Limb &limb : ws.limbs_) {
            const std::size_t s = limb.begin;
            const std::size_t m = limb.size;
            // Global index of the limb's state r: q rows, then qd rows.
            const auto state = [&](std::size_t r) {
                return r < m ? s + r : n + s + (r - m);
            };
            for (std::size_t r = 0; r < 2 * m; ++r) {
                for (std::size_t c = 0; c < 2 * m; ++c)
                    limb.a(r, c) = a[kk](state(r), state(c));
                for (std::size_t c = 0; c < m; ++c)
                    limb.b(r, c) = b[kk](state(r), s + c);
            }
            linalg::transposed_multiply_into(limb.a, limb.vxx, limb.at_vxx);
            linalg::transposed_multiply_into(limb.b, limb.vxx, limb.bt_vxx);
            linalg::transposed_multiply_into(limb.a, limb.vx, limb.qx);
            linalg::transposed_multiply_into(limb.b, limb.vx, limb.qu);
            linalg::multiply_into(limb.at_vxx, limb.a, limb.qxx);
            linalg::multiply_into(limb.bt_vxx, limb.b, limb.quu);
            linalg::multiply_into(limb.bt_vxx, limb.a, limb.qux);
            for (std::size_t i = 0; i < m; ++i) {
                const std::size_t g = s + i;
                limb.qx[i] += p.w_q * (x[g] - p.q_goal[g]);
                limb.qx[m + i] += p.w_qd * x[n + g];
                limb.qu[i] += p.w_u * u[g];
                limb.qxx(i, i) += p.w_q;
                limb.qxx(m + i, m + i) += p.w_qd;
                limb.quu(i, i) += p.w_u;
                limb.quu(i, i) += mu;
            }
            if (!limb.quu_ldlt.factorize(limb.quu))
                return false;
            for (std::size_t i = 0; i < m; ++i) {
                limb.rhs(i, 0) = limb.qu[i];
                for (std::size_t j = 0; j < 2 * m; ++j)
                    limb.rhs(i, 1 + j) = limb.qux(i, j);
            }
            limb.quu_ldlt.solve_in_place(limb.rhs);
            for (std::size_t i = 0; i < m; ++i) {
                limb.ff[i] = -limb.rhs(i, 0);
                ff[kk][s + i] = limb.ff[i];
                for (std::size_t j = 0; j < 2 * m; ++j) {
                    limb.gain(i, j) = -limb.rhs(i, 1 + j);
                    gain[kk](s + i, state(j)) = limb.gain(i, j);
                }
            }
            linalg::transposed_multiply_into(limb.qux, limb.ff, limb.vx);
            limb.vx += limb.qx;
            linalg::transposed_multiply_into(limb.qux, limb.gain, limb.vxx);
            limb.vxx += limb.qxx;
            // Symmetrize against numerical drift.
            for (std::size_t i = 0; i < 2 * m; ++i)
                for (std::size_t j = i + 1; j < 2 * m; ++j) {
                    const double sym =
                        (limb.vxx(i, j) + limb.vxx(j, i)) * 0.5;
                    limb.vxx(i, j) = sym;
                    limb.vxx(j, i) = sym;
                }
        }
    }
    // lint: warm-path end
    return true;
}

double
trajectory_cost(const IlqrProblem &problem,
                const std::vector<Vector> &states,
                const std::vector<Vector> &controls)
{
    assert(states.size() == controls.size() + 1);
    double cost = 0.0;
    for (std::size_t k = 0; k < controls.size(); ++k)
        cost += running_cost(problem, states[k], controls[k]);
    return cost + terminal_cost(problem, states.back());
}

IlqrResult
solve_ilqr(const topology::RobotModel &model,
           const topology::TopologyInfo &topo, const IlqrProblem &problem,
           const IlqrOptions &options)
{
    const std::size_t n = model.num_links();
    const std::size_t horizon = problem.horizon;
    if (problem.q0.size() != n || problem.qd0.size() != n ||
        problem.q_goal.size() != n)
        throw std::invalid_argument(
            "solve_ilqr: q0, qd0 and q_goal need one entry per link");
    if (topo.num_links() != n)
        throw std::invalid_argument(
            "solve_ilqr: the topology describes another robot");
    if (!std::isfinite(problem.dt) || problem.dt <= 0.0)
        throw std::invalid_argument("solve_ilqr: dt must be finite and > 0");

    IlqrResult result;
    const auto t_total = Clock::now();

    // Initial rollout: gravity-free zero torques.
    result.controls.assign(horizon, Vector(n));
    result.states.assign(horizon + 1, Vector(2 * n));
    for (std::size_t i = 0; i < n; ++i) {
        result.states[0][i] = problem.q0[i];
        result.states[0][n + i] = problem.qd0[i];
    }
    {
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < horizon; ++k)
            result.states[k + 1] =
                step(model, result.states[k], result.controls[k],
                     problem.dt);
        result.timing.rollout_us += us_since(t0);
    }
    double cost = trajectory_cost(problem, result.states, result.controls);
    result.cost_history.push_back(cost);

    HostLinearizer host(model, topo);
    DynamicsLinearizer &linearizer =
        options.linearizer != nullptr ? *options.linearizer : host;
    double mu = options.regularization;
    std::vector<Matrix> a(horizon), b(horizon);
    std::vector<Vector> ff_k(horizon, Vector(n));
    std::vector<Matrix> gain_k(horizon, Matrix(n, 2 * n));
    RiccatiWorkspace riccati(topo.limb_spans());

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        ++result.iterations;

        // ---- Linearization (the accelerated kernel) -------------------
        {
            const auto t0 = Clock::now();
            linearizer.linearize_horizon(
                std::span<const Vector>(result.states).first(horizon),
                result.controls, problem.dt, a, b);
            result.timing.linearization_us += us_since(t0);
        }

        // ---- Riccati backward pass ------------------------------------
        const auto t_backward = Clock::now();
        const bool backward_ok =
            riccati_backward_pass(problem, result.states, result.controls, a,
                                  b, mu, riccati, ff_k, gain_k);
        result.timing.backward_pass_us += us_since(t_backward);
        if (!backward_ok) {
            mu *= 10.0;
            continue;
        }

        // ---- Line-searched forward pass -------------------------------
        bool improved = false;
        {
            const auto t0 = Clock::now();
            double alpha = 1.0;
            for (std::size_t ls = 0; ls < options.max_line_search; ++ls) {
                std::vector<Vector> xs(horizon + 1, Vector(2 * n));
                std::vector<Vector> us(horizon, Vector(n));
                xs[0] = result.states[0];
                for (std::size_t k = 0; k < horizon; ++k) {
                    const Vector dx = xs[k] - result.states[k];
                    us[k] = result.controls[k] + ff_k[k] * alpha +
                            gain_k[k] * dx;
                    xs[k + 1] = step(model, xs[k], us[k], problem.dt);
                }
                const double new_cost =
                    trajectory_cost(problem, xs, us);
                if (new_cost < cost) {
                    result.states = std::move(xs);
                    result.controls = std::move(us);
                    improved = true;
                    mu = std::max(mu * 0.5, 1e-9);
                    const double rel = (cost - new_cost) /
                                       std::max(1.0, std::abs(cost));
                    cost = new_cost;
                    result.cost_history.push_back(cost);
                    if (rel < options.cost_tolerance)
                        result.converged = true;
                    break;
                }
                alpha *= 0.5;
            }
            result.timing.rollout_us += us_since(t0);
        }
        if (!improved) {
            mu *= 10.0;
            if (mu > 1e8) {
                result.converged = true; // stalled at a local optimum
                break;
            }
        }
        if (result.converged)
            break;
    }

    result.timing.total_us = us_since(t_total);
    return result;
}

} // namespace control
} // namespace roboshape
