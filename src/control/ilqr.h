/**
 * @file
 * Iterative LQR trajectory optimization — the paper's motivating workload.
 *
 * Nonlinear optimal motion control (DDP/iLQR-family solvers [7, 30, 33,
 * 43]) linearizes the robot dynamics at every knot point of a trajectory,
 * every solver iteration; the paper's Sec. 1 motivation is that these
 * forward-dynamics-gradient evaluations consume 30-90% of total solver
 * runtime and block online whole-body control for legged robots.  This
 * module implements the solver so the repository can *measure* that
 * bottleneck on its own dynamics substrate (bench/control_bottleneck) and
 * demonstrate what the accelerator buys end to end.
 *
 * Discrete-time formulation with state x = [q; qd], control u = tau,
 * semi-implicit Euler dynamics, quadratic tracking costs, regularized
 * Riccati backward pass, and a backtracking line search.
 */

#ifndef ROBOSHAPE_CONTROL_ILQR_H
#define ROBOSHAPE_CONTROL_ILQR_H

#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "topology/robot_model.h"
#include "topology/topology_info.h"

namespace roboshape {
namespace control {

/** Quadratic tracking objective. */
struct IlqrProblem
{
    linalg::Vector q0;      ///< Initial joint positions.
    linalg::Vector qd0;     ///< Initial joint velocities.
    linalg::Vector q_goal;  ///< Target joint positions.
    std::size_t horizon = 16; ///< Knot points T.
    double dt = 0.01;       ///< Integration step [s].

    double w_q = 10.0;        ///< Running position weight.
    double w_qd = 0.1;        ///< Running velocity weight.
    double w_u = 1e-4;        ///< Control effort weight.
    double w_terminal = 400.0; ///< Terminal position weight.
};

/**
 * Pluggable backend for the discrete linearization x' ~ A x + B u.
 *
 * The solver calls linearize_horizon() once per iteration with every knot
 * point of the trajectory — the batched coprocessor pattern of paper
 * Sec. 5.2.  The default (a null linearizer in IlqrOptions) evaluates
 * dynamics::forward_dynamics_gradients on the host;
 * control::AcceleratorLinearizer routes the same evaluation through the
 * compiled accelerator simulation engine.
 */
class DynamicsLinearizer
{
  public:
    virtual ~DynamicsLinearizer() = default;

    /**
     * Writes the discrete-time linearization of the dynamics at state
     * @p x = [q; qd] and control @p u under a semi-implicit Euler step of
     * @p dt into @p a (2n x 2n) and @p b (2n x n).
     */
    virtual void linearize(const linalg::Vector &x, const linalg::Vector &u,
                           double dt, linalg::Matrix &a,
                           linalg::Matrix &b) = 0;

    /**
     * Linearizes every knot k of a horizon at (@p states[k],
     * @p controls[k]) into @p a[k] and @p b[k]; all four spans have one
     * entry per knot.  The default calls linearize() knot by knot, so a
     * backend only overrides this to batch the horizon.
     */
    virtual void linearize_horizon(std::span<const linalg::Vector> states,
                                   std::span<const linalg::Vector> controls,
                                   double dt, std::span<linalg::Matrix> a,
                                   std::span<linalg::Matrix> b);
};

/**
 * Writes the semi-implicit Euler linearization (qd' = qd + dt qdd,
 * q' = q + dt qd') of the continuous forward-dynamics gradients
 * @p dqdd_dq, @p dqdd_dqd and @p mass_inv (= dqdd/dtau) into @p a
 * (2n x 2n) and @p b (2n x n) — the A/B assembly every DynamicsLinearizer
 * shares.
 */
void discretize_gradients(const linalg::Matrix &dqdd_dq,
                          const linalg::Matrix &dqdd_dqd,
                          const linalg::Matrix &mass_inv, double dt,
                          linalg::Matrix &a, linalg::Matrix &b);

struct IlqrOptions
{
    std::size_t max_iterations = 50;
    double cost_tolerance = 1e-6; ///< Relative improvement to stop at.
    double regularization = 1e-6; ///< Initial Riccati regularization.
    std::size_t max_line_search = 8;
    /** Linearization backend; null = host dynamics gradients (not owned,
     *  must outlive the solve). */
    DynamicsLinearizer *linearizer = nullptr;
};

/** Wall-time breakdown of one solve (microseconds). */
struct IlqrTiming
{
    double total_us = 0.0;
    double linearization_us = 0.0; ///< Forward-dynamics gradients.
    double backward_pass_us = 0.0;
    double rollout_us = 0.0;

    /** Fraction of solver time in dynamics gradients (paper Sec. 1:
     *  30-90%). */
    double
    gradient_fraction() const
    {
        return total_us > 0.0 ? linearization_us / total_us : 0.0;
    }
};

struct IlqrResult
{
    bool converged = false;
    std::size_t iterations = 0;
    std::vector<double> cost_history; ///< Cost after each iteration.
    /** Optimized state trajectory, horizon+1 entries of [q; qd]. */
    std::vector<linalg::Vector> states;
    /** Optimized control trajectory, horizon entries. */
    std::vector<linalg::Vector> controls;
    IlqrTiming timing;

    double final_cost() const
    {
        return cost_history.empty() ? 0.0 : cost_history.back();
    }
};

/**
 * Solves the tracking problem with iLQR.  The number of gradient
 * evaluations is horizon x iterations, one linearize_horizon() call per
 * iteration — the batched coprocessor pattern of paper Sec. 5.2.  The
 * Riccati backward pass runs in storage allocated once per solve.
 */
IlqrResult solve_ilqr(const topology::RobotModel &model,
                      const topology::TopologyInfo &topo,
                      const IlqrProblem &problem,
                      const IlqrOptions &options = {});

/** Trajectory cost of (states, controls) under @p problem. */
double trajectory_cost(const IlqrProblem &problem,
                       const std::vector<linalg::Vector> &states,
                       const std::vector<linalg::Vector> &controls);

} // namespace control
} // namespace roboshape

#endif // ROBOSHAPE_CONTROL_ILQR_H
