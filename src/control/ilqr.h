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
 * semi-implicit Euler dynamics, quadratic tracking costs, a regularized
 * Riccati backward pass that runs one recursion per limb of the robot,
 * and a backtracking line search.
 */

#ifndef ROBOSHAPE_CONTROL_ILQR_H
#define ROBOSHAPE_CONTROL_ILQR_H

#include <span>
#include <utility>
#include <vector>

#include "linalg/factorization.h"
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
 *
 * Contract: every linearization vanishes off the limb blocks.  Entries
 * of A and B that couple two different limbs of
 * topology::TopologyInfo::limb_spans() (a q or qd row of one limb
 * against a q, qd or u column of another) are exact zeros, as they are
 * for any robot on a fixed base: no dynamic coupling crosses it, so
 * dqdd/dq, dqdd/dqd and M^-1 are block diagonal over the limbs.  The
 * Riccati pass runs one recursion per limb on this premise.
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
     * backend only overrides this to batch the horizon.  Throws
     * std::invalid_argument when the spans differ in length.
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

/** A [begin, end) range of link indices; TopologyInfo::limb_spans()
 *  lists one per limb. */
using LimbSpan = std::pair<std::size_t, std::size_t>;

/**
 * Storage of the Riccati backward pass: one block per limb span, sized
 * for its limb once, so that riccati_backward_pass() allocates nothing.
 */
class RiccatiWorkspace
{
  public:
    /**
     * One block per entry of @p spans, which must tile [0, n) in
     * ascending order (TopologyInfo::limb_spans() does); throws
     * std::invalid_argument otherwise.  The single span [0, n) makes the
     * pass one dense recursion over all links.
     */
    explicit RiccatiWorkspace(std::span<const LimbSpan> spans);

    /** Links n covered by the spans. */
    std::size_t num_links() const { return num_links_; }

  private:
    friend bool riccati_backward_pass(
        const IlqrProblem &problem,
        const std::vector<linalg::Vector> &states,
        const std::vector<linalg::Vector> &controls,
        const std::vector<linalg::Matrix> &a,
        const std::vector<linalg::Matrix> &b, double mu,
        RiccatiWorkspace &ws, std::vector<linalg::Vector> &ff,
        std::vector<linalg::Matrix> &gain);

    /** The recursion of one limb of m links.  Its 2m states are the
     *  limb's q entries, then its qd entries, in ascending global order;
     *  its m controls are its links. */
    struct Limb
    {
        Limb(std::size_t first, std::size_t links);

        std::size_t begin; ///< First link of the limb.
        std::size_t size;  ///< Links m of the limb.
        linalg::Matrix a, b; ///< The limb's blocks of A and B at a knot.
        linalg::Vector vx, qx, qu;
        linalg::Matrix vxx, at_vxx, bt_vxx, qxx, quu, qux;
        /** [Qu | Qux], solved in place into Quu^-1 [Qu | Qux]. */
        linalg::Matrix rhs;
        linalg::Vector ff;   ///< The limb's k.
        linalg::Matrix gain; ///< The limb's K.
        /** Refactorized at every knot; built on the identity so that
         *  its storage is already m x m. */
        linalg::Ldlt quu_ldlt;
    };

    std::vector<Limb> limbs_;
    std::size_t num_links_ = 0;
};

/**
 * Regularized Riccati backward pass over a linearized horizon: from the
 * linearization (@p a[k], @p b[k]) of every knot k at (@p states[k],
 * @p controls[k]), writes its feedforward @p ff[k] and feedback
 * @p gain[k].  Runs one recursion per limb span of @p ws and writes only
 * the in-limb entries of ff and gain; the others keep the caller's
 * values (zeros in solve_ilqr).  Under the DynamicsLinearizer contract
 * every in-limb entry is the one the single span [0, n) computes.
 * False when Quu is not positive definite at some knot under
 * regularization @p mu.  Throws std::invalid_argument when a size does
 * not match the workspace's n links.
 */
bool riccati_backward_pass(const IlqrProblem &problem,
                           const std::vector<linalg::Vector> &states,
                           const std::vector<linalg::Vector> &controls,
                           const std::vector<linalg::Matrix> &a,
                           const std::vector<linalg::Matrix> &b, double mu,
                           RiccatiWorkspace &ws,
                           std::vector<linalg::Vector> &ff,
                           std::vector<linalg::Matrix> &gain);

/**
 * Solves the tracking problem with iLQR.  The number of gradient
 * evaluations is horizon x iterations, one linearize_horizon() call per
 * iteration — the batched coprocessor pattern of paper Sec. 5.2.  The
 * Riccati backward pass runs one recursion per limb of @p topo, in
 * storage allocated once per solve.  Throws std::invalid_argument when
 * q0, qd0 or q_goal do not have one entry per link of @p model, when
 * @p topo describes a robot of another link count, or when dt is not
 * finite and positive.
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
