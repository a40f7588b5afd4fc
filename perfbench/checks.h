/**
 * @file
 * Output checks of the three workloads (perfbench/README.md).  Each check
 * returns an empty string on success and a one-line reason otherwise.
 * The oracle is the host library (DesignSpace, the host linearizer,
 * dynamics::forward_dynamics_gradients), never a second copy of the
 * code under test.
 */

#ifndef ROBOSHAPE_PERFBENCH_CHECKS_H
#define ROBOSHAPE_PERFBENCH_CHECKS_H

#include <cstddef>
#include <string>
#include <vector>

#include "accel/sim_engine.h"
#include "control/ilqr.h"
#include "linalg/matrix.h"
#include "topology/robot_model.h"

namespace roboshape {
namespace perfbench {

/** Gradient tolerance against the host library (the test_accel bound). */
inline constexpr double kGradientTolerance = 1e-10;
/** Relative final-cost tolerance of an iLQR solve against the host. */
inline constexpr double kCostTolerance = 1e-9;

/** One point of a sweep response's Pareto frontier. */
struct FrontierPoint
{
    std::size_t pes_fwd = 0, pes_bwd = 0, block_size = 0;
    std::int64_t cycles = 0, luts = 0, dsps = 0;
};

/** The "pareto" array of a /v1/sweep body; false when malformed. */
bool parse_frontier(const std::string &sweep_body,
                    std::vector<FrontierPoint> &out);

/**
 * design_cold: @p got, the frontier a sweep returned, equals
 * core::DesignSpace::pareto_frontier for @p model (gradient kernel).
 */
std::string check_cold_frontier(const std::vector<FrontierPoint> &got,
                                const topology::RobotModel &model);

/** What a /v1/design body is checked on: its knobs and cycle count. */
struct DesignSummary
{
    std::size_t pes_fwd = 0, pes_bwd = 0, block_size = 0;
    std::int64_t cycles = 0;
};

/** The params and no-pipelining cycles of a /v1/design body; false when
 *  malformed. */
bool parse_design(const std::string &design_body, DesignSummary &out);

/** design_cold: the design is the chosen frontier point, at its cycles. */
std::string check_cold_design(const DesignSummary &got,
                              const FrontierPoint &chosen);

/** What an iLQR solve is checked on. */
struct SolveSummary
{
    std::size_t iterations = 0;
    double final_cost = 0.0;
};

/** ilqr_stream: same iteration count, final cost within kCostTolerance. */
std::string check_solve(const SolveSummary &got, const SolveSummary &host);

/** mpc_batch: both gradients within kGradientTolerance of the oracle. */
std::string check_gradients(const accel::EngineResult &got,
                            const linalg::Matrix &ref_dq,
                            const linalg::Matrix &ref_dqd);

} // namespace perfbench
} // namespace roboshape

#endif // ROBOSHAPE_PERFBENCH_CHECKS_H
