/**
 * @file
 * Seeded inputs of the three workloads (perfbench/README.md).  Everything
 * here is a pure function of its arguments: the same seed gives the same
 * request bytes, URDFs, control problems and packets.
 */

#ifndef ROBOSHAPE_PERFBENCH_INPUTS_H
#define ROBOSHAPE_PERFBENCH_INPUTS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/sim_engine.h"
#include "control/ilqr.h"
#include "linalg/matrix.h"
#include "topology/robot_library.h"
#include "topology/robot_model.h"
#include "topology/topology_info.h"

namespace roboshape {
namespace perfbench {

// ---- design_cold -------------------------------------------------------

/** Serialized POST /v1/sweep of each of the nine library robots by id
 *  (gradient kernel): design_cold's set-up warm-up, the same on every
 *  seed. */
std::vector<std::string> library_sweep_requests();

/** A robot the service has never seen: one design_cold session's input. */
struct ColdRobot
{
    std::string name;
    std::string shape; ///< chain, star, tree or gantry.
    std::size_t links = 0;
    std::string urdf;
};

/** Session @p index of the run seeded with @p seed (6-32 links). */
ColdRobot cold_robot(std::uint64_t seed, std::uint64_t index);

/** Serialized POST /v1/sweep for @p robot (gradient kernel). */
std::string cold_sweep_request(const ColdRobot &robot);

/** Serialized POST /v1/design for @p robot at one knob triple. */
std::string cold_design_request(const ColdRobot &robot, std::size_t pes_fwd,
                                std::size_t pes_bwd, std::size_t block);

/** Which frontier point session @p index designs (of @p points). */
std::size_t cold_frontier_pick(std::uint64_t seed, std::uint64_t index,
                               std::size_t points);

// ---- ilqr_stream and mpc_batch -------------------------------------------

/** The paper's six robots (Table 3), the fleet of both sim workloads. */
std::vector<topology::RobotId> sim_fleet();

/** Knot points of every ilqr_stream solve. */
inline constexpr std::size_t kIlqrHorizon = 8;
/** Iteration cap of every ilqr_stream solve. */
inline constexpr std::size_t kIlqrIterations = 4;

/** Solve @p index: seeded start and goal for @p model. */
control::IlqrProblem ilqr_problem(const topology::RobotModel &model,
                                  std::uint64_t seed, std::uint64_t index);

/** Packets per mpc_batch call: not a multiple of 4 or 8, so both the
 *  lane groups and the scalar tail run. */
inline constexpr std::size_t kMpcHorizon = 45;

/**
 * One robot's mpc_batch horizon: packets sampled from a seeded smooth
 * trajectory, plus the host-library gradients they must reproduce.
 * Packets point into this object, so it is neither copied nor moved.
 */
struct MpcHorizon
{
    std::vector<linalg::Vector> q, qd, qdd;
    std::vector<linalg::Matrix> minv;
    std::vector<linalg::Matrix> ref_dq, ref_dqd; ///< Oracle gradients.
    std::vector<accel::InputPacket> packets;

    MpcHorizon() = default;
    MpcHorizon(const MpcHorizon &) = delete;
    MpcHorizon &operator=(const MpcHorizon &) = delete;
};

void fill_mpc_horizon(const topology::RobotModel &model,
                      const topology::TopologyInfo &topo, std::uint64_t seed,
                      std::size_t robot, MpcHorizon &out);

} // namespace perfbench
} // namespace roboshape

#endif // ROBOSHAPE_PERFBENCH_INPUTS_H
