/**
 * @file
 * Bundled models of the paper's six evaluation robots (Fig. 11).
 *
 * Each robot is defined once as a parametric spec and can be realized either
 * as a RobotModel directly or as URDF text (exercising the parser path that
 * real deployments use).  Topologies exactly match the paper's Table 3
 * reconstruction; masses, lengths, and inertias are plausible placeholders —
 * they feed the verified numerical dataflow but do not affect schedules,
 * cycle counts, or resource numbers (see DESIGN.md, substitutions).
 */

#ifndef ROBOSHAPE_TOPOLOGY_ROBOT_LIBRARY_H
#define ROBOSHAPE_TOPOLOGY_ROBOT_LIBRARY_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "topology/robot_model.h"

namespace roboshape {
namespace topology {

/**
 * The six robots evaluated in the paper (Fig. 11 / Table 3), plus the
 * extended fleet from the paper's deployment-diversity figure (Fig. 1:
 * e.g. Bittle [42], Pepper [40], humanoids [46, 50]).
 */
enum class RobotId
{
    kIiwa,        ///< KUKA LBR iiwa manipulator: 7-link serial chain.
    kHyq,         ///< IIT HyQ quadruped: 4 independent 3-link legs.
    kBaxter,      ///< Baxter torso: 1-link head + two 7-link arms.
    kJaco2,       ///< Kinova Jaco, 2 fingers: 6-link arm + 2x3-link fingers.
    kJaco3,       ///< Kinova Jaco, 3 fingers: 6-link arm + 3x3-link fingers.
    kHyqWithArm,  ///< HyQ quadruped carrying a 7-link arm (19 links).
    kBittle,      ///< Petoi Bittle palm-size quadruped: 4 x 2-link legs.
    kPepper,      ///< Pepper-like social humanoid torso: 2-link head +
                  ///< two 5-link arms + 3-link hip column (15 links).
    kHumanoid,    ///< Full humanoid: two 6-link legs, two 7-link arms,
                  ///< 1-link head (27 links).
};

/** The six robots of the paper's Table 3, in column order. */
const std::vector<RobotId> &all_robots();

/** The extended fleet (Fig. 1 diversity): Bittle, Pepper, humanoid. */
const std::vector<RobotId> &extended_robots();

/** Robot display name ("iiwa", "HyQ", ...). */
const char *robot_name(RobotId id);

/** Case-insensitive lookup of a display name ("IIWA", "hyq+ARM") over the
 *  paper's six robots and the extended fleet; nullopt when none matches. */
std::optional<RobotId> find_robot(std::string_view name);

/** The three robots with shipped FPGA designs (Table 2 / Fig. 9). */
const std::vector<RobotId> &shipped_robots();

/** Builds the kinematic tree programmatically. */
RobotModel build_robot(RobotId id);

/** Emits the robot as URDF text (round-trips through parse_urdf). */
std::string robot_urdf(RobotId id);

/** One named URDF document, e.g. a fuzz/validation seed. */
struct NamedUrdf
{
    std::string name;
    std::string text;
};

/**
 * Name + URDF text for every bundled robot (the paper's six plus the
 * extended fleet).  These are the well-formed seeds the fault-injection
 * harness mutates; each must parse cleanly in both strict and report mode.
 */
std::vector<NamedUrdf> all_robot_urdfs();

/**
 * Writes `<name>.urdf` for every bundled robot into @p directory.
 * @return the file paths written.
 */
std::vector<std::string> write_urdf_files(const std::string &directory);

} // namespace topology
} // namespace roboshape

#endif // ROBOSHAPE_TOPOLOGY_ROBOT_LIBRARY_H
