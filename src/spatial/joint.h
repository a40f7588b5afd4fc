/**
 * @file
 * Joint models.
 *
 * Each joint contributes a configuration-dependent transform X_J(q) and a
 * constant motion subspace S (the free mode of the joint, paper Sec. 2).
 * Robomorphic processing elements exploit the sparsity of S per joint type
 * [32]; the library supports the single-degree-of-freedom joints that the
 * paper's robots use (revolute and prismatic) plus fixed joints.
 */

#ifndef ROBOSHAPE_SPATIAL_JOINT_H
#define ROBOSHAPE_SPATIAL_JOINT_H

#include <string>
#include <string_view>

#include "spatial/spatial_transform.h"
#include "spatial/spatial_vector.h"

namespace roboshape {
namespace spatial {

enum class JointType
{
    kRevolute,
    kPrismatic,
    kFixed,
};

/** Parses "revolute" / "continuous" / "prismatic" / "fixed". */
JointType joint_type_from_string(std::string_view s);

/** Human-readable joint-type name. */
const char *to_string(JointType t);

/**
 * Single-degree-of-freedom joint model.
 */
class JointModel
{
  public:
    JointModel() : type_(JointType::kFixed) {}

    JointModel(JointType type, const Vec3 &axis)
        : type_(type), axis_(type == JointType::kFixed ? Vec3::zero()
                                                       : axis.normalized())
    {
    }

    JointType type() const { return type_; }
    const Vec3 &axis() const { return axis_; }

    /** Number of degrees of freedom (1, or 0 for fixed joints). */
    int dof() const { return type_ == JointType::kFixed ? 0 : 1; }

    /** Joint transform X_J(q): predecessor frame -> successor frame. */
    SpatialTransform transform(double q) const;

    /** Motion subspace S such that v_J = S * qdot. */
    SpatialVector motion_subspace() const;

  private:
    JointType type_;
    Vec3 axis_;
};

} // namespace spatial
} // namespace roboshape

#endif // ROBOSHAPE_SPATIAL_JOINT_H
