/**
 * @file
 * Implementation of joint models.
 */

#include "spatial/joint.h"

#include <stdexcept>

namespace roboshape {
namespace spatial {

JointType
joint_type_from_string(std::string_view s)
{
    if (s == "revolute" || s == "continuous")
        return JointType::kRevolute;
    if (s == "prismatic")
        return JointType::kPrismatic;
    if (s == "fixed")
        return JointType::kFixed;
    throw std::invalid_argument("unsupported joint type: " + std::string(s));
}

const char *
to_string(JointType t)
{
    switch (t) {
      case JointType::kRevolute:
        return "revolute";
      case JointType::kPrismatic:
        return "prismatic";
      case JointType::kFixed:
        return "fixed";
    }
    return "?";
}

SpatialTransform
JointModel::transform(double q) const
{
    switch (type_) {
      case JointType::kRevolute:
        return SpatialTransform::rotation(axis_, q);
      case JointType::kPrismatic:
        return SpatialTransform::translation(axis_ * q);
      case JointType::kFixed:
        return SpatialTransform();
    }
    return SpatialTransform();
}

SpatialVector
JointModel::motion_subspace() const
{
    switch (type_) {
      case JointType::kRevolute:
        return {axis_, Vec3::zero()};
      case JointType::kPrismatic:
        return {Vec3::zero(), axis_};
      case JointType::kFixed:
        return SpatialVector::zero();
    }
    return SpatialVector::zero();
}

} // namespace spatial
} // namespace roboshape
