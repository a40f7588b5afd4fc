/**
 * @file
 * Implementation of the bundled robot library.
 */

#include "topology/robot_library.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "topology/urdf_parser.h"

namespace roboshape {
namespace topology {

namespace {

using spatial::JointModel;
using spatial::JointType;
using spatial::Mat3;
using spatial::SpatialInertia;
using spatial::SpatialTransform;
using spatial::Vec3;

/** One link of a robot spec, in URDF-equivalent terms. */
struct LinkSpec
{
    std::string name;
    std::string parent; ///< "" = base link.
    Vec3 origin_xyz;    ///< Joint origin in the parent frame.
    Vec3 axis;          ///< Joint axis in the child frame.
    double mass;
    Vec3 com;           ///< Center of mass in the link frame.
    Vec3 inertia_diag;  ///< Principal rotational inertia about the COM.
};

struct RobotSpec
{
    std::string name;
    std::string base_link;
    std::vector<LinkSpec> links;
};

/** Rod-like link inertia: length L along the joint offset direction. */
LinkSpec
rod_link(const std::string &name, const std::string &parent,
         const Vec3 &origin, const Vec3 &axis, double mass, double length)
{
    LinkSpec l;
    l.name = name;
    l.parent = parent;
    l.origin_xyz = origin;
    l.axis = axis;
    l.mass = mass;
    l.com = {0.0, 0.0, length * 0.5};
    const double r = 0.05; // effective rod radius
    const double ixx = mass * (3.0 * r * r + length * length) / 12.0;
    const double izz = mass * r * r / 2.0;
    l.inertia_diag = {ixx, ixx, izz};
    return l;
}

/** Appends a serial chain of @p n links with alternating z/y axes. */
void
append_chain(RobotSpec &spec, const std::string &prefix,
             const std::string &attach_to, const Vec3 &first_origin,
             int n, double mass0, double length)
{
    std::string parent = attach_to;
    for (int i = 0; i < n; ++i) {
        const Vec3 origin =
            i == 0 ? first_origin : Vec3{0.0, 0.0, length};
        const Vec3 axis = (i % 2 == 0) ? Vec3::unit_z() : Vec3::unit_y();
        // Taper masses down the chain for realistic inertia distribution.
        const double mass = mass0 * (1.0 - 0.08 * i);
        const std::string name = prefix + "_link" + std::to_string(i + 1);
        spec.links.push_back(rod_link(name, parent, origin, axis, mass,
                                      length));
        parent = name;
    }
}

/** Appends a 3-link HyQ-style leg (hip abd/add, hip flex/ext, knee). */
void
append_leg(RobotSpec &spec, const std::string &prefix, const Vec3 &hip)
{
    spec.links.push_back(rod_link(prefix + "_haa", "", hip, Vec3::unit_x(),
                                  3.5, 0.08));
    spec.links.push_back(rod_link(prefix + "_hfe", prefix + "_haa",
                                  {0.0, 0.08, 0.0}, Vec3::unit_y(), 4.0,
                                  0.35));
    spec.links.push_back(rod_link(prefix + "_kfe", prefix + "_hfe",
                                  {0.0, 0.0, -0.35}, Vec3::unit_y(), 2.5,
                                  0.33));
}

RobotSpec
iiwa_spec()
{
    RobotSpec spec{"iiwa", "iiwa_base", {}};
    append_chain(spec, "iiwa", "", {0.0, 0.0, 0.15}, 7, 4.0, 0.22);
    return spec;
}

RobotSpec
hyq_spec()
{
    RobotSpec spec{"hyq", "hyq_torso", {}};
    append_leg(spec, "lf", {0.37, 0.21, 0.0});
    append_leg(spec, "rf", {0.37, -0.21, 0.0});
    append_leg(spec, "lh", {-0.37, 0.21, 0.0});
    append_leg(spec, "rh", {-0.37, -0.21, 0.0});
    return spec;
}

RobotSpec
baxter_spec()
{
    RobotSpec spec{"baxter", "baxter_torso", {}};
    spec.links.push_back(rod_link("head_pan", "", {0.06, 0.0, 0.69},
                                  Vec3::unit_z(), 1.8, 0.15));
    append_chain(spec, "left_arm", "", {0.06, 0.26, 0.55}, 7, 3.5, 0.2);
    append_chain(spec, "right_arm", "", {0.06, -0.26, 0.55}, 7, 3.5, 0.2);
    return spec;
}

/** 6-link Jaco arm plus @p fingers 3-link fingers on the last arm link. */
RobotSpec
jaco_spec(int fingers)
{
    RobotSpec spec{"jaco" + std::to_string(fingers), "jaco_base", {}};
    append_chain(spec, "arm", "", {0.0, 0.0, 0.16}, 6, 1.8, 0.18);
    for (int f = 0; f < fingers; ++f) {
        const double y = 0.03 * (f - (fingers - 1) * 0.5);
        append_chain(spec, "finger" + std::to_string(f + 1), "arm_link6",
                     {0.02, y, 0.1}, 3, 0.12, 0.03);
    }
    return spec;
}

RobotSpec
bittle_spec()
{
    RobotSpec spec{"bittle", "bittle_body", {}};
    const double x = 0.05, y = 0.04;
    const char *names[4] = {"lf", "rf", "lh", "rh"};
    const double xs[4] = {x, x, -x, -x};
    const double ys[4] = {y, -y, y, -y};
    for (int l = 0; l < 4; ++l) {
        const std::string shoulder = std::string(names[l]) + "_shoulder";
        spec.links.push_back(rod_link(shoulder, "", {xs[l], ys[l], 0.0},
                                      Vec3::unit_y(), 0.04, 0.045));
        spec.links.push_back(rod_link(std::string(names[l]) + "_knee",
                                      shoulder, {0.0, 0.0, -0.045},
                                      Vec3::unit_y(), 0.02, 0.045));
    }
    return spec;
}

RobotSpec
pepper_spec()
{
    RobotSpec spec{"pepper", "pepper_base", {}};
    // Hip column of 2 pitch/roll links topped by a knee-ish joint.
    append_chain(spec, "hip", "", {0.0, 0.0, 0.3}, 3, 6.0, 0.25);
    spec.links.push_back(rod_link("head_yaw", "hip_link3",
                                  {0.0, 0.0, 0.3}, Vec3::unit_z(), 1.2,
                                  0.1));
    spec.links.push_back(rod_link("head_pitch", "head_yaw",
                                  {0.0, 0.0, 0.1}, Vec3::unit_y(), 0.8,
                                  0.1));
    append_chain(spec, "left_arm", "hip_link3", {0.0, 0.15, 0.25}, 5, 1.2,
                 0.15);
    append_chain(spec, "right_arm", "hip_link3", {0.0, -0.15, 0.25}, 5,
                 1.2, 0.15);
    return spec;
}

RobotSpec
humanoid_spec()
{
    RobotSpec spec{"humanoid", "humanoid_pelvis", {}};
    append_chain(spec, "left_leg", "", {0.0, 0.1, -0.05}, 6, 4.0, 0.16);
    append_chain(spec, "right_leg", "", {0.0, -0.1, -0.05}, 6, 4.0, 0.16);
    append_chain(spec, "left_arm", "", {0.0, 0.25, 0.45}, 7, 2.2, 0.13);
    append_chain(spec, "right_arm", "", {0.0, -0.25, 0.45}, 7, 2.2, 0.13);
    spec.links.push_back(rod_link("head", "", {0.0, 0.0, 0.55},
                                  Vec3::unit_z(), 3.0, 0.15));
    return spec;
}

RobotSpec
hyq_with_arm_spec()
{
    RobotSpec spec = hyq_spec();
    spec.name = "hyq_arm";
    append_chain(spec, "arm", "", {0.45, 0.0, 0.12}, 7, 3.0, 0.2);
    return spec;
}

RobotSpec
spec_for(RobotId id)
{
    switch (id) {
      case RobotId::kIiwa:
        return iiwa_spec();
      case RobotId::kHyq:
        return hyq_spec();
      case RobotId::kBaxter:
        return baxter_spec();
      case RobotId::kJaco2:
        return jaco_spec(2);
      case RobotId::kJaco3:
        return jaco_spec(3);
      case RobotId::kHyqWithArm:
        return hyq_with_arm_spec();
      case RobotId::kBittle:
        return bittle_spec();
      case RobotId::kPepper:
        return pepper_spec();
      case RobotId::kHumanoid:
        return humanoid_spec();
    }
    throw std::invalid_argument("unknown robot id");
}

} // namespace

const std::vector<RobotId> &
all_robots()
{
    static const std::vector<RobotId> kAll{
        RobotId::kIiwa,  RobotId::kHyq,   RobotId::kBaxter,
        RobotId::kJaco2, RobotId::kJaco3, RobotId::kHyqWithArm};
    return kAll;
}

const std::vector<RobotId> &
extended_robots()
{
    static const std::vector<RobotId> kExtended{
        RobotId::kBittle, RobotId::kPepper, RobotId::kHumanoid};
    return kExtended;
}

std::optional<RobotId>
find_robot(std::string_view name)
{
    const auto matches = [name](std::string_view candidate) {
        return std::equal(candidate.begin(), candidate.end(), name.begin(),
                          name.end(), [](unsigned char a, unsigned char b) {
                              return std::tolower(a) == std::tolower(b);
                          });
    };
    for (const std::vector<RobotId> *ids :
         {&all_robots(), &extended_robots()})
        for (const RobotId id : *ids)
            if (matches(robot_name(id)))
                return id;
    return std::nullopt;
}

const std::vector<RobotId> &
shipped_robots()
{
    static const std::vector<RobotId> kShipped{
        RobotId::kIiwa, RobotId::kHyq, RobotId::kBaxter};
    return kShipped;
}

const char *
robot_name(RobotId id)
{
    switch (id) {
      case RobotId::kIiwa:
        return "iiwa";
      case RobotId::kHyq:
        return "HyQ";
      case RobotId::kBaxter:
        return "Baxter";
      case RobotId::kJaco2:
        return "Jaco-2";
      case RobotId::kJaco3:
        return "Jaco-3";
      case RobotId::kHyqWithArm:
        return "HyQ+arm";
      case RobotId::kBittle:
        return "Bittle";
      case RobotId::kPepper:
        return "Pepper";
      case RobotId::kHumanoid:
        return "humanoid";
    }
    return "?";
}

RobotModel
build_robot(RobotId id)
{
    const RobotSpec spec = spec_for(id);
    RobotModelBuilder builder(spec.name);
    for (const LinkSpec &l : spec.links) {
        Mat3 ic;
        ic(0, 0) = l.inertia_diag.x;
        ic(1, 1) = l.inertia_diag.y;
        ic(2, 2) = l.inertia_diag.z;
        builder.add_link(
            l.name, l.parent, JointModel(JointType::kRevolute, l.axis),
            SpatialTransform::translation(l.origin_xyz),
            SpatialInertia::from_mass_com_inertia(l.mass, l.com, ic));
    }
    return builder.finalize();
}

std::string
robot_urdf(RobotId id)
{
    const RobotSpec spec = spec_for(id);
    std::ostringstream os;
    os.precision(12);
    os << "<?xml version=\"1.0\"?>\n";
    os << "<robot name=\"" << spec.name << "\">\n";
    os << "  <link name=\"" << spec.base_link << "\"/>\n";
    for (const LinkSpec &l : spec.links) {
        os << "  <link name=\"" << l.name << "\">\n"
           << "    <inertial>\n"
           << "      <origin xyz=\"" << l.com.x << " " << l.com.y << " "
           << l.com.z << "\" rpy=\"0 0 0\"/>\n"
           << "      <mass value=\"" << l.mass << "\"/>\n"
           << "      <inertia ixx=\"" << l.inertia_diag.x << "\" ixy=\"0\""
           << " ixz=\"0\" iyy=\"" << l.inertia_diag.y << "\" iyz=\"0\""
           << " izz=\"" << l.inertia_diag.z << "\"/>\n"
           << "    </inertial>\n"
           << "  </link>\n";
        const std::string parent =
            l.parent.empty() ? spec.base_link : l.parent;
        os << "  <joint name=\"" << l.name << "_joint\" type=\"revolute\">\n"
           << "    <parent link=\"" << parent << "\"/>\n"
           << "    <child link=\"" << l.name << "\"/>\n"
           << "    <origin xyz=\"" << l.origin_xyz.x << " " << l.origin_xyz.y
           << " " << l.origin_xyz.z << "\" rpy=\"0 0 0\"/>\n"
           << "    <axis xyz=\"" << l.axis.x << " " << l.axis.y << " "
           << l.axis.z << "\"/>\n"
           << "    <limit lower=\"-3.1\" upper=\"3.1\" effort=\"100\""
           << " velocity=\"3\"/>\n"
           << "  </joint>\n";
    }
    os << "</robot>\n";
    return os.str();
}

std::vector<NamedUrdf>
all_robot_urdfs()
{
    std::vector<NamedUrdf> out;
    std::vector<RobotId> everything = all_robots();
    everything.insert(everything.end(), extended_robots().begin(),
                      extended_robots().end());
    for (RobotId id : everything)
        out.push_back({spec_for(id).name, robot_urdf(id)});
    return out;
}

std::vector<std::string>
write_urdf_files(const std::string &directory)
{
    std::vector<std::string> paths;
    std::vector<RobotId> everything = all_robots();
    everything.insert(everything.end(), extended_robots().begin(),
                      extended_robots().end());
    for (RobotId id : everything) {
        const RobotSpec spec = spec_for(id);
        const std::string path = directory + "/" + spec.name + ".urdf";
        std::ofstream out(path);
        if (!out)
            throw std::runtime_error("cannot write " + path);
        out << robot_urdf(id);
        paths.push_back(path);
    }
    return paths;
}

} // namespace topology
} // namespace roboshape
