#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "dynamics/crba.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/rnea.h"
#include "net/http.h"
#include "obs/json.h"

namespace roboshape {
namespace perfbench {

namespace {

// Independent seed streams, one per kind of input.
constexpr std::uint64_t kStreamColdRobot = 2;
constexpr std::uint64_t kStreamColdPick = 3;
constexpr std::uint64_t kStreamIlqr = 4;
constexpr std::uint64_t kStreamMpc = 5;
constexpr std::uint64_t kStreamColdMix = 6;

/** Fractional part of the golden ratio: the step of the Kronecker
 *  sequence cold robots draw their sizes from. */
constexpr double kGoldenStep = 0.6180339887498949;

std::string
serialize_post(const std::string &target, std::string body)
{
    net::HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = std::move(body);
    return net::serialize_request(request);
}

/** Shortest exact decimal of @p v, so URDF text round-trips. */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct LinkSpec
{
    int parent = -1; ///< Index into the link list; -1 = base.
    bool prismatic = false;
    int axis = 2; ///< 0 = x, 1 = y, 2 = z.
    double ox = 0.0, oy = 0.0, oz = 0.0;
    double mass = 1.0;
    double com_z = 0.0;
    double ixx = 0.0, izz = 0.0; ///< iyy == ixx keeps the moments valid.
};

/** Rod-like link of length @p len with seeded mass and inertia. */
LinkSpec
rod(Rng &rng, int parent, int axis, double len, double mass)
{
    LinkSpec l;
    l.parent = parent;
    l.axis = axis;
    l.oz = len;
    l.mass = mass * rng.uniform(0.8, 1.2);
    const double r = 0.2 * len + 1e-3;
    l.ixx = l.mass * (3.0 * r * r + len * len) / 12.0 *
            rng.uniform(0.85, 1.15);
    l.izz = l.mass * r * r / 2.0 * rng.uniform(0.85, 1.15);
    l.com_z = 0.5 * len * rng.uniform(0.9, 1.1);
    return l;
}

std::string
render_urdf(const std::string &name, const std::vector<LinkSpec> &links)
{
    static const char *const kAxis[3] = {"1 0 0", "0 1 0", "0 0 1"};
    std::string out = "<?xml version=\"1.0\"?>\n<robot name=\"" + name +
                      "\">\n  <link name=\"base\"/>\n";
    for (std::size_t i = 0; i < links.size(); ++i) {
        const LinkSpec &l = links[i];
        const std::string link = "l" + std::to_string(i);
        out += "  <link name=\"" + link + "\">\n    <inertial>\n" +
               "      <origin xyz=\"0 0 " + num(l.com_z) +
               "\" rpy=\"0 0 0\"/>\n      <mass value=\"" + num(l.mass) +
               "\"/>\n      <inertia ixx=\"" + num(l.ixx) +
               "\" ixy=\"0\" ixz=\"0\" iyy=\"" + num(l.ixx) +
               "\" iyz=\"0\" izz=\"" + num(l.izz) +
               "\"/>\n    </inertial>\n  </link>\n";
        const std::string parent =
            l.parent < 0 ? "base" : "l" + std::to_string(l.parent);
        out += "  <joint name=\"j" + std::to_string(i) + "\" type=\"" +
               (l.prismatic ? "prismatic" : "revolute") +
               "\">\n    <parent link=\"" + parent +
               "\"/>\n    <child link=\"" + link +
               "\"/>\n    <origin xyz=\"" + num(l.ox) + " " + num(l.oy) +
               " " + num(l.oz) + "\" rpy=\"0 0 0\"/>\n    <axis xyz=\"" +
               kAxis[l.axis] +
               "\"/>\n    <limit lower=\"-3.1\" upper=\"3.1\" "
               "effort=\"100\" velocity=\"3\"/>\n  </joint>\n";
    }
    out += "</robot>\n";
    return out;
}

} // namespace

std::vector<std::string>
library_sweep_requests()
{
    std::vector<topology::RobotId> robots = topology::all_robots();
    for (topology::RobotId id : topology::extended_robots())
        robots.push_back(id);
    std::vector<std::string> out;
    for (topology::RobotId id : robots) {
        obs::JsonWriter w;
        w.begin_object();
        w.kv("robot", topology::robot_name(id));
        w.kv("kernel", "gradient");
        w.end_object();
        out.push_back(serialize_post("/v1/sweep", w.str()));
    }
    return out;
}

ColdRobot
cold_robot(std::uint64_t seed, std::uint64_t index)
{
    Rng rng(derive_seed(seed, kStreamColdRobot, index));
    // Shape and size follow the session index through a low-discrepancy
    // sequence offset by the seed: the shapes take turns and the sizes
    // cover their range evenly in any run of sessions, so a run's mix of
    // robots, and with it its p50, depends little on the seed.  The seed
    // still sets which session gets which robot and every inertia.
    const std::uint64_t mix = derive_seed(seed, kStreamColdMix);
    const double u = std::fmod(
        static_cast<double>(mix >> 11) * 0x1.0p-53 +
            static_cast<double>(index) * kGoldenStep,
        1.0);
    const auto size = [u](std::size_t lo, std::size_t hi) {
        const double span = static_cast<double>(hi - lo + 1);
        return lo + std::min(hi - lo, static_cast<std::size_t>(u * span));
    };
    std::vector<LinkSpec> links;
    ColdRobot out;
    switch ((mix + index) % 4) {
      case 0: { // serial chain
        out.shape = "chain";
        const std::size_t n = size(6, 32);
        for (std::size_t i = 0; i < n; ++i)
            links.push_back(rod(rng, static_cast<int>(i) - 1,
                                i % 2 == 0 ? 2 : 1, 0.12, 1.2));
        break;
      }
      case 1: { // star of identical-length limbs
        out.shape = "star";
        const std::size_t limbs = rng.between(2, 6);
        const std::size_t per = size((6 + limbs - 1) / limbs, 32 / limbs);
        for (std::size_t l = 0; l < limbs; ++l)
            for (std::size_t k = 0; k < per; ++k) {
                const int parent =
                    k == 0 ? -1 : static_cast<int>(links.size()) - 1;
                LinkSpec s = rod(rng, parent, k % 2 == 0 ? 1 : 0, 0.1, 0.8);
                if (k == 0) {
                    const double a = 6.283185307179586 *
                                     static_cast<double>(l) /
                                     static_cast<double>(limbs);
                    s.ox = 0.3 * std::cos(a);
                    s.oy = 0.3 * std::sin(a);
                    s.oz = 0.0;
                }
                links.push_back(s);
            }
        break;
      }
      case 2: { // complete b-ary branching tree in breadth-first order
        out.shape = "tree";
        const std::size_t b = rng.between(2, 3);
        const std::size_t n = size(6, 32);
        for (std::size_t i = 0; i < n; ++i) {
            const int parent = i == 0 ? -1 : static_cast<int>((i - 1) / b);
            LinkSpec s = rod(rng, parent, i % 3 == 0 ? 2 : 1, 0.2, 0.5);
            s.ox = 0.05 * (static_cast<double>(i % b) -
                           static_cast<double>(b - 1) / 2.0);
            links.push_back(s);
        }
        break;
      }
      default: { // gantry: three prismatic stages, then a revolute wrist
        out.shape = "gantry";
        for (int axis = 0; axis < 3; ++axis) {
            LinkSpec s = rod(rng, axis - 1, axis, 0.3, 6.0);
            s.prismatic = true;
            links.push_back(s);
        }
        const std::size_t wrist = size(3, 29);
        for (std::size_t i = 0; i < wrist; ++i)
            links.push_back(rod(rng, static_cast<int>(links.size()) - 1,
                                i % 2 == 0 ? 2 : 1, 0.08, 0.6));
        break;
      }
    }
    out.links = links.size();
    out.name = "cold_" + std::to_string(seed) + "_" + std::to_string(index) +
               "_" + out.shape;
    out.urdf = render_urdf(out.name, links);
    return out;
}

std::string
cold_sweep_request(const ColdRobot &robot)
{
    obs::JsonWriter w;
    w.begin_object();
    w.kv("urdf", robot.urdf);
    w.kv("kernel", "gradient");
    w.end_object();
    return serialize_post("/v1/sweep", w.str());
}

std::string
cold_design_request(const ColdRobot &robot, std::size_t pes_fwd,
                    std::size_t pes_bwd, std::size_t block)
{
    obs::JsonWriter w;
    w.begin_object();
    w.kv("urdf", robot.urdf);
    w.kv("kernel", "gradient");
    w.kv("max_pes_fwd", static_cast<std::uint64_t>(pes_fwd));
    w.kv("max_pes_bwd", static_cast<std::uint64_t>(pes_bwd));
    w.kv("max_block_size", static_cast<std::uint64_t>(block));
    w.end_object();
    return serialize_post("/v1/design", w.str());
}

std::size_t
cold_frontier_pick(std::uint64_t seed, std::uint64_t index,
                   std::size_t points)
{
    return points == 0 ? 0
                       : static_cast<std::size_t>(
                             derive_seed(seed, kStreamColdPick, index) %
                             points);
}

std::vector<topology::RobotId>
sim_fleet()
{
    return topology::all_robots();
}

control::IlqrProblem
ilqr_problem(const topology::RobotModel &model, std::uint64_t seed,
             std::uint64_t index)
{
    const std::size_t n = model.num_links();
    Rng rng(derive_seed(seed, kStreamIlqr, index));
    control::IlqrProblem p;
    p.q0 = linalg::Vector(n);
    p.qd0 = linalg::Vector(n);
    p.q_goal = linalg::Vector(n);
    for (std::size_t i = 0; i < n; ++i) {
        p.q0[i] = rng.uniform(-0.4, 0.4);
        p.qd0[i] = rng.uniform(-0.2, 0.2);
        p.q_goal[i] = p.q0[i] + rng.uniform(-0.5, 0.5);
    }
    p.horizon = kIlqrHorizon;
    return p;
}

void
fill_mpc_horizon(const topology::RobotModel &model,
                 const topology::TopologyInfo &topo, std::uint64_t seed,
                 std::size_t robot, MpcHorizon &out)
{
    const std::size_t n = model.num_links();
    Rng rng(derive_seed(seed, kStreamMpc, robot));
    std::vector<double> amp(n), freq(n), phase(n);
    for (std::size_t j = 0; j < n; ++j) {
        amp[j] = rng.uniform(0.2, 0.6);
        freq[j] = rng.uniform(0.5, 2.0);
        phase[j] = rng.uniform(0.0, 6.283185307179586);
    }
    out.q.assign(kMpcHorizon, linalg::Vector(n));
    out.qd.assign(kMpcHorizon, linalg::Vector(n));
    out.qdd.assign(kMpcHorizon, linalg::Vector(n));
    out.minv.assign(kMpcHorizon, linalg::Matrix());
    out.ref_dq.assign(kMpcHorizon, linalg::Matrix());
    out.ref_dqd.assign(kMpcHorizon, linalg::Matrix());
    for (std::size_t k = 0; k < kMpcHorizon; ++k) {
        const double t = 0.02 * static_cast<double>(k);
        linalg::Vector qdd_traj(n);
        for (std::size_t j = 0; j < n; ++j) {
            const double arg = freq[j] * t + phase[j];
            out.q[k][j] = amp[j] * std::sin(arg);
            out.qd[k][j] = amp[j] * freq[j] * std::cos(arg);
            qdd_traj[j] = -amp[j] * freq[j] * freq[j] * std::sin(arg);
        }
        const linalg::Vector tau =
            dynamics::crba(model, out.q[k]) * qdd_traj +
            dynamics::bias_forces(model, out.q[k], out.qd[k]);
        const dynamics::ForwardDynamicsGradients ref =
            dynamics::forward_dynamics_gradients(model, topo, out.q[k],
                                                 out.qd[k], tau);
        out.qdd[k] = ref.qdd;
        out.minv[k] = ref.mass_inv;
        out.ref_dq[k] = ref.dqdd_dq;
        out.ref_dqd[k] = ref.dqdd_dqd;
    }
    out.packets.clear();
    for (std::size_t k = 0; k < kMpcHorizon; ++k)
        out.packets.push_back(accel::InputPacket{
            &out.q[k], &out.qd[k], &out.qdd[k], &out.minv[k]});
}

} // namespace perfbench
} // namespace roboshape
