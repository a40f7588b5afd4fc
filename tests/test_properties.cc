/**
 * @file
 * Cross-module property and integration tests: invariants that tie two or
 * more subsystems together, plus edge cases not covered by the per-module
 * suites.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/power_model.h"
#include "dynamics/aba.h"
#include "dynamics/crba.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/finite_diff.h"
#include "dynamics/rnea.h"
#include "dynamics/kinematics.h"
#include "dynamics/robot_state.h"
#include "io/link_model.h"
#include "io/payload.h"
#include "linalg/factorization.h"
#include "linalg/random.h"
#include "sched/task_graph.h"
#include "topology/parametric_robots.h"
#include "topology/robot_library.h"
#include "topology/urdf_parser.h"
#include "topology/xml.h"

namespace roboshape {
namespace {

using linalg::Matrix;
using linalg::Vector;
using topology::RobotId;
using topology::RobotModel;
using topology::TopologyInfo;

// ----------------------------------------------------------- linalg ----

TEST(LinalgProperties, LdltSolvesEveryRobotMassMatrix)
{
    for (RobotId id : topology::all_robots()) {
        const RobotModel m = topology::build_robot(id);
        for (std::uint32_t seed = 0; seed < 4; ++seed) {
            const auto s = dynamics::random_state(m, 100 + seed);
            const Matrix h = dynamics::crba(m, s.q);
            const linalg::Ldlt f(h);
            ASSERT_TRUE(f.ok());
            const Vector x = f.solve(s.tau);
            EXPECT_LT(linalg::max_abs_diff(h * x, s.tau), 1e-8);
        }
    }
}

TEST(LinalgProperties, LuDeterminantMatchesPivotSigns)
{
    // det(P A) sign bookkeeping: permuting two rows flips the sign.
    Matrix a = linalg::random_spd_matrix(5, 9);
    const double det = linalg::Lu(a).determinant();
    EXPECT_GT(det, 0.0); // SPD
    // Swap two rows -> determinant negates.
    for (std::size_t j = 0; j < 5; ++j)
        std::swap(a(0, j), a(1, j));
    EXPECT_NEAR(linalg::Lu(a).determinant(), -det,
                1e-9 * std::abs(det));
}

// -------------------------------------------------------------- xml ----

TEST(XmlProperties, SurvivesDeepNesting)
{
    std::string open, close;
    for (int i = 0; i < 200; ++i) {
        open += "<n" + std::to_string(i) + ">";
        close = "</n" + std::to_string(i) + ">" + close;
    }
    const topology::XmlDocument doc = topology::parse_xml(open + close);
    const topology::XmlElement *cur = &doc.root();
    int depth = 0;
    while (!cur->children().empty()) {
        cur = cur->children()[0];
        ++depth;
    }
    EXPECT_EQ(depth, 199);
}

TEST(XmlProperties, WhitespaceTolerance)
{
    const topology::XmlDocument doc = topology::parse_xml(
        "  \n\t<a   b = \"1\"   c='2'  >\n\n  <d/>\t</a>\n  ");
    EXPECT_EQ(doc.root().attribute("b"), "1");
    EXPECT_EQ(doc.root().attribute("c"), "2");
    EXPECT_EQ(doc.root().children().size(), 1u);
}

// ------------------------------------------------------------- urdf ----

TEST(UrdfProperties, AxisIsNormalizedOnParse)
{
    const char *urdf = R"(
      <robot name="x"><link name="base"/>
        <link name="a"><inertial><mass value="1"/>
          <inertia ixx="0.1" iyy="0.1" izz="0.1"/></inertial></link>
        <joint name="j" type="revolute">
          <parent link="base"/><child link="a"/>
          <axis xyz="0 0 10"/></joint></robot>)";
    const RobotModel m = topology::parse_urdf(urdf);
    EXPECT_NEAR(m.link(0).joint.axis().norm(), 1.0, 1e-12);
}

TEST(UrdfProperties, ChainedFixedJointsFoldTransitively)
{
    // moving -> fixed -> fixed -> moving: both rigid links merge into the
    // first moving link, and the final joint offset accumulates.
    const char *urdf = R"(
      <robot name="x"><link name="base"/>
        <link name="a"><inertial><mass value="1"/>
          <inertia ixx="0.1" iyy="0.1" izz="0.1"/></inertial></link>
        <link name="f1"><inertial><mass value="0.5"/>
          <inertia ixx="0.01" iyy="0.01" izz="0.01"/></inertial></link>
        <link name="f2"><inertial><mass value="0.25"/>
          <inertia ixx="0.01" iyy="0.01" izz="0.01"/></inertial></link>
        <link name="b"><inertial><mass value="1"/>
          <inertia ixx="0.1" iyy="0.1" izz="0.1"/></inertial></link>
        <joint name="j1" type="revolute"><parent link="base"/>
          <child link="a"/><axis xyz="0 0 1"/></joint>
        <joint name="jf1" type="fixed"><parent link="a"/>
          <child link="f1"/><origin xyz="0 0 0.1"/></joint>
        <joint name="jf2" type="fixed"><parent link="f1"/>
          <child link="f2"/><origin xyz="0 0 0.2"/></joint>
        <joint name="j2" type="revolute"><parent link="f2"/>
          <child link="b"/><origin xyz="0 0 0.3"/>
          <axis xyz="0 1 0"/></joint></robot>)";
    const RobotModel m = topology::parse_urdf(urdf);
    ASSERT_EQ(m.num_links(), 2u);
    EXPECT_NEAR(m.link(0).inertia.mass(), 1.75, 1e-12);
    EXPECT_NEAR(m.link(1).x_tree.translation_vector().z, 0.6, 1e-12);
}

TEST(UrdfProperties, ForwardKinematicsSurvivesRoundTrip)
{
    // Beyond mass matrices: poses and Jacobians agree between the
    // programmatic model and its URDF round trip.
    for (RobotId id : {RobotId::kBaxter, RobotId::kPepper}) {
        const RobotModel direct = topology::build_robot(id);
        const RobotModel parsed =
            topology::parse_urdf(topology::robot_urdf(id));
        const auto s = dynamics::random_state(direct, 8);
        const auto fk_a = dynamics::forward_kinematics(direct, s.q);
        const auto fk_b = dynamics::forward_kinematics(parsed, s.q);
        for (std::size_t i = 0; i < direct.num_links(); ++i) {
            EXPECT_LT((fk_a.base_to_link[i].to_matrix() -
                       fk_b.base_to_link[i].to_matrix())
                          .max_abs(),
                      1e-10);
        }
    }
}

// ---------------------------------------------------------- dynamics ----

TEST(DynamicsProperties, GradientsVanishAtEquilibrium)
{
    // A hanging chain at rest under gravity compensation: qdd == 0 and
    // dqdd/dqd's gravity-independent structure still holds; the
    // acceleration stays zero under tau perturbations mapped through
    // M^-1.
    const RobotModel m = topology::make_serial_chain(4);
    const TopologyInfo topo(m);
    const std::size_t n = m.num_links();
    const Vector q = dynamics::random_state(m, 3).q;
    const Vector zero(n);
    const Vector tau_hold = dynamics::rnea(m, q, zero, zero);
    const auto g =
        dynamics::forward_dynamics_gradients(m, topo, q, zero, tau_hold);
    EXPECT_NEAR(g.qdd.max_abs(), 0.0, 1e-8);
    // At zero velocity the velocity partial reduces to -M^-1 * dC/dqd
    // with C linear in qd near zero; finite-difference cross-check.
    const Matrix fd = dynamics::fd_dqdd_dqd(m, q, zero, tau_hold);
    EXPECT_LT(linalg::max_abs_diff(g.dqdd_dqd, fd), 5e-5);
}

TEST(DynamicsProperties, MassMatrixInvariantUnderVelocity)
{
    // M(q) must not depend on qd; CRBA only reads q.
    const RobotModel m = topology::build_robot(RobotId::kJaco3);
    const auto s1 = dynamics::random_state(m, 10);
    const Matrix h = dynamics::crba(m, s1.q);
    // Same q, different velocities through the full gradient pipeline.
    const TopologyInfo topo(m);
    const auto g1 = dynamics::forward_dynamics_gradients(m, topo, s1.q,
                                                         s1.qd, s1.tau);
    const auto s2 = dynamics::random_state(m, 11);
    const auto g2 = dynamics::forward_dynamics_gradients(m, topo, s1.q,
                                                         s2.qd, s1.tau);
    EXPECT_LT(linalg::max_abs_diff(g1.mass, h), 1e-12);
    EXPECT_LT(linalg::max_abs_diff(g1.mass, g2.mass), 1e-12);
}

TEST(DynamicsProperties, ComStaysPutWithoutExternalForces)
{
    // Free-floating approximation sanity: for a fixed-base robot this
    // checks instead that the COM moves continuously (no jumps) during a
    // short passive swing.
    const RobotModel m = topology::build_robot(RobotId::kIiwa);
    const std::size_t n = m.num_links();
    Vector q = dynamics::random_state(m, 5).q;
    Vector qd(n);
    const Vector tau(n);
    auto prev = dynamics::center_of_mass(m, q);
    const double dt = 1e-4;
    for (int k = 0; k < 50; ++k) {
        const Vector qdd = dynamics::aba(m, q, qd, tau);
        for (std::size_t i = 0; i < n; ++i) {
            q[i] += qd[i] * dt;
            qd[i] += qdd[i] * dt;
        }
        const auto com = dynamics::center_of_mass(m, q);
        EXPECT_LT((com - prev).norm(), 0.01); // continuous motion
        prev = com;
    }
}

// ---------------------------------------------------------------- io ----

TEST(IoProperties, PayloadScalesQuadraticallyInLinks)
{
    const auto p1 = io::dense_payload(10);
    const auto p2 = io::dense_payload(20);
    EXPECT_EQ(p2.matrix_bits, 4 * p1.matrix_bits);
    EXPECT_EQ(p2.vector_bits, 2 * p1.vector_bits);
}

TEST(IoProperties, CompressionBoundedByLimbCount)
{
    // For a star with L limbs the mass matrix is 1/L dense, so matrix
    // compression approaches L but the per-link vectors cap the total.
    const RobotModel star = topology::make_star(10, 6);
    const TopologyInfo topo(star);
    const double ratio = io::compression_ratio(topo);
    EXPECT_GT(ratio, 5.0);
    EXPECT_LT(ratio, 10.0);
}

TEST(IoProperties, RoundtripMonotoneInStepsAndPayload)
{
    const auto &link = io::fpga_link_gen1();
    const double a = io::roundtrip_us(link, 1000, 1000, 1, 5.0);
    const double b = io::roundtrip_us(link, 1000, 1000, 8, 5.0);
    const double c = io::roundtrip_us(link, 8000, 8000, 1, 5.0);
    EXPECT_GT(b, a);
    EXPECT_GT(c, a);
}

// -------------------------------------------------------------- accel ----

TEST(AccelProperties, PowerTimesTimeEqualsEnergy)
{
    const RobotModel m = topology::build_robot(RobotId::kBaxter);
    const accel::AcceleratorDesign d(m, {4, 4, 4});
    const accel::PowerReport r = accel::estimate_power(d);
    const double time_s = static_cast<double>(d.cycles_no_pipelining()) *
                          d.clock_period_ns() * 1e-9;
    EXPECT_NEAR(r.avg_power_mw * time_s * 1e3, r.energy_uj,
                1e-6 * r.energy_uj);
    EXPECT_NEAR(r.avg_power_gated_mw * time_s * 1e3, r.energy_gated_uj,
                1e-6 * r.energy_gated_uj);
}

TEST(AccelProperties, EveryKnobPointProducesValidSchedules)
{
    // Exhaustive schedule validity over iiwa's full knob cube.
    const RobotModel m = topology::build_robot(RobotId::kIiwa);
    const TopologyInfo topo(m);
    const sched::TaskGraph g(topo);
    for (std::size_t pf = 1; pf <= 7; ++pf) {
        for (std::size_t pb = 1; pb <= 7; ++pb) {
            const auto joint = sched::schedule_pipelined(
                g, pf, pb, accel::default_timing().traversal);
            ASSERT_EQ(validate_schedule(g, joint), "")
                << pf << "," << pb;
        }
    }
}

TEST(AccelProperties, TaskGraphSizeDrivesGradientWorkQuadratically)
{
    // Gradient backward tasks grow ~N^2 on chains — the paper's pattern-1
    // scaling statement, checked on generated chains.
    std::size_t prev = 0;
    for (std::size_t n : {8u, 16u, 32u}) {
        const RobotModel chain = topology::make_serial_chain(n);
        const TopologyInfo topo(chain);
        const sched::TaskGraph g(topo);
        const std::size_t bwd =
            g.tasks_of_type(sched::TaskType::kGradBackward).size();
        // Exact: sum_j (subtree + depth - 1) = sum_j n = n^2.
        EXPECT_EQ(bwd, n * n);
        EXPECT_GT(bwd, prev);
        prev = bwd;
    }
}

} // namespace
} // namespace roboshape
