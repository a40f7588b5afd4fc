/**
 * @file
 * Self-tests of the repo benchmark (perfbench/README.md): inputs are a
 * pure function of the seed, every generated URDF passes the checked
 * parser, each output check rejects a planted fault, and the percentile
 * and rate helpers are exact on known samples.
 *
 *   python3 perfbench/run.py --selftest
 */

#include <gtest/gtest.h>

#include <set>

#include "checks.h"
#include "common.h"
#include "core/design_space.h"
#include "dynamics/fd_derivatives.h"
#include "inputs.h"
#include "obs/json.h"
#include "topology/urdf_parser.h"
#include "workloads.h"

namespace roboshape {
namespace perfbench {
namespace {

// ---- inputs are a pure function of the seed --------------------------------

TEST(Inputs, LibrarySweepsAreTheNineRobotsById)
{
    const std::vector<std::string> requests = library_sweep_requests();
    EXPECT_EQ(requests, library_sweep_requests());
    ASSERT_EQ(requests.size(), 9u);
    service::Service svc;
    for (const std::string &bytes : requests) {
        net::HttpRequest request;
        ASSERT_TRUE(frame_request(bytes, request));
        EXPECT_EQ(svc.handle(request).status, 200) << request.body;
    }
}

TEST(Inputs, ColdRobotsArePureFunctionsOfSeedAndIndex)
{
    for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(cold_robot(11, i).urdf, cold_robot(11, i).urdf);
        EXPECT_NE(cold_robot(11, i).urdf, cold_robot(12, i).urdf);
        EXPECT_NE(cold_robot(11, i).urdf, cold_robot(11, i + 1).urdf);
        EXPECT_EQ(cold_sweep_request(cold_robot(11, i)),
                  cold_sweep_request(cold_robot(11, i)));
    }
}

TEST(Inputs, EveryGeneratedUrdfPassesTheCheckedParser)
{
    std::set<std::string> shapes;
    for (std::uint64_t seed : {1u, 2u, 3u})
        for (std::uint64_t i = 0; i < 200; ++i) {
            const ColdRobot robot = cold_robot(seed, i);
            const topology::UrdfParseResult parsed =
                topology::parse_urdf_checked(robot.urdf);
            ASSERT_TRUE(parsed.ok()) << robot.name;
            EXPECT_EQ(parsed.report.error_count(), 0u) << robot.name;
            EXPECT_EQ(parsed.model->num_links(), robot.links) << robot.name;
            EXPECT_GE(robot.links, 6u);
            EXPECT_LE(robot.links, 32u);
            shapes.insert(robot.shape);
        }
    EXPECT_EQ(shapes.size(), 4u);
}

TEST(Inputs, IlqrProblemsAndMpcPacketsArePureFunctionsOfTheSeed)
{
    const topology::RobotModel model =
        topology::build_robot(topology::RobotId::kHyq);
    const control::IlqrProblem a = ilqr_problem(model, 5, 9);
    const control::IlqrProblem b = ilqr_problem(model, 5, 9);
    const control::IlqrProblem c = ilqr_problem(model, 6, 9);
    EXPECT_EQ(a.q0.data(), b.q0.data());
    EXPECT_EQ(a.q_goal.data(), b.q_goal.data());
    EXPECT_NE(a.q0.data(), c.q0.data());

    const topology::TopologyInfo topo(model);
    MpcHorizon x, y, z;
    fill_mpc_horizon(model, topo, 5, 1, x);
    fill_mpc_horizon(model, topo, 5, 1, y);
    fill_mpc_horizon(model, topo, 6, 1, z);
    ASSERT_EQ(x.packets.size(), kMpcHorizon);
    EXPECT_NE(kMpcHorizon % 4, 0u);
    EXPECT_NE(kMpcHorizon % 8, 0u);
    for (std::size_t k = 0; k < kMpcHorizon; ++k) {
        EXPECT_EQ(x.q[k].data(), y.q[k].data());
        EXPECT_EQ(x.minv[k].data(), y.minv[k].data());
        EXPECT_EQ(x.packets[k].q, &x.q[k]);
    }
    EXPECT_NE(x.q[0].data(), z.q[0].data());
}

// ---- each output check rejects a planted fault -----------------------------

TEST(Checks, ColdFrontierRejectsAPerturbedPoint)
{
    const topology::RobotModel model =
        *topology::parse_urdf_checked(cold_robot(4, 0).urdf).model;
    service::Service svc;
    net::HttpRequest request;
    ASSERT_TRUE(frame_request(cold_sweep_request(cold_robot(4, 0)), request));
    const net::HttpResponse swept = svc.handle(request);
    ASSERT_EQ(swept.status, 200);
    std::vector<FrontierPoint> frontier;
    ASSERT_TRUE(parse_frontier(swept.body, frontier));
    EXPECT_EQ(check_cold_frontier(frontier, model), "");

    std::string bad = swept.body;
    const std::size_t at = bad.find("\"cycles\":");
    ASSERT_NE(at, std::string::npos);
    bad.insert(at + 9, "1");
    ASSERT_TRUE(parse_frontier(bad, frontier));
    EXPECT_NE(check_cold_frontier(frontier, model), "");
    frontier.pop_back();
    EXPECT_NE(check_cold_frontier(frontier, model), "");
    EXPECT_FALSE(parse_frontier("{\"pareto\": 3}", frontier));
}

TEST(Checks, ColdDesignRejectsAnotherPoint)
{
    const ColdRobot robot = cold_robot(4, 1);
    service::Service svc;
    net::HttpRequest request;
    ASSERT_TRUE(frame_request(cold_sweep_request(robot), request));
    std::vector<FrontierPoint> frontier;
    ASSERT_TRUE(parse_frontier(svc.handle(request).body, frontier));
    const FrontierPoint chosen = frontier.back();
    ASSERT_TRUE(frame_request(cold_design_request(robot, chosen.pes_fwd,
                                                  chosen.pes_bwd,
                                                  chosen.block_size),
                              request));
    const net::HttpResponse designed = svc.handle(request);
    ASSERT_EQ(designed.status, 200);
    DesignSummary design;
    ASSERT_TRUE(parse_design(designed.body, design));
    EXPECT_EQ(check_cold_design(design, chosen), "");

    DesignSummary bad = design;
    bad.cycles += 1;
    EXPECT_NE(check_cold_design(bad, chosen), "");
    bad = design;
    bad.block_size += 1;
    EXPECT_NE(check_cold_design(bad, chosen), "");
    EXPECT_FALSE(parse_design("{\"params\": {}}", design));
}

TEST(Checks, SolveRejectsAChangedFinalCost)
{
    const SolveSummary host{4, 12.5};
    EXPECT_EQ(check_solve({4, 12.5}, host), "");
    EXPECT_EQ(check_solve({4, 12.5 * (1 + 1e-12)}, host), "");
    EXPECT_NE(check_solve({4, 12.5 * (1 + 1e-6)}, host), "");
    EXPECT_NE(check_solve({5, 12.5}, host), "");
}

TEST(Checks, GradientsRejectAPerturbedEntry)
{
    const topology::RobotModel model =
        topology::build_robot(topology::RobotId::kIiwa);
    const topology::TopologyInfo topo(model);
    MpcHorizon h;
    fill_mpc_horizon(model, topo, 2, 0, h);
    const std::size_t n = model.num_links();
    const accel::AcceleratorDesign design(model, {n, n, 1});
    const accel::SimEngine engine(design);
    accel::SimEngine::Workspace ws = engine.make_workspace();
    accel::EngineResult result;
    engine.run(ws, h.packets[3], result);
    EXPECT_EQ(check_gradients(result, h.ref_dq[3], h.ref_dqd[3]), "");
    result.dqdd_dq(2, 1) += 1e-8;
    EXPECT_NE(check_gradients(result, h.ref_dq[3], h.ref_dqd[3]), "");
}

// ---- percentile helper ---------------------------------------------------

TEST(Stats, PercentileIsExactOnKnownSamples)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) // unsorted input
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.01);
    EXPECT_DOUBLE_EQ(percentile(v, 0.25), 25.75);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, SlicesAreWholeGroupsAndRatesTheirMean)
{
    using Cut = std::pair<std::size_t, std::size_t>;
    // 12 whole groups of 2 in 10 slices; the 25th op is left out.
    EXPECT_EQ(slices(25, 2), (std::vector<Cut>{{0, 2}, {2, 4}, {4, 6},
                                               {6, 8}, {8, 12}, {12, 14},
                                               {14, 16}, {16, 18}, {18, 20},
                                               {20, 24}}));
    EXPECT_EQ(slices(7, 3), (std::vector<Cut>{{0, 3}, {3, 6}}));
    EXPECT_TRUE(slices(2, 3).empty());

    std::vector<double> us; // slice k: two ops of 50 (k + 1) us
    for (int k = 0; k < 10; ++k)
        for (int op = 0; op < 2; ++op)
            us.push_back(50.0 * (k + 1));
    double want = 0.0;
    for (int k = 0; k < 10; ++k)
        want += 2e6 / (100.0 * (k + 1));
    EXPECT_DOUBLE_EQ(closed_loop_rate(us, 2), want / 10.0);
    us.push_back(1e9); // past the last whole group: left out
    EXPECT_DOUBLE_EQ(closed_loop_rate(us, 2), want / 10.0);
    EXPECT_DOUBLE_EQ(closed_loop_rate({250.0, 250.0, 250.0, 250.0}, 1),
                     4000.0);
    EXPECT_DOUBLE_EQ(closed_loop_rate({5.0}, 2), 0.0);
}

TEST(Stats, RngIsDeterministicAndInRange)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
        const double u = a.uniform(-1.0, 1.0);
        EXPECT_EQ(u, b.uniform(-1.0, 1.0));
        EXPECT_GE(u, -1.0);
        EXPECT_LT(u, 1.0);
        const std::size_t k = a.between(6, 32);
        b.between(6, 32);
        EXPECT_GE(k, 6u);
        EXPECT_LE(k, 32u);
    }
    EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 2, 4));
    EXPECT_NE(derive_seed(1, 2, 3), derive_seed(2, 2, 3));
}

// ---- tracer --------------------------------------------------------------

TEST(Tracer, SelfTimeSubtractsChildrenAndJsonValidates)
{
    Tracer t(true, 1);
    {
        Tracer::Scope outer(t, 0, "service.outer", 1);
        Tracer::Scope inner(t, 0, "net.inner", 1);
    }
    EXPECT_EQ(t.span_count(), 2u);
    const auto self = t.self_time_by_layer();
    EXPECT_EQ(self.count("service"), 1u);
    EXPECT_EQ(self.count("net"), 1u);
    EXPECT_GE(self.at("service"), 0.0);
    EXPECT_TRUE(obs::validate_json(t.chrome_json("w", 1)));

    Tracer off(false, 1);
    {
        Tracer::Scope s(off, 0, "net.x", 1);
    }
    EXPECT_EQ(off.span_count(), 0u);
}

} // namespace
} // namespace perfbench
} // namespace roboshape
