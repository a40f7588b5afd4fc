/**
 * @file
 * google-benchmark microbenchmarks of the CPU dynamics substrate — the
 * measured baseline feeding Figs. 9 and 10 (RNEA, CRBA, analytical
 * derivatives, full gradient kernel) across all six robots — and of the
 * iLQR Riccati backward pass those gradients feed, per robot and per
 * linalg kernel shape.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "control/ilqr.h"
#include "dynamics/constrained.h"
#include "dynamics/crba.h"
#include "dynamics/fd_derivatives.h"
#include "dynamics/rnea.h"
#include "dynamics/rnea_derivatives.h"
#include "dynamics/robot_state.h"
#include "linalg/factorization.h"
#include "linalg/random.h"
#include "topology/robot_library.h"
#include "topology/topology_info.h"

namespace {

using namespace roboshape;
using topology::RobotId;

const topology::RobotModel &
model_for(int index)
{
    static const std::vector<topology::RobotModel> kModels = [] {
        std::vector<topology::RobotModel> models;
        for (RobotId id : topology::all_robots())
            models.push_back(topology::build_robot(id));
        return models;
    }();
    return kModels[static_cast<std::size_t>(index)];
}

void
set_label(benchmark::State &state)
{
    state.SetLabel(topology::robot_name(
        topology::all_robots()[static_cast<std::size_t>(state.range(0))]));
}

void
BM_Rnea(benchmark::State &state)
{
    const auto &model = model_for(static_cast<int>(state.range(0)));
    const auto s = dynamics::random_state(model, 1);
    for (auto _ : state) {
        auto tau = dynamics::rnea(model, s.q, s.qd, s.qdd);
        benchmark::DoNotOptimize(tau);
    }
    set_label(state);
}
BENCHMARK(BM_Rnea)->DenseRange(0, 5);

void
BM_Crba(benchmark::State &state)
{
    const auto &model = model_for(static_cast<int>(state.range(0)));
    const auto s = dynamics::random_state(model, 2);
    for (auto _ : state) {
        auto m = dynamics::crba(model, s.q);
        benchmark::DoNotOptimize(m);
    }
    set_label(state);
}
BENCHMARK(BM_Crba)->DenseRange(0, 5);

void
BM_RneaDerivatives(benchmark::State &state)
{
    const auto &model = model_for(static_cast<int>(state.range(0)));
    const topology::TopologyInfo topo(model);
    const auto s = dynamics::random_state(model, 3);
    dynamics::RneaCache cache;
    dynamics::rnea(model, s.q, s.qd, s.qdd, dynamics::kDefaultGravity,
                   &cache);
    for (auto _ : state) {
        auto d = dynamics::rnea_derivatives(model, topo, s.qd, cache);
        benchmark::DoNotOptimize(d);
    }
    set_label(state);
}
BENCHMARK(BM_RneaDerivatives)->DenseRange(0, 5);

void
BM_ForwardDynamicsGradients(benchmark::State &state)
{
    const auto &model = model_for(static_cast<int>(state.range(0)));
    const topology::TopologyInfo topo(model);
    const auto s = dynamics::random_state(model, 4);
    for (auto _ : state) {
        auto g = dynamics::forward_dynamics_gradients(model, topo, s.q,
                                                      s.qd, s.tau);
        benchmark::DoNotOptimize(g);
    }
    set_label(state);
}
BENCHMARK(BM_ForwardDynamicsGradients)->DenseRange(0, 5);

void
BM_ConstrainedDynamicsHyq(benchmark::State &state)
{
    // Whole-body stance dynamics: the legged controller's inner solve.
    const auto &model = model_for(1); // HyQ
    const topology::TopologyInfo topo(model);
    const auto s = dynamics::random_state(model, 5);
    std::vector<dynamics::Contact> feet;
    for (const char *name : {"lf_kfe", "rf_kfe", "lh_kfe", "rh_kfe"})
        feet.push_back({static_cast<std::size_t>(model.find_link(name)),
                        {0.0, 0.0, 0.33}});
    for (auto _ : state) {
        auto sol = dynamics::constrained_forward_dynamics(model, topo, s.q,
                                                          s.qd, s.tau,
                                                          feet);
        benchmark::DoNotOptimize(sol);
    }
    state.SetLabel("HyQ, 4 stance feet");
}
BENCHMARK(BM_ConstrainedDynamicsHyq);

void
BM_RiccatiPass(benchmark::State &state)
{
    // One backward pass over horizon 8, per limb as solve_ilqr runs it,
    // at the iterate after one iteration of a seeded reach (ilqr_stream's
    // problem shape).
    const auto &model = model_for(static_cast<int>(state.range(0)));
    const topology::TopologyInfo topo(model);
    const std::size_t n = model.num_links();
    control::IlqrProblem problem;
    problem.q0 = linalg::random_vector(n, 7, -0.4, 0.4);
    problem.qd0 = linalg::random_vector(n, 8, -0.2, 0.2);
    problem.q_goal = problem.q0 + linalg::random_vector(n, 9, -0.5, 0.5);
    problem.horizon = 8;
    control::IlqrOptions options;
    options.max_iterations = 1;
    options.cost_tolerance = 0.0;
    options.max_line_search = 1;
    const control::IlqrResult iterate =
        control::solve_ilqr(model, topo, problem, options);

    std::vector<linalg::Matrix> a(problem.horizon), b(problem.horizon);
    for (std::size_t k = 0; k < problem.horizon; ++k) {
        linalg::Vector q(n), qd(n);
        for (std::size_t i = 0; i < n; ++i) {
            q[i] = iterate.states[k][i];
            qd[i] = iterate.states[k][n + i];
        }
        const auto g = dynamics::forward_dynamics_gradients(
            model, topo, q, qd, iterate.controls[k]);
        control::discretize_gradients(g.dqdd_dq, g.dqdd_dqd, g.mass_inv,
                                      problem.dt, a[k], b[k]);
    }
    control::RiccatiWorkspace ws(topo.limb_spans());
    std::vector<linalg::Vector> ff(problem.horizon, linalg::Vector(n));
    std::vector<linalg::Matrix> gain(problem.horizon,
                                     linalg::Matrix(n, 2 * n));
    for (auto _ : state) {
        const bool ok = control::riccati_backward_pass(
            problem, iterate.states, iterate.controls, a, b, 1e-6, ws, ff,
            gain);
        benchmark::DoNotOptimize(ok);
        benchmark::DoNotOptimize(gain.data());
        benchmark::ClobberMemory();
    }
    set_label(state);
}
BENCHMARK(BM_RiccatiPass)->DenseRange(0, 5);

void
BM_LinalgKernels(benchmark::State &state)
{
    // The Riccati pass's kernels at the shapes of one limb of m links:
    // A^T Vxx and (A^T Vxx) A on 2m x 2m operands, and the [k | K] solve
    // of an m x m Quu against m x (2m + 1) right-hand sides (each timed
    // solve includes copying those back in).  m = 3, 7, 12 and 15 are a
    // HyQ leg, iiwa (or a Baxter arm), Jaco-2 and Jaco-3.
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto kernel = state.range(1);
    const linalg::Matrix lhs = linalg::random_matrix(2 * m, 2 * m, 11);
    const linalg::Matrix rhs = linalg::random_matrix(2 * m, 2 * m, 12);
    const linalg::Ldlt quu(linalg::random_spd_matrix(m, 13));
    const linalg::Matrix qux = linalg::random_matrix(m, 2 * m + 1, 14);
    linalg::Matrix out, solved = qux;
    for (auto _ : state) {
        if (kernel == 0) {
            linalg::multiply_into(lhs, rhs, out);
        } else if (kernel == 1) {
            linalg::transposed_multiply_into(lhs, rhs, out);
        } else {
            solved = qux;
            quu.solve_in_place(solved);
            benchmark::DoNotOptimize(solved.data().data());
        }
        benchmark::DoNotOptimize(out.data().data());
        benchmark::ClobberMemory();
    }
    const char *const names[] = {"multiply_into", "transposed_multiply_into",
                                 "Ldlt::solve_in_place"};
    state.SetLabel(std::string(names[kernel]) + ", m = " +
                   std::to_string(m));
}
BENCHMARK(BM_LinalgKernels)
    ->ArgsProduct({{3, 7, 12, 15}, {0, 1, 2}});

} // namespace

BENCHMARK_MAIN();
