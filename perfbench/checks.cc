#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/design_space.h"
#include "service/json_value.h"

namespace roboshape {
namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Largest |a - b| entry; NaN counts as infinitely wrong. */
double
worst_abs_diff(const linalg::Matrix &a, const linalg::Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return kInf;
    double worst = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        const double d = std::abs(a.data()[i] - b.data()[i]);
        if (!(d <= worst))
            worst = std::isnan(d) ? kInf : d;
    }
    return worst;
}

} // namespace

bool
parse_frontier(const std::string &sweep_body,
               std::vector<FrontierPoint> &out)
{
    out.clear();
    const std::optional<service::JsonValue> doc =
        service::parse_json(sweep_body);
    if (!doc || !doc->is_object())
        return false;
    const service::JsonValue *pareto = doc->find("pareto");
    if (pareto == nullptr || !pareto->is_array())
        return false;
    for (const service::JsonValue &p : pareto->as_array()) {
        const auto field = [&p](const char *key, double &v) {
            const service::JsonValue *f = p.find(key);
            if (f == nullptr || !f->is_number())
                return false;
            v = f->as_number();
            return true;
        };
        double fwd = 0, bwd = 0, block = 0, cycles = 0, luts = 0, dsps = 0;
        if (!field("pes_fwd", fwd) || !field("pes_bwd", bwd) ||
            !field("block_size", block) || !field("cycles", cycles) ||
            !field("luts", luts) || !field("dsps", dsps))
            return false;
        out.push_back({static_cast<std::size_t>(fwd),
                       static_cast<std::size_t>(bwd),
                       static_cast<std::size_t>(block),
                       static_cast<std::int64_t>(cycles),
                       static_cast<std::int64_t>(luts),
                       static_cast<std::int64_t>(dsps)});
    }
    return !out.empty();
}

std::string
check_cold_frontier(const std::vector<FrontierPoint> &got,
                    const topology::RobotModel &model)
{
    const core::DesignSpace space = core::DesignSpace::sweep(model);
    const std::vector<core::DesignPoint> want = space.pareto_frontier();
    if (got.size() != want.size())
        return "frontier has " + std::to_string(got.size()) +
               " points, DesignSpace has " + std::to_string(want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const FrontierPoint &g = got[i];
        const core::DesignPoint &w = want[i];
        if (g.pes_fwd != w.params.pes_fwd || g.pes_bwd != w.params.pes_bwd ||
            g.block_size != w.params.block_size || g.cycles != w.cycles ||
            g.luts != w.resources.luts || g.dsps != w.resources.dsps)
            return "frontier point " + std::to_string(i) +
                   " differs from DesignSpace::pareto_frontier";
    }
    return "";
}

bool
parse_design(const std::string &design_body, DesignSummary &out)
{
    const std::optional<service::JsonValue> doc =
        service::parse_json(design_body);
    const service::JsonValue *params = doc ? doc->find("params") : nullptr;
    const service::JsonValue *cycles = doc ? doc->find("cycles") : nullptr;
    const auto num = [](const service::JsonValue *o, const char *key,
                        double &v) {
        const service::JsonValue *f = o ? o->find(key) : nullptr;
        if (f == nullptr || !f->is_number())
            return false;
        v = f->as_number();
        return true;
    };
    double fwd = 0, bwd = 0, block = 0, cyc = 0;
    if (!num(params, "pes_fwd", fwd) || !num(params, "pes_bwd", bwd) ||
        !num(params, "block_size", block) ||
        !num(cycles, "no_pipelining", cyc))
        return false;
    out = {static_cast<std::size_t>(fwd), static_cast<std::size_t>(bwd),
           static_cast<std::size_t>(block), static_cast<std::int64_t>(cyc)};
    return true;
}

std::string
check_cold_design(const DesignSummary &got, const FrontierPoint &chosen)
{
    if (got.pes_fwd != chosen.pes_fwd || got.pes_bwd != chosen.pes_bwd ||
        got.block_size != chosen.block_size || got.cycles != chosen.cycles)
        return "design does not match the chosen frontier point";
    return "";
}

std::string
check_solve(const SolveSummary &got, const SolveSummary &host)
{
    if (got.iterations != host.iterations)
        return "iterations " + std::to_string(got.iterations) +
               " != host " + std::to_string(host.iterations);
    const double scale = std::max(std::abs(host.final_cost), 1e-300);
    const double rel = std::abs(got.final_cost - host.final_cost) / scale;
    if (!(rel <= kCostTolerance))
        return "final cost differs from host by " + std::to_string(rel) +
               " (relative)";
    return "";
}

std::string
check_gradients(const accel::EngineResult &got,
                const linalg::Matrix &ref_dq, const linalg::Matrix &ref_dqd)
{
    const double dq = worst_abs_diff(got.dqdd_dq, ref_dq);
    const double dqd = worst_abs_diff(got.dqdd_dqd, ref_dqd);
    if (!(dq <= kGradientTolerance) || !(dqd <= kGradientTolerance))
        return "gradient off the host library by " +
               std::to_string(std::max(dq, dqd));
    return "";
}

} // namespace perfbench
} // namespace roboshape
