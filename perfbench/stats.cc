#include <algorithm>
#include <cmath>

#include "common.h"

namespace roboshape {
namespace perfbench {

std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    return mix64(mix64(mix64(seed) ^ stream) ^ index);
}

std::uint64_t
Rng::next()
{
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
Rng::uniform(double lo, double hi)
{
    // 53 random mantissa bits -> [0, 1).
    const double u =
        static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

std::size_t
Rng::between(std::size_t lo, std::size_t hi)
{
    return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
mean(const std::vector<double> &samples)
{
    double sum = 0.0;
    for (double x : samples)
        sum += x;
    return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

std::vector<std::pair<std::size_t, std::size_t>>
slices(std::size_t n, std::size_t group)
{
    const std::size_t groups = n / group;
    const std::size_t count = std::min(kSlices, groups);
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t k = 0; k < count; ++k)
        out.emplace_back(groups * k / count * group,
                         groups * (k + 1) / count * group);
    return out;
}

double
closed_loop_rate(const std::vector<double> &op_us, std::size_t group)
{
    const auto cuts = slices(op_us.size(), group);
    double sum = 0.0;
    for (const auto &[lo, hi] : cuts) {
        double us = 0.0;
        for (std::size_t i = lo; i < hi; ++i)
            us += op_us[i];
        sum += static_cast<double>(hi - lo) * 1e6 / us;
    }
    return cuts.empty() ? 0.0 : sum / static_cast<double>(cuts.size());
}

void
Outcome::fail(std::string why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(std::move(why));
}

} // namespace perfbench
} // namespace roboshape
