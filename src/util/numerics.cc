#include "util/numerics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace vdram {

double
Curve::atLog(double xq) const
{
    if (x.empty())
        panic("Curve::atLog on empty curve");
    if (xq <= x.front())
        return y.front();
    if (xq >= x.back())
        return y.back();
    auto it = std::upper_bound(x.begin(), x.end(), xq);
    size_t hi = static_cast<size_t>(it - x.begin());
    size_t lo = hi - 1;
    double t = (std::log(xq) - std::log(x[lo])) /
               (std::log(x[hi]) - std::log(x[lo]));
    return std::exp(std::log(y[lo]) + t * (std::log(y[hi]) - std::log(y[lo])));
}

double
averageStepFactor(const std::vector<double>& series)
{
    if (series.size() < 2)
        return 1.0;
    double log_sum = 0.0;
    size_t steps = 0;
    for (size_t i = 0; i + 1 < series.size(); ++i) {
        if (series[i] <= 0 || series[i + 1] <= 0)
            continue;
        log_sum += std::log(series[i] / series[i + 1]);
        ++steps;
    }
    return steps > 0 ? std::exp(log_sum / static_cast<double>(steps)) : 1.0;
}

double
relativeDifference(double a, double b)
{
    double mag = std::max(std::fabs(a), std::fabs(b));
    if (mag == 0.0)
        return 0.0;
    return std::fabs(a - b) / mag;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
deriveStreamSeed(std::uint64_t base, std::uint64_t stream)
{
    // Two avalanche rounds: the first decorrelates the stream index from
    // the base, the second mixes the combination. An affine combination
    // alone (base + c * stream) collides whenever two bases differ by a
    // multiple of c.
    return splitmix64(base ^ splitmix64(stream));
}

double
uniformDoubleOf(std::uint64_t word)
{
    return static_cast<double>(word >> 11) * 0x1.0p-53;
}

} // namespace vdram
