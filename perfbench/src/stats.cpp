#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) throw std::invalid_argument("percentile of no samples");
    if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("percentile outside (0, 1]");
    // The epsilon keeps q * n = 90.000000000000014 from rounding up to 91.
    const double rank = std::ceil(q * static_cast<double>(samples.size()) - 1e-9);
    const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                     samples.end());
    return samples[index];
}

double median(std::vector<double> samples) {
    if (samples.empty()) throw std::invalid_argument("median of no samples");
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
