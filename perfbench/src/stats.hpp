#pragma once

/// \file stats.hpp
/// Order statistics of timing samples.

#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least a
/// fraction \p q of all samples are at or below it (q in (0, 1]).  With 100
/// samples, q = 0.9 is the 90th smallest, leaving 10 samples beyond it.
/// Throws std::invalid_argument on an empty sample or q outside (0, 1].
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Median, averaging the two middle samples of an even-sized sample (as
/// Python's statistics.median does).  Throws on an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
