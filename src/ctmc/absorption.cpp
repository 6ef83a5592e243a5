#include "ctmc/absorption.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "core/error.hpp"

namespace dpma::ctmc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// States that can reach the target set (backward BFS over edges).
std::vector<char> co_reachable(const Ctmc& chain, const std::vector<char>& targets) {
    const std::size_t n = chain.num_states();
    std::vector<std::vector<TangibleId>> incoming(n);
    for (TangibleId s = 0; s < n; ++s) {
        for (const RateEntry& e : chain.row(s)) {
            incoming[e.target].push_back(s);
        }
    }
    std::vector<char> seen(n, 0);
    std::deque<TangibleId> queue;
    for (TangibleId s = 0; s < n; ++s) {
        if (targets[s]) {
            seen[s] = 1;
            queue.push_back(s);
        }
    }
    while (!queue.empty()) {
        const TangibleId u = queue.front();
        queue.pop_front();
        for (TangibleId v : incoming[u]) {
            if (!seen[v]) {
                seen[v] = 1;
                queue.push_back(v);
            }
        }
    }
    return seen;
}

/// Dense solve of the hitting-time equations restricted to `unknown` states.
/// System: E(s) h(s) - sum_{t unknown} rate(s,t) h(t) = 1   (targets give 0).
std::vector<double> solve_dense(const Ctmc& chain, const std::vector<char>& targets,
                                const std::vector<TangibleId>& unknown,
                                const std::vector<TangibleId>& index_of) {
    const std::size_t m = unknown.size();
    // Augmented matrix [A | b], row-major with stride m + 1.
    const std::size_t stride = m + 1;
    std::vector<double> a(m * stride, 0.0);
    const auto at = [&](std::size_t r, std::size_t c) -> double& { return a[r * stride + c]; };
    for (std::size_t i = 0; i < m; ++i) {
        const TangibleId s = unknown[i];
        at(i, i) = chain.exit_rate(s);
        at(i, m) = 1.0;
        for (const RateEntry& e : chain.row(s)) {
            if (targets[e.target]) continue;  // h = 0 there
            const TangibleId j = index_of[e.target];
            DPMA_ASSERT(j != kNoTangible, "edge into an excluded state");
            at(i, j) -= e.rate;
        }
    }
    // Gaussian elimination with partial pivoting.
    for (std::size_t col = 0; col < m; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < m; ++r) {
            if (std::abs(at(r, col)) > std::abs(at(pivot, col))) pivot = r;
        }
        if (std::abs(at(pivot, col)) < 1e-300) {
            throw NumericalError("singular hitting-time system");
        }
        if (pivot != col) {
            std::swap_ranges(&at(col, 0), &at(col, 0) + stride, &at(pivot, 0));
        }
        for (std::size_t r = 0; r < m; ++r) {
            if (r == col || at(r, col) == 0.0) continue;
            const double f = at(r, col) / at(col, col);
            for (std::size_t c = col; c <= m; ++c) {
                at(r, c) -= f * at(col, c);
            }
        }
    }
    std::vector<double> h(m);
    for (std::size_t i = 0; i < m; ++i) {
        h[i] = at(i, m) / at(i, i);
    }
    return h;
}

std::vector<double> solve_iterative(const Ctmc& chain, const std::vector<char>& targets,
                                    const std::vector<TangibleId>& unknown,
                                    const std::vector<TangibleId>& index_of) {
    const std::size_t m = unknown.size();
    std::vector<double> h(m, 0.0);
    for (std::size_t iter = 0; iter < 1'000'000; ++iter) {
        double diff = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            const TangibleId s = unknown[i];
            double sum = 1.0;
            for (const RateEntry& e : chain.row(s)) {
                if (targets[e.target]) continue;
                const TangibleId j = index_of[e.target];
                sum += e.rate * h[j];
            }
            const double next = sum / chain.exit_rate(s);
            diff = std::max(diff, std::abs(next - h[i]));
            h[i] = next;
        }
        if (diff < 1e-10) return h;
    }
    throw NumericalError("hitting-time iteration did not converge");
}

}  // namespace

std::vector<double> expected_hitting_times(const Ctmc& chain,
                                           const std::vector<char>& targets,
                                           std::size_t dense_threshold) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(targets.size() == n, "target mask does not match the chain");
    DPMA_REQUIRE(std::find(targets.begin(), targets.end(), 1) != targets.end(),
                 "empty target set");

    // h(s) is finite iff the target is hit with probability 1 from s, i.e.
    // iff s cannot reach any state from which the target is unreachable.
    const std::vector<char> reachable = co_reachable(chain, targets);
    std::vector<char> traps(n, 0);
    bool has_trap = false;
    for (TangibleId s = 0; s < n; ++s) {
        if (!targets[s] && !reachable[s]) {
            traps[s] = 1;
            has_trap = true;
        }
    }
    const std::vector<char> diverging =
        has_trap ? co_reachable(chain, traps) : std::vector<char>(n, 0);

    std::vector<double> result(n, kInf);
    std::vector<TangibleId> unknown;
    std::vector<TangibleId> index_of(n, kNoTangible);
    for (TangibleId s = 0; s < n; ++s) {
        if (targets[s]) {
            result[s] = 0.0;
        } else if (!diverging[s]) {
            DPMA_ASSERT(chain.exit_rate(s) > 0.0,
                        "non-diverging non-target state must have an exit");
            index_of[s] = static_cast<TangibleId>(unknown.size());
            unknown.push_back(s);
        }
    }

    if (!unknown.empty()) {
        const std::vector<double> h =
            unknown.size() <= dense_threshold
                ? solve_dense(chain, targets, unknown, index_of)
                : solve_iterative(chain, targets, unknown, index_of);
        for (std::size_t i = 0; i < unknown.size(); ++i) {
            result[unknown[i]] = h[i];
        }
    }
    return result;
}

std::vector<double> hitting_probabilities(const Ctmc& chain,
                                          const std::vector<char>& targets) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(targets.size() == n, "target mask does not match the chain");
    const std::vector<char> reachable = co_reachable(chain, targets);
    // p(s) = sum_t P(s,t) p(t); p = 1 on targets, 0 on non-co-reachable.
    std::vector<double> p(n, 0.0);
    for (TangibleId s = 0; s < n; ++s) {
        if (targets[s]) p[s] = 1.0;
    }
    for (std::size_t iter = 0; iter < 1'000'000; ++iter) {
        double diff = 0.0;
        for (TangibleId s = 0; s < n; ++s) {
            if (targets[s] || !reachable[s] || chain.exit_rate(s) <= 0.0) continue;
            double sum = 0.0;
            for (const RateEntry& e : chain.row(s)) {
                sum += e.rate * p[e.target];
            }
            const double next = sum / chain.exit_rate(s);
            diff = std::max(diff, std::abs(next - p[s]));
            p[s] = next;
        }
        if (diff < 1e-12) break;
    }
    return p;
}

}  // namespace dpma::ctmc
