#include "ctmc/solve.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::ctmc {
namespace {

/// Count one finished solve in the registry and close out \p diagnostics.
void finish_solve(SolveDiagnostics* diagnostics, const char* method,
                  std::size_t states, std::size_t iterations, double residual) {
    obs::counter(std::string("ctmc.solve.") + method).add();
    if (iterations > 0) {
        obs::histogram("ctmc.solve.iterations").observe(static_cast<double>(iterations));
    }
    if (diagnostics != nullptr) {
        diagnostics->method = method;
        diagnostics->states = states;
        diagnostics->iterations = iterations;
        diagnostics->final_residual = residual;
    }
    if (obs::log_enabled(obs::LogLevel::Debug)) {
        obs::logf(obs::LogLevel::Debug,
                  "solve: %s on %zu states, %zu iterations, residual %g", method,
                  states, iterations, residual);
    }
}

/// Transposed adjacency (incoming rates) used by Gauss–Seidel.
std::vector<std::vector<RateEntry>> incoming_of(const Ctmc& chain) {
    std::vector<std::vector<RateEntry>> in(chain.num_states());
    for (TangibleId s = 0; s < chain.num_states(); ++s) {
        for (const RateEntry& e : chain.row(s)) {
            in[e.target].push_back(RateEntry{s, e.rate});
        }
    }
    return in;
}

void normalize(std::vector<double>& pi) {
    KahanSum sum;
    for (double p : pi) sum.add(p);
    const double total = sum.value();
    DPMA_REQUIRE(total > 0.0, "probability vector has zero mass");
    for (double& p : pi) p /= total;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
    double best = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        best = std::max(best, std::abs(a[i] - b[i]));
    }
    return best;
}

}  // namespace

bool is_irreducible(const Ctmc& chain) {
    if (chain.num_states() == 0) return false;
    const auto bottoms = bottom_sccs(chain);
    return bottoms.size() == 1 && bottoms.front().size() == chain.num_states();
}

double balance_residual(const Ctmc& chain, const std::vector<double>& pi) {
    DPMA_REQUIRE(pi.size() == chain.num_states(),
                 "steady-state vector does not match the chain");
    std::vector<double> flow(chain.num_states(), 0.0);
    for (TangibleId s = 0; s < chain.num_states(); ++s) {
        flow[s] -= pi[s] * chain.exit_rate(s);
        for (const RateEntry& e : chain.row(s)) flow[e.target] += pi[s] * e.rate;
    }
    double worst = 0.0;
    for (const double f : flow) worst = std::max(worst, std::abs(f));
    return worst;
}

void SolveDiagnostics::record_residual(double residual) {
    // Thin in place: once the history is full, keep every other sample and
    // double the stride, so memory stays bounded for 500k-iteration solves
    // while the curve's shape survives.
    constexpr std::size_t kMaxSamples = 2048;
    ++pending_;
    if (pending_ < residual_stride) return;
    pending_ = 0;
    residuals.push_back(residual);
    if (residuals.size() >= kMaxSamples) {
        for (std::size_t i = 1; 2 * i < residuals.size(); ++i) {
            residuals[i] = residuals[2 * i];
        }
        residuals.resize(residuals.size() / 2);
        residual_stride *= 2;
    }
}

std::string SolveDiagnostics::json() const {
    std::string out = "{\"solver\": {\"method\": " + obs::json_quote(method) +
                      ", \"states\": " + std::to_string(states) +
                      ", \"iterations\": " + std::to_string(iterations) +
                      ", \"final_residual\": " + obs::json_number(final_residual) +
                      ", \"balance_residual\": " + obs::json_number(balance_residual) +
                      ", \"residual_stride\": " + std::to_string(residual_stride) +
                      ", \"residuals\": [";
    for (std::size_t i = 0; i < residuals.size(); ++i) {
        if (i > 0) out += ", ";
        out += obs::json_number(residuals[i]);
    }
    out += "]}}";
    return out;
}

std::vector<double> steady_state_gth(const Ctmc& chain) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    if (n == 1) return {1.0};

    // GTH state reduction (Grassmann, Taksar, Heyman; see Stewart,
    // "Introduction to the Numerical Solution of Markov Chains", sect. 2.7)
    // censors states n-1 .. 1.  Censoring k divides column k of the rows
    // above it by k's departure rate s_k = sum_{j<k} a[k][j] and adds
    // a[i][k] * a[k][j] to every a[i][j] with i, j < k, i != j.  Only
    // additions, multiplications and divisions of non-negative numbers: no
    // cancellation.
    //
    // Here the rows are reduced one at a time, from n-1 down (up-looking):
    // row i is scattered into the dense workspace `w` and takes the updates
    // of every censored k > i in descending k, exactly the order in which
    // the step-by-step elimination would apply them, since a[i][k] is final
    // once the steps above k are done.  Then its lower part a[i][j<i] is
    // final too and is gathered into `lower`, and its divided upper part
    // a[i][k>i] goes into `upper`.  Zero terms are skipped throughout: every
    // entry is non-negative and KahanSum is Neumaier's, so adding a zero
    // leaves every bit of a sum as it was, and only nonzeros are ever stored
    // or visited.  With the elimination order and the ascending summation
    // order kept, the result is bit-identical to the dense textbook loops.
    struct Entry {
        TangibleId index;
        double value;
    };
    const std::size_t words = (n + 63) / 64;
    std::vector<double> w(n, 0.0);
    std::vector<std::uint64_t> live(words, 0);               // nonzeros of w
    std::vector<std::uint64_t> lower_pattern(n * words, 0);  // row k's j < k
    std::vector<double> departure(n, 0.0);
    std::vector<Entry> lower;
    std::vector<Entry> upper;
    // Rows are reduced back to front, so each row's run in the pools lies
    // just after the run of the row below it.
    std::vector<std::uint32_t> lower_begin(n, 0), lower_end(n, 0);
    std::vector<std::uint32_t> upper_begin(n, 0), upper_end(n, 0);
    const auto mark = [&](std::size_t j) { live[j >> 6] |= std::uint64_t{1} << (j & 63); };

    for (std::size_t i = n; i-- > 0;) {
        for (const RateEntry& e : chain.row(static_cast<TangibleId>(i))) {
            if (e.target == i) continue;  // the diagonal never enters GTH
            w[e.target] += e.rate;
            mark(e.target);
        }

        // Censor the live upper entries k > i, highest first; an update
        // only marks entries below k, so the scan never has to back up.
        upper_begin[i] = static_cast<std::uint32_t>(upper.size());
        const std::size_t diag_word = i >> 6;
        for (std::size_t word_at = words; word_at-- > diag_word;) {
            while (true) {
                std::uint64_t word = live[word_at];
                if (word_at == diag_word) word &= ~((std::uint64_t{2} << (i & 63)) - 1);
                if (word == 0) break;
                const std::size_t k =
                    word_at * 64 + 63 - static_cast<std::size_t>(std::countl_zero(word));
                live[word_at] &= ~(std::uint64_t{1} << (k & 63));
                const double f = w[k] / departure[k];
                w[k] = 0.0;
                upper.push_back(Entry{static_cast<TangibleId>(k), f});
                if (f == 0.0) continue;
                // Row k's lower part may hit the diagonal w[i]; it is
                // cleared below and never read.
                for (std::uint32_t p = lower_begin[k]; p < lower_end[k]; ++p) {
                    w[lower[p].index] += f * lower[p].value;
                }
                const std::uint64_t* pattern = &lower_pattern[k * words];
                for (std::size_t q = 0; q <= (k - 1) >> 6; ++q) live[q] |= pattern[q];
            }
        }
        upper_end[i] = static_cast<std::uint32_t>(upper.size());
        w[i] = 0.0;
        live[diag_word] &= ~(std::uint64_t{1} << (i & 63));

        // Gather the final lower part in ascending order; its sum is s_i.
        lower_begin[i] = static_cast<std::uint32_t>(lower.size());
        KahanSum sum;
        for (std::size_t word_at = 0; word_at <= diag_word; ++word_at) {
            std::uint64_t word = live[word_at];
            if (word_at == diag_word) word &= (std::uint64_t{1} << (i & 63)) - 1;
            live[word_at] &= ~word;
            lower_pattern[i * words + word_at] = word;
            for (; word != 0; word &= word - 1) {
                const std::size_t j =
                    word_at * 64 + static_cast<std::size_t>(std::countr_zero(word));
                sum.add(w[j]);
                lower.push_back(Entry{static_cast<TangibleId>(j), w[j]});
                w[j] = 0.0;
            }
        }
        lower_end[i] = static_cast<std::uint32_t>(lower.size());
        departure[i] = sum.value();
        if (i > 0 && departure[i] <= 0.0) {
            throw NumericalError(
                "GTH: state " + std::to_string(i) +
                " cannot reach lower-numbered states (chain not irreducible)");
        }
    }

    // Back substitution, pi[k] = sum_{i<k} pi[i] a[i][k] in ascending i:
    // scattered row by row into one accumulator per column, so each column
    // receives its terms in the same ascending order.
    std::vector<double> pi(n, 0.0);
    std::vector<KahanSum> column(n);
    pi[0] = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) pi[i] = column[i].value();
        for (std::uint32_t p = upper_begin[i]; p < upper_end[i]; ++p) {
            column[upper[p].index].add(pi[i] * upper[p].value);
        }
    }
    normalize(pi);
    finish_solve(nullptr, "gth", n, 0, 0.0);
    return pi;
}

std::vector<double> steady_state_gauss_seidel(const Ctmc& chain,
                                              const SolveOptions& options) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    SolveDiagnostics* diag = options.diagnostics;
    if (diag != nullptr) *diag = SolveDiagnostics{};
    const auto incoming = incoming_of(chain);
    std::vector<double> pi(n, 1.0 / static_cast<double>(n));
    std::vector<double> prev(n);

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        prev = pi;
        for (TangibleId j = 0; j < n; ++j) {
            const double exit = chain.exit_rate(j);
            if (exit <= 0.0) {
                throw NumericalError("Gauss-Seidel: absorbing state in chain");
            }
            KahanSum inflow;
            for (const RateEntry& e : incoming[j]) {
                inflow.add(pi[e.target] * e.rate);
            }
            pi[j] = inflow.value() / exit;
        }
        normalize(pi);
        const double diff = max_abs_diff(pi, prev);
        if (diag != nullptr) diag->record_residual(diff);
        if (diff < options.tolerance) {
            if (diag != nullptr) diag->balance_residual = balance_residual(chain, pi);
            finish_solve(diag, "gauss_seidel", n, iter + 1, diff);
            return pi;
        }
    }
    throw NumericalError("Gauss-Seidel did not converge within " +
                         std::to_string(options.max_iterations) + " iterations");
}

std::vector<double> steady_state_power(const Ctmc& chain, const SolveOptions& options) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    SolveDiagnostics* diag = options.diagnostics;
    if (diag != nullptr) *diag = SolveDiagnostics{};
    const double lambda = chain.max_exit_rate() * 1.05 + 1e-12;
    std::vector<double> pi(n, 1.0 / static_cast<double>(n));
    std::vector<double> next(n);

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        // next = pi * (I + Q / lambda)
        for (TangibleId s = 0; s < n; ++s) {
            next[s] = pi[s] * (1.0 - chain.exit_rate(s) / lambda);
        }
        for (TangibleId s = 0; s < n; ++s) {
            const double mass = pi[s] / lambda;
            if (mass == 0.0) continue;
            for (const RateEntry& e : chain.row(s)) {
                next[e.target] += mass * e.rate;
            }
        }
        normalize(next);
        const double diff = max_abs_diff(next, pi);
        pi.swap(next);
        if (diag != nullptr) diag->record_residual(diff);
        if (diff < options.tolerance) {
            if (diag != nullptr) diag->balance_residual = balance_residual(chain, pi);
            finish_solve(diag, "power", n, iter + 1, diff);
            return pi;
        }
    }
    throw NumericalError("power iteration did not converge within " +
                         std::to_string(options.max_iterations) + " iterations");
}

std::vector<std::vector<TangibleId>> bottom_sccs(const Ctmc& chain) {
    const std::size_t n = chain.num_states();
    // Iterative Tarjan.
    std::vector<int> index(n, -1);
    std::vector<int> lowlink(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<TangibleId> stack;
    std::vector<int> scc_of(n, -1);
    int next_index = 0;
    int num_sccs = 0;

    struct Frame {
        TangibleId v;
        std::size_t child = 0;
    };
    for (TangibleId root = 0; root < n; ++root) {
        if (index[root] != -1) continue;
        std::vector<Frame> frames{{root, 0}};
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = 1;
        while (!frames.empty()) {
            Frame& frame = frames.back();
            const TangibleId v = frame.v;
            const auto& row = chain.row(v);
            if (frame.child < row.size()) {
                const TangibleId w = row[frame.child++].target;
                if (index[w] == -1) {
                    index[w] = lowlink[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = 1;
                    frames.push_back(Frame{w, 0});
                } else if (on_stack[w]) {
                    lowlink[v] = std::min(lowlink[v], index[w]);
                }
                continue;
            }
            if (lowlink[v] == index[v]) {
                while (true) {
                    const TangibleId w = stack.back();
                    stack.pop_back();
                    on_stack[w] = 0;
                    scc_of[w] = num_sccs;
                    if (w == v) break;
                }
                ++num_sccs;
            }
            frames.pop_back();
            if (!frames.empty()) {
                const TangibleId parent = frames.back().v;
                lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
            }
        }
    }

    // A SCC is "bottom" when no member has an edge leaving it.
    std::vector<char> is_bottom(static_cast<std::size_t>(num_sccs), 1);
    for (TangibleId v = 0; v < n; ++v) {
        for (const RateEntry& e : chain.row(v)) {
            if (scc_of[e.target] != scc_of[v]) {
                is_bottom[static_cast<std::size_t>(scc_of[v])] = 0;
            }
        }
    }
    // Bottom classes in order of their smallest member, members ascending.
    std::vector<int> bottom_of(static_cast<std::size_t>(num_sccs), -1);
    std::vector<std::vector<TangibleId>> bottoms;
    for (TangibleId v = 0; v < n; ++v) {
        const auto c = static_cast<std::size_t>(scc_of[v]);
        if (!is_bottom[c]) continue;
        if (bottom_of[c] < 0) {
            bottom_of[c] = static_cast<int>(bottoms.size());
            bottoms.emplace_back();
        }
        bottoms[static_cast<std::size_t>(bottom_of[c])].push_back(v);
    }
    return bottoms;
}

namespace {

std::vector<double> steady_state_irreducible(const Ctmc& chain,
                                             const SolveOptions& options) {
    if (chain.num_states() <= options.dense_threshold) {
        std::vector<double> pi = steady_state_gth(chain);
        if (options.diagnostics != nullptr) {
            *options.diagnostics = SolveDiagnostics{};
            options.diagnostics->method = "gth";
            options.diagnostics->states = chain.num_states();
        }
        return pi;
    }
    try {
        return steady_state_gauss_seidel(chain, options);
    } catch (const NumericalError& e) {
        obs::logf(obs::LogLevel::Warn,
                  "solve: Gauss-Seidel failed on %zu states (%s); "
                  "falling back to power iteration",
                  chain.num_states(), e.what());
        return steady_state_power(chain, options);
    }
}

}  // namespace

std::vector<double> steady_state(const Ctmc& chain, const SolveOptions& options) {
    DPMA_REQUIRE(chain.num_states() >= 1, "empty chain");
    DPMA_NAMED_SPAN(span, "ctmc.solve", "solve");
    span.arg("states", static_cast<double>(chain.num_states()));
    obs::counter("ctmc.solve.calls").add();
    std::vector<std::vector<TangibleId>> bottoms;
    {
        DPMA_NAMED_SPAN(bscc_span, "ctmc.bscc", "solve");
        bottoms = bottom_sccs(chain);
        bscc_span.arg("bottoms", static_cast<double>(bottoms.size()));
    }
    if (bottoms.size() != 1) {
        throw NumericalError(
            "chain has " + std::to_string(bottoms.size()) +
            " recurrent classes; the long-run distribution depends on the "
            "initial state (is the model deadlock-free?)");
    }
    const std::vector<TangibleId>& recurrent = bottoms.front();
    span.arg("recurrent", static_cast<double>(recurrent.size()));
    std::vector<double> pi;
    if (recurrent.size() == chain.num_states()) {
        pi = steady_state_irreducible(chain, options);
    } else {
        std::vector<TangibleId> dense_of(chain.num_states(), kNoTangible);
        for (std::size_t i = 0; i < recurrent.size(); ++i) {
            dense_of[recurrent[i]] = static_cast<TangibleId>(i);
        }
        Ctmc sub(recurrent.size());
        for (std::size_t i = 0; i < recurrent.size(); ++i) {
            for (const RateEntry& e : chain.row(recurrent[i])) {
                DPMA_ASSERT(dense_of[e.target] != kNoTangible,
                            "edge leaves a bottom SCC");
                sub.add_rate(static_cast<TangibleId>(i), dense_of[e.target], e.rate);
            }
        }
        const std::vector<double> sub_pi = steady_state_irreducible(sub, options);
        pi.assign(chain.num_states(), 0.0);
        for (std::size_t i = 0; i < recurrent.size(); ++i) {
            pi[recurrent[i]] = sub_pi[i];
        }
    }
    if (options.diagnostics != nullptr) {
        options.diagnostics->balance_residual = balance_residual(chain, pi);
    }
    return pi;
}

namespace {

/// Below this log weight std::exp lands in the subnormal range where the
/// multiplicative recurrence would start from almost no significand bits;
/// PoissonWeights stays in log space until the series climbs back above it.
constexpr double kPoissonLogSwitch = -690.0;

}  // namespace

PoissonWeights::PoissonWeights(double lt) : lt_(lt), log_w_(-lt) {
    DPMA_REQUIRE(std::isfinite(lt) && lt >= 0.0,
                 "poisson weight parameter must be finite and >= 0");
    in_log_ = log_w_ < kPoissonLogSwitch;
    w_ = in_log_ ? 0.0 : std::exp(log_w_);
}

void PoissonWeights::advance() noexcept {
    ++k_;
    if (in_log_) {
        log_w_ += std::log(lt_) - std::log(static_cast<double>(k_));
        if (log_w_ >= kPoissonLogSwitch) {
            in_log_ = false;
            w_ = std::exp(log_w_);
        }
        return;
    }
    w_ *= lt_ / static_cast<double>(k_);
}

std::vector<double> dense_distribution(
    std::size_t states, const std::vector<std::pair<TangibleId, double>>& initial) {
    std::vector<double> pi(states, 0.0);
    for (const auto& [s, p] : initial) {
        DPMA_REQUIRE(s < states, "initial state out of range");
        DPMA_REQUIRE(std::isfinite(p) && p >= 0.0,
                     "initial mass must be finite and >= 0");
        pi[s] += p;
    }
    return pi;
}

Uniformiser::Uniformiser(const Ctmc& chain)
    : lambda_(std::max(chain.max_exit_rate() * 1.05, 1e-9)) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    offsets_.reserve(n + 1);
    offsets_.push_back(0);
    diagonal_.reserve(n);
    for (TangibleId s = 0; s < n; ++s) {
        entries_.insert(entries_.end(), chain.row(s).begin(), chain.row(s).end());
        offsets_.push_back(entries_.size());
        diagonal_.push_back(1.0 - chain.exit_rate(s) / lambda_);
    }
    vk_.resize(n);
    next_.resize(n);
    result_.resize(n);
}

double Uniformiser::run(std::span<const double> start, double time,
                        std::span<const double> reward_rates) {
    const std::size_t n = states();
    DPMA_REQUIRE(start.size() == n, "start vector does not match the chain");
    DPMA_REQUIRE(reward_rates.empty() || reward_rates.size() == n,
                 "reward vector does not match the chain");
    DPMA_REQUIRE(time >= 0.0, "negative time");
    vk_.assign(start.begin(), start.end());
    normalize(vk_);
    terms_ = 0;
    if (time == 0.0) {
        result_ = vk_;
        return 0.0;
    }

    const double lt = lambda_ * time;
    const std::size_t cap = 20 * (static_cast<std::size_t>(lt) + 10);
    std::fill(result_.begin(), result_.end(), 0.0);
    bool distribution_open = true;
    bool reward_open = !reward_rates.empty();
    // cdf = P(Pois(lt) <= k); the reward half weighs term k by
    // tail_k / lambda with tail_k = P(Pois(lt) >= k+1).
    double cdf = 0.0;
    KahanSum total;
    PoissonWeights weights(lt);
    for (std::size_t k = 0;; ++k, weights.advance()) {
        const double w = weights.current();
        cdf += w;
        const bool past_mean = static_cast<double>(k) >= lt;
        if (distribution_open) {
            if (w != 0.0) {
                for (std::size_t i = 0; i < n; ++i) result_[i] += w * vk_[i];
            }
            distribution_open = !(cdf >= 1.0 - 1e-12 && past_mean) && k <= cap;
        }
        if (reward_open) {
            const double tail = std::max(0.0, 1.0 - cdf);
            KahanSum dot;
            for (std::size_t i = 0; i < n; ++i) dot.add(vk_[i] * reward_rates[i]);
            total.add(tail / lambda_ * dot.value());
            reward_open = !(tail < 1e-13 && past_mean) && k <= cap;
        }
        if (!distribution_open && !reward_open) {
            terms_ = k + 1;
            break;
        }
        // v_{k+1} = v_k P, rows in order so every target sums as before.
        std::fill(next_.begin(), next_.end(), 0.0);
        for (std::size_t s = 0; s < n; ++s) {
            next_[s] += vk_[s] * diagonal_[s];
            const double mass = vk_[s] / lambda_;
            if (mass == 0.0) continue;
            for (std::size_t e = offsets_[s]; e < offsets_[s + 1]; ++e) {
                next_[entries_[e].target] += mass * entries_[e].rate;
            }
        }
        vk_.swap(next_);
    }
    normalize(result_);
    return total.value();
}

std::vector<double> transient(const Ctmc& chain,
                              const std::vector<std::pair<TangibleId, double>>& initial,
                              double time) {
    Uniformiser series(chain);
    (void)series.run(dense_distribution(chain.num_states(), initial), time);
    return series.distribution();
}

double accumulated_reward(const Ctmc& chain,
                          const std::vector<std::pair<TangibleId, double>>& initial,
                          const std::vector<double>& reward_rates, double time) {
    // An empty vector would ask the kernel to skip the reward half.
    DPMA_REQUIRE(reward_rates.size() == chain.num_states(),
                 "reward vector does not match the chain");
    Uniformiser series(chain);
    return series.run(dense_distribution(chain.num_states(), initial), time,
                      reward_rates);
}

}  // namespace dpma::ctmc
