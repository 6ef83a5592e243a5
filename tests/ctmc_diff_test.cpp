/// \file ctmc_diff_test.cpp
/// Differential tests for the CTMC hot path: `ctmc::build_markov` (flat
/// branch storage, dense accumulator) and `ctmc::steady_state_gth`
/// (zero-skipping, row-by-row) are compared against the retired
/// implementations, kept here verbatim as standalone references — the
/// per-state `std::unordered_map` vanishing elimination and the dense
/// textbook GTH loops.  The one-pass uniformisation kernel is compared the
/// same way against the retired standalone `transient` and
/// `accumulated_reward` series and the retired two-call battery profile
/// loop; all of those must be bit-identical too.
///
/// Every merged value of the elimination is summed in the same order as
/// before, so tangible rates, reach probabilities and the initial
/// distribution must agree bit for bit as sets.  Only the order of a row's
/// entries — and with it the summation order of its exit rate — used to
/// follow the hash map's iteration order; exit rates that summed a reach
/// set of more than one entry may differ by rounding (1e-14 relative),
/// all others must be equal.  GTH must be bit-identical (memcmp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "adl/compose.hpp"
#include "aemilia/parser.hpp"
#include "battery/coupling.hpp"
#include "core/error.hpp"
#include "core/stats_math.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/solve.hpp"
#include "exp/cache.hpp"
#include "models/builder.hpp"
#include "models/rpc.hpp"
#include "models/specs.hpp"
#include "models/streaming.hpp"

namespace dpma::ctmc {
namespace {

using models::act;
using models::alt;

// ---------------------------------------------------------------------------
// Reference vanishing elimination: the retired implementation, verbatim
// except that it fills RefMarkov and keeps its reach maps for the checks.
// ---------------------------------------------------------------------------

struct RefMarkov {
    Ctmc chain{0};
    std::vector<TangibleId> tangible_of;
    std::vector<lts::StateId> orig_of;
    std::vector<std::vector<VanishingBranch>> vanishing_branches;
    std::vector<lts::StateId> vanishing_topo_order;
    std::vector<std::pair<TangibleId, double>> initial_distribution;
    std::vector<std::unordered_map<lts::StateId, double>> reach;

    [[nodiscard]] bool is_tangible(lts::StateId g) const {
        return tangible_of[g] != kNoTangible;
    }
};

std::vector<VanishingBranch> ref_immediate_branches(const lts::Lts::CsrView& csr,
                                                    lts::StateId state) {
    int best_priority = std::numeric_limits<int>::min();
    double total_weight = 0.0;
    for (const lts::Transition& t : csr.out(state)) {
        if (const auto* imm = std::get_if<lts::RateImmediate>(&t.rate)) {
            if (imm->priority > best_priority) {
                best_priority = imm->priority;
                total_weight = 0.0;
            }
            if (imm->priority == best_priority) total_weight += imm->weight;
        }
    }
    std::vector<VanishingBranch> branches;
    if (total_weight <= 0.0) return branches;
    for (const lts::Transition& t : csr.out(state)) {
        if (const auto* imm = std::get_if<lts::RateImmediate>(&t.rate)) {
            if (imm->priority == best_priority && imm->weight > 0.0) {
                branches.push_back(
                    VanishingBranch{t.target, imm->weight / total_weight, t.action});
            }
        }
    }
    return branches;
}

RefMarkov ref_build_markov(const adl::ComposedModel& model, bool allow_absorbing = false) {
    const std::size_t n = model.graph.num_states();
    RefMarkov out;
    out.tangible_of.assign(n, kNoTangible);
    out.vanishing_branches.resize(n);
    const lts::Lts::CsrView& csr = model.graph.csr();

    for (lts::StateId s = 0; s < n; ++s) {
        for (const lts::Transition& t : csr.out(s)) {
            if (std::holds_alternative<lts::RateUnspecified>(t.rate)) {
                throw ModelError(
                    "transition " + model.graph.actions()->name(t.action) +
                    " has no rate: functional models cannot be solved as CTMCs");
            }
            if (lts::is_passive(t.rate)) {
                throw ModelError("passive transition " +
                                 model.graph.actions()->name(t.action) +
                                 " survived composition (unattached interaction?)");
            }
            if (lts::is_general(t.rate)) {
                throw ModelError("generally distributed transition " +
                                 model.graph.actions()->name(t.action) +
                                 " in a Markovian model; use the simulator instead");
            }
        }
        out.vanishing_branches[s] = ref_immediate_branches(csr, s);
        if (out.vanishing_branches[s].empty()) {
            out.tangible_of[s] = static_cast<TangibleId>(out.orig_of.size());
            out.orig_of.push_back(s);
        }
    }

    {
        std::vector<int> indegree(n, 0);
        std::vector<lts::StateId> vanishing;
        for (lts::StateId s = 0; s < n; ++s) {
            if (out.is_tangible(s)) continue;
            vanishing.push_back(s);
            for (const VanishingBranch& b : out.vanishing_branches[s]) {
                if (!out.is_tangible(b.target)) ++indegree[b.target];
            }
        }
        std::deque<lts::StateId> ready;
        for (lts::StateId s : vanishing) {
            if (indegree[s] == 0) ready.push_back(s);
        }
        while (!ready.empty()) {
            const lts::StateId s = ready.front();
            ready.pop_front();
            out.vanishing_topo_order.push_back(s);
            for (const VanishingBranch& b : out.vanishing_branches[s]) {
                if (!out.is_tangible(b.target) && --indegree[b.target] == 0) {
                    ready.push_back(b.target);
                }
            }
        }
        if (out.vanishing_topo_order.size() != vanishing.size()) {
            throw NumericalError(
                "immediate-action cycle detected: the model lets time stand "
                "still forever (check immediate self-triggering loops)");
        }
    }

    std::vector<std::unordered_map<lts::StateId, double>>& reach = out.reach;
    reach.resize(n);
    for (auto it = out.vanishing_topo_order.rbegin();
         it != out.vanishing_topo_order.rend(); ++it) {
        const lts::StateId v = *it;
        auto& dist = reach[v];
        for (const VanishingBranch& b : out.vanishing_branches[v]) {
            if (out.is_tangible(b.target)) {
                dist[b.target] += b.probability;
            } else {
                for (const auto& [g, p] : reach[b.target]) {
                    dist[g] += b.probability * p;
                }
            }
        }
    }

    Ctmc chain(out.orig_of.size());
    for (TangibleId t = 0; t < out.orig_of.size(); ++t) {
        const lts::StateId s = out.orig_of[t];
        bool has_timed = false;
        for (const lts::Transition& tr : csr.out(s)) {
            const auto* exp_rate = std::get_if<lts::RateExp>(&tr.rate);
            if (exp_rate == nullptr) continue;
            has_timed = true;
            if (out.is_tangible(tr.target)) {
                chain.add_rate(t, out.tangible_of[tr.target], exp_rate->rate);
            } else {
                for (const auto& [g, p] : reach[tr.target]) {
                    chain.add_rate(t, out.tangible_of[g], exp_rate->rate * p);
                }
            }
        }
        if (!has_timed && !allow_absorbing) {
            throw ModelError("absorbing tangible state found (deadlock): " +
                             (model.graph.state_name(s).empty()
                                  ? "state " + std::to_string(s)
                                  : model.graph.state_name(s)));
        }
    }
    out.chain = std::move(chain);

    const lts::StateId init = model.graph.initial();
    if (out.is_tangible(init)) {
        out.initial_distribution.emplace_back(out.tangible_of[init], 1.0);
    } else {
        for (const auto& [g, p] : reach[init]) {
            out.initial_distribution.emplace_back(out.tangible_of[g], p);
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Reference GTH: the retired dense loops, verbatim.
// ---------------------------------------------------------------------------

void ref_normalize(std::vector<double>& pi) {
    KahanSum sum;
    for (double p : pi) sum.add(p);
    const double total = sum.value();
    for (double& p : pi) p /= total;
}

std::vector<double> ref_gth(const Ctmc& chain) {
    const std::size_t n = chain.num_states();
    if (n == 1) return {1.0};
    std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
    for (TangibleId s = 0; s < n; ++s) {
        for (const RateEntry& e : chain.row(s)) {
            a[s][e.target] += e.rate;
        }
    }
    for (std::size_t k = n - 1; k >= 1; --k) {
        KahanSum departure;
        for (std::size_t j = 0; j < k; ++j) departure.add(a[k][j]);
        const double s = departure.value();
        if (s <= 0.0) {
            throw NumericalError(
                "GTH: state " + std::to_string(k) +
                " cannot reach lower-numbered states (chain not irreducible)");
        }
        for (std::size_t i = 0; i < k; ++i) a[i][k] /= s;
        for (std::size_t i = 0; i < k; ++i) {
            const double f = a[i][k];
            if (f == 0.0) continue;
            for (std::size_t j = 0; j < k; ++j) {
                if (j != i) a[i][j] += f * a[k][j];
            }
        }
    }
    std::vector<double> pi(n, 0.0);
    pi[0] = 1.0;
    for (std::size_t k = 1; k < n; ++k) {
        KahanSum sum;
        for (std::size_t i = 0; i < k; ++i) sum.add(pi[i] * a[i][k]);
        pi[k] = sum.value();
    }
    ref_normalize(pi);
    return pi;
}

/// Restriction of \p chain to its single recurrent class, built the way
/// steady_state builds it.
Ctmc recurrent_subchain(const Ctmc& chain) {
    const auto bottoms = bottom_sccs(chain);
    EXPECT_EQ(bottoms.size(), 1u);
    const std::vector<TangibleId>& recurrent = bottoms.front();
    std::vector<TangibleId> dense_of(chain.num_states(), kNoTangible);
    for (std::size_t i = 0; i < recurrent.size(); ++i) {
        dense_of[recurrent[i]] = static_cast<TangibleId>(i);
    }
    Ctmc sub(recurrent.size());
    for (std::size_t i = 0; i < recurrent.size(); ++i) {
        for (const RateEntry& e : chain.row(recurrent[i])) {
            sub.add_rate(static_cast<TangibleId>(i), dense_of[e.target], e.rate);
        }
    }
    return sub;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

struct Case {
    std::string name;
    adl::ComposedModel model;
};

/// Every shipped Markov spec at three DPM shutdown rates, plus the larger
/// streaming capacities of the Fig. 4 family.
const std::vector<Case>& cases() {
    static const std::vector<Case> all = [] {
        std::vector<Case> out;
        const std::pair<const char*, std::string_view> specs[] = {
            {"rpc_revised_markov", models::rpc_revised_markov_spec()},
            {"streaming_markov", models::streaming_markov_spec()},
            {"disk_markov", models::disk_markov_spec()},
        };
        for (const auto& [name, text] : specs) {
            const adl::ComposedModel base = adl::compose(aemilia::parse_archi_type(text));
            for (const double rate : {0.01, 0.2, 5.0}) {
                out.push_back(Case{std::string(name) + " shutdown=" + std::to_string(rate),
                                   exp::with_exp_rate(base, "DPM", "send_shutdown", rate)});
            }
        }
        for (const auto& [ap, b] : {std::pair{10L, 10L}, {12L, 12L}, {14L, 10L}}) {
            models::streaming::Config config = models::streaming::markovian(100.0, true);
            config.params.ap_capacity = ap;
            config.params.b_capacity = b;
            out.push_back(Case{"streaming " + std::to_string(ap) + "/" + std::to_string(b),
                               models::streaming::compose(config)});
        }
        return out;
    }();
    return all;
}

std::vector<RateEntry> sorted_row(const Ctmc& chain, TangibleId t) {
    std::vector<RateEntry> row(chain.row(t).begin(), chain.row(t).end());
    std::sort(row.begin(), row.end(),
              [](const RateEntry& x, const RateEntry& y) { return x.target < y.target; });
    return row;
}

/// True when some timed transition of tangible state \p t enters a
/// vanishing state whose reach set has more than one tangible state.
bool sums_a_multi_entry_reach_set(const adl::ComposedModel& model, const RefMarkov& ref,
                                  TangibleId t) {
    for (const lts::Transition& tr : model.graph.csr().out(ref.orig_of[t])) {
        if (std::holds_alternative<lts::RateExp>(tr.rate) && !ref.is_tangible(tr.target) &&
            ref.reach[tr.target].size() > 1) {
            return true;
        }
    }
    return false;
}

TEST(CtmcDiff, EliminationMatchesMapReference) {
    for (const Case& c : cases()) {
        SCOPED_TRACE(c.name);
        const RefMarkov ref = ref_build_markov(c.model);
        const MarkovModel fresh = build_markov(c.model);

        ASSERT_EQ(fresh.tangible_of, ref.tangible_of);
        ASSERT_EQ(fresh.orig_of, ref.orig_of);
        ASSERT_EQ(fresh.vanishing_topo_order, ref.vanishing_topo_order);
        for (lts::StateId g = 0; g < c.model.graph.num_states(); ++g) {
            const auto branches = fresh.vanishing_branches(g);
            ASSERT_EQ(branches.size(), ref.vanishing_branches[g].size()) << "state " << g;
            for (std::size_t b = 0; b < branches.size(); ++b) {
                EXPECT_EQ(branches[b].target, ref.vanishing_branches[g][b].target);
                EXPECT_EQ(branches[b].action, ref.vanishing_branches[g][b].action);
                EXPECT_TRUE(bit_equal(branches[b].probability,
                                      ref.vanishing_branches[g][b].probability));
            }
        }

        ASSERT_EQ(fresh.chain.num_states(), ref.chain.num_states());
        std::size_t multi_rows = 0;
        for (TangibleId t = 0; t < ref.chain.num_states(); ++t) {
            const auto want = sorted_row(ref.chain, t);
            const auto got = sorted_row(fresh.chain, t);
            ASSERT_EQ(got.size(), want.size()) << "row " << t;
            for (std::size_t e = 0; e < want.size(); ++e) {
                EXPECT_EQ(got[e].target, want[e].target) << "row " << t;
                EXPECT_TRUE(bit_equal(got[e].rate, want[e].rate))
                    << "row " << t << " -> " << want[e].target << ": " << got[e].rate
                    << " vs " << want[e].rate;
            }
            const double exit = fresh.chain.exit_rate(t);
            const double want_exit = ref.chain.exit_rate(t);
            if (sums_a_multi_entry_reach_set(c.model, ref, t)) {
                ++multi_rows;
                EXPECT_LE(std::abs(exit - want_exit), 1e-14 * want_exit) << "row " << t;
            } else {
                EXPECT_TRUE(bit_equal(exit, want_exit)) << "row " << t;
            }
        }
        RecordProperty(c.name + " multi-entry rows", static_cast<int>(multi_rows));

        auto init = fresh.initial_distribution;
        auto want_init = ref.initial_distribution;
        std::sort(init.begin(), init.end());
        std::sort(want_init.begin(), want_init.end());
        ASSERT_EQ(init.size(), want_init.size());
        for (std::size_t i = 0; i < init.size(); ++i) {
            EXPECT_EQ(init[i].first, want_init[i].first);
            EXPECT_TRUE(bit_equal(init[i].second, want_init[i].second));
        }
    }
}

TEST(CtmcDiff, GthIsBitIdenticalOnModelChains) {
    for (const Case& c : cases()) {
        SCOPED_TRACE(c.name);
        const RefMarkov ref = ref_build_markov(c.model);
        const MarkovModel fresh = build_markov(c.model);
        const Ctmc ref_sub = recurrent_subchain(ref.chain);
        const Ctmc sub = recurrent_subchain(fresh.chain);
        const std::vector<double> want = ref_gth(ref_sub);
        EXPECT_TRUE(bit_equal(steady_state_gth(sub), want));
        EXPECT_TRUE(bit_equal(steady_state_gth(ref_sub), want));

        // The dispatched solve lifts the same vector back onto the chain.
        const std::vector<double> pi = steady_state(fresh.chain);
        const auto bottoms = bottom_sccs(fresh.chain);
        ASSERT_EQ(bottoms.size(), 1u);
        for (std::size_t i = 0; i < bottoms.front().size(); ++i) {
            EXPECT_TRUE(bit_equal(pi[bottoms.front()[i]], want[i]));
        }
    }
}

/// property_test-style random chain: with \p ring every state reaches its
/// successor (irreducible); without it the chain is usually reducible, and
/// a low edge density leaves most of the GTH matrix zero.
Ctmc random_chain(std::uint64_t seed, std::size_t n, double edges_per_state, bool ring) {
    std::mt19937_64 rng(seed * 7919 + 13);
    std::uniform_real_distribution<double> rate(0.1, 5.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    Ctmc chain(n);
    if (ring) {
        for (std::size_t i = 0; i < n; ++i) {
            chain.add_rate(static_cast<TangibleId>(i), static_cast<TangibleId>((i + 1) % n),
                           rate(rng));
        }
    }
    const auto extra = static_cast<std::size_t>(edges_per_state * static_cast<double>(n));
    for (std::size_t e = 0; e < extra; ++e) {
        const std::size_t from = pick(rng);
        const std::size_t to = pick(rng);
        if (from != to) {
            chain.add_rate(static_cast<TangibleId>(from), static_cast<TangibleId>(to),
                           rate(rng));
        }
    }
    return chain;
}

/// GTH outcome as a comparable value: the vector, or the error message.
struct GthOutcome {
    std::vector<double> pi;
    std::string error;
};

template <typename Solve>
GthOutcome run_gth(const Ctmc& chain, Solve solve) {
    try {
        return GthOutcome{solve(chain), {}};
    } catch (const NumericalError& e) {
        return GthOutcome{{}, e.what()};
    }
}

TEST(CtmcDiff, GthIsBitIdenticalOnRandomChains) {
    std::size_t reducible = 0;
    std::size_t rejected = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        const std::size_t n = 2 + seed % 61;
        const bool ring = seed % 3 != 0;
        const double density = (seed % 4 == 0) ? 0.6 : 3.0;
        const Ctmc chain = random_chain(seed, n, density, ring);
        if (!is_irreducible(chain)) ++reducible;
        const GthOutcome want = run_gth(chain, ref_gth);
        const GthOutcome got = run_gth(chain, steady_state_gth);
        if (!want.error.empty()) ++rejected;
        EXPECT_EQ(got.error, want.error) << "seed " << seed;
        EXPECT_TRUE(bit_equal(got.pi, want.pi)) << "seed " << seed;
    }
    // The sample must exercise both the reducible and the rejecting paths.
    EXPECT_GT(reducible, 10u);
    EXPECT_GT(rejected, 5u);
}

// ---------------------------------------------------------------------------
// Reference uniformisation: the retired standalone `transient` and
// `accumulated_reward` series and the retired two-call profile loop of
// `battery::transient_power_profile`, verbatim.  The one-pass Uniformiser
// must reproduce all of them bit for bit.
// ---------------------------------------------------------------------------

void ref_normalize_checked(std::vector<double>& pi) {
    KahanSum sum;
    for (double p : pi) sum.add(p);
    const double total = sum.value();
    DPMA_REQUIRE(total > 0.0, "probability vector has zero mass");
    for (double& p : pi) p /= total;
}

std::vector<double> ref_transient(const Ctmc& chain,
                                  const std::vector<std::pair<TangibleId, double>>& initial,
                                  double time) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    DPMA_REQUIRE(time >= 0.0, "negative time");
    std::vector<double> pi(n, 0.0);
    for (const auto& [s, p] : initial) {
        DPMA_REQUIRE(s < n, "initial state out of range");
        pi[s] += p;
    }
    ref_normalize_checked(pi);
    if (time == 0.0) return pi;

    const double lambda = std::max(chain.max_exit_rate() * 1.05, 1e-9);
    const double lt = lambda * time;

    const auto step = [&](const std::vector<double>& v, std::vector<double>& out) {
        std::fill(out.begin(), out.end(), 0.0);
        for (TangibleId s = 0; s < n; ++s) {
            out[s] += v[s] * (1.0 - chain.exit_rate(s) / lambda);
            const double mass = v[s] / lambda;
            if (mass == 0.0) continue;
            for (const RateEntry& e : chain.row(s)) {
                out[e.target] += mass * e.rate;
            }
        }
    };

    std::vector<double> result(n, 0.0);
    std::vector<double> vk = pi;
    std::vector<double> next(n, 0.0);
    double cumulative = 0.0;
    PoissonWeights weights(lt);
    for (std::size_t k = 0;; ++k, weights.advance()) {
        const double w = weights.current();
        if (w != 0.0) {
            for (std::size_t i = 0; i < n; ++i) result[i] += w * vk[i];
        }
        cumulative += w;
        if (cumulative >= 1.0 - 1e-12 && static_cast<double>(k) >= lt) break;
        if (k > 20 * (static_cast<std::size_t>(lt) + 10)) break;  // safety cap
        step(vk, next);
        vk.swap(next);
    }
    ref_normalize_checked(result);
    return result;
}

double ref_accumulated_reward(const Ctmc& chain,
                              const std::vector<std::pair<TangibleId, double>>& initial,
                              const std::vector<double>& reward_rates, double time) {
    const std::size_t n = chain.num_states();
    DPMA_REQUIRE(n >= 1, "empty chain");
    DPMA_REQUIRE(reward_rates.size() == n, "reward vector does not match the chain");
    DPMA_REQUIRE(time >= 0.0, "negative time");
    if (time == 0.0) return 0.0;

    std::vector<double> pi(n, 0.0);
    for (const auto& [s, p] : initial) {
        DPMA_REQUIRE(s < n, "initial state out of range");
        pi[s] += p;
    }
    ref_normalize_checked(pi);

    const double lambda = std::max(chain.max_exit_rate() * 1.05, 1e-9);
    const double lt = lambda * time;

    const auto step = [&](const std::vector<double>& v, std::vector<double>& out) {
        std::fill(out.begin(), out.end(), 0.0);
        for (TangibleId s = 0; s < n; ++s) {
            out[s] += v[s] * (1.0 - chain.exit_rate(s) / lambda);
            const double mass = v[s] / lambda;
            if (mass == 0.0) continue;
            for (const RateEntry& e : chain.row(s)) {
                out[e.target] += mass * e.rate;
            }
        }
    };

    KahanSum total;
    std::vector<double> vk = pi;
    std::vector<double> next(n, 0.0);
    double cdf = 0.0;  // P(Pois(lt) <= k)
    PoissonWeights weights(lt);
    for (std::size_t k = 0;; ++k, weights.advance()) {
        cdf += weights.current();
        const double tail = std::max(0.0, 1.0 - cdf);
        KahanSum dot;
        for (std::size_t i = 0; i < n; ++i) dot.add(vk[i] * reward_rates[i]);
        total.add(tail / lambda * dot.value());
        if (tail < 1e-13 && static_cast<double>(k) >= lt) break;
        if (k > 20 * (static_cast<std::size_t>(lt) + 10)) break;  // safety cap
        step(vk, next);
        vk.swap(next);
    }
    return total.value();
}

battery::PowerProfile ref_power_profile(
    const Ctmc& chain, const std::vector<std::pair<TangibleId, double>>& initial,
    const std::vector<double>& power, const battery::ProfileOptions& options) {
    battery::PowerProfile profile;
    const double max_exit = chain.max_exit_rate();
    profile.step = options.step > 0.0
                       ? options.step
                       : (max_exit > 0.0 ? 0.5 / max_exit : 1.0);

    std::vector<double> pi(chain.num_states(), 0.0);
    for (const auto& [state, mass] : initial) {
        pi[state] += mass;
    }

    const auto expected_power = [&](const std::vector<double>& dist) {
        KahanSum sum;
        for (std::size_t s = 0; s < dist.size(); ++s) {
            sum.add(dist[s] * power[s]);
        }
        return sum.value();
    };
    const auto sparse = [](const std::vector<double>& dist) {
        std::vector<std::pair<TangibleId, double>> entries;
        for (std::size_t s = 0; s < dist.size(); ++s) {
            if (dist[s] > 0.0) {
                entries.emplace_back(static_cast<TangibleId>(s), dist[s]);
            }
        }
        return entries;
    };

    for (std::size_t i = 0; i < options.max_steps; ++i) {
        const auto entries = sparse(pi);
        const double energy = ref_accumulated_reward(chain, entries, power, profile.step);
        profile.power.push_back(energy / profile.step);

        const std::vector<double> next = ref_transient(chain, entries, profile.step);
        double delta = 0.0;
        for (std::size_t s = 0; s < pi.size(); ++s) {
            delta = std::max(delta, std::abs(next[s] - pi[s]));
        }
        pi = next;
        if (delta < options.tolerance) {
            profile.stationary = true;
            break;
        }
    }
    profile.tail_power = expected_power(pi);
    return profile;
}

/// A Markovian chain with its power vector: the rpc server and the Fig. 4
/// streaming NIC at small buffer capacities, DPM off and on.
struct PowerCase {
    std::string name;
    MarkovModel markov;
    std::vector<double> power;
};

const std::vector<PowerCase>& power_cases() {
    static const std::vector<PowerCase> all = [] {
        std::vector<PowerCase> out;
        const auto add = [&out](std::string name, const adl::ComposedModel& model,
                                const adl::Measure& measure) {
            MarkovModel markov = build_markov(model);
            std::vector<double> power = battery::tangible_power(markov, model, measure);
            out.push_back(PowerCase{std::move(name), std::move(markov), std::move(power)});
        };
        for (const bool dpm : {false, true}) {
            const std::string policy = dpm ? " DPM" : " NO-DPM";
            add("rpc" + policy, models::rpc::compose(models::rpc::markovian(10.0, dpm)),
                models::rpc::measures()[models::rpc::kEnergyRate]);
            for (const long capacity : {3L, 4L}) {
                models::streaming::Config config = models::streaming::markovian(100.0, dpm);
                config.params.ap_capacity = capacity;
                config.params.b_capacity = capacity;
                add("streaming " + std::to_string(capacity) + "/" + std::to_string(capacity) +
                        policy,
                    models::streaming::compose(config),
                    models::streaming::measures()[models::streaming::kEnergyRate]);
            }
        }
        return out;
    }();
    return all;
}

void expect_same_profile(const battery::PowerProfile& got,
                         const battery::PowerProfile& want) {
    EXPECT_TRUE(bit_equal(got.step, want.step));
    EXPECT_EQ(got.power.size(), want.power.size());
    EXPECT_TRUE(bit_equal(got.power, want.power));
    EXPECT_TRUE(bit_equal(got.tail_power, want.tail_power));
    EXPECT_EQ(got.stationary, want.stationary);
}

TEST(UniformiserDiff, PowerProfileIsBitIdenticalToTheTwoCallLoop) {
    for (const PowerCase& c : power_cases()) {
        SCOPED_TRACE(c.name);
        const Ctmc& chain = c.markov.chain;
        const auto& initial = c.markov.initial_distribution;

        const battery::ProfileOptions automatic;  // what ctmc_lifetime uses
        const battery::PowerProfile want = ref_power_profile(chain, initial, c.power, automatic);
        EXPECT_TRUE(want.stationary);
        EXPECT_GT(want.power.size(), 1u);
        expect_same_profile(battery::transient_power_profile(chain, initial, c.power, automatic),
                            want);

        battery::ProfileOptions explicit_step;
        explicit_step.step = 4.0;  // long steps: Lambda t reaches ~33 on rpc
        explicit_step.tolerance = 1e-9;
        expect_same_profile(
            battery::transient_power_profile(chain, initial, c.power, explicit_step),
            ref_power_profile(chain, initial, c.power, explicit_step));

        battery::ProfileOptions capped;
        capped.max_steps = 7;
        const battery::PowerProfile capped_want =
            ref_power_profile(chain, initial, c.power, capped);
        EXPECT_FALSE(capped_want.stationary);
        EXPECT_EQ(capped_want.power.size(), 7u);
        expect_same_profile(battery::transient_power_profile(chain, initial, c.power, capped),
                            capped_want);
    }
}

TEST(UniformiserDiff, WrappersAreBitIdenticalToTheStandaloneSeries) {
    for (const PowerCase& c : power_cases()) {
        SCOPED_TRACE(c.name);
        const Ctmc& chain = c.markov.chain;
        const double lambda = std::max(chain.max_exit_rate() * 1.05, 1e-9);
        // An unnormalised two-state start exercises the normalisation too.
        const std::vector<std::pair<TangibleId, double>> spread = {
            {0, 2.0}, {static_cast<TangibleId>(chain.num_states() - 1), 3.0}};
        for (const auto* initial : {&c.markov.initial_distribution, &spread}) {
            // t = 0, short and long horizons, and Lambda t = 1500: its
            // Poisson head underflows and is walked in log space.
            for (const double t : {0.0, 0.3, 5.0, 100.0, 1500.0 / lambda}) {
                SCOPED_TRACE("t = " + std::to_string(t));
                EXPECT_TRUE(bit_equal(transient(chain, *initial, t),
                                      ref_transient(chain, *initial, t)));
                EXPECT_TRUE(bit_equal(accumulated_reward(chain, *initial, c.power, t),
                                      ref_accumulated_reward(chain, *initial, c.power, t)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------------

adl::ComposedModel single_instance(std::vector<adl::BehaviorDef> behaviors,
                                   std::vector<std::string> inputs = {}) {
    adl::ArchiType archi;
    archi.name = "Probe";
    adl::ElemType t;
    t.name = "T";
    t.behaviors = std::move(behaviors);
    t.input_interactions = std::move(inputs);
    archi.elem_types = {t};
    archi.instances = {adl::Instance{"X", "T", {}}};
    return adl::compose(archi);
}

/// Runs \p build and names the exception type it throws ("" for none).
template <typename Build>
std::string thrown_by(Build build) {
    try {
        build();
    } catch (const ModelError& e) {
        return std::string("ModelError: ") + e.what();
    } catch (const NumericalError& e) {
        return std::string("NumericalError: ") + e.what();
    }
    return "";
}

TEST(CtmcDiff, ErrorsMatchReference) {
    const std::vector<std::pair<const char*, adl::ComposedModel>> models = {
        {"immediate cycle",
         single_instance({
             adl::BehaviorDef{"A", {}, {alt({act("ping", lts::RateImmediate{})}, "B")}},
             adl::BehaviorDef{"B", {}, {alt({act("pong", lts::RateImmediate{})}, "A")}},
         })},
        {"deadlock",
         single_instance(
             {
                 adl::BehaviorDef{"A", {}, {alt({act("once", lts::RateExp{1.0})}, "B")}},
                 adl::BehaviorDef{"B", {}, {alt({act("blocked", lts::RatePassive{})}, "B")}},
             },
             {"blocked"})},
        {"unspecified rate",
         single_instance({
             adl::BehaviorDef{"A", {}, {alt({act("go", lts::RateUnspecified{})}, "A")}},
         })},
        {"general rate",
         single_instance({
             adl::BehaviorDef{
                 "A", {}, {alt({act("go", lts::RateGeneral{Dist::deterministic(1.0)})}, "A")}},
         })},
        {"passive rate",
         single_instance({
             adl::BehaviorDef{"A", {}, {alt({act("go", lts::RatePassive{})}, "A")}},
         })},
    };
    for (const auto& [name, model] : models) {
        SCOPED_TRACE(name);
        const std::string want = thrown_by([&] { (void)ref_build_markov(model); });
        EXPECT_FALSE(want.empty());
        EXPECT_EQ(thrown_by([&] { (void)build_markov(model); }), want);
    }
    // Absorbing states pass when allowed, in both.
    const adl::ComposedModel& dead = models[1].second;
    EXPECT_EQ(thrown_by([&] { (void)build_markov(dead, /*allow_absorbing=*/true); }), "");
    EXPECT_EQ(thrown_by([&] { (void)ref_build_markov(dead, /*allow_absorbing=*/true); }), "");
}

}  // namespace
}  // namespace dpma::ctmc
