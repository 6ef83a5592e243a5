#include "ctmc/ctmc.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpma::ctmc {
namespace {

/// Dense scatter/gather accumulator over tangible ids: one double per
/// tangible state plus the list of ids touched since the last drain, so
/// merging k sparse terms costs O(k) and never allocates per state.  A
/// merged value is 0.0 plus its terms in call order, so its bits depend only
/// on the order of the adds (tests/ctmc_diff_test.cpp pins them).
class SparseAccumulator {
public:
    explicit SparseAccumulator(std::size_t n) : value_(n, 0.0), seen_(n, 0) {}

    void add(TangibleId t, double x) {
        if (seen_[t] == 0) {
            seen_[t] = 1;
            touched_.push_back(t);
        }
        value_[t] += x;
    }

    /// Hands every touched (id, value) to \p emit in first-touch order and
    /// resets the accumulator.
    template <typename Emit>
    void drain(Emit&& emit) {
        for (const TangibleId t : touched_) {
            emit(t, value_[t]);
            value_[t] = 0.0;
            seen_[t] = 0;
        }
        touched_.clear();
    }

private:
    std::vector<double> value_;
    std::vector<char> seen_;
    std::vector<TangibleId> touched_;
};

/// One tangible state entered from a vanishing state, with its probability.
struct ReachEntry {
    TangibleId target;
    double probability;
};

/// Rejects every transition kind a CTMC cannot carry.
void check_markovian(const adl::ComposedModel& model, const lts::Transition& t) {
    if (std::holds_alternative<lts::RateUnspecified>(t.rate)) {
        throw ModelError("transition " + model.graph.actions()->name(t.action) +
                         " has no rate: functional models cannot be solved as CTMCs");
    }
    if (lts::is_passive(t.rate)) {
        throw ModelError("passive transition " + model.graph.actions()->name(t.action) +
                         " survived composition (unattached interaction?)");
    }
    if (lts::is_general(t.rate)) {
        throw ModelError("generally distributed transition " +
                         model.graph.actions()->name(t.action) +
                         " in a Markovian model; use the simulator instead");
    }
}

/// Appends the maximal-progress filtered immediate branches of \p out to
/// \p branches; appends nothing when the state has no immediate transition
/// of positive weight at its top priority (i.e. is tangible).
void append_immediate_branches(std::span<const lts::Transition> out,
                               std::vector<VanishingBranch>& branches) {
    int best_priority = std::numeric_limits<int>::min();
    double total_weight = 0.0;
    for (const lts::Transition& t : out) {
        if (const auto* imm = std::get_if<lts::RateImmediate>(&t.rate)) {
            if (imm->priority > best_priority) {
                best_priority = imm->priority;
                total_weight = 0.0;
            }
            if (imm->priority == best_priority) total_weight += imm->weight;
        }
    }
    if (total_weight <= 0.0) return;
    for (const lts::Transition& t : out) {
        if (const auto* imm = std::get_if<lts::RateImmediate>(&t.rate)) {
            // Zero-weight branches can never fire; dropping them keeps
            // degenerate parameterisations (e.g. loss probability 0) legal.
            if (imm->priority == best_priority && imm->weight > 0.0) {
                branches.push_back(
                    VanishingBranch{t.target, imm->weight / total_weight, t.action});
            }
        }
    }
}

}  // namespace

void Ctmc::add_rate(TangibleId from, TangibleId to, double rate) {
    DPMA_REQUIRE(from < rows_.size() && to < rows_.size(), "CTMC state out of range");
    DPMA_REQUIRE(rate > 0.0, "CTMC rates must be positive");
    if (from == to) return;  // self-loops do not affect the CTMC dynamics
    for (RateEntry& e : rows_[from]) {
        if (e.target == to) {
            e.rate += rate;
            exit_[from] += rate;
            return;
        }
    }
    rows_[from].push_back(RateEntry{to, rate});
    exit_[from] += rate;
}

double Ctmc::max_exit_rate() const {
    double best = 0.0;
    for (double e : exit_) best = std::max(best, e);
    return best;
}

MarkovModel build_markov(const adl::ComposedModel& model, bool allow_absorbing) {
    const std::size_t n = model.graph.num_states();
    DPMA_NAMED_SPAN(span, "ctmc.build_markov", "ctmc");
    span.arg("states", static_cast<double>(n));
    MarkovModel out;
    out.tangible_of.assign(n, kNoTangible);
    out.branch_offsets.reserve(n + 1);
    out.branch_offsets.push_back(0);
    const lts::Lts::CsrView& csr = model.graph.csr();

    // Classify states, sanity-check rates and collect the immediate branches.
    std::size_t num_vanishing = 0;
    for (lts::StateId s = 0; s < n; ++s) {
        const std::span<const lts::Transition> transitions = csr.out(s);
        for (const lts::Transition& t : transitions) check_markovian(model, t);
        append_immediate_branches(transitions, out.branches);
        out.branch_offsets.push_back(static_cast<std::uint32_t>(out.branches.size()));
        if (out.branch_offsets[s + 1] == out.branch_offsets[s]) {
            out.tangible_of[s] = static_cast<TangibleId>(out.orig_of.size());
            out.orig_of.push_back(s);
        } else {
            ++num_vanishing;
        }
    }

    // Kahn's algorithm on the vanishing subgraph, sources in state order;
    // the order vector doubles as the FIFO.  Leftovers mean an immediate
    // cycle.
    {
        std::vector<std::uint32_t> indegree(n, 0);
        for (const VanishingBranch& b : out.branches) {
            if (!out.is_tangible(b.target)) ++indegree[b.target];
        }
        std::vector<lts::StateId>& order = out.vanishing_topo_order;
        order.reserve(num_vanishing);
        for (lts::StateId s = 0; s < n; ++s) {
            if (!out.is_tangible(s) && indegree[s] == 0) order.push_back(s);
        }
        for (std::size_t head = 0; head < order.size(); ++head) {
            for (const VanishingBranch& b : out.vanishing_branches(order[head])) {
                if (!out.is_tangible(b.target) && --indegree[b.target] == 0) {
                    order.push_back(b.target);
                }
            }
        }
        if (order.size() != num_vanishing) {
            throw NumericalError(
                "immediate-action cycle detected: the model lets time stand "
                "still forever (check immediate self-triggering loops)");
        }
    }

    // reach(v): distribution over tangible states entered from vanishing v,
    // one contiguous run of reach_pool per state.  Built in reverse
    // topological order so successors are ready.
    const std::size_t num_tangible = out.orig_of.size();
    SparseAccumulator acc(num_tangible);
    std::vector<ReachEntry> reach_pool;
    std::vector<std::uint32_t> reach_begin(n, 0);
    std::vector<std::uint32_t> reach_end(n, 0);
    const auto reach = [&](lts::StateId v) {
        return std::span<const ReachEntry>(reach_pool.data() + reach_begin[v],
                                          reach_pool.data() + reach_end[v]);
    };
    for (auto it = out.vanishing_topo_order.rbegin();
         it != out.vanishing_topo_order.rend(); ++it) {
        const lts::StateId v = *it;
        for (const VanishingBranch& b : out.vanishing_branches(v)) {
            if (out.is_tangible(b.target)) {
                acc.add(out.tangible_of[b.target], b.probability);
            } else {
                for (const ReachEntry& e : reach(b.target)) {
                    acc.add(e.target, b.probability * e.probability);
                }
            }
        }
        reach_begin[v] = static_cast<std::uint32_t>(reach_pool.size());
        acc.drain([&](TangibleId t, double p) { reach_pool.push_back(ReachEntry{t, p}); });
        reach_end[v] = static_cast<std::uint32_t>(reach_pool.size());
    }

    // Assemble the tangible CTMC row by row.  Each added rate is checked and
    // self-loops dropped exactly as Ctmc::add_rate does; the exit rate sums
    // the added rates in the same order add_rate would.
    Ctmc chain(num_tangible);
    for (TangibleId t = 0; t < num_tangible; ++t) {
        const lts::StateId s = out.orig_of[t];
        bool has_timed = false;
        double exit = 0.0;
        const auto add = [&](TangibleId to, double rate) {
            DPMA_REQUIRE(rate > 0.0, "CTMC rates must be positive");
            if (to == t) return;
            acc.add(to, rate);
            exit += rate;
        };
        for (const lts::Transition& tr : csr.out(s)) {
            const auto* exp_rate = std::get_if<lts::RateExp>(&tr.rate);
            if (exp_rate == nullptr) continue;  // tangible => no immediates enabled
            has_timed = true;
            if (out.is_tangible(tr.target)) {
                add(out.tangible_of[tr.target], exp_rate->rate);
            } else {
                for (const ReachEntry& e : reach(tr.target)) {
                    add(e.target, exp_rate->rate * e.probability);
                }
            }
        }
        if (!has_timed && !allow_absorbing) {
            throw ModelError("absorbing tangible state found (deadlock): " +
                             (model.graph.state_name(s).empty()
                                  ? "state " + std::to_string(s)
                                  : model.graph.state_name(s)));
        }
        std::vector<RateEntry>& row = chain.rows_[t];
        acc.drain([&](TangibleId to, double rate) { row.push_back(RateEntry{to, rate}); });
        chain.exit_[t] = exit;
    }
    out.chain = std::move(chain);

    obs::counter("ctmc.builds").add();
    obs::counter("ctmc.tangible_states").add(num_tangible);
    obs::counter("ctmc.vanishing_eliminated").add(n - num_tangible);
    span.arg("tangible", static_cast<double>(num_tangible));

    // Initial distribution.
    const lts::StateId init = model.graph.initial();
    DPMA_REQUIRE(init != lts::kNoState, "composed model has no initial state");
    if (out.is_tangible(init)) {
        out.initial_distribution.emplace_back(out.tangible_of[init], 1.0);
    } else {
        for (const ReachEntry& e : reach(init)) {
            out.initial_distribution.emplace_back(e.target, e.probability);
        }
    }
    return out;
}

}  // namespace dpma::ctmc
