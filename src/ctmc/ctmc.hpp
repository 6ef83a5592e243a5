#pragma once

/// \file ctmc.hpp
/// Continuous-time Markov chains extracted from a composed stochastic model.
///
/// The composed graph may contain *vanishing* states (states with enabled
/// immediate transitions; by maximal progress the timed transitions of such
/// states are pre-empted).  Construction eliminates them, producing a CTMC
/// over the *tangible* states, while keeping enough structure to compute
/// the firing frequency of every action — including actions that only occur
/// on immediate transitions — once the steady-state vector is known.

#include <cstdint>
#include <span>
#include <vector>

#include "adl/compose.hpp"
#include "lts/lts.hpp"

namespace dpma::ctmc {

/// Index of a tangible state in the CTMC (dense, 0-based).
using TangibleId = std::uint32_t;

inline constexpr TangibleId kNoTangible = 0xFFFFFFFFu;

/// One entry of the sparse generator: `rate` from the row state to `target`.
struct RateEntry {
    TangibleId target;
    double rate;
};

struct MarkovModel;

/// Sparse CTMC.  Diagonal entries are implicit (exit rates).
class Ctmc {
public:
    explicit Ctmc(std::size_t num_states) : rows_(num_states), exit_(num_states, 0.0) {}

    void add_rate(TangibleId from, TangibleId to, double rate);

    [[nodiscard]] std::size_t num_states() const noexcept { return rows_.size(); }
    [[nodiscard]] const std::vector<RateEntry>& row(TangibleId s) const { return rows_[s]; }
    [[nodiscard]] double exit_rate(TangibleId s) const { return exit_[s]; }

    /// Largest exit rate (uniformisation constant baseline).
    [[nodiscard]] double max_exit_rate() const;

private:
    /// Assembles whole rows from its own accumulator instead of add_rate.
    friend MarkovModel build_markov(const adl::ComposedModel& model, bool allow_absorbing);

    std::vector<std::vector<RateEntry>> rows_;
    std::vector<double> exit_;
};

/// Immediate branch out of a vanishing state after maximal progress and
/// weight normalisation.
struct VanishingBranch {
    lts::StateId target;    ///< composed-graph state id
    double probability;     ///< branch probability (weights normalised)
    lts::ActionId action;   ///< label, for transition rewards
};

/// Result of extracting a CTMC from a composed model.
struct MarkovModel {
    Ctmc chain{0};

    /// tangible_of[g] = dense CTMC index of composed state g, or kNoTangible.
    std::vector<TangibleId> tangible_of;
    /// orig_of[t] = composed-graph state id of CTMC state t.
    std::vector<lts::StateId> orig_of;

    /// Normalised immediate branches of every composed state in CSR form:
    /// state g owns branches[branch_offsets[g] .. branch_offsets[g+1]), an
    /// empty range for tangible states.  Read through vanishing_branches().
    /// The vanishing subgraph is acyclic (checked during construction).
    std::vector<std::uint32_t> branch_offsets;
    std::vector<VanishingBranch> branches;

    /// Vanishing states in a topological order of the vanishing subgraph
    /// (sources first); used to propagate visit frequencies.
    std::vector<lts::StateId> vanishing_topo_order;

    /// Initial probability distribution over tangible states (the composed
    /// initial state, pushed through vanishing states if needed).
    std::vector<std::pair<TangibleId, double>> initial_distribution;

    [[nodiscard]] bool is_tangible(lts::StateId g) const {
        return tangible_of[g] != kNoTangible;
    }

    /// Immediate branches of composed state \p g (empty when tangible).
    [[nodiscard]] std::span<const VanishingBranch> vanishing_branches(lts::StateId g) const {
        return {branches.data() + branch_offsets[g], branches.data() + branch_offsets[g + 1]};
    }
};

/// Extracts the CTMC.  Requirements checked:
///  * every transition is exponential, immediate or (RateUnspecified ==
///    forbidden) — a functional model cannot be solved;
///  * no passive transition survives composition;
///  * the vanishing subgraph (after maximal progress) has no cycles;
///  * every tangible state has at least one outgoing timed transition
///    unless \p allow_absorbing is true.
[[nodiscard]] MarkovModel build_markov(const adl::ComposedModel& model,
                                       bool allow_absorbing = false);

}  // namespace dpma::ctmc
