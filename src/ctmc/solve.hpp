#pragma once

/// \file solve.hpp
/// Numerical solution of CTMCs: steady-state distribution via GTH
/// (Grassmann–Taksar–Heyman, subtraction-free and numerically stable, used
/// for small chains), Gauss–Seidel and power iteration (sparse, for large
/// chains), and transient analysis via uniformisation.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ctmc/ctmc.hpp"

namespace dpma::ctmc {

/// Convergence record of one steady-state solve, filled when the caller
/// hangs a SolveDiagnostics off SolveOptions.  For the iterative methods the
/// residual history is the max-norm change of successive iterates, thinned
/// to at most ~2048 samples (residual_stride reports the decimation factor);
/// GTH is direct, so it reports zero iterations and an empty history.  The
/// step size says when an iteration stopped, not how good its answer is:
/// balance_residual is the true ||pi Q||_inf of the returned vector on the
/// chain the caller passed, for every method.
struct SolveDiagnostics {
    std::string method;            ///< "gth", "gauss_seidel" or "power"
    std::size_t states = 0;        ///< size of the chain actually solved
    std::size_t iterations = 0;
    double final_residual = 0.0;   ///< last step size (0 for GTH)
    double balance_residual = 0.0;
    std::size_t residual_stride = 1;
    std::vector<double> residuals;

    /// JSON object with the fields above (valid per obs::json_valid); what
    /// exp::ResultSet embeds as a point's "diagnostics".
    [[nodiscard]] std::string json() const;

    void record_residual(double residual);

private:
    std::size_t pending_ = 0;  ///< samples skipped since the last kept one
};

struct SolveOptions {
    double tolerance = 1e-12;          ///< max norm of successive-iterate change
    std::size_t max_iterations = 500000;
    std::size_t dense_threshold = 1500;  ///< up to this size use GTH
    /// When non-null, the solver writes its convergence record here (the
    /// caller keeps ownership; one solve per struct).
    SolveDiagnostics* diagnostics = nullptr;
};

/// True when every state can reach every other state (one Tarjan pass: a
/// single bottom SCC holding every state).
[[nodiscard]] bool is_irreducible(const Ctmc& chain);

/// Bottom strongly connected components (recurrent classes) of the chain.
/// Each inner vector lists the member states of one BSCC in ascending
/// order; the classes are ordered by their smallest member.
[[nodiscard]] std::vector<std::vector<TangibleId>> bottom_sccs(const Ctmc& chain);

/// Balance residual ||pi Q||_inf: the largest net probability flow into any
/// state under \p pi (zero for an exact stationary vector).
[[nodiscard]] double balance_residual(const Ctmc& chain, const std::vector<double>& pi);

/// Steady-state distribution, dispatching on chain size: GTH below the dense
/// threshold, Gauss–Seidel (with power-iteration fallback) above.
///
/// One Tarjan pass (span `ctmc.bscc`) finds the recurrent classes.  Chains
/// with transient states (e.g. a client's one-shot prebuffering delay) are
/// handled by restricting to the recurrent class: the chain must have
/// exactly one bottom SCC, which receives all the probability mass;
/// transient states get probability zero.  Multiple bottom SCCs raise
/// NumericalError (the long-run behaviour would depend on the initial state).
[[nodiscard]] std::vector<double> steady_state(const Ctmc& chain,
                                               const SolveOptions& options = {});

/// GTH state reduction; exact up to rounding, no subtractions.  Only the
/// nonzeros of the reduced rows are stored and visited, so time follows the
/// fill-in (O(n^3) only for dense chains) and memory is the fill plus n^2
/// bits of pattern.  Bit-identical to the dense textbook loops.
[[nodiscard]] std::vector<double> steady_state_gth(const Ctmc& chain);

/// Gauss–Seidel iteration on the balance equations pi Q = 0.
/// Throws NumericalError when the iteration limit is reached.
[[nodiscard]] std::vector<double> steady_state_gauss_seidel(const Ctmc& chain,
                                                            const SolveOptions& options = {});

/// Power iteration on the uniformised DTMC P = I + Q/Lambda.
[[nodiscard]] std::vector<double> steady_state_power(const Ctmc& chain,
                                                     const SolveOptions& options = {});

/// Streams the Poisson(lt) probabilities w_k = e^{-lt} lt^k / k! that weight
/// the uniformisation series, without a lgamma per term: each weight follows
/// from its predecessor via w_{k+1} = w_k * lt / (k+1).  For large lt the
/// head of the series underflows; those terms are walked in log space (they
/// report weight 0) until the mass becomes representable, then the recurrence
/// takes over.  Relative error grows like k ulps from the switch point —
/// invisible next to the 1e-12 truncation thresholds of the series users.
class PoissonWeights {
public:
    /// \p lt must be finite and >= 0 (the uniformisation rate times t).
    explicit PoissonWeights(double lt);

    /// Weight of the current term (starts at k = 0).
    [[nodiscard]] double current() const noexcept { return w_; }

    /// Moves to the next term.
    void advance() noexcept;

private:
    double lt_;
    double w_ = 0.0;
    double log_w_;          ///< tracked only while the head underflows
    std::uint64_t k_ = 0;
    bool in_log_;
};

/// Dense vector of \p states masses from sparse (state, mass) entries,
/// summing repeated states.  Throws when a state is out of range or a mass
/// is negative or not finite.
[[nodiscard]] std::vector<double> dense_distribution(
    std::size_t states, const std::vector<std::pair<TangibleId, double>>& initial);

/// The one implementation of the uniformisation series.  Built once per
/// chain: it keeps Lambda = max(1.05 * max exit rate, 1e-9), a flat CSR copy
/// of the rows and the diagonal 1 - exit/Lambda of P = I + Q/Lambda, plus its
/// own iterate buffers, so a run allocates nothing.
///
/// One run walks the iterates v_k = pi(0) P^k once and feeds both halves of
/// the series from them:
///  - pi(t) = sum_k pois(Lambda t, k) v_k, closed once the summed weight
///    reaches 1 - 1e-12 at k >= Lambda t, then normalised;
///  - E[ integral_0^t r(X_s) ds ] = sum_k P(Pois(Lambda t) >= k+1)/Lambda
///    * (v_k . r), closed once that tail drops below 1e-13 at k >= Lambda t.
/// Both share the safety cap k <= 20 (floor(Lambda t) + 10), and the walk
/// stops when both are closed.  Each half's terms and stopping rule are
/// those of a series run on its own, so computing both in one pass changes
/// no bit of either (ctmc_diff_test pins this against standalone series).
class Uniformiser {
public:
    explicit Uniformiser(const Ctmc& chain);

    [[nodiscard]] std::size_t states() const noexcept { return diagonal_.size(); }

    /// Runs the series over [0, \p time] from \p start (nonnegative masses,
    /// normalised here; size states()).  Leaves pi(time) in distribution()
    /// and returns the reward accumulated under \p reward_rates; an empty
    /// \p reward_rates skips that half and returns 0.
    double run(std::span<const double> start, double time,
               std::span<const double> reward_rates = {});

    /// pi(time) of the last run.
    [[nodiscard]] const std::vector<double>& distribution() const noexcept {
        return result_;
    }
    /// Series terms the last run evaluated (one more than its mat-vecs).
    [[nodiscard]] std::size_t terms() const noexcept { return terms_; }

private:
    double lambda_;
    std::vector<std::size_t> offsets_;  ///< row s owns entries_[offsets_[s], offsets_[s+1])
    std::vector<RateEntry> entries_;
    std::vector<double> diagonal_;
    std::vector<double> vk_;
    std::vector<double> next_;
    std::vector<double> result_;
    std::size_t terms_ = 0;
};

/// Transient distribution pi(t) from \p initial via uniformisation with
/// adaptive truncation of the Poisson series (truncation mass < 1e-12); a
/// one-off Uniformiser run.
[[nodiscard]] std::vector<double> transient(
    const Ctmc& chain, const std::vector<std::pair<TangibleId, double>>& initial,
    double time);

/// Expected reward accumulated over [0, t]:  E[ integral_0^t r(X_s) ds ],
/// where r is a per-state reward rate vector.  Uses the uniformisation
/// identity  integral_0^t pois(L s, k) ds = P(Pois(L t) >= k+1) / L.
/// Answers questions like "how much energy does a cold start cost in its
/// first second?" exactly on the Markovian model; a one-off Uniformiser run.
[[nodiscard]] double accumulated_reward(
    const Ctmc& chain, const std::vector<std::pair<TangibleId, double>>& initial,
    const std::vector<double>& reward_rates, double time);

}  // namespace dpma::ctmc
