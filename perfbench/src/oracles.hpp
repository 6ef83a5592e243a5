#pragma once

/// \file oracles.hpp
/// Answer checks that do not go through the code path they check.  Each
/// returns an empty string when it accepts the answer and the reason when
/// it rejects it; a rejected answer is a failed task.
///
///  * functional — known verdicts (streaming and revised rpc transparent,
///    simplified rpc not), and the distinguishing formula is confirmed by
///    the HML checker on observer views built here, not by lts::hide.
///  * markov — the balance residual ‖πQ‖∞ and the mass Σπ are computed
///    here from the chain rows; the Fig. 4 point must give the digits that
///    EXPERIMENTS.md prints.
///  * general — on exponential specs every checked measure of the CTMC lies
///    within two half-widths of the simulated mean (the Fig. 5 criterion).
///  * battery — no replication is censored, and the KiBaM DPM/NO-DPM
///    lifetime ratio beats the fluid (steady-power) ratio at every capacity.

#include <string>
#include <vector>

#include "bisim/hml.hpp"
#include "ctmc/ctmc.hpp"
#include "lts/lts.hpp"
#include "sim/gsmp.hpp"

namespace perfbench::oracle {

[[nodiscard]] std::string verdict(bool expected_transparent, bool transparent);

/// The low observer's view of \p system: transitions whose label involves
/// \p low_instance keep their label, all others become tau; with
/// \p restrict_high the \p high_labels transitions are removed instead.
/// Only the part reachable from the initial state is kept.
[[nodiscard]] dpma::lts::Lts observer_view(const dpma::lts::Lts& system,
                                           const std::vector<std::string>& high_labels,
                                           const std::string& low_instance,
                                           bool restrict_high);

/// The formula must hold in the hidden view and fail in the restricted one.
[[nodiscard]] std::string distinguishing_formula(const dpma::lts::Lts& system,
                                                 const std::vector<std::string>& high_labels,
                                                 const std::string& low_instance,
                                                 const dpma::bisim::FormulaPtr& formula);

/// ‖πQ‖∞ with Q the generator of \p chain.
[[nodiscard]] double balance_residual(const dpma::ctmc::Ctmc& chain,
                                      const std::vector<double>& pi);

/// Tolerance on ‖πQ‖∞ (probability flow per ms).
inline constexpr double kResidualTolerance = 1e-9;

[[nodiscard]] std::string steady_state(const dpma::ctmc::Ctmc& chain,
                                       const std::vector<double>& pi);

/// EXPERIMENTS.md, Fig. 4 at a 100 ms awake period: energy per frame 21.8
/// and quality 0.879.
[[nodiscard]] std::string fig4_point(double energy_per_frame, double quality);

[[nodiscard]] std::string within_half_widths(const std::vector<double>& exact,
                                             const std::vector<dpma::sim::Estimate>& simulated,
                                             const std::vector<bool>& checked);

/// One battery lifetime row: an architecture with or without its DPM.
struct LifetimeRow {
    double steady_power = 0.0;
    std::vector<double> lifetimes;  ///< mean simulated lifetime per capacity
    std::vector<int> censored;      ///< censored replications per capacity
    std::vector<double> refined;    ///< analytic bound from the transient profile
};

/// No censored replication, and finite positive lifetimes and bounds.
[[nodiscard]] std::string complete(const LifetimeRow& row);
[[nodiscard]] std::string amplified(const LifetimeRow& nodpm, const LifetimeRow& dpm);

}  // namespace perfbench::oracle
