#pragma once

/// \file workloads.hpp
/// The four workloads, one per methodology phase plus the battery study.
/// A task is one checked answer:
///
///  * functional — parse → lint → adl::compose →
///    noninterference::check_dpm_transparency (exact check, no precheck);
///  * markov — one DPM-rate point: exp::with_exp_rate → ctmc::build_markov →
///    ctmc::steady_state → ctmc::evaluate_measure; the first point of an
///    architecture also composes it;
///  * general — one sim::simulate_replications batch;
///  * battery — one (architecture, DPM on/off) KiBaM lifetime row:
///    build_markov → steady_state → tangible_power → transient_power_profile
///    → profile_lifetime → simulate_lifetime at two capacities.
///
/// Every layer call is wrapped in a span of the given SpanLog, so a traced
/// run attributes task time to layers from outside the library.

#include <memory>
#include <string>
#include <vector>

#include "generate.hpp"
#include "spans.hpp"

namespace perfbench {

/// A prepared workload: inputs parsed and linted, shared oracle references
/// built.  Tasks must run in index order within a pass (a markov point
/// reuses the architecture its first point composed; a battery DPM row is
/// judged against the NO-DPM row just before it).
class Runner {
public:
    virtual ~Runner() = default;
    [[nodiscard]] virtual std::size_t size() const = 0;
    /// Runs task \p i and returns the time it took to produce the answer, in
    /// ms.  The answer is then checked outside that time; \p failure receives
    /// the oracle's reason when it rejects the answer and is cleared
    /// otherwise.  Library errors propagate as exceptions.
    virtual double run(std::size_t i, std::string& failure) = 0;
};

/// Builds the runner of \p inputs.workload; \p inputs and \p log must
/// outlive it.  Throws when an input fails to parse or lint.
[[nodiscard]] std::unique_ptr<Runner> prepare(const InputSet& inputs, SpanLog& log);

/// What the timed passes measured.  A task's time is its best over the
/// passes: a shared host only ever slows a task down, so the fastest of
/// several runs spread over the whole run is the one least disturbed.
struct PassStats {
    /// Per task: the fastest accepted run of an untraced pass, in ms; NaN
    /// until the task has one.
    std::vector<double> best_ms;
    std::vector<double> traced_best_ms;  ///< the same over traced passes
    std::vector<double> pass_s;          ///< per untraced pass: summed answer time
    std::size_t traced_passes = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;  ///< answers an oracle rejected, and tasks that threw
};

/// The entries of \p best_ms that are set, in task order.
[[nodiscard]] std::vector<double> measured(const std::vector<double>& best_ms);

/// Runs every task of \p runner once, in index order, and folds the times
/// into \p stats as an untraced or a \p traced pass.  Whether spans are
/// recorded is up to the log the runner was prepared with.
void run_pass(Runner& runner, bool traced, PassStats& stats);

}  // namespace perfbench
