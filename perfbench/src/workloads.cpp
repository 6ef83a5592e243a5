#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "adl/compose.hpp"
#include "adl/measure.hpp"
#include "aemilia/parser.hpp"
#include "analysis/lint.hpp"
#include "battery/coupling.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/partition.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "exp/cache.hpp"
#include "lts/ops.hpp"
#include "noninterference/noninterference.hpp"
#include "obs/metrics.hpp"
#include "oracles.hpp"
#include "sim/gsmp.hpp"

namespace perfbench {
namespace {

namespace adl = dpma::adl;
namespace lts = dpma::lts;
namespace ctmc = dpma::ctmc;
namespace sim = dpma::sim;
using Clock = std::chrono::steady_clock;

/// Confidence of the general workload's batch CIs.  With 20 replications
/// the two-half-width test then rejects a correct simulator about once in
/// 10^5 checks.
constexpr double kConfidence = 0.99;
/// A measure enters the Fig. 5 comparison when one replication accrues at
/// least this much of it: rarer events (AP drops) give CIs too skewed for a
/// two-half-width test.
constexpr double kMinAccruedReward = 100.0;
/// The lifetime study's transient profile (battery::StudyOptions::profile).
constexpr dpma::battery::ProfileOptions kProfile{.step = 0.0, .max_steps = 5'000,
                                                 .tolerance = 1e-9};
/// Censoring horizon per capacity, in fluid lifetimes (StudyOptions).
constexpr double kHorizonFactor = 8.0;
/// The kinetic battery of bench_battery_lifetime.
constexpr double kKibamC = 0.5;
constexpr double kKibamRate = 1e-3;  // valve rate k', 1/ms

/// Failure reasons printed per run; the rest are only counted.
constexpr std::size_t kReportedFailures = 5;

/// Adds a library counter's growth over a scope to a tally.
class CounterDelta {
public:
    CounterDelta(SpanLog& log, const char* tally, const char* counter)
        : log_(log), tally_(tally), counter_(dpma::obs::counter(counter)),
          start_(counter_.value()) {}
    ~CounterDelta() {
        log_.add(tally_, static_cast<double>(counter_.value() - start_));
    }
    CounterDelta(const CounterDelta&) = delete;
    CounterDelta& operator=(const CounterDelta&) = delete;

private:
    SpanLog& log_;
    const char* tally_;
    dpma::obs::Counter& counter_;
    std::uint64_t start_;
};

/// Runs \p produce inside a "task" span; returns its wall time in ms.
template <typename Fn>
double timed_task(SpanLog& log, Fn&& produce) {
    const auto start = Clock::now();
    {
        const Span task(log, "task");
        produce();
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

adl::ArchiType parse_spec(const Input& in, SpanLog& log) {
    const Span span(log, "aemilia.parse");
    return dpma::aemilia::parse_archi_type(in.spec);
}

std::vector<adl::Measure> parse_measures(const Input& in, SpanLog& log) {
    const Span span(log, "aemilia.parse");
    return dpma::aemilia::parse_measures(in.measures);
}

/// Lint errors stop the task: a malformed generated input is a benchmark
/// bug, not a slow answer.
void lint(const Input& in, const adl::ArchiType& archi,
          const std::vector<adl::Measure>& measures, SpanLog& log) {
    const Span span(log, "analysis.lint");
    dpma::analysis::LintResult result = dpma::analysis::lint_model(archi, in.name);
    if (!measures.empty()) {
        dpma::analysis::lint_measures(archi, measures, in.name + ".msr", in.name, result);
    }
    if (!result.ok()) {
        throw std::runtime_error(in.name + ": lint errors\n" +
                                 dpma::analysis::render_text(result.diagnostics));
    }
}

adl::ComposedModel compose(const adl::ArchiType& archi, SpanLog& log) {
    const Span span(log, "adl.compose");
    adl::ComposedModel model = adl::compose(archi);
    log.add("adl.composed_states", static_cast<double>(model.graph.num_states()));
    return model;
}

ctmc::MarkovModel build_markov(const adl::ComposedModel& model, SpanLog& log) {
    const Span span(log, "ctmc.build_markov");
    ctmc::MarkovModel markov = ctmc::build_markov(model);
    log.add("ctmc.tangible_states", static_cast<double>(markov.chain.num_states()));
    log.add("ctmc.composed_states", static_cast<double>(model.graph.num_states()));
    return markov;
}

std::vector<double> solve(const ctmc::MarkovModel& markov, SpanLog& log) {
    std::vector<double> pi;
    {
        const Span span(log, "ctmc.solve");
        pi = ctmc::steady_state(markov.chain);
    }
    if (log.enabled()) {
        log.raise("ctmc.solve_residual", oracle::balance_residual(markov.chain, pi));
    }
    return pi;
}

std::vector<double> rewards(const ctmc::MarkovModel& markov, const adl::ComposedModel& model,
                            const std::vector<double>& pi,
                            const std::vector<adl::Measure>& measures, SpanLog& log) {
    const Span span(log, "ctmc.reward");
    std::vector<double> values;
    for (const adl::Measure& m : measures) {
        values.push_back(ctmc::evaluate_measure(markov, model, pi, m));
    }
    return values;
}

std::size_t measure_index(const std::vector<adl::Measure>& measures, const std::string& name) {
    for (std::size_t i = 0; i < measures.size(); ++i) {
        if (measures[i].name == name) return i;
    }
    throw std::runtime_error("measure not defined: " + name);
}

/// The steps of noninterference::check_dpm_transparency replayed through
/// their public functions, so the traced run can split the weak
/// bisimulation check into views, saturation and refinement.  Returns the
/// replayed verdict.
bool replay_transparency(const adl::ComposedModel& model,
                         const std::vector<std::string>& high_labels, SpanLog& log) {
    lts::Lts hidden;
    lts::Lts restricted;
    {
        const Span span(log, "lts.views");
        const lts::Lts& system = model.graph;
        const lts::ActionTable& table = *system.actions();
        lts::ActionSet high;
        for (const std::string& label : high_labels) {
            const lts::ActionId a = table.find(label);
            if (a == dpma::kNoSymbol) throw std::runtime_error("high label missing: " + label);
            high.insert(a);
        }
        lts::ActionSet low;
        for (const lts::ActionId a : adl::actions_of_instance(model, kLowInstance)) low.insert(a);
        lts::ActionSet hide_hidden = high;
        lts::ActionSet hide_restricted;
        for (lts::ActionId a = 0; a < table.size(); ++a) {
            if (a == table.tau() || low.contains(a)) continue;
            hide_hidden.insert(a);
            if (!high.contains(a)) hide_restricted.insert(a);
        }
        hidden = lts::reachable_part(lts::hide(system, hide_hidden));
        restricted = lts::reachable_part(
            lts::hide(lts::restrict_actions(system, high), hide_restricted));
        log.add("lts.view_states",
                static_cast<double>(hidden.num_states() + restricted.num_states()));
    }
    lts::UnionResult merged;
    {
        const Span span(log, "lts.union");
        merged = lts::disjoint_union(hidden, restricted);
    }
    lts::TauCollapseResult collapsed;
    {
        const Span span(log, "lts.collapse");
        collapsed = lts::collapse_tau_sccs(merged.combined);
    }
    const lts::StateId lhs = collapsed.representative_of[merged.initial_lhs];
    const lts::StateId rhs = collapsed.representative_of[merged.initial_rhs];
    if (lhs == rhs) return true;
    lts::Lts saturated;
    {
        const Span span(log, "lts.saturate");
        saturated = lts::saturate(collapsed.collapsed);
        log.add("lts.saturated_transitions", static_cast<double>(saturated.num_transitions()));
    }
    dpma::bisim::RefinementResult refinement;
    {
        const Span span(log, "bisim.refine");
        const CounterDelta resigned(log, "bisim.states_resigned", "bisim.refine.states_resigned");
        refinement = dpma::bisim::refine_strong(saturated, 1);
        dpma::bisim::BlockId blocks = 0;
        for (const dpma::bisim::BlockId b : refinement.final_blocks()) blocks = std::max(blocks, b);
        log.add("bisim.blocks", static_cast<double>(blocks) + 1.0);
    }
    const bool equivalent = refinement.same_block(lhs, rhs);
    if (!equivalent) {
        const Span span(log, "bisim.formula");
        (void)dpma::bisim::distinguishing_formula(saturated, refinement, lhs, rhs, true);
    }
    return equivalent;
}

class FunctionalRunner final : public Runner {
public:
    FunctionalRunner(const InputSet& set, SpanLog& log) : inputs_(set.inputs), log_(log) {}

    [[nodiscard]] std::size_t size() const override { return inputs_.size(); }

    double run(std::size_t i, std::string& failure) override {
        const Input& in = inputs_.at(i);
        const std::vector<std::string> high = high_labels(in.family);
        adl::ComposedModel model;
        dpma::noninterference::Result result;
        std::optional<bool> replayed;
        const double ms = timed_task(log_, [&] {
            const adl::ArchiType archi = parse_spec(in, log_);
            lint(in, archi, {}, log_);
            model = compose(archi, log_);
            const Span span(log_, "noninterference.check");
            result = dpma::noninterference::check_dpm_transparency(model, high, kLowInstance);
        });
        // Outside the task's time, so that traced and untraced tasks do the
        // same work and their ratio is the cost of the spans alone.
        if (log_.enabled()) replayed = replay_transparency(model, high, log_);
        failure = oracle::verdict(in.expect_transparent, result.noninterfering);
        if (failure.empty() && replayed && *replayed != result.noninterfering) {
            failure = "replayed check disagrees with check_dpm_transparency";
        }
        if (failure.empty() && !result.noninterfering) {
            failure = oracle::distinguishing_formula(model.graph, high, kLowInstance,
                                                     result.formula);
        }
        return ms;
    }

private:
    const std::vector<Input>& inputs_;
    SpanLog& log_;
};

class MarkovRunner final : public Runner {
public:
    MarkovRunner(const InputSet& set, SpanLog& log) : log_(log) {
        for (const Input& in : set.inputs) {
            Architecture arch{&in, parse_spec(in, log_), parse_measures(in, log_)};
            lint(in, arch.archi, arch.measures, log_);
            for (std::size_t k = 0; k < in.points.size(); ++k) {
                tasks_.emplace_back(architectures_.size(), k);
            }
            architectures_.push_back(std::move(arch));
        }
    }

    [[nodiscard]] std::size_t size() const override { return tasks_.size(); }

    double run(std::size_t i, std::string& failure) override {
        const auto [j, k] = tasks_.at(i);
        const Architecture& arch = architectures_[j];
        const RatePoint& point = arch.input->points[k];
        ctmc::MarkovModel markov;
        std::vector<double> pi;
        std::vector<double> values;
        const double ms = timed_task(log_, [&] {
            if (k == 0) {
                composed_.reset();
                composed_ = std::make_unique<adl::ComposedModel>(compose(arch.archi, log_));
                composed_of_ = j;
            }
            if (composed_ == nullptr || composed_of_ != j) {
                throw std::logic_error("markov point run before its architecture's first point");
            }
            adl::ComposedModel model;
            {
                const Span span(log_, "exp.patch");
                model = dpma::exp::with_exp_rate(*composed_, "DPM", "send_shutdown",
                                                 point.shutdown_rate);
                if (point.wakeup_rate > 0.0) {
                    model = dpma::exp::with_exp_rate(model, "DPM", "send_wakeup",
                                                     point.wakeup_rate);
                }
            }
            markov = build_markov(model, log_);
            pi = solve(markov, log_);
            values = rewards(markov, model, pi, arch.measures, log_);
        });
        failure = oracle::steady_state(markov.chain, pi);
        if (failure.empty() && arch.input->paper_point && k == 0) {
            const auto value = [&](const char* name) {
                return values[measure_index(arch.measures, name)];
            };
            failure = oracle::fig4_point(value("nic_energy") / value("frames_received"),
                                         value("hits") / (value("miss") + value("hits")));
        }
        return ms;
    }

private:
    struct Architecture {
        const Input* input;
        adl::ArchiType archi;
        std::vector<adl::Measure> measures;
    };

    SpanLog& log_;
    std::vector<Architecture> architectures_;
    std::vector<std::pair<std::size_t, std::size_t>> tasks_;  ///< (architecture, point)
    std::unique_ptr<adl::ComposedModel> composed_;
    std::size_t composed_of_ = 0;
};

/// A composed input with its simulator, shared by general and battery.
struct Simulated {
    const Input* input = nullptr;
    std::unique_ptr<adl::ComposedModel> model;
    std::unique_ptr<sim::Simulator> simulator;
};

Simulated simulated(const Input& in, SpanLog& log) {
    Simulated out;
    out.input = &in;
    const adl::ArchiType archi = parse_spec(in, log);
    std::vector<adl::Measure> measures = parse_measures(in, log);
    lint(in, archi, measures, log);
    out.model = std::make_unique<adl::ComposedModel>(compose(archi, log));
    const Span span(log, "sim.compile");
    out.simulator = std::make_unique<sim::Simulator>(*out.model, std::move(measures));
    return out;
}

class GeneralRunner final : public Runner {
public:
    GeneralRunner(const InputSet& set, SpanLog& log) : log_(log) {
        for (const Input& in : set.inputs) {
            Spec spec{simulated(in, log_), {}, {}};
            if (in.exponential) {
                const ctmc::MarkovModel markov = build_markov(*spec.sim.model, log_);
                const std::vector<double> pi = solve(markov, log_);
                spec.exact = rewards(markov, *spec.sim.model, pi,
                                     spec.sim.simulator->measures(), log_);
                for (const double v : spec.exact) {
                    spec.checked.push_back(v * in.horizon >= kMinAccruedReward);
                }
            }
            for (std::size_t k = 0; k < in.sim_seeds.size(); ++k) {
                tasks_.emplace_back(specs_.size(), k);
            }
            specs_.push_back(std::move(spec));
        }
    }

    [[nodiscard]] std::size_t size() const override { return tasks_.size(); }

    double run(std::size_t i, std::string& failure) override {
        const auto [j, k] = tasks_.at(i);
        const Spec& spec = specs_[j];
        const Input& in = *spec.sim.input;
        sim::SimOptions options;
        options.warmup = in.warmup;
        options.horizon = in.horizon;
        options.seed = in.sim_seeds[k];
        std::vector<sim::Estimate> estimates;
        const double ms = timed_task(log_, [&] {
            const Span span(log_, "sim.run");
            const CounterDelta events(log_, "sim.events", "sim.events");
            const CounterDelta runs(log_, "sim.runs", "sim.runs");
            const CounterDelta fast(log_, "sim.fastpath_runs", "sim.fastpath.runs");
            estimates = sim::simulate_replications(*spec.sim.simulator, options,
                                                   in.replications, kConfidence);
        });
        if (in.exponential) {
            failure = oracle::within_half_widths(spec.exact, estimates, spec.checked);
        } else {
            failure.clear();
            for (const sim::Estimate& e : estimates) {
                if (!(std::isfinite(e.mean) && e.mean >= 0.0 && e.half_width >= 0.0)) {
                    failure = "simulated estimate is not a finite non-negative value";
                }
            }
        }
        return ms;
    }

private:
    struct Spec {
        Simulated sim;
        std::vector<double> exact;  ///< CTMC values (exponential specs only)
        std::vector<bool> checked;
    };

    SpanLog& log_;
    std::vector<Spec> specs_;
    std::vector<std::pair<std::size_t, std::size_t>> tasks_;  ///< (spec, batch)
};

class BatteryRunner final : public Runner {
public:
    BatteryRunner(const InputSet& set, SpanLog& log) : log_(log) {
        for (const Input& in : set.inputs) {
            Row row{simulated(in, log_), 0};
            row.power_measure = measure_index(
                row.sim.simulator->measures(),
                in.family == Family::Streaming ? "nic_energy" : "energy");
            rows_.push_back(std::move(row));
        }
    }

    [[nodiscard]] std::size_t size() const override { return rows_.size(); }

    double run(std::size_t i, std::string& failure) override {
        const Row& row = rows_.at(i);
        const Input& in = *row.sim.input;
        oracle::LifetimeRow answer;
        const double ms = timed_task(log_, [&] {
            const ctmc::MarkovModel markov = build_markov(*row.sim.model, log_);
            const std::vector<double> pi = solve(markov, log_);
            dpma::battery::BatteryParams params;
            params.kind = dpma::battery::BatteryParams::Kind::Kibam;
            params.kibam_c = kKibamC;
            params.kibam_rate = kKibamRate;
            std::vector<double> fluid;
            {
                const Span span(log_, "battery.profile");
                const std::vector<double> power = dpma::battery::tangible_power(
                    markov, *row.sim.model, row.sim.simulator->measures()[row.power_measure]);
                for (std::size_t s = 0; s < pi.size(); ++s) answer.steady_power += pi[s] * power[s];
                const dpma::battery::PowerProfile profile = dpma::battery::transient_power_profile(
                    markov.chain, markov.initial_distribution, power, kProfile);
                log_.add("battery.profile_steps", static_cast<double>(profile.power.size()));
                for (const double capacity : in.capacities) {
                    params.capacity = capacity;
                    fluid.push_back(
                        dpma::battery::constant_power_lifetime(params, answer.steady_power));
                    answer.refined.push_back(dpma::battery::profile_lifetime(profile, params));
                }
            }
            const Span span(log_, "battery.replay");
            const CounterDelta steps(log_, "battery.replay_steps", "battery.steps");
            const CounterDelta events(log_, "sim.events", "sim.events");
            for (std::size_t c = 0; c < in.capacities.size(); ++c) {
                params.capacity = in.capacities[c];
                dpma::battery::ReplayOptions replay;
                replay.horizon = kHorizonFactor * fluid[c];
                replay.seed = in.replay_seed + c;
                replay.replications = in.replications;
                const dpma::battery::LifetimeEstimate estimate = dpma::battery::simulate_lifetime(
                    *row.sim.simulator, row.power_measure, params, replay);
                answer.lifetimes.push_back(estimate.mean);
                answer.censored.push_back(estimate.censored);
                log_.add("battery.replications", in.replications);
                log_.add("battery.censored", estimate.censored);
            }
        });
        failure = oracle::complete(answer);
        if (in.dpm) {
            if (failure.empty() && !nodpm_) failure = "DPM row without its NO-DPM row";
            if (failure.empty()) failure = oracle::amplified(*nodpm_, answer);
            nodpm_.reset();
        } else {
            nodpm_ = answer;
        }
        return ms;
    }

private:
    struct Row {
        Simulated sim;
        std::size_t power_measure;
    };

    SpanLog& log_;
    std::vector<Row> rows_;
    std::optional<oracle::LifetimeRow> nodpm_;
};

}  // namespace

std::unique_ptr<Runner> prepare(const InputSet& inputs, SpanLog& log) {
    switch (inputs.workload) {
        case Workload::Functional: return std::make_unique<FunctionalRunner>(inputs, log);
        case Workload::Markov: return std::make_unique<MarkovRunner>(inputs, log);
        case Workload::General: return std::make_unique<GeneralRunner>(inputs, log);
        case Workload::Battery: return std::make_unique<BatteryRunner>(inputs, log);
    }
    throw std::logic_error("unknown workload");
}

std::vector<double> measured(const std::vector<double>& best_ms) {
    std::vector<double> out;
    for (const double ms : best_ms) {
        if (!std::isnan(ms)) out.push_back(ms);
    }
    return out;
}

void run_pass(Runner& runner, bool traced, PassStats& stats) {
    std::vector<double>& best = traced ? stats.traced_best_ms : stats.best_ms;
    best.resize(runner.size(), NAN);
    double answer_ms = 0.0;
    for (std::size_t i = 0; i < runner.size(); ++i) {
        std::string failure;
        double ms = 0.0;
        try {
            ms = runner.run(i, failure);
        } catch (const std::exception& e) {
            failure = std::string("exception: ") + e.what();
        }
        ++stats.attempted;
        answer_ms += ms;
        if (!failure.empty()) {
            if (++stats.failed <= kReportedFailures) {
                std::fprintf(stderr, "perfbench: task %zu failed: %s\n", i, failure.c_str());
            }
        } else if (std::isnan(best[i]) || ms < best[i]) {
            best[i] = ms;
        }
    }
    if (traced) {
        ++stats.traced_passes;
    } else {
        stats.pass_s.push_back(answer_ms / 1e3);
    }
}

}  // namespace perfbench
