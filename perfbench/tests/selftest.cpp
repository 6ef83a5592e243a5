/// \file selftest.cpp
/// The benchmark's own tests: the generator is deterministic, the
/// percentile helper is right, every oracle rejects a corrupted answer, and
/// the pass loop counts a rejected answer as a failed task.
///
///     perfbench_selftest <repository root>
///
/// (python3 perfbench/run.py --self-test builds and runs it.)  Exits 0 when
/// every check passes, 1 otherwise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "adl/compose.hpp"
#include "aemilia/parser.hpp"
#include "battery/coupling.hpp"
#include "bisim/hml.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "generate.hpp"
#include "noninterference/noninterference.hpp"
#include "oracles.hpp"
#include "sim/gsmp.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace adl = dpma::adl;

int failures = 0;

void check(bool condition, const std::string& what) {
    std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
    if (!condition) ++failures;
}

template <typename Fn>
bool throws(Fn&& fn) {
    try {
        fn();
    } catch (const std::exception&) {
        return true;
    }
    return false;
}

void generator_is_deterministic(const Sources& sources) {
    for (const Workload w :
         {Workload::Functional, Workload::Markov, Workload::General, Workload::Battery}) {
        const std::string name = workload_name(w);
        const InputSet a = generate(w, 7, sources);
        const InputSet b = generate(w, 7, sources);
        const InputSet c = generate(w, 8, sources);
        bool identical = a.inputs.size() == b.inputs.size();
        for (std::size_t i = 0; identical && i < a.inputs.size(); ++i) {
            identical = a.inputs[i].spec == b.inputs[i].spec;
        }
        check(identical && a.digest() == b.digest(), name + ": same seed, byte-identical text");
        std::string text_a;
        std::string text_c;
        for (const Input& in : a.inputs) text_a += in.spec;
        for (const Input& in : c.inputs) text_c += in.spec;
        check(text_a != text_c && a.digest() != c.digest(), name + ": other seed, other text");
        check(a.tasks() == c.tasks(), name + ": task count does not depend on the seed");
        check(a.tasks() >= 100, name + ": at least 100 tasks, 10 beyond p90 (" +
                                    std::to_string(a.tasks()) + ")");
    }
}

void percentile_is_right() {
    std::vector<double> samples(100);
    std::iota(samples.begin(), samples.end(), 1.0);
    std::vector<double> shuffled;
    for (std::size_t i = 0; i < samples.size(); ++i) shuffled.push_back(samples[(i * 37) % 100]);
    check(percentile(shuffled, 0.9) == 90.0, "p90 of 1..100 is 90 (10 samples beyond it)");
    check(percentile(shuffled, 0.5) == 50.0, "p50 of 1..100 is 50");
    check(percentile(shuffled, 1.0) == 100.0, "p100 is the maximum");
    check(median(shuffled) == 50.5, "median of 1..100 is 50.5");
    check(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
    check(throws([] { (void)percentile({}, 0.9); }), "percentile of no samples throws");
}

void functional_oracles_reject(const Sources& sources) {
    check(!oracle::verdict(true, false).empty(), "flipped verdict (transparent) rejected");
    check(!oracle::verdict(false, true).empty(), "flipped verdict (interfering) rejected");
    check(oracle::verdict(false, false).empty(), "right verdict accepted");

    const adl::ComposedModel model = adl::compose(dpma::aemilia::parse_archi_type(sources.rpc_untimed));
    const auto high = high_labels(Family::Rpc);
    const auto result = dpma::noninterference::check_dpm_transparency(model, high, kLowInstance);
    check(oracle::distinguishing_formula(model.graph, high, kLowInstance, result.formula).empty(),
          "simplified rpc formula confirmed on the observer views");
    check(!oracle::distinguishing_formula(model.graph, high, kLowInstance,
                                          dpma::bisim::hml_not(result.formula))
               .empty(),
          "negated formula rejected");
    check(!oracle::distinguishing_formula(model.graph, high, kLowInstance, nullptr).empty(),
          "missing formula rejected");
}

void markov_oracles_reject(const Sources& sources) {
    const adl::ComposedModel model = adl::compose(
        dpma::aemilia::parse_archi_type(rpc_revised_spec(sources, 0.2, true)));
    const dpma::ctmc::MarkovModel markov = dpma::ctmc::build_markov(model);
    std::vector<double> pi = dpma::ctmc::steady_state(markov.chain);
    check(oracle::steady_state(markov.chain, pi).empty(), "solved rpc chain accepted");
    std::vector<double> perturbed = pi;
    const auto top = static_cast<std::size_t>(
        std::max_element(perturbed.begin(), perturbed.end()) - perturbed.begin());
    perturbed[top] *= 1.0 + 1e-6;
    check(!oracle::steady_state(markov.chain, perturbed).empty(), "perturbed pi entry rejected");
    const double mass = std::accumulate(perturbed.begin(), perturbed.end(), 0.0);
    for (double& p : perturbed) p /= mass;
    check(!oracle::steady_state(markov.chain, perturbed).empty(),
          "perturbed and renormalised pi rejected by the balance residual");

    const adl::ComposedModel streaming =
        adl::compose(dpma::aemilia::parse_archi_type(sources.streaming));
    const auto measures = dpma::aemilia::parse_measures(sources.streaming_measures);
    const dpma::ctmc::MarkovModel chain = dpma::ctmc::build_markov(streaming);
    const std::vector<double> spi = dpma::ctmc::steady_state(chain.chain);
    std::vector<double> v;
    for (const auto& m : measures) v.push_back(dpma::ctmc::evaluate_measure(chain, streaming, spi, m));
    // nic_energy, frames_received, ap_loss, b_loss, miss, hits, generated
    const double epf = v[0] / v[1];
    const double quality = v[5] / (v[4] + v[5]);
    check(oracle::fig4_point(epf, quality).empty(), "Fig. 4 point reproduced by the shipped spec");
    check(!oracle::fig4_point(epf * 1.01, quality).empty(), "perturbed energy/frame rejected");
    check(!oracle::fig4_point(epf, quality - 0.001).empty(), "perturbed quality rejected");
}

void general_oracle_rejects(const Sources& sources) {
    const adl::ComposedModel model = adl::compose(
        dpma::aemilia::parse_archi_type(rpc_revised_spec(sources, 0.2, true)));
    const auto measures = dpma::aemilia::parse_measures(sources.rpc_measures);
    const dpma::ctmc::MarkovModel markov = dpma::ctmc::build_markov(model);
    const std::vector<double> pi = dpma::ctmc::steady_state(markov.chain);
    std::vector<double> exact;
    for (const auto& m : measures) exact.push_back(dpma::ctmc::evaluate_measure(markov, model, pi, m));
    const dpma::sim::Simulator simulator(model, measures);
    dpma::sim::SimOptions options;
    options.warmup = 1000.0;
    options.horizon = 2e4;
    options.seed = 5;
    const auto estimates = dpma::sim::simulate_replications(simulator, options, 20, 0.99);
    const std::vector<bool> all(exact.size(), true);
    check(oracle::within_half_widths(exact, estimates, all).empty(),
          "CTMC values within two half-widths of the simulation");
    std::vector<double> shifted = exact;
    shifted[0] = estimates[0].mean + 3.0 * estimates[0].half_width;
    check(!oracle::within_half_widths(shifted, estimates, all).empty(),
          "value three half-widths off rejected");
}

void battery_oracles_reject() {
    oracle::LifetimeRow nodpm{1.0, {1000.0, 2000.0}, {0, 0}, {1000.0, 2000.0}};
    oracle::LifetimeRow dpm{0.5, {2500.0, 5000.0}, {0, 0}, {2000.0, 4000.0}};
    check(oracle::complete(dpm).empty() && oracle::amplified(nodpm, dpm).empty(),
          "amplified, uncensored rows accepted");
    oracle::LifetimeRow censored = dpm;
    censored.censored[1] = 1;
    check(!oracle::complete(censored).empty(), "censored replication rejected");
    oracle::LifetimeRow short_lived = dpm;
    short_lived.lifetimes[0] = 1900.0;  // ratio 1.9 below the fluid ratio 2
    check(!oracle::amplified(nodpm, short_lived).empty(), "lifetime ratio below fluid rejected");
}

/// Wraps a real workload and corrupts the answer of every third task the
/// way a wrong oracle verdict would surface, plus one task that throws; in
/// its second pass task 2 is rejected too.
class CorruptingRunner final : public Runner {
public:
    explicit CorruptingRunner(Runner& inner) : inner_(inner) {}
    [[nodiscard]] std::size_t size() const override { return inner_.size(); }
    double run(std::size_t i, std::string& failure) override {
        if (i == 0) ++pass_;
        if (i == 1) throw std::runtime_error("library error");
        const double ms = inner_.run(i, failure);
        if (i % 3 == 0 || (i == 2 && pass_ == 2)) failure = oracle::verdict(true, false);
        return ms;
    }

private:
    Runner& inner_;
    int pass_ = 0;
};

void rejected_answers_count_as_failed(const Sources& sources) {
    const InputSet inputs = generate(Workload::Battery, 3, sources);
    SpanLog log;
    const auto runner = prepare(inputs, log);
    CorruptingRunner corrupting(*runner);
    PassStats stats;
    run_pass(corrupting, false, stats);
    run_pass(corrupting, false, stats);
    const std::size_t n = runner->size();
    const std::size_t expected = (n + 2) / 3 + 1;  // i % 3 == 0, plus i == 1
    check(stats.attempted == 2 * n, "every task attempted once per pass");
    check(stats.failed == 2 * expected + 1,
          "rejected and throwing tasks counted as failed (" + std::to_string(stats.failed) +
              " of " + std::to_string(stats.attempted) + ")");
    check(measured(stats.best_ms).size() == n - expected,
          "a task that never gave an accepted answer has no best time");
    check(!std::isnan(stats.best_ms[2]), "a task keeps its best from the pass it passed");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest <repository root>\n");
        return 2;
    }
    try {
        const Sources sources = load_sources(argv[1]);
        generator_is_deterministic(sources);
        percentile_is_right();
        functional_oracles_reject(sources);
        markov_oracles_reject(sources);
        general_oracle_rejects(sources);
        battery_oracles_reject();
        rejected_answers_count_as_failed(sources);
    } catch (const std::exception& e) {
        std::printf("FAIL unexpected exception: %s\n", e.what());
        ++failures;
    }
    std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
    return failures == 0 ? 0 : 1;
}
