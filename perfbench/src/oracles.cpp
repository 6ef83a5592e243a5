#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <unordered_map>

#include "bisim/hml_check.hpp"

namespace perfbench::oracle {
namespace {

namespace lts = dpma::lts;

template <typename... Args>
std::string format(const char* pattern, Args... args) {
    char buffer[200];
    std::snprintf(buffer, sizeof buffer, pattern, args...);
    return buffer;
}

/// Does "I.a" or "I.a#J.b" name \p instance as one of its parties?
bool involves(const std::string& label, const std::string& instance) {
    std::size_t begin = 0;
    while (begin <= label.size()) {
        const std::size_t end = std::min(label.find('#', begin), label.size());
        const std::size_t dot = label.find('.', begin);
        if (dot != std::string::npos && dot < end &&
            label.compare(begin, dot - begin, instance) == 0 && dot - begin == instance.size()) {
            return true;
        }
        begin = end + 1;
    }
    return false;
}

}  // namespace

std::string verdict(bool expected_transparent, bool transparent) {
    if (expected_transparent == transparent) return {};
    return expected_transparent ? "DPM reported interfering, expected transparent"
                                : "DPM reported transparent, expected interfering";
}

lts::Lts observer_view(const lts::Lts& system, const std::vector<std::string>& high_labels,
                       const std::string& low_instance, bool restrict_high) {
    const lts::ActionTable& table = *system.actions();
    std::vector<char> high(table.size(), 0);
    std::vector<char> low(table.size(), 0);
    for (lts::ActionId a = 0; a < table.size(); ++a) {
        const std::string& name = table.name(a);
        high[a] = std::find(high_labels.begin(), high_labels.end(), name) != high_labels.end();
        low[a] = involves(name, low_instance);
    }
    lts::Lts view(system.actions());
    std::unordered_map<lts::StateId, lts::StateId> renumbered;
    std::deque<lts::StateId> frontier;
    const auto visit = [&](lts::StateId s) {
        auto [it, inserted] = renumbered.emplace(s, 0);
        if (inserted) {
            it->second = view.add_state();
            frontier.push_back(s);
        }
        return it->second;
    };
    view.set_initial(visit(system.initial()));
    while (!frontier.empty()) {
        const lts::StateId s = frontier.front();
        frontier.pop_front();
        const lts::StateId from = renumbered.at(s);
        for (const lts::Transition& t : system.out(s)) {
            if (restrict_high && high[t.action]) continue;
            const lts::ActionId label = low[t.action] ? t.action : table.tau();
            view.add_transition(from, label, visit(t.target));
        }
    }
    return view;
}

std::string distinguishing_formula(const lts::Lts& system,
                                   const std::vector<std::string>& high_labels,
                                   const std::string& low_instance,
                                   const dpma::bisim::FormulaPtr& formula) {
    if (formula == nullptr) return "interfering verdict without a distinguishing formula";
    const lts::Lts hidden = observer_view(system, high_labels, low_instance, false);
    const lts::Lts restricted = observer_view(system, high_labels, low_instance, true);
    if (!dpma::bisim::satisfies(hidden, hidden.initial(), formula)) {
        return "distinguishing formula fails on the hidden view";
    }
    if (dpma::bisim::satisfies(restricted, restricted.initial(), formula)) {
        return "distinguishing formula holds on the restricted view";
    }
    return {};
}

double balance_residual(const dpma::ctmc::Ctmc& chain, const std::vector<double>& pi) {
    std::vector<double> flow(chain.num_states(), 0.0);
    for (dpma::ctmc::TangibleId s = 0; s < chain.num_states(); ++s) {
        flow[s] -= pi[s] * chain.exit_rate(s);
        for (const dpma::ctmc::RateEntry& e : chain.row(s)) flow[e.target] += pi[s] * e.rate;
    }
    double worst = 0.0;
    for (const double f : flow) worst = std::max(worst, std::fabs(f));
    return worst;
}

std::string steady_state(const dpma::ctmc::Ctmc& chain, const std::vector<double>& pi) {
    if (pi.size() != chain.num_states()) return "steady-state vector has the wrong size";
    double mass = 0.0;
    for (const double p : pi) {
        if (!(p >= 0.0 && p <= 1.0)) return format("probability %g outside [0, 1]", p);
        mass += p;
    }
    if (std::fabs(mass - 1.0) > 1e-9) return format("probability mass %.15g", mass);
    const double residual = balance_residual(chain, pi);
    if (!(residual <= kResidualTolerance)) {
        return format("balance residual %.3g above tolerance %.0e", residual, kResidualTolerance);
    }
    return {};
}

std::string fig4_point(double energy_per_frame, double quality) {
    if (std::round(energy_per_frame * 10.0) != 218.0 || std::round(quality * 1000.0) != 879.0) {
        return format("Fig. 4 point gives energy/frame %.4f, quality %.4f "
                      "(expected 21.8, 0.879)",
                      energy_per_frame, quality);
    }
    return {};
}

std::string within_half_widths(const std::vector<double>& exact,
                               const std::vector<dpma::sim::Estimate>& simulated,
                               const std::vector<bool>& checked) {
    if (exact.size() != simulated.size() || exact.size() != checked.size()) {
        return "measure count mismatch";
    }
    for (std::size_t m = 0; m < exact.size(); ++m) {
        if (!checked[m]) continue;
        const dpma::sim::Estimate& e = simulated[m];
        if (!(std::fabs(e.mean - exact[m]) <= 2.0 * e.half_width)) {
            return format("CTMC value %.6g outside two half-widths of the simulated mean %.6g",
                          exact[m], e.mean);
        }
    }
    return {};
}

std::string complete(const LifetimeRow& row) {
    if (row.censored.size() != row.lifetimes.size() || row.refined.size() != row.lifetimes.size()) {
        return "capacity count mismatch";
    }
    for (std::size_t c = 0; c < row.lifetimes.size(); ++c) {
        if (row.censored[c] != 0) {
            return format("%d censored replications at capacity index %zu", row.censored[c], c);
        }
        const bool finite = std::isfinite(row.lifetimes[c]) && std::isfinite(row.refined[c]);
        if (!finite || row.lifetimes[c] <= 0.0 || row.refined[c] <= 0.0) {
            return format("lifetime %g or bound %g not finite and positive at capacity index %zu",
                          row.lifetimes[c], row.refined[c], c);
        }
    }
    return {};
}

std::string amplified(const LifetimeRow& nodpm, const LifetimeRow& dpm) {
    const double fluid_ratio = nodpm.steady_power / dpm.steady_power;
    if (nodpm.lifetimes.size() != dpm.lifetimes.size()) return "capacity count mismatch";
    for (std::size_t c = 0; c < dpm.lifetimes.size(); ++c) {
        const double ratio = dpm.lifetimes[c] / nodpm.lifetimes[c];
        if (!(ratio > fluid_ratio)) {
            return format("DPM/NO-DPM lifetime ratio %.4f not above the fluid ratio %.4f",
                          ratio, fluid_ratio);
        }
    }
    return {};
}

}  // namespace perfbench::oracle
