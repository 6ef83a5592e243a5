#include "generate.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in || text.str().empty()) {
        throw std::runtime_error("cannot read " + path.string());
    }
    return text.str();
}

std::string number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
    return buffer;
}

/// Replaces every occurrence of \p from; a missing anchor means the shipped
/// spec changed shape, which must stop the benchmark rather than silently
/// generate something else.
std::string substitute(std::string text, std::string_view from, const std::string& to) {
    std::size_t at = text.find(from);
    if (at == std::string::npos) {
        throw std::runtime_error("generator anchor not found in spec: " + std::string(from));
    }
    while (at != std::string::npos) {
        text.replace(at, from.size(), to);
        at = text.find(from, at + to.size());
    }
    return text;
}

/// Drops the attachment lines of the DPM's commands (the "DPM is absent"
/// configuration: unattached interactions are blocked) and keeps the
/// remaining attachment list well-formed.
std::string detach_dpm_commands(const std::string& text) {
    std::istringstream in(text);
    std::vector<std::string> lines;
    bool dropped = false;
    for (std::string line; std::getline(in, line);) {
        if (line.find("FROM DPM.send_") != std::string::npos) {
            dropped = true;
            continue;
        }
        lines.push_back(std::move(line));
    }
    if (!dropped) throw std::runtime_error("generator anchor not found: FROM DPM.send_");
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::string line = lines[i];
        const bool last_attachment = i + 1 < lines.size() &&
                                     lines[i + 1].rfind("END", 0) == 0 &&
                                     line.find("FROM ") != std::string::npos;
        if (last_attachment && !line.empty() && line.back() == ';') line.pop_back();
        out += line;
        out += '\n';
    }
    return out;
}

// Fixed designs.  Capacities and counts set the amount of work and never
// depend on the seed.  Where a rate changes the work (solver iterations,
// simulated events per run) the seed jitters it by at most 2%; in the
// functional check rates play no part, so there they vary freely.
constexpr double kJitterLo = 0.98;
constexpr double kJitterHi = 1.02;

// Every workload has at least 100 tasks, so that a 90th percentile over
// one best time per task has 10 samples beyond it, and a pass of about 2-3 s
// on a 4-core Xeon VM, so that a run repeats it about ten times.

/// functional: every AP/B capacity pair with both capacities at least 3 and
/// a sum of at most 9 (check time 17-60 ms), each in copies that differ in
/// their DPM rates only, plus a minority of rpc tasks (about 9 ms revised,
/// under 1 ms untimed).
constexpr long kFunctionalCapMin = 3;
constexpr long kFunctionalCapSum = 9;
constexpr int kFunctionalCopies = 6;
constexpr int kFunctionalRpcRevised = 28;
constexpr int kFunctionalRpcUntimed = 12;

/// markov: composed sizes 20,160 (10/10) to about 33,000 (12/12) states.
constexpr std::pair<long, long> kMarkovCaps[] = {{10, 10}, {10, 12}, {12, 10}, {11, 11},
                                                  {12, 12}, {10, 14}, {14, 10}};
/// The first point of every architecture is the 100 ms awake period.
constexpr double kMarkovAwakeMs[] = {100, 10, 25, 50, 150, 200, 400, 800};
constexpr double kMarkovRpcShutdownRates[] = {0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0};
constexpr int kMarkovRpcArchitectures = 6;

/// general: the clocked path (rpc_general) and the exponential fast path.
constexpr double kGeneralRpcTimeoutsMs[] = {2.5, 5.0, 7.5};
constexpr double kGeneralRpcShutdownRates[] = {0.2, 0.5};
constexpr std::pair<long, long> kGeneralStreamingCaps[] = {{6, 6}, {10, 10}};
constexpr double kGeneralStreamingAwakeMs[] = {50.0, 100.0};
constexpr int kGeneralBatches = 15;
constexpr int kGeneralReplications = 20;

/// battery: streaming capacities 3..5 and the revised rpc, DPM off and on.
/// The rpc rows (replay-bound, 3-16 ms) are the majority, so the median task
/// is an rpc row; the 12 streaming rows (30-450 ms, profile-bound) hold the
/// 90th percentile.  The amplification oracle needs a margin over
/// replication noise: the rpc margin grows with the shutdown rate and the
/// battery capacity, the streaming one shrinks above 5,000.
constexpr std::pair<long, long> kBatteryCaps[] = {{3, 3}, {3, 4}, {4, 3},
                                                   {4, 4}, {3, 5}, {5, 3}};
/// rpc pairs at shutdown rates spaced geometrically over [0.5, 5] per ms.
constexpr int kBatteryRpcPairs = 44;
constexpr double kBatteryRpcShutdownMin = 0.5;
constexpr double kBatteryRpcShutdownMax = 5.0;
constexpr double kBatteryCapacities[] = {2000.0, 5000.0};
constexpr int kBatteryReplications = 10;

constexpr double kPaperShutdownRate = 0.2;  // 5 ms DPM shutdown delay
constexpr double kPaperWakeupRate = 0.01;   // 100 ms PSP awake period

std::string cap_name(long ap, long b) {
    return "ap" + std::to_string(ap) + "-b" + std::to_string(b);
}

std::vector<Input> functional_inputs(const Sources& sources, Rng& rng) {
    std::vector<Input> inputs;
    for (long ap = kFunctionalCapMin; ap <= kFunctionalCapSum - kFunctionalCapMin; ++ap) {
        for (long b = kFunctionalCapMin; ap + b <= kFunctionalCapSum; ++b) {
            for (int copy = 0; copy < kFunctionalCopies; ++copy) {
                Input in;
                in.name = "streaming-" + cap_name(ap, b) + "-c" + std::to_string(copy);
                in.family = Family::Streaming;
                in.spec = streaming_spec(sources, ap, b, rng.between(0.1, 0.3),
                                         1.0 / rng.between(25.0, 400.0), true);
                inputs.push_back(std::move(in));
            }
        }
    }
    for (int i = 0; i < kFunctionalRpcRevised; ++i) {
        Input in;
        in.name = "rpc-revised-" + std::to_string(i);
        in.family = Family::Rpc;
        in.spec = rpc_revised_spec(sources, rng.between(0.1, 1.0), true);
        inputs.push_back(std::move(in));
    }
    for (int i = 0; i < kFunctionalRpcUntimed; ++i) {
        Input in;
        in.name = "rpc-untimed-" + std::to_string(i);
        in.family = Family::Rpc;
        in.spec = sources.rpc_untimed;
        in.expect_transparent = false;
        inputs.push_back(std::move(in));
    }
    rng.shuffle(inputs);
    return inputs;
}

std::vector<Input> markov_inputs(const Sources& sources, Rng& rng) {
    std::vector<Input> inputs;
    for (const auto& [ap, b] : kMarkovCaps) {
        Input in;
        in.name = "streaming-" + cap_name(ap, b);
        in.family = Family::Streaming;
        in.measures = sources.streaming_measures;
        // Every point patches both DPM rates, so the text's own rates set
        // no work and the seed may draw them.
        in.spec = streaming_spec(sources, ap, b, rng.between(0.1, 0.3),
                                 1.0 / rng.between(25.0, 400.0), true);
        for (const double awake : kMarkovAwakeMs) {
            in.points.push_back(RatePoint{kPaperShutdownRate * rng.between(kJitterLo, kJitterHi),
                                          1.0 / (awake * rng.between(kJitterLo, kJitterHi))});
        }
        if (ap == 10 && b == 10) {
            in.paper_point = true;
            in.points.front() = RatePoint{kPaperShutdownRate, kPaperWakeupRate};
        }
        inputs.push_back(std::move(in));
    }
    for (int i = 0; i < kMarkovRpcArchitectures; ++i) {
        Input in;
        in.name = "rpc-revised-" + std::to_string(i);
        in.family = Family::Rpc;
        in.measures = sources.rpc_measures;
        in.spec = rpc_revised_spec(sources, rng.between(0.1, 1.0), true);  // patched per point
        for (const double rate : kMarkovRpcShutdownRates) {
            in.points.push_back(RatePoint{rate * rng.between(kJitterLo, kJitterHi), 0.0});
        }
        inputs.push_back(std::move(in));
    }
    // No shuffle: the freed memory the process keeps then grows the same way
    // for every seed, and so does peak RSS.
    return inputs;
}

std::vector<Input> general_inputs(const Sources& sources, Rng& rng) {
    std::vector<Input> inputs;
    const auto batches = [&rng](Input& in) {
        for (int i = 0; i < kGeneralBatches; ++i) in.sim_seeds.push_back(rng.next());
        in.replications = kGeneralReplications;
    };
    for (const double timeout : kGeneralRpcTimeoutsMs) {
        Input in;
        const double jittered = timeout * rng.between(kJitterLo, kJitterHi);
        in.name = "rpc-general-t" + number(timeout);
        in.family = Family::Rpc;
        in.measures = sources.rpc_measures;
        in.spec = rpc_general_spec(sources, jittered);
        in.warmup = 1000.0;
        in.horizon = 2e4;
        batches(in);
        inputs.push_back(std::move(in));
    }
    for (const double rate : kGeneralRpcShutdownRates) {
        Input in;
        in.name = "rpc-markov-s" + number(rate);
        in.family = Family::Rpc;
        in.measures = sources.rpc_measures;
        in.spec = rpc_revised_spec(sources, rate * rng.between(kJitterLo, kJitterHi), true);
        in.warmup = 1000.0;
        in.horizon = 2e4;
        in.exponential = true;
        batches(in);
        inputs.push_back(std::move(in));
    }
    for (std::size_t i = 0; i < std::size(kGeneralStreamingCaps); ++i) {
        const auto [ap, b] = kGeneralStreamingCaps[i];
        Input in;
        in.name = "streaming-" + cap_name(ap, b);
        in.family = Family::Streaming;
        in.measures = sources.streaming_measures;
        in.spec = streaming_spec(
            sources, ap, b, kPaperShutdownRate * rng.between(kJitterLo, kJitterHi),
            1.0 / (kGeneralStreamingAwakeMs[i] * rng.between(kJitterLo, kJitterHi)), true);
        in.warmup = 3000.0;
        in.horizon = 2e5;
        in.exponential = true;
        batches(in);
        inputs.push_back(std::move(in));
    }
    // No shuffle: the specs are composed in setup, and a fixed order keeps
    // the heap, and so peak RSS, the same for every seed.
    return inputs;
}

/// Pairs stay adjacent (NO-DPM row first): the amplification oracle compares
/// the two rows of one architecture.
std::vector<Input> battery_inputs(const Sources& sources, Rng& rng) {
    std::vector<std::pair<Input, Input>> pairs;
    const auto pair_of = [&](const std::string& name, Family family,
                             const std::string& measures, const auto& make_spec) {
        std::pair<Input, Input> rows;
        for (Input* row : {&rows.first, &rows.second}) {
            row->dpm = row == &rows.second;
            row->name = name + (row->dpm ? "-dpm" : "-nodpm");
            row->family = family;
            row->measures = measures;
            row->spec = make_spec(row->dpm);
            row->capacities.assign(std::begin(kBatteryCapacities), std::end(kBatteryCapacities));
            row->replications = kBatteryReplications;
            row->replay_seed = rng.next();
        }
        pairs.push_back(std::move(rows));
    };
    for (const auto& [ap, b] : kBatteryCaps) {
        const double shutdown = kPaperShutdownRate * rng.between(kJitterLo, kJitterHi);
        const double wakeup = kPaperWakeupRate * rng.between(kJitterLo, kJitterHi);
        pair_of("streaming-" + cap_name(ap, b), Family::Streaming, sources.streaming_measures,
                [&](bool dpm) {
                    return streaming_spec(sources, ap, b, shutdown, wakeup, dpm);
                });
    }
    for (int i = 0; i < kBatteryRpcPairs; ++i) {
        const double rate =
            kBatteryRpcShutdownMin * std::pow(kBatteryRpcShutdownMax / kBatteryRpcShutdownMin,
                                              i / (kBatteryRpcPairs - 1.0));
        const double shutdown = rate * rng.between(kJitterLo, kJitterHi);
        pair_of("rpc-revised-s" + number(rate), Family::Rpc, sources.rpc_measures,
                [&](bool dpm) { return rpc_revised_spec(sources, shutdown, dpm); });
    }
    rng.shuffle(pairs);
    std::vector<Input> inputs;
    for (auto& [nodpm, dpm] : pairs) {
        inputs.push_back(std::move(nodpm));
        inputs.push_back(std::move(dpm));
    }
    return inputs;
}

class Fnv1a {
public:
    void add(std::string_view bytes) {
        for (const char c : bytes) {
            hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
        }
        hash_ = (hash_ ^ 0xffu) * 0x100000001b3ull;  // field separator
    }
    void add(double value) { add(number(value)); }
    void add(std::uint64_t value) { add(std::to_string(value)); }
    [[nodiscard]] std::string hex() const {
        char buffer[17];
        std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash_));
        return buffer;
    }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::optional<Workload> workload_from(std::string_view name) {
    for (const Workload w :
         {Workload::Functional, Workload::Markov, Workload::General, Workload::Battery}) {
        if (name == workload_name(w)) return w;
    }
    return std::nullopt;
}

const char* workload_name(Workload workload) {
    switch (workload) {
        case Workload::Functional: return "functional";
        case Workload::Markov: return "markov";
        case Workload::General: return "general";
        case Workload::Battery: return "battery";
    }
    return "?";
}

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

Sources load_sources(const std::filesystem::path& repo_root) {
    const std::filesystem::path specs = repo_root / "specs";
    Sources sources;
    sources.streaming = read_file(specs / "streaming_markov.aem");
    sources.rpc_revised = read_file(specs / "rpc_revised_markov.aem");
    sources.rpc_untimed = read_file(specs / "rpc_untimed.aem");
    sources.rpc_general = read_file(specs / "rpc_general.aem");
    sources.rpc_measures = read_file(specs / "rpc_measures.msr");
    sources.streaming_measures = read_file(repo_root / "perfbench" / "streaming_measures.msr");
    return sources;
}

std::string streaming_spec(const Sources& sources, long ap_capacity, long b_capacity,
                           double shutdown_rate, double wakeup_rate, bool dpm) {
    std::string text = sources.streaming;
    text = substitute(std::move(text), "Access_Point_Type(0, 10)",
                      "Access_Point_Type(0, " + std::to_string(ap_capacity) + ")");
    text = substitute(std::move(text), "Client_Buffer_Type(0, 10)",
                      "Client_Buffer_Type(0, " + std::to_string(b_capacity) + ")");
    text = substitute(std::move(text), "<send_shutdown, exp(0.2)>",
                      "<send_shutdown, exp(" + number(shutdown_rate) + ")>");
    text = substitute(std::move(text), "<send_wakeup, exp(0.01)>",
                      "<send_wakeup, exp(" + number(wakeup_rate) + ")>");
    return dpm ? text : detach_dpm_commands(text);
}

std::string rpc_revised_spec(const Sources& sources, double shutdown_rate, bool dpm) {
    std::string text = substitute(sources.rpc_revised, "<send_shutdown, exp(0.2)>",
                                  "<send_shutdown, exp(" + number(shutdown_rate) + ")>");
    return dpm ? text : detach_dpm_commands(text);
}

std::string rpc_general_spec(const Sources& sources, double timeout_ms) {
    return substitute(sources.rpc_general, "<send_shutdown, det(5)>",
                      "<send_shutdown, det(" + number(timeout_ms) + ")>");
}

std::size_t Input::tasks() const {
    if (!points.empty()) return points.size();
    if (!sim_seeds.empty()) return sim_seeds.size();
    return 1;
}

std::size_t InputSet::tasks() const {
    std::size_t total = 0;
    for (const Input& in : inputs) total += in.tasks();
    return total;
}

std::string InputSet::digest() const {
    Fnv1a hash;
    hash.add(workload_name(workload));
    for (const Input& in : inputs) {
        hash.add(in.name);
        hash.add(in.spec);
        hash.add(in.measures);
        hash.add(std::string(in.dpm ? "dpm" : "nodpm"));
        hash.add(std::string(in.expect_transparent ? "pass" : "fail"));
        for (const RatePoint& p : in.points) {
            hash.add(p.shutdown_rate);
            hash.add(p.wakeup_rate);
        }
        for (const std::uint64_t s : in.sim_seeds) hash.add(s);
        hash.add(static_cast<std::uint64_t>(in.replications));
        hash.add(in.warmup);
        hash.add(in.horizon);
        for (const double c : in.capacities) hash.add(c);
        hash.add(in.replay_seed);
    }
    return hash.hex();
}

InputSet generate(Workload workload, std::uint64_t seed, const Sources& sources) {
    InputSet set;
    set.workload = workload;
    set.seed = seed;
    // Decorrelate the workloads' streams for one seed.
    Rng rng(seed * 4 + static_cast<std::uint64_t>(workload));
    std::string warmup;
    switch (workload) {
        case Workload::Functional:
            set.inputs = functional_inputs(sources, rng);
            warmup = "streaming-ap4-b5-c0";
            break;
        case Workload::Markov:
            set.inputs = markov_inputs(sources, rng);
            warmup = "streaming-ap12-b12";
            break;
        case Workload::General:
            set.inputs = general_inputs(sources, rng);
            warmup = "streaming-ap10-b10";
            break;
        case Workload::Battery:
            set.inputs = battery_inputs(sources, rng);
            warmup = "streaming-ap4-b4-nodpm";
            break;
    }
    std::size_t task = 0;
    for (const Input& in : set.inputs) {
        if (in.name == warmup) {
            set.warmup_task = task;
            return set;
        }
        task += in.tasks();
    }
    throw std::logic_error("warm-up input missing: " + warmup);
}

std::vector<std::string> high_labels(Family family) {
    if (family == Family::Rpc) return {"DPM.send_shutdown#S.receive_shutdown"};
    return {"DPM.send_shutdown#NIC.receive_shutdown", "DPM.send_wakeup#NIC.receive_wakeup"};
}

}  // namespace perfbench
