#pragma once

/// \file generate.hpp
/// Seeded input generation.  Every input starts from a specification the
/// repository ships (specs/*.aem, specs/rpc_measures.msr, and the streaming
/// measures in perfbench/streaming_measures.msr) and is rewritten as text:
/// buffer capacities, DPM rates and timeouts, and whether the DPM commands
/// are attached.  The library under test only ever sees that text.
///
/// The seed draws everything that does not set the amount of work — rates
/// and timeouts (within 2% of a fixed design where they change the work),
/// simulation seeds and, for functional and battery, the task order — while
/// the capacity design, point counts and replication counts are fixed per
/// workload.  Two seeds therefore give different inputs of the same size,
/// which keeps run-to-run spread down to timing noise.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { Functional, Markov, General, Battery };

[[nodiscard]] std::optional<Workload> workload_from(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

/// SplitMix64: the generator's only source of randomness, so a seed yields
/// the same inputs with every compiler and standard library.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double uniform();
    /// Uniform in [lo, hi).
    double between(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    template <typename T>
    void shuffle(std::vector<T>& items) {
        for (std::size_t i = items.size(); i > 1; --i) {
            std::swap(items[i - 1], items[next() % i]);
        }
    }

private:
    std::uint64_t state_;
};

/// The shipped texts the generator rewrites.
struct Sources {
    std::string streaming;           ///< specs/streaming_markov.aem
    std::string rpc_revised;         ///< specs/rpc_revised_markov.aem
    std::string rpc_untimed;         ///< specs/rpc_untimed.aem
    std::string rpc_general;         ///< specs/rpc_general.aem
    std::string rpc_measures;        ///< specs/rpc_measures.msr
    std::string streaming_measures;  ///< perfbench/streaming_measures.msr
};

/// Reads the sources below \p repo_root; throws std::runtime_error naming
/// the first missing or empty file.
[[nodiscard]] Sources load_sources(const std::filesystem::path& repo_root);

/// Streaming system with the given AP/B capacities and DPM rates (1/ms);
/// without the DPM its shutdown/wakeup commands are left unattached.
[[nodiscard]] std::string streaming_spec(const Sources& sources, long ap_capacity,
                                         long b_capacity, double shutdown_rate,
                                         double wakeup_rate, bool dpm);
/// Revised rpc system (Markovian) with the given DPM shutdown rate (1/ms).
[[nodiscard]] std::string rpc_revised_spec(const Sources& sources, double shutdown_rate,
                                           bool dpm);
/// Revised rpc system with general delays and a deterministic DPM timeout.
[[nodiscard]] std::string rpc_general_spec(const Sources& sources, double timeout_ms);

enum class Family { Streaming, Rpc };

/// DPM rates of one Markovian sweep point; wakeup_rate is 0 for rpc, whose
/// DPM has no wakeup command.
struct RatePoint {
    double shutdown_rate = 0.0;
    double wakeup_rate = 0.0;
};

/// One generated architecture and the tasks a workload runs on it.  Fields
/// after `measures` apply to one workload each.
struct Input {
    std::string name;
    Family family = Family::Streaming;
    std::string spec;
    std::string measures;  ///< .msr text; empty for the functional workload
    bool dpm = true;

    bool expect_transparent = true;  ///< functional: the known verdict
    std::vector<RatePoint> points;   ///< markov: one task per point
    /// markov: points[0] is the Fig. 4 point (capacity 10, awake 100 ms).
    bool paper_point = false;
    std::vector<std::uint64_t> sim_seeds;  ///< general: one batch task per seed
    int replications = 0;                  ///< general and battery
    double warmup = 0.0;                   ///< general
    double horizon = 0.0;                  ///< general
    bool exponential = false;              ///< general: CTMC oracle applies
    std::vector<double> capacities;        ///< battery
    std::uint64_t replay_seed = 0;         ///< battery

    [[nodiscard]] std::size_t tasks() const;
};

struct InputSet {
    Workload workload = Workload::Functional;
    std::uint64_t seed = 0;
    std::vector<Input> inputs;
    /// The untimed warm-up task of every setup: the first task of the
    /// workload's largest input (for battery the largest row that stands
    /// alone), so the heap has grown to its working size before timing and
    /// setup time does not depend on where the shuffle put the inputs.
    std::size_t warmup_task = 0;

    [[nodiscard]] std::size_t tasks() const;
    /// Hex FNV-1a hash over every text and parameter: equal digests mean
    /// two runs handed the library identical inputs.
    [[nodiscard]] std::string digest() const;
};

/// The seeded inputs of \p workload (see README.md for each design).
[[nodiscard]] InputSet generate(Workload workload, std::uint64_t seed,
                                const Sources& sources);

/// High-action labels (the DPM commands) and the low observer of a family.
[[nodiscard]] std::vector<std::string> high_labels(Family family);
inline constexpr const char* kLowInstance = "C";

}  // namespace perfbench
