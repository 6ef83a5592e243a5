/// \file main.cpp
/// The benchmark program.  Usage (from the repository root, normally through
/// perfbench/run.py, which builds this binary first):
///
///     perfbench --workload functional|markov|general|battery --seed N
///               --seconds S --trace 0|1 [--root DIR] [--git-sha SHA]
///               [--src-hash HASH]
///
/// A run is a sequence of studies until --seconds are used: each sets the
/// workload up afresh (timed: setup_s is the fastest setup) and then makes
/// one pass over the seeded task list.  A task's time is its best over the
/// passes.  Every study also times a fixed reference kernel, and the
/// end-to-end times are scaled to the host speed at which that kernel takes
/// kReferenceKernelMs (see README.md).  With --trace 0 the run prints the
/// end-to-end metrics; with
/// --trace 1 it alternates untraced and traced studies and prints the
/// per-layer metrics.  The last stdout line is the JSON result; the line
/// before it records provenance.
/// Exit status: 0 all answers correct, 1 some task failed, 2 usage or
/// refused build, 3 setup error.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "generate.hpp"
#include "obs/json.hpp"
#include "obs/resource.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

using dpma::obs::json_number;
using dpma::obs::json_quote;

/// Studies repeat until --seconds are used and at least this many were
/// untraced, so every task has several runs to take its best from.
constexpr std::size_t kMinStudies = 4;
/// A 90th percentile over the tasks' best times then has at least 10
/// samples beyond it.
constexpr std::size_t kMinTasks = 100;
/// The reference kernel's best time on the host the bounds were set on, a
/// 4-vCPU Xeon VM in an unloaded period.
constexpr double kReferenceKernelMs = 14.0;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
    Workload workload = Workload::Functional;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::filesystem::path root = ".";
    std::string git_sha = "unknown";
    std::string src_hash = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload functional|markov|general|battery "
                 "--seed N --seconds S --trace 0|1 [--root DIR] [--git-sha SHA] "
                 "[--src-hash HASH]\n",
                 problem.c_str());
    std::exit(2);
}

Options parse_options(int argc, char** argv) {
    Options options;
    bool workload = false, seed = false, seconds = false, trace = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            const auto w = workload_from(value);
            if (!w) usage("unknown workload '" + value + "'");
            options.workload = *w;
            workload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || value[0] == '-' || *end != '\0') usage("bad seed '" + value + "'");
            seed = true;
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(options.seconds > 0.0 && options.seconds <= 3600.0)) {
                usage("bad seconds '" + value + "'");
            }
            seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("trace must be 0 or 1");
            options.trace = value == "1";
            trace = true;
        } else if (flag == "--root") {
            options.root = value;
        } else if (flag == "--git-sha") {
            options.git_sha = value;
        } else if (flag == "--src-hash") {
            options.src_hash = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!workload || !seed || !seconds || !trace) usage("missing a required option");
    return options;
}

/// The host's speed, from code the library never touches: the geometric
/// mean of the times of an integer multiply chain (clock speed) and of a
/// sort of 200,000 doubles (branches and cache), in ms.  A busy host slows
/// the tasks and this kernel alike, so their ratio drifts far less than
/// either time alone.
double reference_kernel_ms() {
    std::vector<double> values(200'000);
    std::uint64_t x = 11;
    for (double& v : values) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        v = static_cast<double>(x >> 11);
    }
    const auto start = Clock::now();
    for (int i = 0; i < 10'000'000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto chained = Clock::now();
    std::sort(values.begin(), values.end());
    const auto sorted = Clock::now();
    volatile std::uint64_t sink = x + static_cast<std::uint64_t>(values[values.size() / 2]);
    (void)sink;
    return std::sqrt(std::chrono::duration<double, std::milli>(chained - start).count() *
                     std::chrono::duration<double, std::milli>(sorted - chained).count());
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

/// Per-layer metrics of a traced run: span self times and tallies per
/// traced study (one setup plus one pass).
std::vector<Metric> layer_metrics(const SpanLog& log, double studies, double overhead_ratio) {
    const auto spans = log.totals();
    const auto self_ms = [&](const std::string& name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.self_ms / studies;
    };
    const auto tally = [&](const std::string& name) { return log.tally(name) / studies; };
    const auto ratio = [](double numerator, double denominator) {
        return denominator > 0.0 ? numerator / denominator : 0.0;
    };

    std::vector<Metric> out;
    for (const char* layer :
         {"aemilia.parse", "analysis.lint", "adl.compose", "lts.views", "lts.union",
          "lts.collapse", "lts.saturate", "bisim.refine", "bisim.formula",
          "noninterference.check", "exp.patch", "ctmc.build_markov", "ctmc.solve",
          "ctmc.reward", "sim.compile", "sim.run", "battery.profile", "battery.replay"}) {
        out.push_back({std::string(layer) + "_ms", self_ms(layer), "ms"});
    }
    for (const char* count :
         {"adl.composed_states", "lts.view_states", "lts.saturated_transitions", "bisim.blocks",
          "bisim.states_resigned", "sim.events", "battery.profile_steps",
          "battery.replay_steps"}) {
        out.push_back({count, tally(count), "count"});
    }
    out.push_back({"adl.compose_states_per_s",
                   ratio(tally("adl.composed_states"), self_ms("adl.compose") / 1e3), "1/s"});
    out.push_back({"ctmc.tangible_ratio",
                   ratio(tally("ctmc.tangible_states"), tally("ctmc.composed_states")), "ratio"});
    out.push_back({"ctmc.solve_residual", log.tally("ctmc.solve_residual"), "1/ms"});
    out.push_back({"sim.events_per_s",
                   ratio(tally("sim.events"),
                         (self_ms("sim.run") + self_ms("battery.replay")) / 1e3),
                   "1/s"});
    out.push_back({"sim.fastpath_ratio", ratio(tally("sim.fastpath_runs"), tally("sim.runs")),
                   "ratio"});
    out.push_back({"battery.censored_ratio",
                   ratio(tally("battery.censored"), tally("battery.replications")), "ratio"});
    out.push_back({"obs.tracing_overhead_ratio", overhead_ratio, "ratio"});
    const auto task = spans.find("task");
    const double task_self = task == spans.end() ? 0.0 : task->second.self_ms;
    const double task_total = task == spans.end() ? 0.0 : task->second.total_ms;
    out.push_back({"unattributed_ms", task_self / studies, "ms"});
    out.push_back({"unattributed_ratio", ratio(task_self, task_total), "ratio"});
    return out;
}

/// Summed best time of the tasks that have a best in both kinds of pass,
/// traced over untraced.
double tracing_overhead(const PassStats& passes) {
    double traced = 0.0;
    double untraced = 0.0;
    for (std::size_t i = 0; i < passes.best_ms.size() && i < passes.traced_best_ms.size(); ++i) {
        if (std::isnan(passes.best_ms[i]) || std::isnan(passes.traced_best_ms[i])) continue;
        traced += passes.traced_best_ms[i];
        untraced += passes.best_ms[i];
    }
    return untraced > 0.0 ? traced / untraced : NAN;
}

/// Keeps freed memory in the process: no heap trimming, and blocks up to
/// 32 MB from the heap instead of their own mappings.  Otherwise a task
/// pays page faults for memory the task before it returned; on a 4-vCPU VM
/// the markov workload took 35,000 faults a second that way, which cost
/// about a tenth of its time and varied from run to run.
void keep_freed_memory() {
#ifdef __GLIBC__
    (void)mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    (void)mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
#endif
}

int run(const Options& options) {
    // One worker whatever the environment says: the library reads DPMA_JOBS
    // wherever a call does not pass its own job count.
    setenv("DPMA_JOBS", "1", 1);

    SpanLog log;
    InputSet inputs;
    std::unique_ptr<Runner> runner;
    PassStats passes;
    std::vector<double> setup_s;  // untraced studies only
    std::vector<double> study_s;
    double kernel_ms = std::numeric_limits<double>::infinity();  // best of the studies
    const auto measuring = Clock::now();
    for (;;) {
        const bool traced = options.trace && study_s.size() % 2 == 1;
        log.set_enabled(traced);
        const auto start = Clock::now();
        runner.reset();
        inputs = generate(options.workload, options.seed, load_sources(options.root));
        runner = prepare(inputs, log);
        if (runner->size() < kMinTasks) {
            throw std::logic_error("fewer than " + std::to_string(kMinTasks) + " tasks");
        }
        std::string failure;
        (void)runner->run(inputs.warmup_task, failure);  // untimed
        if (!failure.empty()) throw std::runtime_error("warm-up task failed: " + failure);
        if (!traced) setup_s.push_back(seconds_since(start));
        kernel_ms = std::min(kernel_ms, reference_kernel_ms());
        run_pass(*runner, traced, passes);
        study_s.push_back(seconds_since(start));
        const bool enough =
            setup_s.size() >= kMinStudies && (!options.trace || passes.traced_passes > 0);
        if (enough && seconds_since(measuring) + median(study_s) > options.seconds) break;
    }
    log.set_enabled(false);

    const dpma::obs::ResourceUsage usage = dpma::obs::sample_resources();
    const std::vector<double> best = measured(passes.best_ms);
    const double host_scale = kReferenceKernelMs / kernel_ms;
    std::string raw_times;  // the end-to-end times before scaling
    std::vector<Metric> metrics;
    if (options.trace) {
        metrics = layer_metrics(log, static_cast<double>(passes.traced_passes),
                                tracing_overhead(passes));
    } else {
        double wall_ms = 0.0;
        for (const double ms : best) wall_ms += ms;
        metrics = {
            {"wall_s", wall_ms / 1e3, "s"},
            {"task_p50_ms", best.empty() ? NAN : median(best), "ms"},
            {"task_p90_ms", best.empty() ? NAN : percentile(best, 0.9), "ms"},
            {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
        };
        for (Metric& m : metrics) {
            raw_times += (raw_times.empty() ? "" : ", ") + json_quote(m.name) + ": " +
                         json_number(m.value);
            m.value *= host_scale;
        }
        metrics.push_back(
            {"peak_rss_mb", static_cast<double>(usage.peak_rss_kb) / 1024.0, "MB"});
    }

    std::string pass_list;
    for (const double s : passes.pass_s) {
        pass_list += (pass_list.empty() ? "" : ", ") + json_number(s);
    }
    std::printf("perfbench-provenance {\"workload\": %s, \"seed\": %llu, \"nproc\": %u, "
                "\"jobs\": 1, \"git_sha\": %s, \"src_hash\": %s, \"build_type\": %s, "
                "\"inputs_digest\": %s, \"setups\": %zu, \"tasks_per_pass\": %zu, "
                "\"untraced_passes\": %zu, \"traced_passes\": %zu, \"samples\": %zu, "
                "\"cpu_user_s\": %.3f, "
                "\"cpu_system_s\": %.3f, \"minor_faults\": %llu, \"kernel_ms\": %s, "
                "\"host_scale\": %s, \"raw\": {%s}, \"pass_s\": [%s]}\n",
                json_quote(workload_name(options.workload)).c_str(),
                static_cast<unsigned long long>(options.seed),
                std::thread::hardware_concurrency(), json_quote(options.git_sha).c_str(),
                json_quote(options.src_hash).c_str(), json_quote(PERFBENCH_BUILD_TYPE).c_str(),
                json_quote(inputs.digest()).c_str(), setup_s.size(), runner->size(),
                passes.pass_s.size(), passes.traced_passes, best.size(), usage.cpu_user_s,
                usage.cpu_system_s, static_cast<unsigned long long>(usage.minor_faults),
                json_number(kernel_ms).c_str(), json_number(host_scale).c_str(),
                raw_times.c_str(), pass_list.c_str());
    std::string result =
        "{\"correct\": " + std::string(passes.failed == 0 ? "true" : "false") +
        ", \"attempted\": " + std::to_string(passes.attempted) +
        ", \"failed\": " + std::to_string(passes.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) result += ", ";
        result += json_quote(metrics[i].name) + ": {\"value\": " +
                  json_number(metrics[i].value) + ", \"unit\": " + json_quote(metrics[i].unit) +
                  "}";
    }
    result += "}}";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return passes.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse_options(argc, argv);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr, "perfbench: refusing to time a %s build (need Release)\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    keep_freed_memory();
    try {
        return run(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }
}
