/// \file dpma_cli.cpp
/// Command-line front end of the toolchain — the TwoTowers-like workflow on
/// Æmilia files, no C++ required:
///
///   dpma_cli <command> <positional>... [option]...
///
/// The command table below (kCommands, plus kGlobalOptions for the options
/// every command accepts in any position) is the one source of commands,
/// positionals, option names, kinds, defaults and range checks.  One parser
/// reads it: it produces the typed values the commands use, the usage text
/// (`dpma_cli` without arguments prints it) and every usage-error message.
///
/// `check` runs the paper's noninterference analysis: --high lists the
/// global action labels of the power-management commands (as printed by
/// `info`), --low names the observing instance.
///
/// `lint` runs the semantic analyser (src/analysis) and prints every
/// diagnostic with its file:line:column span — clang-style text by default,
/// strict JSON with --format json, SARIF 2.1.0 with --format sarif.  It
/// accepts any mix of .aem files and directories (searched recursively for
/// *.aem); exit status aggregates over all of them: 0 when no file has
/// errors (warnings allowed), 1 otherwise.  All other commands run the same
/// lint automatically before touching the model: a spec with lint errors
/// fails fast with the diagnostics on stderr (exit 4) instead of dying
/// somewhere inside composition or solving.
///
/// `analyze` runs lint plus the dataflow / abstract-interpretation engine
/// (src/analysis/flow): rate-literal scan [non-positive-rate], interval
/// propagation of behaviour parameters [unbounded-parameter], abstract
/// composition over interaction alphabets [dead-interaction, sync-deadlock]
/// and the ergodicity precheck [non-ergodic] — all without ever building
/// the composed LTS.  With --high/--low it additionally runs the static
/// DPM-transparency slice and prints the verdict
/// (transparent/leaks/inconclusive); a static `transparent` is sound (it
/// implies the exact weak-bisimulation verdict of `check`), the other two
/// are advisory.  Same inputs, formats and exit contract as `lint`.
///
/// `--precheck` on check/solve/sweep runs the same flow passes first:
/// `check --precheck` skips the exact weak-bisimulation comparison when the
/// static slice already proves transparency; solve/sweep abort (exit 4) on
/// flow *errors* before composing.
///
/// Exit status: 0 = check passed / command succeeded, 1 = check or lint
/// failed, 2 = usage error (unknown command or option, wrong positional
/// count, missing, repeated or malformed option value — including a value
/// outside its range), 3 = Æmilia parse error, 4 = analysis error
/// (lint errors under a non-lint command, numerical failure, bad measure,
/// unwritable output, ...), 5 = sweep interrupted gracefully (SIGINT/
/// SIGTERM: in-flight points drained, checkpoint and partial artifacts
/// written), 6 = sweep completed but some points failed after their retry
/// budget (artifacts written; failed points carry "error" records).  Trace
/// and metrics files are written even when the command fails — a trace of
/// a failing run is precisely the one worth looking at.
///
/// Fault tolerance on sweep/lifetime: --checkpoint PATH appends one durable
/// JSONL record per finished point (exp/checkpoint.hpp; survives kill -9
/// modulo a torn final line), --resume restores the points the checkpoint
/// already holds — resumed runs are bit-identical to uninterrupted ones
/// (set DPMA_RESULT_TIMING=0 to byte-compare artifacts) — and --retries N
/// re-runs a throwing point up to N extra times before recording it as
/// failed instead of aborting the sweep.  Every file artifact (--json,
/// --csv, --trace, --metrics, --report) is written atomically: temp file +
/// fsync + rename, so no crash or full disk leaves a truncated artifact
/// behind.
///
/// `lifetime` runs a battery lifetime study (src/battery) on a built-in
/// case-study system: capacity x {NO-DPM, DPM} sweep, each point replaying
/// simulated trajectories into a fresh battery plus the analytic
/// fluid/refined bounds from the CTMC.  Battery parameters must be positive
/// and finite (kibam-c strictly inside (0,1)); anything else is a usage
/// error (exit 2).
///
/// `report` is the perf-regression gate (exp/regress.hpp): it loads two run
/// records (as written by --report or a bench binary), pairs their result
/// series by experiment and point, and prints a verdict table of
/// bootstrap-CI'd time ratios.  Exit 0 when no series regressed beyond
/// --threshold, 1 on a significant regression, 4 when either
/// file is unreadable, invalid JSON, or not a run record.
///
/// `sweep` solves the model at every point of a parameter range on the
/// experiment engine (src/exp): the model is composed *once*, and each point
/// patches the exponential rate of the transitions matching I.action (either
/// side of a synchronised label, as in measure ENABLED predicates) before
/// re-extracting and solving the CTMC — the state space is reused across the
/// whole sweep.  Points run in parallel (--jobs; 0 = DPMA_JOBS /
/// hardware_concurrency); results are identical for every jobs count.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "adl/compose.hpp"
#include "aemilia/parser.hpp"
#include "analysis/flow/analyze.hpp"
#include "analysis/lint.hpp"
#include "battery/lifetime.hpp"
#include "bisim/hml.hpp"
#include "core/error.hpp"
#include "core/text.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/reward.hpp"
#include "ctmc/solve.hpp"
#include "exp/cache.hpp"
#include "exp/experiment.hpp"
#include "exp/pool.hpp"
#include "exp/regress.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/shutdown.hpp"
#include "lts/dot.hpp"
#include "lts/ops.hpp"
#include "noninterference/noninterference.hpp"
#include "obs/atomic_write.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "sim/gsmp.hpp"

namespace {

using namespace dpma;

/// Run record of this invocation (--report); commands that produce a
/// ResultSet attach it as a series.  Null without --report.
dpma::obs::RunReport* g_run_report = nullptr;

// ------------------------------------------------------------ option table

/// A malformed command line: main() prints "dpma_cli: <command>: <message>"
/// and the usage lines generated from the table, and exits 2.
struct UsageError : Error {
    using Error::Error;
};

/// What an option's value must look like; each kind has one parser.
enum class Kind : std::uint8_t {
    String,          ///< any non-empty text
    Enum,            ///< one of the '|'-separated words of Option::meta
    Double,          ///< a finite number, optionally range-checked
    PositiveInt,     ///< an integer in [1, INT_MAX]
    NonNegativeInt,  ///< an integer in [0, INT_MAX]
    Seed,            ///< an unsigned 64-bit integer
    Range,           ///< lo:hi:steps with 0 < lo <= hi and integral steps >= 1
    Param,           ///< instance.action=lo:hi:steps
    Flag,            ///< no value
};

/// What a malformed value of each kind should have been (an Enum lists its
/// words instead).
constexpr const char* kWants[] = {
    "a non-empty value", "", "a finite number", "a positive integer",
    "a non-negative integer", "an unsigned 64-bit integer",
    "lo:hi:steps with 0 < lo <= hi and integral steps >= 1",
    "instance.action=lo:hi:steps with 0 < lo <= hi and integral steps >= 1", ""};

/// One row of the table.
struct Option {
    const char* name;
    Kind kind;
    /// Default, parsed exactly like a given value; "" = absent unless given,
    /// nullptr = required.
    const char* fallback;
    /// Usage metavariable; for Enum also the accepted words.
    const char* meta = "";
    /// Optional range check on a Double, and the phrase that names it.
    bool (*accepts)(double) = nullptr;
    const char* wants = nullptr;
    /// Another option this one is meaningless without.
    const char* needs = nullptr;
};

/// The usage-error message for a malformed value of \p option.
std::string bad_value(const Option& option, const std::string& text) {
    const char* what = option.wants != nullptr    ? option.wants
                       : option.kind == Kind::Enum ? option.meta
                                                   : kWants[static_cast<int>(option.kind)];
    return std::string(option.name) + " wants " + what + ", got '" + text + "'";
}

/// lo:hi:steps of a Range or Param value; target is Param's instance.action.
struct Range {
    std::string target;
    double lo = 0.0;
    double hi = 0.0;
    std::size_t steps = 0;
};

/// One option's value (given or default) in the typed form of its kind.
struct Value {
    bool given = false;
    std::string text;
    double number = 0.0;        ///< Double
    std::uint64_t integer = 0;  ///< PositiveInt, NonNegativeInt, Seed
    Range range;                ///< Range, Param
};

/// A parsed command line: the positionals and a Value for every option of
/// the command and every global option.
struct Args {
    std::vector<std::string> positionals;
    std::map<std::string, Value, std::less<>> values;

    const Value& operator[](std::string_view name) const {
        const auto it = values.find(name);
        DPMA_ASSERT(it != values.end(), "option missing from the command table");
        return it->second;
    }
};

bool positive(double x) { return x > 0.0; }
bool non_negative(double x) { return x >= 0.0; }
bool probability(double x) { return x > 0.0 && x < 1.0; }

/// Strict full-string finite double.
bool parse_number(const std::string& text, double* out) {
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0' && std::isfinite(*out);
}

/// Digits only, no sign, at most \p max.
bool parse_unsigned(const std::string& text, std::uint64_t max, std::uint64_t* out) {
    errno = 0;
    *out = std::strtoull(text.c_str(), nullptr, 10);
    return !text.empty() && text.find_first_not_of("0123456789") == std::string::npos &&
           errno != ERANGE && *out <= max;
}

/// The one lo:hi:steps grammar.  steps is read as a number so that an
/// integral "4.0" means 4; the 2^53 cap keeps the conversion exact.
bool parse_range(const std::string& text, Range* out) {
    const std::vector<std::string> parts = split(text, ':');
    double steps = 0.0;
    if (parts.size() != 3 || !parse_number(parts[0], &out->lo) ||
        !parse_number(parts[1], &out->hi) || !parse_number(parts[2], &steps)) {
        return false;
    }
    out->steps = static_cast<std::size_t>(std::clamp(steps, 0.0, 0x1p53));
    return out->lo > 0.0 && out->hi >= out->lo && steps >= 1.0 &&
           steps == static_cast<double>(out->steps);
}

/// Parses \p text as \p option's kind into \p out; false when it is
/// malformed or out of range.
bool parse_value(const Option& option, const std::string& text, Value* out) {
    constexpr std::uint64_t kIntMax = INT_MAX;
    out->text = text;
    switch (option.kind) {
        case Kind::String: return !text.empty();
        case Kind::Enum: return std::ranges::count(split(option.meta, '|'), text) != 0;
        case Kind::Double:
            return parse_number(text, &out->number) &&
                   (option.accepts == nullptr || option.accepts(out->number));
        case Kind::PositiveInt:
            return parse_unsigned(text, kIntMax, &out->integer) && out->integer >= 1;
        case Kind::NonNegativeInt: return parse_unsigned(text, kIntMax, &out->integer);
        case Kind::Seed: return parse_unsigned(text, UINT64_MAX, &out->integer);
        case Kind::Range: return parse_range(text, &out->range);
        case Kind::Param: {
            const std::size_t eq = text.find('=');
            const std::size_t dot = text.find('.');
            out->range.target = text.substr(0, eq);
            return eq != std::string::npos && dot != 0 && dot < eq && dot + 1 < eq &&
                   parse_range(text.substr(eq + 1), &out->range);
        }
        case Kind::Flag: break;
    }
    return true;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw Error("cannot open " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Prints \p lint's diagnostics of \p path to stderr; lint errors throw
/// Error (exit 4) so the model never reaches composition.
void require_lint_ok(const analysis::LintResult& lint, const std::string& path) {
    if (!lint.diagnostics.empty()) {
        std::fputs(analysis::render_text(lint.diagnostics).c_str(), stderr);
    }
    if (!lint.ok()) {
        throw Error(path + " failed semantic analysis with " +
                    std::to_string(lint.error_count()) +
                    " error(s); diagnostics above, or run `dpma_cli lint`");
    }
}

/// Parses and lints \p path.  ParseError propagates (exit 3); lint warnings
/// are printed and tolerated.
adl::ArchiType load_archi(const std::string& path) {
    adl::ArchiType archi = aemilia::parse_archi_type_unchecked(read_file(path));
    require_lint_ok(analysis::lint_model(archi, path), path);
    return archi;
}

/// Parses and lints a measure file against the architecture it will be
/// evaluated on.  Same contract as load_archi.
std::vector<adl::Measure> load_measures(const std::string& path, const adl::ArchiType& archi,
                                        const std::string& archi_path) {
    std::vector<adl::Measure> measures = aemilia::parse_measures(read_file(path));
    analysis::LintResult lint;
    analysis::lint_measures(archi, measures, path, archi_path, lint);
    require_lint_ok(lint, path);
    return measures;
}

int cmd_info(const Args& args) {
    const adl::ComposedModel model = adl::compose(load_archi(args.positionals[0]));
    std::printf("architecture: %zu instances, %zu states, %zu transitions\n",
                model.instance_names.size(), model.graph.num_states(),
                model.graph.num_transitions());
    std::printf("instances:");
    for (const std::string& name : model.instance_names) std::printf(" %s", name.c_str());
    std::printf("\n");
    const auto deadlocks = lts::deadlock_states(model.graph);
    std::printf("deadlock states: %zu\n", deadlocks.size());
    std::printf("action labels:\n");
    // Show only labels that actually occur on transitions.
    const auto& table = *model.graph.actions();
    std::vector<char> used(table.size(), 0);
    for (lts::StateId s = 0; s < model.graph.num_states(); ++s) {
        for (const lts::Transition& t : model.graph.out(s)) used[t.action] = 1;
    }
    for (Symbol a = 1; a < table.size(); ++a) {
        if (used[a] != 0) std::printf("  %s\n", table.name(a).c_str());
    }
    return 0;
}

int cmd_dot(const Args& args) {
    const adl::ComposedModel model = adl::compose(load_archi(args.positionals[0]));
    lts::DotOptions options;
    options.max_states = 2000;
    std::fputs(lts::to_dot(model.graph, options).c_str(), stdout);
    return 0;
}

/// Expands a mix of .aem files and directories (searched recursively for
/// *.aem, sorted for stable output) into the list of spec files to process.
std::vector<std::string> collect_spec_files(const std::vector<std::string>& inputs) {
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const std::string& input : inputs) {
        std::error_code ec;
        if (fs::is_directory(input, ec)) {
            std::vector<std::string> found;
            for (const auto& entry : fs::recursive_directory_iterator(input)) {
                if (entry.is_regular_file() && entry.path().extension() == ".aem") {
                    found.push_back(entry.path().string());
                }
            }
            if (found.empty()) throw Error("no .aem files under " + input);
            std::sort(found.begin(), found.end());
            files.insert(files.end(), found.begin(), found.end());
        } else {
            files.push_back(input);
        }
    }
    return files;
}

/// Shared front end of `lint` and `analyze`: positional inputs (files or
/// directories), with a trailing .msr peeled off as the measure file of a
/// single-spec invocation.
struct SpecInputs {
    std::vector<std::string> files;
    std::string measures_path;
};

SpecInputs parse_spec_inputs(std::vector<std::string> inputs) {
    SpecInputs out;
    if (inputs.size() >= 2 && inputs.back().size() > 4 &&
        inputs.back().rfind(".msr") == inputs.back().size() - 4) {
        out.measures_path = inputs.back();
        inputs.pop_back();
    }
    out.files = collect_spec_files(inputs);
    if (!out.measures_path.empty() && out.files.size() != 1) {
        throw Error("a measure file needs exactly one specification, got " +
                    std::to_string(out.files.size()));
    }
    return out;
}

/// `lint` and, with \p flow, `analyze`: same inputs, formats and exit
/// contract; analyze adds the flow passes and, with --high/--low, the static
/// transparency slice.
int lint_specs(const Args& args, bool flow) {
    const std::string& format = args["--format"].text;
    const SpecInputs inputs = parse_spec_inputs(args.positionals);
    analysis::flow::AnalyzeOptions options;
    if (flow && args["--high"].given) {
        if (inputs.files.size() != 1) {
            throw Error("--high/--low slice one architecture; pass a single spec");
        }
        for (const std::string& label : split(args["--high"].text, ',')) {
            options.high_labels.emplace_back(trim(label));
        }
        options.low_instance = args["--low"].text;
    }

    std::vector<analysis::Diagnostic> merged;
    std::optional<analysis::flow::TransparencyResult> transparency;
    bool ok = true;
    for (const std::string& file : inputs.files) {
        const std::string spec_text = read_file(file);
        const std::string& msr = inputs.measures_path;
        analysis::flow::AnalyzeResult result;
        if (flow && msr.empty()) {
            result = analysis::flow::analyze_text(spec_text, file, options);
        } else if (flow) {
            result = analysis::flow::analyze_text(spec_text, file, read_file(msr), msr, options);
        } else if (msr.empty()) {
            result.lint = analysis::lint_text(spec_text, file);
        } else {
            result.lint = analysis::lint_text(spec_text, file, read_file(msr), msr);
        }
        ok = ok && result.ok();
        if (format == "text" && result.clean()) {
            std::printf("%s: no problems found\n", file.c_str());
        }
        const std::vector<analysis::Diagnostic> all = result.all();
        merged.insert(merged.end(), all.begin(), all.end());
        if (result.transparency) transparency = std::move(result.transparency);
    }

    if (format == "json") {
        std::string json = analysis::render_json(merged);
        if (transparency) {
            const auto quoted_list = [](const std::vector<std::string>& items) {
                std::string out = "[";
                for (const std::string& item : items) {
                    out += (out.size() > 1 ? ", " : "") + obs::json_quote(item);
                }
                return out + "]";
            };
            // Splice the verdict object before the closing "\n}\n".
            json.resize(json.size() - 3);
            json += ",\n  \"transparency\": {\"verdict\": " +
                    obs::json_quote(analysis::flow::verdict_name(transparency->verdict)) +
                    ", \"reason\": " + obs::json_quote(transparency->reason) +
                    ", \"slice_states\": " + std::to_string(transparency->slice_states) +
                    ", \"slice\": " + quoted_list(transparency->slice_instances) +
                    ", \"leak_chain\": " + quoted_list(transparency->leak_chain) + "}\n}\n";
        }
        std::fputs(json.c_str(), stdout);
    } else if (format == "sarif") {
        std::fputs(analysis::render_sarif(merged, flow ? "dpma-analyze" : "dpma-lint").c_str(),
                   stdout);
    } else {
        if (!merged.empty()) std::fputs(analysis::render_text(merged).c_str(), stdout);
        if (transparency) {
            std::printf("transparency (static): %s\n",
                        analysis::flow::verdict_name(transparency->verdict));
            std::printf("  %s\n", transparency->reason.c_str());
            for (const std::string& link : transparency->leak_chain) {
                std::printf("  leak chain: %s\n", link.c_str());
            }
        }
    }
    return ok ? 0 : 1;
}

int cmd_lint(const Args& args) { return lint_specs(args, false); }
int cmd_analyze(const Args& args) { return lint_specs(args, true); }

/// The `--precheck` pre-pass of solve/sweep: flow analyses on the linted
/// architecture, diagnostics to stderr, flow *errors* abort (exit 4).
void run_precheck(const adl::ArchiType& archi, const std::string& path) {
    analysis::flow::AnalyzeResult result =
        analysis::flow::analyze_model(archi, path, analysis::LintResult{});
    if (!result.flow.empty()) {
        std::fputs(analysis::render_text(result.flow).c_str(), stderr);
    }
    if (!result.ok()) {
        throw Error(path + " failed the flow precheck with " +
                    std::to_string(result.error_count()) +
                    " error(s); diagnostics above, or run `dpma_cli analyze`");
    }
}

int cmd_check(const Args& args) {
    const std::string& path = args.positionals[0];
    const std::string& high = args["--high"].text;
    const std::string& low = args["--low"].text;
    const bool traces = args["--traces"].given;
    const bool precheck = args["--precheck"].given;

    const adl::ArchiType archi = load_archi(path);
    std::vector<std::string> high_labels;
    for (const std::string& label : split(high, ',')) {
        high_labels.emplace_back(trim(label));
    }

    if (precheck && !traces) {
        // The static slice can only *prove* transparency; any other verdict
        // (including precheck setup errors) falls through to the exact check.
        try {
            analysis::flow::TransparencyOptions transparency_options;
            transparency_options.high_labels = high_labels;
            transparency_options.low_instance = low;
            const analysis::flow::TransparencyResult verdict =
                analysis::flow::analyze_transparency(archi, transparency_options);
            std::printf("static precheck: %s\n  %s\n",
                        analysis::flow::verdict_name(verdict.verdict),
                        verdict.reason.c_str());
            if (verdict.verdict == analysis::flow::TransparencyVerdict::Transparent) {
                std::printf("noninterference (weak bisimulation): PASS "
                            "(proved statically, exact check skipped)\n");
                return 0;
            }
        } catch (const Error& e) {
            std::fprintf(stderr, "static precheck unavailable: %s\n", e.what());
        }
    }

    const adl::ComposedModel model = adl::compose(archi);

    if (traces) {
        const auto verdict =
            noninterference::check_dpm_trace_transparency(model, high_labels, low);
        std::printf("trace-based noninterference (SNNI): %s\n",
                    verdict.noninterfering ? "PASS" : "FAIL");
        if (!verdict.noninterfering) {
            std::printf("distinguishing trace:");
            for (const std::string& a : verdict.distinguishing_trace) {
                std::printf(" %s", a.c_str());
            }
            std::printf("\n");
        }
        return verdict.noninterfering ? 0 : 1;
    }

    const auto verdict =
        noninterference::check_dpm_transparency(model, high_labels, low);
    std::printf("noninterference (weak bisimulation): %s\n",
                verdict.noninterfering ? "PASS" : "FAIL");
    if (!verdict.noninterfering) {
        std::printf("distinguishing formula:\n%s\n",
                    bisim::to_two_towers(verdict.formula).c_str());
    }
    return verdict.noninterfering ? 0 : 1;
}

int cmd_solve(const Args& args) {
    const std::string& model_path = args.positionals[0];
    const std::string& measures_path = args.positionals[1];
    const bool precheck = args["--precheck"].given;
    const adl::ArchiType archi = load_archi(model_path);
    if (precheck) run_precheck(archi, model_path);
    const auto measures = load_measures(measures_path, archi, model_path);
    const adl::ComposedModel model = adl::compose(archi);
    const ctmc::MarkovModel markov = ctmc::build_markov(model);
    const auto pi = ctmc::steady_state(markov.chain);
    std::printf("CTMC: %zu tangible states\n", markov.chain.num_states());
    for (const adl::Measure& m : measures) {
        std::printf("%-24s = %.12g\n", m.name.c_str(),
                    ctmc::evaluate_measure(markov, model, pi, m));
    }
    return 0;
}

int cmd_simulate(const Args& args) {
    const std::string& model_path = args.positionals[0];
    const std::string& measures_path = args.positionals[1];
    const double horizon = args["--horizon"].number;
    const double warmup = args["--warmup"].number;
    const auto reps = static_cast<int>(args["--reps"].integer);
    const double confidence = args["--confidence"].number;

    const adl::ArchiType archi = load_archi(model_path);
    const auto measures = load_measures(measures_path, archi, model_path);
    const adl::ComposedModel model = adl::compose(archi);
    const sim::Simulator simulator(model, measures);
    sim::SimOptions options;
    options.horizon = horizon;
    options.warmup = warmup;
    options.seed = args["--seed"].integer;
    // Replications fan out over DPMA_JOBS workers; estimates are
    // bit-identical to the serial path for any jobs count.
    exp::ThreadPool pool;
    const auto estimates =
        exp::simulate_replications(simulator, options, reps, confidence, pool);
    std::printf("simulated %d replications of horizon %g (warmup %g), %.0f%% CIs\n",
                reps, horizon, warmup, confidence * 100.0);
    for (std::size_t m = 0; m < measures.size(); ++m) {
        std::printf("%-24s = %.8g ± %.3g\n", measures[m].name.c_str(),
                    estimates[m].mean, estimates[m].half_width);
    }
    return 0;
}

/// Writes \p text to \p path, or to stdout when \p path is "-".  File
/// writes are atomic (obs::atomic_write: temp + fsync + rename) and both
/// paths check the stream state — a full disk exits nonzero with the path
/// in the message instead of leaving a truncated artifact behind.
void write_output(const std::string& path, const std::string& text) {
    if (path == "-") {
        if (std::fputs(text.c_str(), stdout) == EOF || std::fflush(stdout) != 0) {
            throw Error("cannot write to stdout");
        }
        return;
    }
    obs::atomic_write(path, text);
}

/// Maps a sweep outcome to the CLI exit code — 0 complete, 5 interrupted,
/// 6 finished with failed points — and prints the failure/interrupt summary
/// to stderr (per-point errors, and how to resume when a checkpoint exists).
int sweep_status(const exp::RunOutcome& outcome, const std::string& checkpoint_path) {
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
        const exp::PointRecord& record = outcome.results.at(i);
        if (!record.result.failed()) continue;
        std::fprintf(stderr, "dpma_cli: point %zu failed after %d attempt(s): %s\n",
                     record.point.index, record.result.attempts,
                     record.result.error.c_str());
    }
    if (outcome.restored > 0) {
        std::fprintf(stderr, "dpma_cli: restored %zu point(s) from checkpoint\n",
                     outcome.restored);
    }
    if (outcome.interrupted) {
        std::fprintf(stderr,
                     "dpma_cli: sweep interrupted: %zu/%zu point(s) done, "
                     "%zu skipped%s%s\n",
                     outcome.completed + outcome.restored + outcome.failed,
                     outcome.total, outcome.skipped,
                     checkpoint_path.empty() ? "" : "; resume with --resume --checkpoint ",
                     checkpoint_path.c_str());
        return 5;
    }
    if (outcome.failed > 0) {
        std::fprintf(stderr, "dpma_cli: sweep finished with %zu failed point(s)\n",
                     outcome.failed);
        return 6;
    }
    return 0;
}

/// The --report series and the --json/--csv artifacts of a sweep/lifetime.
void write_result_artifacts(const Args& args, const exp::ResultSet& results) {
    if (g_run_report != nullptr) g_run_report->add_series(results.json());
    if (args["--json"].given) write_output(args["--json"].text, results.json());
    if (args["--csv"].given) write_output(args["--csv"].text, results.csv());
}

int cmd_sweep(const Args& args) {
    const std::string& model_path = args.positionals[0];
    const std::string& measures_path = args.positionals[1];
    const Range& range = args["--param"].range;
    const std::string& target = range.target;
    const std::size_t dot = target.find('.');
    const std::string instance = target.substr(0, dot);
    const std::string action = target.substr(dot + 1);
    const std::string& checkpoint_path = args["--checkpoint"].text;
    // From here on Ctrl-C / SIGTERM means "stop dispatching, drain, write
    // the checkpoint and partial artifacts, exit 5" — not instant death.
    exp::install_shutdown_handler();

    const adl::ArchiType archi = load_archi(model_path);
    if (args["--precheck"].given) run_precheck(archi, model_path);
    const auto measures = load_measures(measures_path, archi, model_path);

    // Compose once; every sweep point patches this skeleton's rates.
    exp::ModelCache cache;
    const auto skeleton = cache.composed(
        "sweep", [&] { return adl::compose(archi); });
    // Validate the parameter before fanning out: a typo should die with one
    // clear message, not once per point.
    (void)exp::with_exp_rate(*skeleton, instance, action, range.lo);

    exp::Experiment experiment;
    experiment.name = "sweep " + target;
    experiment.grid.axis(exp::Axis::linspace(target, range.lo, range.hi, range.steps));
    for (const adl::Measure& m : measures) experiment.measures.push_back(m.name);
    experiment.eval = [&](const exp::Point& point, const exp::PointContext&) {
        const adl::ComposedModel model =
            exp::with_exp_rate(*skeleton, instance, action, point.at(target));
        const ctmc::MarkovModel markov = ctmc::build_markov(model);
        ctmc::SolveDiagnostics diagnostics;
        ctmc::SolveOptions solve_options;
        solve_options.diagnostics = &diagnostics;
        const auto pi = ctmc::steady_state(markov.chain, solve_options);
        exp::PointResult result;
        for (const adl::Measure& m : measures) {
            result.values.push_back(ctmc::evaluate_measure(markov, model, pi, m));
        }
        result.diagnostics = diagnostics.json();
        return result;
    };

    exp::RunOptions run_options;
    run_options.jobs = args["--jobs"].integer;
    run_options.retries = static_cast<int>(args["--retries"].integer);
    run_options.checkpoint_path = checkpoint_path;
    run_options.resume = args["--resume"].given;
    const exp::RunOutcome outcome = exp::run_sweep(experiment, run_options);
    const exp::ResultSet& results = outcome.results;

    std::printf("sweep of exponential rate %s over [%g, %g], %zu points, jobs=%zu\n",
                target.c_str(), range.lo, range.hi, range.steps,
                run_options.jobs == 0 ? exp::default_jobs() : run_options.jobs);
    std::printf("%-16s", "rate");
    for (const std::string& m : results.measures()) std::printf(" %-18s", m.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("%-16.6g", results.at(i).point.coords[0].second);
        for (const double v : results.at(i).result.values) std::printf(" %-18.10g", v);
        std::printf("\n");
    }
    // Registry totals, not cache.stats(): the same numbers --metrics dumps.
    const exp::ModelCache::Stats stats = exp::ModelCache::global_stats();
    std::printf("cache: %llu hits, %llu misses\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses));

    write_result_artifacts(args, results);
    return sweep_status(outcome, checkpoint_path);
}

int cmd_lifetime(const Args& args) {
    battery::StudyOptions options;
    options.system = args.positionals[0];
    options.battery.kind = battery::BatteryParams::kind_from(args["--battery"].text);
    const Range& capacity = args["--capacity"].range;
    options.capacities =
        exp::Axis::linspace("capacity", capacity.lo, capacity.hi, capacity.steps).values;
    options.control = args["--control"].number;
    options.replications = static_cast<int>(args["--reps"].integer);
    options.base_seed = args["--seed"].integer;
    options.confidence = args["--confidence"].number;
    options.jobs = args["--jobs"].integer;
    options.horizon_factor = args["--horizon-factor"].number;
    options.battery.peukert_exponent = args["--peukert-exponent"].number;
    options.battery.peukert_reference_power = args["--peukert-ref"].number;
    options.battery.kibam_c = args["--kibam-c"].number;
    options.battery.kibam_rate = args["--kibam-rate"].number;
    options.retries = static_cast<int>(args["--retries"].integer);
    options.checkpoint_path = args["--checkpoint"].text;
    options.resume = args["--resume"].given;
    // The battery and study parameters are command-line arguments, so a
    // value validate() rejects is a usage error, not an analysis failure.
    try {
        options.validate();
    } catch (const Error& e) {
        throw UsageError(e.what());
    }

    exp::install_shutdown_handler();
    const exp::RunOutcome outcome = battery::run_lifetime_sweep(options);
    const exp::ResultSet& results = outcome.results;
    if (args["--format"].text == "json") {
        std::fputs(results.json().c_str(), stdout);
    } else {
        std::printf("lifetime study: %s system, %s battery, %zu capacities x "
                    "{NO-DPM, DPM}, %d replications\n",
                    options.system.c_str(), options.battery.kind_name(),
                    options.capacities.size(), options.replications);
        std::printf("%-12s %-6s", "capacity", "dpm");
        for (const std::string& m : results.measures()) std::printf(" %-14s", m.c_str());
        std::printf("\n");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const exp::PointRecord& record = results.at(i);
            std::printf("%-12.6g %-6.0f", record.point.at("capacity"),
                        record.point.at("dpm"));
            for (const double v : record.result.values) std::printf(" %-14.8g", v);
            std::printf("\n");
        }
    }
    write_result_artifacts(args, results);
    return sweep_status(outcome, options.checkpoint_path);
}

/// `report` — the perf-regression gate over two run records.
int cmd_report(const Args& args) {
    const std::string& old_path = args.positionals[0];
    const std::string& new_path = args.positionals[1];
    exp::RegressOptions options;
    options.threshold = args["--threshold"].number;
    options.confidence = args["--confidence"].number;
    options.resamples = static_cast<int>(args["--resamples"].integer);
    options.seed = args["--seed"].integer;
    try {
        options.validate();
    } catch (const Error& e) {
        throw UsageError(e.what());
    }

    // Parse errors and schema mismatches propagate as Error -> exit 4.
    const obs::Json older = obs::json_parse(read_file(old_path));
    const obs::Json newer = obs::json_parse(read_file(new_path));
    const exp::RegressReport report = exp::compare_reports(older, newer, options);

    std::printf("perf regression report: %s -> %s (threshold %.3gx, %.0f%% CI, "
                "%d resamples)\n\n",
                old_path.c_str(), new_path.c_str(), options.threshold,
                options.confidence * 100.0, options.resamples);
    std::fputs(report.table().c_str(), stdout);
    std::printf("\nverdict: %s\n", report.regression ? "REGRESSION" : "PASS");
    return report.regression ? 1 : 0;
}

// ----------------------------------------------------------- command table

constexpr Option kPrecheck{"--precheck", Kind::Flag, ""};
constexpr Option kJobs{"--jobs", Kind::NonNegativeInt, "0", "N"};
constexpr Option kJson{"--json", Kind::String, "", "PATH|-"};
constexpr Option kCsv{"--csv", Kind::String, "", "PATH|-"};
// Fault tolerance, shared by sweep and lifetime.
constexpr Option kCheckpoint{"--checkpoint", Kind::String, "", "PATH"};
constexpr Option kResume{"--resume", Kind::Flag, "", "", nullptr, nullptr, "--checkpoint"};
constexpr Option kRetries{"--retries", Kind::NonNegativeInt, "0", "N"};

constexpr Option kLintOptions[] = {
    {"--format", Kind::Enum, "text", "text|json|sarif"},
};
constexpr Option kAnalyzeOptions[] = {
    {"--format", Kind::Enum, "text", "text|json|sarif"},
    {"--high", Kind::String, "", "L1,L2,...", nullptr, nullptr, "--low"},
    {"--low", Kind::String, "", "INSTANCE", nullptr, nullptr, "--high"},
};
constexpr Option kCheckOptions[] = {
    {"--high", Kind::String, nullptr, "L1,L2,..."},
    {"--low", Kind::String, nullptr, "INSTANCE"},
    {"--traces", Kind::Flag, ""},
    kPrecheck,
};
constexpr Option kSolveOptions[] = {kPrecheck};
constexpr Option kSimulateOptions[] = {
    {"--horizon", Kind::Double, "10000", "H", positive, "a positive number"},
    {"--warmup", Kind::Double, "0", "W", non_negative, "a non-negative number"},
    {"--reps", Kind::PositiveInt, "10", "N"},
    {"--seed", Kind::Seed, "1", "S"},
    {"--confidence", Kind::Double, "0.90", "C", probability, "a number in (0, 1)"},
};
constexpr Option kSweepOptions[] = {
    {"--param", Kind::Param, nullptr, "<instance.action>=<lo>:<hi>:<steps>"},
    kJobs, kJson, kCsv, kPrecheck, kCheckpoint, kResume, kRetries,
};
constexpr Option kLifetimeOptions[] = {
    {"--battery", Kind::Enum, "kibam", "ideal|peukert|kibam"},
    {"--capacity", Kind::Range, "1000:4000:4", "lo:hi:steps"},
    {"--control", Kind::Double, "-1", "C"},
    {"--reps", Kind::PositiveInt, "5", "N"},
    {"--seed", Kind::Seed, "1", "S"},
    {"--confidence", Kind::Double, "0.95", "C"},
    kJobs,
    {"--horizon-factor", Kind::Double, "8", "F"},
    {"--peukert-exponent", Kind::Double, "1.2", "A"},
    {"--peukert-ref", Kind::Double, "1", "P"},
    {"--kibam-c", Kind::Double, "0.5", "C"},
    {"--kibam-rate", Kind::Double, "0.001", "K"},
    {"--format", Kind::Enum, "text", "text|json"},
    kJson, kCsv, kCheckpoint, kResume, kRetries,
};
constexpr Option kReportOptions[] = {
    {"--threshold", Kind::Double, "1.20", "R"},
    {"--confidence", Kind::Double, "0.95", "C"},
    {"--resamples", Kind::PositiveInt, "2000", "N"},
    {"--seed", Kind::Seed, "42", "S"},
};
/// Accepted by every command, in any position.
constexpr Option kGlobalOptions[] = {
    // Chrome trace-event JSON of the tracing spans (chrome://tracing, Perfetto).
    {"--trace", Kind::String, "", "FILE"},
    // The metrics registry as JSON.
    {"--metrics", Kind::String, "", "FILE"},
    // An obs::RunReport run record ("-" = stdout); sweep/lifetime attach
    // their ResultSet as a record series.
    {"--report", Kind::String, "", "FILE"},
    // Live sweep telemetry as JSONL heartbeats (exp/events.hpp; "-"/"stderr"
    // = stderr); shorthand for DPMA_EVENTS=FILE.
    {"--events", Kind::String, "", "FILE"},
    // Overrides DPMA_LOG.
    {"--log-level", Kind::Enum, "", "error|warn|info|debug"},
};

struct Command {
    const char* name;
    const char* positionals;  ///< usage text
    std::size_t min_positionals;
    std::size_t max_positionals;
    int (*run)(const Args&);
    std::span<const Option> options;
};

constexpr std::size_t kAny = std::numeric_limits<std::size_t>::max();

constexpr Command kCommands[] = {
    {"info", "<model.aem>", 1, 1, cmd_info, {}},
    {"dot", "<model.aem>", 1, 1, cmd_dot, {}},
    {"lint", "<model.aem|dir>... [<measures.msr>]", 1, kAny, cmd_lint, kLintOptions},
    {"analyze", "<model.aem|dir>... [<measures.msr>]", 1, kAny, cmd_analyze,
     kAnalyzeOptions},
    {"check", "<model.aem>", 1, 1, cmd_check, kCheckOptions},
    {"solve", "<model.aem> <measures.msr>", 2, 2, cmd_solve, kSolveOptions},
    {"simulate", "<model.aem> <measures.msr>", 2, 2, cmd_simulate, kSimulateOptions},
    {"sweep", "<model.aem> <measures.msr>", 2, 2, cmd_sweep, kSweepOptions},
    {"lifetime", "<rpc|streaming>", 1, 1, cmd_lifetime, kLifetimeOptions},
    {"report", "<old.json> <new.json>", 2, 2, cmd_report, kReportOptions},
};

/// " [--name META]" per option ("--name META" when required).
std::string options_usage(std::span<const Option> options) {
    std::string out;
    for (const Option& option : options) {
        std::string item = option.name;
        if (option.kind != Kind::Flag) item += std::string(" ") + option.meta;
        out += option.fallback == nullptr ? " " + item : " [" + item + "]";
    }
    return out;
}

/// Usage lines of \p only, or of every command when null.
std::string usage_text(const Command* only) {
    std::string out = "usage:\n";
    for (const Command& command : kCommands) {
        if (only != nullptr && only != &command) continue;
        char head[32];
        std::snprintf(head, sizeof head, "  dpma_cli %-8s ", command.name);
        out += head + std::string(command.positionals) + options_usage(command.options) +
               "\n";
    }
    return out + "global options (any command):" + options_usage(kGlobalOptions) + "\n";
}

const Option* find_option(std::span<const Option> options, std::string_view name) {
    const auto it = std::ranges::find_if(
        options, [&](const Option& option) { return name == option.name; });
    return it == options.end() ? nullptr : &*it;
}

/// Reads argv against the table into \p args; \p command is set as soon as
/// the command word is seen.  Every option of the command and every global
/// option ends up in args.values, given or defaulted.  Throws UsageError.
void parse_command_line(int argc, char** argv, Args& args, const Command*& command) {
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (!starts_with(token, "--") && command != nullptr) {
            args.positionals.push_back(token);
        } else if (!starts_with(token, "--")) {
            for (const Command& candidate : kCommands) {
                if (token == candidate.name) command = &candidate;
            }
            if (command == nullptr) throw UsageError("unknown command '" + token + "'");
        } else {
            const Option* option = find_option(kGlobalOptions, token);
            if (option == nullptr && command != nullptr) {
                option = find_option(command->options, token);
            }
            if (option == nullptr) throw UsageError("unknown option " + token);
            if (args.values.count(token) != 0) throw UsageError(token + " given twice");
            Value& value = args.values[token];
            value.given = true;
            if (option->kind == Kind::Flag) continue;
            const std::string text = i + 1 < argc ? argv[++i] : "";
            if (!parse_value(*option, text, &value)) throw UsageError(bad_value(*option, text));
        }
    }
    if (command == nullptr) throw UsageError("missing command");
    const std::size_t count = args.positionals.size();
    if (count < command->min_positionals || count > command->max_positionals) {
        throw UsageError("wants " + std::string(command->positionals) + ", got " +
                         std::to_string(count) + " positional argument(s)");
    }
    for (const auto options : {command->options, std::span<const Option>{kGlobalOptions}}) {
        for (const Option& option : options) {
            if (args.values.count(option.name) != 0) continue;
            if (option.fallback == nullptr) {
                throw UsageError(std::string(option.name) + " is required");
            }
            Value& value = args.values[option.name];  // absent: given == false
            DPMA_ASSERT(*option.fallback == '\0' ||
                            parse_value(option, option.fallback, &value),
                        "table default does not parse");
        }
    }
    for (const Option& option : command->options) {
        if (option.needs != nullptr && args[option.name].given &&
            !args[option.needs].given) {
            throw UsageError(std::string(option.name) + " requires " + option.needs);
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    const Command* command = nullptr;
    const auto usage_error = [&](const UsageError& e) {
        std::fprintf(stderr, "dpma_cli: %s%s%s\n%s", command != nullptr ? command->name : "",
                     command != nullptr ? ": " : "", e.what(), usage_text(command).c_str());
        return 2;
    };
    try {
        parse_command_line(argc, argv, args, command);
    } catch (const UsageError& e) {
        return usage_error(e);
    }

    const std::string& trace_path = args["--trace"].text;
    const std::string& metrics_path = args["--metrics"].text;
    const std::string& report_file = args["--report"].text;
    if (args["--events"].given) {
        // Same channel the bench binaries use: exp::run picks it up through
        // events_from_env().
        setenv("DPMA_EVENTS", args["--events"].text.c_str(), 1);
    }
    obs::RunReport run_report("dpma_cli");
    if (!report_file.empty()) {
        run_report.set_args(std::vector<std::string>(argv, argv + argc));
        g_run_report = &run_report;
    }
    obs::LogLevel level = obs::LogLevel::Warn;
    if (obs::parse_log_level(args["--log-level"].text, &level)) obs::set_log_level(level);
    if (!trace_path.empty()) obs::set_tracing(true);

    const auto write_artifacts = [&] {
        try {
            if (!trace_path.empty()) write_output(trace_path, obs::trace_json());
            if (!metrics_path.empty()) write_output(metrics_path, obs::metrics_json());
            // Like the trace: the record of a failing run is the useful one.
            if (g_run_report != nullptr) g_run_report->write(report_file);
        } catch (const Error& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
        }
    };

    int status = 0;
    try {
        status = command->run(args);
    } catch (const UsageError& e) {
        status = usage_error(e);
    } catch (const ParseError& e) {
        std::fprintf(stderr, "parse error at %d:%d: %s\n", e.line(), e.column(),
                     e.what());
        status = 3;
    } catch (const ModelError& e) {
        if (e.line() > 0) {
            std::fprintf(stderr, "model error at %d:%d: %s\n", e.line(), e.column(),
                         e.what());
        } else {
            std::fprintf(stderr, "error: %s\n", e.what());
        }
        status = 4;
    } catch (const Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        status = 4;
    }
    write_artifacts();
    return status;
}
