#pragma once

/// \file spans.hpp
/// The benchmark's own tracing: spans recorded from outside the library,
/// around the calls into each layer's public functions, plus named tallies
/// (state counts, library counter deltas).  Spans nest on one thread; a
/// span's self time is its duration minus the time covered by its direct
/// children, so the self times of a run add up to the traced wall time.
/// When the log is disabled, spans and tallies cost one branch.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
public:
    struct Totals {
        double total_ms = 0.0;
        double self_ms = 0.0;
    };

    void set_enabled(bool enabled) { enabled_ = enabled; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Opens a span; returns its id, or -1 when disabled.
    int open(const char* name);
    void close(int id);

    /// Adds \p amount to tally \p name (no-op when disabled).
    void add(const std::string& name, double amount);
    /// Raises tally \p name to at least \p value (no-op when disabled).
    void raise(const std::string& name, double value);

    /// Per span name: summed duration and summed self time.
    [[nodiscard]] std::map<std::string, Totals> totals() const;
    /// Value of tally \p name, 0 when never added to.
    [[nodiscard]] double tally(const std::string& name) const;

    /// Drops every span and tally; spans still open are an error.
    void clear();

private:
    using Clock = std::chrono::steady_clock;
    struct Record {
        const char* name;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
        double children_ms = 0.0;
    };
    bool enabled_ = false;
    std::vector<Record> records_;
    std::vector<int> open_;
    std::map<std::string, double> tallies_;
};

/// RAII span; \p name must outlive the log (string literals).
class Span {
public:
    Span(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
    ~Span() { log_.close(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    SpanLog& log_;
    int id_;
};

}  // namespace perfbench
