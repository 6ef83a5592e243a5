#include "spans.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

int SpanLog::open(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    records_.push_back(Record{name, Clock::now(), {}, parent});
    const int id = static_cast<int>(records_.size()) - 1;
    open_.push_back(id);
    return id;
}

void SpanLog::close(int id) {
    if (id < 0) return;
    if (open_.empty() || open_.back() != id) {
        throw std::logic_error("spans closed out of order");
    }
    open_.pop_back();
    Record& record = records_[static_cast<std::size_t>(id)];
    record.end = Clock::now();
    if (record.parent >= 0) {
        records_[static_cast<std::size_t>(record.parent)].children_ms +=
            std::chrono::duration<double, std::milli>(record.end - record.start).count();
    }
}

void SpanLog::add(const std::string& name, double amount) {
    if (enabled_) tallies_[name] += amount;
}

void SpanLog::raise(const std::string& name, double value) {
    if (!enabled_) return;
    auto [it, inserted] = tallies_.emplace(name, value);
    if (!inserted) it->second = std::max(it->second, value);
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
    std::map<std::string, Totals> out;
    for (const Record& record : records_) {
        const double ms =
            std::chrono::duration<double, std::milli>(record.end - record.start).count();
        Totals& t = out[record.name];
        t.total_ms += ms;
        t.self_ms += ms - record.children_ms;
    }
    return out;
}

double SpanLog::tally(const std::string& name) const {
    const auto it = tallies_.find(name);
    return it == tallies_.end() ? 0.0 : it->second;
}

void SpanLog::clear() {
    if (!open_.empty()) throw std::logic_error("clearing a span log with open spans");
    records_.clear();
    tallies_.clear();
}

}  // namespace perfbench
