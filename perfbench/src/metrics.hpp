// Named metrics and the result line.
//
// Every metric the benchmark prints goes through MetricSet, which rejects
// a name outside [A-Za-z0-9_.-] (first character a letter or digit, at
// most 64 characters), a unit outside [A-Za-z0-9_/%.-] (at most 16), a
// duplicate, or a value that is not finite — a bad name or a NaN is a
// benchmark bug and must fail the run rather than reach a comparison.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

inline bool valid_unit(std::string_view unit) noexcept {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricSet {
 public:
  /// Adds one metric; returns false (and records why) when it is invalid.
  bool add(std::string name, double value, std::string unit) {
    if (!valid_metric_name(name)) return fail("bad metric name: " + name);
    if (!valid_unit(unit)) return fail("bad unit for " + name + ": " + unit);
    if (!std::isfinite(value)) return fail("non-finite value for " + name);
    for (const Metric& m : metrics_) {
      if (m.name == name) return fail("duplicate metric: " + name);
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
    return true;
  }

  bool ok() const noexcept { return errors_.empty(); }
  const std::vector<std::string>& errors() const noexcept { return errors_; }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  /// The `"metrics": {...}` object body, values with all their digits.
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  bool fail(std::string why) {
    errors_.push_back(std::move(why));
    return false;
  }

  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
