// One benchmark run's record: the metric catalog (names and units shared
// with BENCHMARK.json), the measured values with their sample counts,
// machine metadata, notes, and the attempted/failed operation counts.
//
// A run prints every metric of its mode by name with its unit, writes the
// full record as JSON, and ends its standard output with the one-line
// result the benchmark contract specifies:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported by every traced run (0 with 0 samples on a
/// workload that bypasses the layer).
const std::vector<MetricSpec>& per_layer_metrics();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the record and the trace go
};

class Record {
 public:
  explicit Record(const RunOptions& options);

  const RunOptions& options() const { return options_; }

  /// Set a catalog metric of this run's mode (unknown names throw).
  void set(std::string_view name, double value, std::size_t samples);
  /// Free-form metadata (strings) and notes attached to the record.
  void meta(std::string key, std::string value);
  void note(std::string text);

  /// Count operations: every attempt, and those that failed (errors, shed
  /// or expired requests, oracle breaches, bitwise mismatches).
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(std::size_t n = 1) { failed_ += n; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  /// Print the human-readable table (stdout), write
  /// `<out_dir>/<workload>-seed<seed>-trace<0|1>.json`, and print the
  /// result line last. Returns whether the run is correct: every metric of
  /// the mode was measured and finite, at least one operation ran, and
  /// none failed.
  bool finish();

 private:
  struct Value {
    MetricSpec spec;
    double value = 0.0;
    std::size_t samples = 0;
    bool measured = false;
  };

  RunOptions options_;
  std::vector<Value> values_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
