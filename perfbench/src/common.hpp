// Shared pieces of the four workloads: the closed-loop operation loop, the
// end-to-end latency metrics, and the traced run's layer report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "core/solver.hpp"
#include "metrics.hpp"
#include "record.hpp"
#include "trace.hpp"
#include "util/timer.hpp"

namespace perfbench {

void run_bem_cube(Record& record);
void run_plummer_md(Record& record);
void run_serve_storm(Record& record);
void run_let_gpusim(Record& record);

/// Percentile reported as `op_tail_ms` by the closed-loop workloads, and
/// the operations they run at least so the tail rule admits it.
inline constexpr double kClosedLoopTail = 75.0;

/// Run `op(i)` for i = 0, 1, ... until at least `seconds` have passed and at
/// least `min_ops` operations ran (or a hard stop at 4 * seconds + 60 s, so a
/// pathologically slow build still exits).
template <typename Op>
std::size_t repeat_for(double seconds, std::size_t min_ops, Op&& op) {
  bltc::WallTimer wall;
  std::size_t i = 0;
  while ((wall.seconds() < seconds || i < min_ops) &&
         wall.seconds() < 4.0 * seconds + 60.0) {
    op(i++);
  }
  return i;
}

/// Cold starts, each timed as setup_s (`setup()`: build a fresh handle) and
/// first_result_s (`setup()` then `first()`: its first evaluation);
/// `after()` runs untimed (gate the result, release the handle). Both are
/// reported as medians.
///
/// The `count` cold starts are spaced evenly over the first `seconds` from
/// construction (all at once when `seconds` is 0). A closed-loop run calls
/// run_due() before each operation, so the medians cover the whole run, as
/// op_p50_ms does: bunched at the start of a run, a burst of load elsewhere
/// on the machine moved every sample of first_result_s at once.
class ColdStarts {
 public:
  ColdStarts(Record& record, std::function<void()> setup,
             std::function<void()> first, std::function<void()> after,
             double seconds, std::size_t count);

  /// Run the next cold start if its moment has come.
  void run_due();

  /// Run the cold starts still pending, then record setup_s and
  /// first_result_s.
  void finish();

  /// Failures the cold starts' `after()` recorded, so a closed loop can
  /// tell its own operations' failures apart.
  std::size_t failed() const { return failed_; }

 private:
  void run_next();

  Record& record_;
  std::function<void()> setup_, first_, after_;
  double spacing_;
  std::size_t count_;
  std::size_t failed_ = 0;
  bltc::WallTimer wall_;
  std::vector<double> setups_, firsts_;
};

/// Closed-loop end-to-end metrics from per-operation latencies (seconds):
/// op_p50_ms, op_tail_ms (kClosedLoopTail) and goodput_rps over the
/// operations that passed their oracle gate.
void set_closed_loop_metrics(Record& record,
                             const std::vector<double>& latency_s,
                             std::size_t ok_ops);

/// Oracle gate of one operation: logs its sampled error and counts a
/// breach of `bound` as a failure.
void gate(ErrorLog& log, std::span<const double> exact,
            std::span<const double> approx, double bound, Record& record);

/// rel_err, ok_frac and peak_rss_mb. rel_err is the largest median error
/// of `logs` (one per request class; closed-loop workloads have one).
void set_accuracy_metrics(Record& record, std::span<const ErrorLog> logs);

/// `k` distinct indices of [0, n), ascending, deterministic in `seed`. Each
/// operation samples its own oracle targets, so the errors cover many
/// target positions instead of a fixed few.
std::vector<std::size_t> seeded_sample(std::size_t n, std::size_t k,
                                       std::uint64_t seed);

/// Median latency in milliseconds (the tail rule applies: 20 samples).
double p50_ms(const std::vector<double>& latency_s);

/// Record the median duration of the spans named `span` as `metric`.
void set_span_median(const Tracer& tracer, Record& record,
                     std::string_view span, std::string_view metric);

/// Per-class engine work of one evaluation (RunStats of an engine call).
void set_engine_counters(Record& record, const bltc::RunStats& stats,
                         double eval_seconds);

/// The traced run's shared report: per-layer self-time shares, coverage
/// (an operation failure below 95 %), the tracing overhead as traced minus
/// untraced op_p50, and the Chrome trace written next to the record.
void finish_trace(const Tracer& tracer, Record& record,
                  double untraced_p50_ms, double traced_p50_ms);

/// Charges uniform in [-1, 1], deterministic in `seed`.
std::vector<double> random_charges(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
