// Benchmark-side tracing: one span per call into a layer's public entry
// point, kept in memory and written out when the run ends.
//
// The program under test has no tracing of its own, so the traced run drives
// each layer through its entry points from benchmark code and wraps every
// call in a span. A span records its layer (one of the repository's modules:
// plan, moments, cpu_engine, gpusim, mesh, dist, partition, serve), the entry
// point it timed, start and end, its parent span, and the operation it
// belongs to. An operation's root span has no layer: its time not covered by
// layer spans is the benchmark's own glue (input generation, result
// scatter), and `coverage()` reports which share of the root time the layers
// account for.
//
// A disabled tracer records nothing; `Scope` then costs one branch.
#pragma once

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Write `text` as a JSON string literal (quotes, backslashes and newlines
/// escaped). Shared by the trace and record writers.
void write_json_string(std::ostream& out, std::string_view text);

struct Span {
  std::string layer;  ///< empty for an operation's root span
  std::string name;   ///< the entry point the span timed
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;     ///< index into Tracer::spans(), -1 for a root
  long op = -1;        ///< operation id shared by a root and its children
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Seconds since the tracer was constructed (steady clock).
  double now() const;

  /// RAII span nested under the innermost open span of this tracer. Spans
  /// opened through Scope must be properly nested (one driving thread).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view layer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is disabled
    int index_ = -1;
  };

  /// Open operation `op`: the root span every Scope opened until
  /// `end_op()` nests under.
  void begin_op(long op, std::string_view name);
  void end_op();

  /// Record a span with explicit times (spans reconstructed from another
  /// thread's timestamps). Returns its index; no-op (-1) when disabled.
  int add(Span span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: duration minus the union of its children's
  /// intervals (clipped to the span).
  std::vector<double> self_seconds() const;
  /// Self seconds summed per layer (root spans excluded).
  std::map<std::string, double> layer_self_seconds() const;
  /// Total duration of the root spans.
  double root_seconds() const;
  /// Share of the root time covered by layer self time (1 when no roots).
  double coverage() const;
  /// Durations of every span named `name`, in record order.
  std::vector<double> durations(std::string_view name) const;

  /// Write the spans as Chrome trace-event JSON ("X" events, microseconds).
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  int open(std::string_view layer, std::string_view name);
  void close(int index);

  bool enabled_;
  double origin_ = 0.0;
  long op_ = -1;
  std::vector<int> stack_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
