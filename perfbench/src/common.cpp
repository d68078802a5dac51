#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <utility>

namespace perfbench {

namespace {

constexpr double kMinCoverage = 0.95;

}  // namespace

ColdStarts::ColdStarts(Record& record, std::function<void()> setup,
                       std::function<void()> first,
                       std::function<void()> after, double seconds,
                       std::size_t count)
    : record_(record),
      setup_(std::move(setup)),
      first_(std::move(first)),
      after_(std::move(after)),
      spacing_(seconds / static_cast<double>(count)),
      count_(count) {}

void ColdStarts::run_due() {
  const double next = spacing_ * static_cast<double>(setups_.size());
  if (setups_.size() < count_ && wall_.seconds() >= next) run_next();
}

void ColdStarts::finish() {
  while (setups_.size() < count_) run_next();
  record_.set("setup_s", median(setups_), setups_.size());
  record_.set("first_result_s", median(firsts_), firsts_.size());
}

void ColdStarts::run_next() {
  bltc::WallTimer timer;
  setup_();
  setups_.push_back(timer.seconds());
  first_();
  firsts_.push_back(timer.seconds());
  const std::size_t before = record_.failed();
  after_();
  failed_ += record_.failed() - before;
}

double p50_ms(const std::vector<double>& latency_s) {
  return percentile(latency_s, 50.0).value_or(-1.0) * 1e3;
}

void set_closed_loop_metrics(Record& record,
                             const std::vector<double>& latency_s,
                             std::size_t ok_ops) {
  const std::size_t n = latency_s.size();
  record.set("op_p50_ms", p50_ms(latency_s), n);
  if (const auto tail = percentile(latency_s, kClosedLoopTail)) {
    record.set("op_tail_ms", *tail * 1e3, n);
  }
  record.meta("op_tail_percentile", std::to_string(kClosedLoopTail));
  double busy = 0.0;
  for (const double s : latency_s) busy += s;
  record.set("goodput_rps", busy > 0.0 ? static_cast<double>(ok_ops) / busy
                                       : 0.0,
             n);
}

void gate(ErrorLog& log, std::span<const double> exact,
          std::span<const double> approx, double bound, Record& record) {
  const double err = sampled_error(exact, approx);
  log.add(err);
  if (!within_bound(err, bound)) record.fail();
}

void set_accuracy_metrics(Record& record, std::span<const ErrorLog> logs) {
  double worst = 0.0;
  std::size_t ops = 0;
  for (const ErrorLog& log : logs) {
    if (log.ops() == 0) continue;
    worst = std::max(worst, log.median());
    ops += log.ops();
  }
  if (ops > 0) record.set("rel_err", worst, ops);
  const double attempted = static_cast<double>(record.attempted());
  record.set("ok_frac",
             attempted > 0.0
                 ? (attempted - static_cast<double>(record.failed())) /
                       attempted
                 : 0.0,
             record.attempted());
  record.set("peak_rss_mb", peak_rss_mb(), 1);
}

void set_span_median(const Tracer& tracer, Record& record,
                     std::string_view span, std::string_view metric) {
  const std::vector<double> d = tracer.durations(span);
  if (!d.empty()) record.set(metric, median(d), d.size());
}

void set_engine_counters(Record& record, const bltc::RunStats& stats,
                         double eval_seconds) {
  const double total = stats.total_evals();
  record.set("cpu_engine.evals_pc", stats.approx_evals, 1);
  record.set("cpu_engine.evals_direct", stats.direct_evals, 1);
  record.set("cpu_engine.evals_cp", stats.cp_evals, 1);
  record.set("cpu_engine.evals_cc", stats.cc_evals, 1);
  record.set("cpu_engine.launches",
             static_cast<double>(stats.approx_launches +
                                 stats.direct_launches + stats.cp_launches +
                                 stats.cc_launches),
             1);
  record.set("cpu_engine.fp32_share", total > 0.0 ? stats.fp32_evals / total
                                                  : 0.0,
             1);
  record.set("cpu_engine.demotions",
             static_cast<double>(stats.precision_demotions), 1);
  if (eval_seconds > 0.0) {
    record.set("cpu_engine.evals_per_s", total / eval_seconds, 1);
  }
}

void finish_trace(const Tracer& tracer, Record& record,
                  double untraced_p50_ms, double traced_p50_ms) {
  const double roots = tracer.root_seconds();
  const auto self = tracer.layer_self_seconds();
  for (const char* layer : {"plan", "moments", "cpu_engine", "gpusim",
                            "mesh", "dist", "partition", "serve"}) {
    const auto it = self.find(layer);
    const double seconds = it != self.end() ? it->second : 0.0;
    record.set(std::string("self.") + layer + "_share",
               roots > 0.0 ? seconds / roots : 0.0, tracer.spans().size());
  }
  const double coverage = tracer.coverage();
  record.set("trace.coverage", coverage, tracer.spans().size());
  if (coverage < kMinCoverage) {
    record.note("trace coverage " + std::to_string(coverage) +
                " is below " + std::to_string(kMinCoverage) +
                ": the layer spans miss part of the operation time");
    record.fail();
  }
  record.set("trace.overhead_ms", traced_p50_ms - untraced_p50_ms, 2);

  const RunOptions& options = record.options();
  const std::string path = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           "-spans.json";
  if (tracer.write_chrome(path)) {
    std::printf("trace: %s (%zu spans)\n", path.c_str(),
                tracer.spans().size());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    record.fail();
  }
}

std::vector<std::size_t> seeded_sample(std::size_t n, std::size_t k,
                                       std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<std::size_t> out;
  out.reserve(std::min(n, k));
  std::mt19937_64 rng(seed);
  std::sample(all.begin(), all.end(), std::back_inserter(out), k, rng);
  return out;
}

std::vector<double> random_charges(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> q(n);
  for (double& v : q) v = dist(rng);
  return q;
}

}  // namespace perfbench
