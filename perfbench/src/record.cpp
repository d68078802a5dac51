#include "record.hpp"

#include <omp.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "trace.hpp"

namespace perfbench {

namespace {

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const char* vector_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#else
  return "sse2";
#endif
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"first_result_s", "s"},
      {"op_p50_ms", "ms"},       {"op_tail_ms", "ms"},
      {"goodput_rps", "1/s"},    {"rel_err", "ratio"},
      {"ok_frac", "ratio"},      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"plan.source_build_s", "s"},
      {"plan.target_plan_s", "s"},
      {"plan.lists_s", "s"},
      {"plan.update_s", "s"},
      {"plan.incremental_ratio", "ratio"},
      {"plan.dirty_clusters", "count"},
      {"plan.rebucketed", "count"},
      {"plan.clusters", "count"},
      {"plan.pc_pairs", "count"},
      {"plan.direct_pairs", "count"},
      {"plan.cp_pairs", "count"},
      {"plan.cc_pairs", "count"},
      {"moments.prepare_s", "s"},
      {"moments.charges_s", "s"},
      {"moments.update_s", "s"},
      {"cpu_engine.eval_s", "s"},
      {"cpu_engine.evals_per_s", "1/s"},
      {"cpu_engine.launches", "count"},
      {"cpu_engine.evals_pc", "count"},
      {"cpu_engine.evals_direct", "count"},
      {"cpu_engine.evals_cp", "count"},
      {"cpu_engine.evals_cc", "count"},
      {"cpu_engine.fp32_share", "ratio"},
      {"cpu_engine.demotions", "count"},
      {"mesh.spread_s", "s"},
      {"mesh.solve_s", "s"},
      {"mesh.gather_s", "s"},
      {"mesh.points", "count"},
      {"partition.rcb_s", "s"},
      {"dist.setup_s", "s"},
      {"dist.refresh_s", "s"},
      {"dist.eval_s", "s"},
      {"dist.rma_gets", "count"},
      {"dist.rma_bytes", "bytes"},
      {"dist.let_charge_bytes", "bytes"},
      {"dist.let_remote_clusters", "count"},
      {"dist.compute_imbalance", "ratio"},
      {"gpusim.modeled_setup_s", "s"},
      {"gpusim.modeled_precompute_s", "s"},
      {"gpusim.modeled_compute_s", "s"},
      {"gpusim.launches", "count"},
      {"gpusim.h2d_bytes", "bytes"},
      {"gpusim.d2h_bytes", "bytes"},
      {"serve.plan_build_s", "s"},
      {"serve.hit_ratio", "ratio"},
      {"serve.queue_p50_ms", "ms"},
      {"serve.queue_p99_ms", "ms"},
      {"serve.execute_p50_ms", "ms"},
      {"serve.group_size_mean", "count"},
      {"serve.late_p99_ms", "ms"},
      {"serve.op_p99_ms", "ms"},
      {"self.plan_share", "ratio"},
      {"self.moments_share", "ratio"},
      {"self.cpu_engine_share", "ratio"},
      {"self.gpusim_share", "ratio"},
      {"self.mesh_share", "ratio"},
      {"self.dist_share", "ratio"},
      {"self.partition_share", "ratio"},
      {"self.serve_share", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_ms", "ms"},
  };
  return specs;
}

Record::Record(const RunOptions& options) : options_(options) {
  for (const MetricSpec& spec :
       options.trace ? per_layer_metrics() : end_to_end_metrics()) {
    values_.push_back(Value{spec});
  }
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) < 1) load[0] = -1.0;
  meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  meta("omp_threads", std::to_string(omp_get_max_threads()));
  meta("vector_isa", vector_isa());
  meta("build_type", PERFBENCH_BUILD_TYPE);
  meta("bltc_native", PERFBENCH_NATIVE ? "ON" : "OFF");
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  meta("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown");
  const char* digest = std::getenv("PERFBENCH_SOURCE_SHA256");
  meta("source_sha256", digest != nullptr ? digest : "unknown");
  meta("loadavg_1m_at_start", number(load[0]));
}

void Record::set(std::string_view name, double value, std::size_t samples) {
  for (Value& v : values_) {
    if (name == v.spec.name) {
      v.value = value;
      v.samples = samples;
      v.measured = true;
      return;
    }
  }
  // Per-layer names are silently absent from an untraced record and vice
  // versa; anything in neither catalog is a typo.
  for (const auto* catalog : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *catalog) {
      if (name == spec.name) return;
    }
  }
  throw std::logic_error("perfbench: unknown metric " + std::string(name));
}

void Record::meta(std::string key, std::string value) {
  meta_.emplace_back(std::move(key), std::move(value));
}

void Record::note(std::string text) { notes_.push_back(std::move(text)); }

bool Record::finish() {
  bool correct = attempted_ > 0 && failed_ == 0;
  for (const Value& v : values_) {
    if (!std::isfinite(v.value)) correct = false;
    if (!options_.trace && !v.measured) correct = false;
  }

  std::printf("\n%-30s %20s  %-6s %8s\n", "metric", "value", "unit",
              "samples");
  for (const Value& v : values_) {
    std::printf("%-30s %20.6g  %-6s %8zu%s\n", v.spec.name, v.value,
                v.spec.unit, v.samples, v.measured ? "" : "  (not measured)");
  }
  std::printf("attempted %zu, failed %zu, correct %s\n", attempted_, failed_,
              correct ? "true" : "false");
  for (const std::string& text : notes_) std::printf("note: %s\n", text.c_str());

  const std::string path = options_.out_dir + "/" + options_.workload +
                           "-seed" + std::to_string(options_.seed) +
                           "-trace" + (options_.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"workload\": ";
  write_json_string(out, options_.workload);
  out << ", \"seed\": " << options_.seed
      << ", \"seconds\": " << number(options_.seconds)
      << ", \"trace\": " << (options_.trace ? "true" : "false")
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ",\n \"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    out << (i > 0 ? ", " : "");
    write_json_string(out, meta_[i].first);
    out << ": ";
    write_json_string(out, meta_[i].second);
  }
  out << "},\n \"notes\": [";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i > 0 ? ",\n  " : "");
    write_json_string(out, notes_[i]);
  }
  out << "],\n \"metrics\": {";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const Value& v = values_[i];
    out << (i > 0 ? ",\n  " : "");
    write_json_string(out, v.spec.name);
    out << ": {\"value\": "
        << number(std::isfinite(v.value) ? v.value : -1.0)
        << ", \"unit\": ";
    write_json_string(out, v.spec.unit);
    out << ", \"samples\": " << v.samples
        << ", \"measured\": " << (v.measured ? "true" : "false") << "}";
  }
  out << "}}\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    correct = false;
  } else {
    std::printf("record: %s\n", path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const Value& v = values_[i];
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", v.spec.name,
                number(std::isfinite(v.value) ? v.value : -1.0).c_str(),
                v.spec.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct;
}

}  // namespace perfbench
