// bem_cube: the paper's own experiment, one point on Fig. 4. Uniform cubes
// with the Coulomb kernel, theta = 0.7, degree 8, batched traversal, fp64,
// each in one held CPU Solver. Each operation is one matvec of an
// iterative boundary-element solve on the next cube in turn:
// update_charges with fresh seeded charges, then evaluate at the sources.
//
// Nearly all of its time is in the batched particle-cluster and direct
// tiles plus the charge-only moment rebuild. It runs no dual lists,
// incremental updates, serving, mesh or dist, so gains on those must show
// no change here.
//
// The error of a draw depends on where its tree's cluster boundaries fall,
// so a run cycles over several independent cubes and reports medians over
// all of them.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/direct_sum.hpp"
#include "core/engine.hpp"
#include "core/plan.hpp"
#include "serve/exec_context.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kParticles = 30000;
constexpr std::size_t kClouds = 8;
constexpr std::size_t kOracleSamples = 1000;
/// Cold starts spread over the untraced run (about 0.3 s each).
constexpr std::size_t kColdStarts = 16;

bltc::SolverConfig config() {
  bltc::SolverConfig c;
  c.kernel = bltc::KernelSpec::coulomb();
  c.params.theta = 0.7;
  c.params.degree = 8;
  c.params.max_leaf = 1000;
  c.params.max_batch = 1000;
  c.backend = bltc::Backend::kCpu;
  return c;
}

struct Inputs {
  std::vector<bltc::Cloud> clouds;
  double bound = 0.0;
  std::uint64_t seed = 0;

  /// Seed of operation i's charges and oracle sample.
  std::uint64_t op_seed(std::size_t i) const { return seed * 7919 + i; }
};

/// Gate `phi` of `cloud` under charges `q` against direct summation at
/// seeded sample targets.
void check(bltc::Cloud cloud, const std::vector<double>& q,
           const std::vector<double>& phi, std::uint64_t sample_seed,
           const Inputs& in, ErrorLog& errors, Record& record) {
  cloud.q = q;
  const std::vector<std::size_t> sample =
      seeded_sample(cloud.size(), kOracleSamples, sample_seed);
  const std::vector<double> exact =
      bltc::direct_sum_sampled(cloud, sample, cloud, config().kernel);
  std::vector<double> approx(sample.size());
  for (std::size_t s = 0; s < sample.size(); ++s) approx[s] = phi[sample[s]];
  gate(errors, exact, approx, in.bound, record);
}

/// One held, evaluated Solver per cloud.
std::vector<std::unique_ptr<bltc::Solver>> held_solvers(const Inputs& in) {
  std::vector<std::unique_ptr<bltc::Solver>> solvers;
  for (const bltc::Cloud& cloud : in.clouds) {
    solvers.push_back(std::make_unique<bltc::Solver>(config()));
    solvers.back()->set_sources(cloud);
    solvers.back()->evaluate(cloud);
  }
  return solvers;
}

/// Matvecs over the held Solvers in turn, with the due cold starts of
/// `cold` (if any) between them; returns per-op latencies.
std::vector<double> untraced_ops(
    std::vector<std::unique_ptr<bltc::Solver>>& solvers, const Inputs& in,
    double seconds, std::size_t min_ops, Record& record, ErrorLog& errors,
    ColdStarts* cold) {
  std::vector<double> latency;
  repeat_for(seconds, min_ops, [&](std::size_t i) {
    if (cold != nullptr) cold->run_due();
    const bltc::Cloud& cloud = in.clouds[i % kClouds];
    const std::vector<double> q = random_charges(cloud.size(), in.op_seed(i));
    record.attempt();
    bltc::WallTimer timer;
    bltc::Solver& solver = *solvers[i % kClouds];
    solver.update_charges(q);
    const std::vector<double> phi = solver.evaluate(cloud);
    latency.push_back(timer.seconds());
    check(cloud, q, phi, in.op_seed(i), in, errors, record);
  });
  return latency;
}

void untraced(Record& record, const Inputs& in) {
  auto solvers = held_solvers(in);
  const double seconds = record.options().seconds;

  std::unique_ptr<bltc::Solver> solver;
  std::vector<double> phi;
  std::size_t build = 0;
  ErrorLog cold_errors;
  ColdStarts cold(
      record,
      [&] {
        solver = std::make_unique<bltc::Solver>(config());
        solver->set_sources(in.clouds[++build % kClouds]);
      },
      [&] { phi = solver->evaluate(in.clouds[build % kClouds]); },
      [&] {
        const bltc::Cloud& cloud = in.clouds[build % kClouds];
        record.attempt();
        check(cloud, cloud.q, phi, in.seed + build, in, cold_errors, record);
        solver.reset();
      },
      seconds, kColdStarts);

  ErrorLog errors;
  const std::size_t before = record.failed();
  const std::vector<double> latency =
      untraced_ops(solvers, in, seconds, min_samples_for(kClosedLoopTail),
                   record, errors, &cold);
  set_closed_loop_metrics(
      record, latency,
      latency.size() - (record.failed() - before - cold.failed()));
  cold.finish();
  set_accuracy_metrics(record, {&errors, 1});
}

/// Solver::set_sources / update_charges / evaluate of one cloud, driven
/// layer by layer.
class TracedBem {
 public:
  explicit TracedBem(Tracer& tracer) : tracer_(tracer), c_(config()) {}

  /// Set sources and plan the targets from scratch, then evaluate.
  std::vector<double> cold(const bltc::Cloud& cloud) {
    {
      Tracer::Scope s(tracer_, "cpu_engine", "make_engine");
      engine_ = bltc::make_engine(c_.backend, c_.gpu);
    }
    {
      Tracer::Scope s(tracer_, "plan", "SourcePlanState::build");
      source_ = bltc::SourcePlanState::build(cloud, c_.params);
    }
    {
      Tracer::Scope s(tracer_, "moments", "Engine::prepare_sources");
      engine_->prepare_sources(source_.view(), c_.params, false);
    }
    {
      Tracer::Scope s(tracer_, "plan", "TargetPlanState::plan");
      targets_ = bltc::TargetPlanState::plan(cloud, c_.params);
    }
    {
      Tracer::Scope s(tracer_, "plan", "TargetPlanState::append_lists");
      targets_.append_lists(source_.tree, c_.params);
    }
    return evaluate(true);
  }

  /// One matvec under charges `q` (caller order).
  std::vector<double> matvec(const bltc::Cloud& cloud,
                             const std::vector<double>& q) {
    {
      Tracer::Scope s(tracer_, "plan", "SourcePlanState::set_charges");
      source_.set_charges(q);
    }
    {
      Tracer::Scope s(tracer_, "moments", "Engine::prepare_sources(charges)");
      engine_->prepare_sources(source_.view(), c_.params, true);
    }
    bool same = false;
    {
      Tracer::Scope s(tracer_, "plan", "TargetPlanState::matches");
      same = targets_.matches(cloud);
    }
    return evaluate(!same);
  }

  /// Plan structure and engine work of the last evaluation.
  void report_structure(Record& record, double eval_seconds) const {
    const bltc::InteractionLists& lists = targets_.lists.front();
    record.set("plan.clusters", static_cast<double>(source_.tree.num_nodes()),
               1);
    record.set("plan.pc_pairs", static_cast<double>(lists.total_approx), 1);
    record.set("plan.direct_pairs", static_cast<double>(lists.total_direct),
               1);
    record.set("plan.cp_pairs", 0.0, 1);
    record.set("plan.cc_pairs", 0.0, 1);
    set_engine_counters(record, stats_, eval_seconds);
  }

 private:
  std::vector<double> evaluate(bool fresh) {
    std::vector<double> phi;
    {
      Tracer::Scope s(tracer_, "cpu_engine", "Engine::evaluate_potential");
      stats_ = bltc::RunStats{};
      phi = engine_->evaluate_potential(source_.view(), targets_.view(),
                                        c_.kernel, fresh, stats_, &ctx_);
    }
    return targets_.particles.scatter_to_original(phi);
  }

  Tracer& tracer_;
  bltc::SolverConfig c_;
  std::unique_ptr<bltc::Engine> engine_;
  bltc::ExecContext ctx_;
  bltc::SourcePlanState source_;
  bltc::TargetPlanState targets_;
  bltc::RunStats stats_;
};

void traced(Record& record, const Inputs& in) {
  const double seconds = record.options().seconds;

  // Untraced baseline for the overhead figure, on its own held Solvers.
  double untraced_p50 = 0.0;
  {
    auto solvers = held_solvers(in);
    ErrorLog errors;
    untraced_p50 = p50_ms(untraced_ops(solvers, in, seconds / 3.0,
                                       min_samples_for(50.0), record,
                                       errors, nullptr));
  }

  Tracer tracer(true);
  std::vector<std::unique_ptr<TracedBem>> bem;
  long op = 0;
  ErrorLog errors;
  for (const bltc::Cloud& cloud : in.clouds) {
    bem.push_back(std::make_unique<TracedBem>(tracer));
    tracer.begin_op(op++, "cold_setup");
    const std::vector<double> phi = bem.back()->cold(cloud);
    tracer.end_op();
    record.attempt();
    check(cloud, cloud.q, phi, in.seed + bem.size(), in, errors, record);
  }
  set_span_median(tracer, record, "SourcePlanState::build",
                  "plan.source_build_s");
  set_span_median(tracer, record, "TargetPlanState::plan",
                  "plan.target_plan_s");
  set_span_median(tracer, record, "TargetPlanState::append_lists",
                  "plan.lists_s");
  set_span_median(tracer, record, "Engine::prepare_sources",
                  "moments.prepare_s");

  std::vector<double> latency;
  repeat_for(seconds, min_samples_for(50.0), [&](std::size_t i) {
    const bltc::Cloud& cloud = in.clouds[i % kClouds];
    const std::vector<double> q = random_charges(cloud.size(), in.op_seed(i));
    record.attempt();
    const double start = tracer.now();
    tracer.begin_op(op++, "matvec");
    const std::vector<double> phi = bem[i % kClouds]->matvec(cloud, q);
    tracer.end_op();
    latency.push_back(tracer.now() - start);
    check(cloud, q, phi, in.op_seed(i), in, errors, record);
  });

  set_span_median(tracer, record, "Engine::prepare_sources(charges)",
                  "moments.charges_s");
  set_span_median(tracer, record, "Engine::evaluate_potential",
                  "cpu_engine.eval_s");
  bem.front()->report_structure(
      record, median(tracer.durations("Engine::evaluate_potential")));
  finish_trace(tracer, record, untraced_p50, p50_ms(latency));
}

}  // namespace

void run_bem_cube(Record& record) {
  Inputs in;
  in.seed = record.options().seed;
  for (std::size_t k = 0; k < kClouds; ++k) {
    in.clouds.push_back(bltc::uniform_cube(kParticles, in.seed * kClouds + k));
  }
  const bltc::SolverConfig c = config();
  in.bound = apriori_bound(c.params.theta, c.params.degree);
  record.meta("particles", std::to_string(kParticles) + " x " +
                               std::to_string(kClouds) + " clouds");
  record.meta("params", "coulomb theta=0.7 n=8 N_L=N_B=1000 batched fp64 cpu");
  record.meta("apriori_bound", std::to_string(in.bound));
  if (record.options().trace) {
    traced(record, in);
  } else {
    untraced(record, in);
  }
}

}  // namespace perfbench
