// let_gpusim: the paper's distributed configuration. DistSolver runs over
// 2 in-process ranks with 1 OpenMP thread each, on the GpuSim backend, with
// a uniform cube and the Yukawa kernel (kappa = 0.5). Each operation is
// update_charges (a charge-only LET refresh through the kept RMA windows)
// followed by evaluate.
//
// It is the only workload that runs RCB, the LET exchange and GpuSim. It
// uses Yukawa because modeled Coulomb and Yukawa repeat times have come out
// bit-equal (bound by launch queuing); the gpusim.* counters of this
// workload show whether that still holds.
//
// Like bem_cube, a run cycles over several independent cubes, each in its
// own held DistSolver, so that medians cover more than one tree.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/direct_sum.hpp"
#include "core/engine.hpp"
#include "core/plan.hpp"
#include "dist/dist_solver.hpp"
#include "partition/rcb.hpp"
#include "util/box.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kParticles = 8000;
constexpr std::size_t kClouds = 8;
/// Two ranks keep two of the four cores free: with four rank threads on the
/// four cores of a shared host, op_p50_ms spread by 27 % over ten seeds and
/// first_result_s by 30 %, as every barrier waited for the most delayed
/// core.
constexpr int kRanks = 2;
constexpr std::size_t kOracleSamples = 1000;
/// Cold starts spread over the untraced run (about 0.45 s each).
constexpr std::size_t kColdStarts = 12;

bltc::dist::DistConfig config() {
  bltc::dist::DistConfig c;
  c.kernel = bltc::KernelSpec::yukawa(0.5);
  c.params.treecode.theta = 0.7;
  c.params.treecode.degree = 8;
  c.params.treecode.max_leaf = 500;
  c.params.treecode.max_batch = 500;
  c.params.backend = bltc::Backend::kGpuSim;
  c.nranks = kRanks;
  return c;
}

struct Inputs {
  std::vector<bltc::Cloud> clouds;
  double bound = 0.0;
  std::uint64_t seed = 0;

  /// Seed of operation i's charges and oracle sample.
  std::uint64_t op_seed(std::size_t i) const { return seed * 7919 + i; }
};

/// Gate `phi` for charges `q` against direct summation at seeded sample
/// targets.
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

/// Per-operation LET and device accounting, summed over ranks.
struct OpCounters {
  std::vector<double> rma_gets, rma_bytes, charge_bytes, imbalance;
  std::vector<double> modeled_setup, modeled_precompute, modeled_compute;
  std::vector<double> h2d, d2h;
  double remote_clusters = 0.0;

  void add(const bltc::dist::DistStats& stats) {
    double gets = 0.0, bytes = 0.0, charge = 0.0, up = 0.0, down = 0.0;
    double max_compute = 0.0, sum_compute = 0.0;
    remote_clusters = 0.0;
    for (const bltc::dist::RankStats& r : stats.per_rank) {
      gets += static_cast<double>(r.rma_gets);
      bytes += static_cast<double>(r.rma_bytes);
      charge += static_cast<double>(r.let_charge_bytes);
      up += static_cast<double>(r.bytes_to_device);
      down += static_cast<double>(r.bytes_to_host);
      remote_clusters += static_cast<double>(r.let_remote_clusters);
      max_compute = std::max(max_compute, r.compute_seconds);
      sum_compute += r.compute_seconds;
    }
    rma_gets.push_back(gets);
    rma_bytes.push_back(bytes);
    charge_bytes.push_back(charge);
    h2d.push_back(up);
    d2h.push_back(down);
    const double mean_compute =
        sum_compute / static_cast<double>(stats.per_rank.size());
    imbalance.push_back(mean_compute > 0.0 ? max_compute / mean_compute
                                           : 1.0);
    modeled_setup.push_back(stats.modeled.setup);
    modeled_precompute.push_back(stats.modeled.precompute);
    modeled_compute.push_back(stats.modeled.compute);
  }

  void report(Record& record) const {
    const std::size_t n = rma_gets.size();
    record.set("dist.rma_gets", median(rma_gets), n);
    record.set("dist.rma_bytes", median(rma_bytes), n);
    record.set("dist.let_charge_bytes", median(charge_bytes), n);
    record.set("dist.let_remote_clusters", remote_clusters, 1);
    record.set("dist.compute_imbalance", median(imbalance), n);
    record.set("gpusim.modeled_setup_s", median(modeled_setup), n);
    record.set("gpusim.modeled_precompute_s", median(modeled_precompute), n);
    record.set("gpusim.modeled_compute_s", median(modeled_compute), n);
    record.set("gpusim.h2d_bytes", median(h2d), n);
    record.set("gpusim.d2h_bytes", median(d2h), n);
  }
};

using Solvers = std::vector<std::unique_ptr<bltc::dist::DistSolver>>;

/// One held, evaluated DistSolver per cloud.
Solvers held_solvers(const Inputs& in) {
  Solvers solvers;
  for (const bltc::Cloud& cloud : in.clouds) {
    solvers.push_back(std::make_unique<bltc::dist::DistSolver>(config()));
    solvers.back()->set_sources(cloud);
    solvers.back()->evaluate();
  }
  return solvers;
}

/// update_charges + evaluate over the held DistSolvers in turn, with the
/// due cold starts of `cold` (if any) between them; returns latencies.
std::vector<double> run_ops(Solvers& solvers, const Inputs& in,
                            double seconds, std::size_t min_ops,
                            Record& record, ErrorLog& errors, Tracer& tracer,
                            OpCounters& counters, ColdStarts* cold) {
  std::vector<double> latency;
  long op = static_cast<long>(kClouds) + 1;
  repeat_for(seconds, min_ops, [&](std::size_t i) {
    if (cold != nullptr) cold->run_due();
    const bltc::Cloud& cloud = in.clouds[i % kClouds];
    bltc::dist::DistSolver& solver = *solvers[i % kClouds];
    const std::vector<double> q = random_charges(cloud.size(), in.op_seed(i));
    record.attempt();
    bltc::dist::DistStats stats;
    std::vector<double> phi;
    bltc::WallTimer timer;
    tracer.begin_op(op++, "update_and_evaluate");
    {
      Tracer::Scope s(tracer, "dist", "DistSolver::update_charges");
      solver.update_charges(q);
    }
    {
      Tracer::Scope s(tracer, "dist", "DistSolver::evaluate");
      phi = solver.evaluate(&stats);
    }
    tracer.end_op();
    latency.push_back(timer.seconds());
    counters.add(stats);
    check(cloud, q, phi, in.op_seed(i), in, errors, record);
  });
  return latency;
}

void untraced(Record& record, const Inputs& in) {
  Solvers solvers = held_solvers(in);
  const double seconds = record.options().seconds;

  std::unique_ptr<bltc::dist::DistSolver> solver;
  std::vector<double> phi;
  std::size_t build = 0;
  ErrorLog cold_errors;
  ColdStarts cold(
      record,
      [&] {
        solver = std::make_unique<bltc::dist::DistSolver>(config());
        solver->set_sources(in.clouds[++build % kClouds]);
      },
      [&] { phi = solver->evaluate(); },
      [&] {
        const bltc::Cloud& cloud = in.clouds[build % kClouds];
        record.attempt();
        check(cloud, cloud.q, phi, in.seed + build, in, cold_errors, record);
        solver.reset();
      },
      seconds, kColdStarts);

  ErrorLog errors;
  Tracer off(false);
  OpCounters unused;
  const std::size_t before = record.failed();
  const std::vector<double> latency =
      run_ops(solvers, in, seconds, min_samples_for(kClosedLoopTail), record,
              errors, off, unused, &cold);
  set_closed_loop_metrics(
      record, latency,
      latency.size() - (record.failed() - before - cold.failed()));
  cold.finish();
  set_accuracy_metrics(record, {&errors, 1});
}

/// What one rank does locally in DistSolver::set_sources, driven serially
/// per RCB part: RCB itself, the local source plan, the GpuSim moment
/// precompute, the local target plan and lists, and one local-piece
/// evaluation (DistStats carries no launch count, so gpusim.launches is
/// read from these local-piece RunStats). The plan.* counts are those of
/// the local pieces, summed over the parts.
void local_probe(Tracer& tracer, Record& record, const Inputs& in) {
  const bltc::dist::DistConfig c = config();
  const bltc::TreecodeParams& tc = c.params.treecode;
  const bltc::Cloud& cloud = in.clouds.front();
  tracer.begin_op(0, "rank_local_setup");
  std::vector<std::vector<std::size_t>> owned;
  {
    Tracer::Scope s(tracer, "partition", "rcb_partition");
    const bltc::Box3 domain = bltc::minimal_bounding_box_range(
        cloud.x, cloud.y, cloud.z, 0, cloud.size());
    const bltc::RcbResult rcb = bltc::rcb_partition(
        cloud.x, cloud.y, cloud.z, kRanks, domain);
    owned = bltc::rcb_owned_indices(rcb, kRanks);
  }
  double launches = 0.0, clusters = 0.0, pc_pairs = 0.0, direct_pairs = 0.0;
  for (const std::vector<std::size_t>& idx : owned) {
    bltc::Cloud local;
    local.resize(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      local.x[i] = cloud.x[idx[i]];
      local.y[i] = cloud.y[idx[i]];
      local.z[i] = cloud.z[idx[i]];
      local.q[i] = cloud.q[idx[i]];
    }
    std::unique_ptr<bltc::Engine> engine;
    {
      Tracer::Scope s(tracer, "gpusim", "make_engine");
      bltc::GpuOptions gpu;
      gpu.device = c.params.device;
      gpu.host = c.params.host;
      engine = bltc::make_engine(bltc::Backend::kGpuSim, gpu);
    }
    bltc::SourcePlanState source;
    {
      Tracer::Scope s(tracer, "plan", "SourcePlanState::build");
      source = bltc::SourcePlanState::build(local, tc);
    }
    bltc::TargetPlanState targets;
    {
      Tracer::Scope s(tracer, "plan", "TargetPlanState::plan");
      targets = bltc::TargetPlanState::plan(local, tc);
    }
    {
      Tracer::Scope s(tracer, "plan", "TargetPlanState::append_lists");
      targets.append_lists(source.tree, tc);
    }
    {
      Tracer::Scope s(tracer, "moments", "Engine::prepare_sources");
      engine->prepare_sources(source.view(), tc, false);
    }
    bltc::RunStats stats;
    {
      Tracer::Scope s(tracer, "gpusim", "Engine::evaluate_potential(local)");
      engine->evaluate_potential(source.view(), targets.view(), c.kernel,
                                 true, stats, nullptr);
    }
    launches += static_cast<double>(stats.gpu_launches);
    clusters += static_cast<double>(source.tree.num_nodes());
    pc_pairs += static_cast<double>(targets.lists.front().total_approx);
    direct_pairs += static_cast<double>(targets.lists.front().total_direct);
  }
  tracer.end_op();
  record.set("gpusim.launches", launches, owned.size());
  record.set("plan.clusters", clusters, owned.size());
  record.set("plan.pc_pairs", pc_pairs, owned.size());
  record.set("plan.direct_pairs", direct_pairs, owned.size());
  record.set("plan.cp_pairs", 0.0, owned.size());
  record.set("plan.cc_pairs", 0.0, owned.size());
}

void traced(Record& record, const Inputs& in) {
  const double seconds = record.options().seconds;
  ErrorLog errors;

  double untraced_p50 = 0.0;
  {
    Solvers solvers = held_solvers(in);
    Tracer off(false);
    OpCounters unused;
    untraced_p50 = p50_ms(run_ops(solvers, in, seconds / 3.0,
                                  min_samples_for(50.0), record, errors, off,
                                  unused, nullptr));
  }

  Tracer tracer(true);
  local_probe(tracer, record, in);
  set_span_median(tracer, record, "rcb_partition", "partition.rcb_s");
  set_span_median(tracer, record, "SourcePlanState::build",
                  "plan.source_build_s");
  set_span_median(tracer, record, "TargetPlanState::plan",
                  "plan.target_plan_s");
  set_span_median(tracer, record, "TargetPlanState::append_lists",
                  "plan.lists_s");
  set_span_median(tracer, record, "Engine::prepare_sources",
                  "moments.prepare_s");

  Solvers solvers;
  for (const bltc::Cloud& cloud : in.clouds) {
    solvers.push_back(std::make_unique<bltc::dist::DistSolver>(config()));
    tracer.begin_op(static_cast<long>(solvers.size()), "cold_setup");
    {
      Tracer::Scope s(tracer, "dist", "DistSolver::set_sources");
      solvers.back()->set_sources(cloud);
    }
    std::vector<double> phi;
    {
      Tracer::Scope s(tracer, "dist", "DistSolver::evaluate(cold)");
      phi = solvers.back()->evaluate();
    }
    tracer.end_op();
    record.attempt();
    check(cloud, cloud.q, phi, in.seed + solvers.size(), in, errors, record);
  }
  set_span_median(tracer, record, "DistSolver::set_sources", "dist.setup_s");

  OpCounters counters;
  const std::vector<double> latency =
      run_ops(solvers, in, seconds, min_samples_for(50.0), record, errors,
              tracer, counters, nullptr);
  set_span_median(tracer, record, "DistSolver::update_charges",
                  "dist.refresh_s");
  set_span_median(tracer, record, "DistSolver::evaluate", "dist.eval_s");
  counters.report(record);
  finish_trace(tracer, record, untraced_p50, p50_ms(latency));
}

}  // namespace

void run_let_gpusim(Record& record) {
  Inputs in;
  in.seed = record.options().seed;
  for (std::size_t k = 0; k < kClouds; ++k) {
    in.clouds.push_back(bltc::uniform_cube(kParticles, in.seed * kClouds + k));
  }
  const bltc::dist::DistConfig c = config();
  in.bound = apriori_bound(c.params.treecode.theta, c.params.treecode.degree);
  record.meta("particles", std::to_string(kParticles) + " x " +
                               std::to_string(kClouds) + " clouds");
  record.meta("ranks", std::to_string(kRanks));
  record.meta("params",
              "yukawa kappa=0.5 theta=0.7 n=8 N_L=N_B=500 batched fp64, "
              "DistSolver on GpuSim (p100 model), " +
                  std::to_string(kRanks) + " ranks x 1 OpenMP thread");
  record.meta("apriori_bound", std::to_string(in.bound));
  if (record.options().trace) {
    traced(record, in);
  } else {
    untraced(record, in);
  }
}

}  // namespace perfbench
