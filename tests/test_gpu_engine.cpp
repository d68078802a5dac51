// GpuSim engine: a cost model over the CPU engine. The structural checks
// pin the launch and transfer schedule (two preprocessing launches per
// non-empty cluster, one launch per batch-cluster pair, device-resident
// repeats); the parity checks pin that GpuSim potentials and fields are the
// CPU engine's bits exactly, because both run the same host tile core.
#include "core/gpu_engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

TreecodeParams small_params() {
  TreecodeParams params;
  params.theta = 0.7;
  params.degree = 5;
  params.max_leaf = 200;
  params.max_batch = 200;
  return params;
}

Solver make_solver(const TreecodeParams& params, Backend backend,
                   const KernelSpec& kernel = KernelSpec::coulomb()) {
  SolverConfig config;
  config.kernel = kernel;
  config.params = params;
  config.backend = backend;
  return Solver(std::move(config));
}

TEST(GpuEngine, PrecomputeLaunchesTwoKernelsPerNonemptyCluster) {
  const TreecodeParams params = small_params();
  const Cloud c = uniform_cube(2000, 2);
  const SourcePlanState source = SourcePlanState::build(c, params);
  GpuSimEngine engine{GpuOptions{}};
  engine.prepare_sources(source.view(), params, /*charges_only=*/false);

  const ClusterTree& tree = source.tree;
  std::size_t nonempty = 0;
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    if (tree.node(static_cast<int>(i)).count() > 0) ++nonempty;
  }
  const std::size_t m = static_cast<std::size_t>(params.degree) + 1;
  const std::size_t ppc = m * m * m;
  EXPECT_EQ(engine.device().launches(), 2 * nonempty);
  // HtD: 4 source arrays, then the cluster grids and modified charges;
  // DtH: the modified charges.
  EXPECT_EQ(engine.device().bytes_to_device(),
            (4 * c.size() + tree.num_nodes() * (3 * m + ppc)) *
                sizeof(double));
  EXPECT_EQ(engine.device().bytes_to_host(),
            tree.num_nodes() * ppc * sizeof(double));
}

TEST(GpuEngine, OneLaunchPerBatchClusterInteraction) {
  const TreecodeParams params = small_params();
  const Cloud c = uniform_cube(3000, 4);
  const SourcePlanState source = SourcePlanState::build(c, params);
  TargetPlanState targets = TargetPlanState::plan(c, params);
  targets.append_lists(source.tree, params);
  GpuSimEngine engine{GpuOptions{}};
  engine.prepare_sources(source.view(), params, /*charges_only=*/false);

  RunStats first, repeat;
  engine.evaluate_potential(source.view(), targets.view(),
                            KernelSpec::coulomb(), true, first, nullptr);
  engine.evaluate_potential(source.view(), targets.view(),
                            KernelSpec::coulomb(), false, repeat, nullptr);
  const InteractionLists& lists = targets.lists.front();
  // The first evaluation also carries the precompute launches.
  EXPECT_GT(first.gpu_launches, lists.total_approx + lists.total_direct);
  EXPECT_EQ(repeat.gpu_launches, lists.total_approx + lists.total_direct);
  // The host engine's counters describe the same work pair for pair.
  EXPECT_EQ(repeat.approx_launches, lists.total_approx);
  EXPECT_EQ(repeat.direct_launches, lists.total_direct);
}

TEST(GpuEngine, RepeatEvaluationMovesNoHostToDeviceBytes) {
  const Cloud c = uniform_cube(2000, 5);
  Solver solver = make_solver(small_params(), Backend::kGpuSim);
  solver.set_sources(c);
  RunStats first, repeat;
  solver.evaluate(c, &first);
  solver.evaluate(c, &repeat);
  EXPECT_GT(first.bytes_to_device, 0u);
  EXPECT_EQ(repeat.bytes_to_device, 0u);
  // Every evaluation downloads its results.
  EXPECT_EQ(repeat.bytes_to_host, c.size() * sizeof(double));
  EXPECT_EQ(repeat.modeled.precompute, 0.0);
}

TEST(GpuEngine, YukawaCostsMoreThanCoulombInModel) {
  // Needs paper-sized batches (N_B = N_L = 2000): with tiny batches every
  // launch sits on the min-kernel-time floor and the per-eval weight is
  // invisible — the same effect that makes 2000 the sweet spot in §3.2.
  // 15000 particles with N_L = 2000 give eight ~1875-particle leaves (one
  // more 8-way split would overshoot), so every launch clears the floor.
  TreecodeParams params;
  params.theta = 0.7;
  params.degree = 8;
  params.max_leaf = 2000;
  params.max_batch = 2000;
  const Cloud c = uniform_cube(15000, 6);
  const auto modeled_compute = [&](const KernelSpec& kernel) {
    Solver solver = make_solver(params, Backend::kGpuSim, kernel);
    solver.set_sources(c);
    RunStats stats;
    solver.evaluate(c, &stats);
    return stats.modeled.compute;
  };
  const double t_coulomb = modeled_compute(KernelSpec::coulomb());
  const double t_yukawa = modeled_compute(KernelSpec::yukawa(0.5));
  // Paper: Yukawa ~1.5x slower on the GPU.
  EXPECT_GT(t_yukawa, 1.2 * t_coulomb);
  EXPECT_LT(t_yukawa, 1.8 * t_coulomb);
}

TEST(GpuEngine, EvalWeightTable) {
  EXPECT_DOUBLE_EQ(kernel_eval_weight(KernelSpec::coulomb(), true), 1.0);
  EXPECT_DOUBLE_EQ(kernel_eval_weight(KernelSpec::coulomb(), false), 1.0);
  EXPECT_DOUBLE_EQ(kernel_eval_weight(KernelSpec::yukawa(0.5), true), 1.5);
  EXPECT_DOUBLE_EQ(kernel_eval_weight(KernelSpec::yukawa(0.5), false), 1.8);
}

struct ParityCase {
  std::string name;
  TreecodeParams params;
  KernelSpec kernel;
  bool unit_cube = false;  ///< particles in [0, 1]^3 (periodic domains)
};

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  cases.push_back({"batched", small_params(), KernelSpec::coulomb()});
  {
    TreecodeParams p = small_params();
    p.traversal = TraversalMode::kDual;
    cases.push_back({"dual_self", p, KernelSpec::coulomb()});
  }
  {
    TreecodeParams p = small_params();
    p.boundary = BoundaryConditions::kPeriodic;
    p.domain = Box3::cube(0.0, 1.0);
    p.image_shells = 1;
    cases.push_back({"periodic", p, KernelSpec::yukawa(2.0), true});
  }
  {
    TreecodeParams p = small_params();
    p.precision = PrecisionPolicy::kMixed;
    cases.push_back({"mixed_batched", p, KernelSpec::coulomb()});
    p.traversal = TraversalMode::kDual;
    cases.push_back({"mixed_dual", p, KernelSpec::coulomb()});
  }
  return cases;
}

TEST(GpuEngine, PotentialsAndFieldsBitIdenticalToCpuEngine) {
  for (const ParityCase& pc : parity_cases()) {
    SCOPED_TRACE(pc.name);
    const Cloud c = pc.unit_cube ? uniform_cube(2500, 7, 0.0, 1.0)
                                 : uniform_cube(4000, 7);
    Solver cpu = make_solver(pc.params, Backend::kCpu, pc.kernel);
    Solver gpu = make_solver(pc.params, Backend::kGpuSim, pc.kernel);
    cpu.set_sources(c);
    gpu.set_sources(c);
    RunStats cpu_stats, gpu_stats;
    EXPECT_EQ(cpu.evaluate(c, &cpu_stats), gpu.evaluate(c, &gpu_stats));
    EXPECT_EQ(cpu_stats.total_evals(), gpu_stats.total_evals());
    EXPECT_EQ(cpu_stats.fp32_evals, gpu_stats.fp32_evals);
    EXPECT_GT(gpu_stats.modeled.compute, 0.0);

    const FieldResult cf = cpu.evaluate_field(c);
    RunStats field_stats;
    const FieldResult gf = gpu.evaluate_field(c, &field_stats);
    EXPECT_EQ(cf.phi, gf.phi);
    EXPECT_EQ(cf.ex, gf.ex);
    EXPECT_EQ(cf.ey, gf.ey);
    EXPECT_EQ(cf.ez, gf.ez);
    // Field results come down as four arrays; targets stay resident.
    EXPECT_EQ(field_stats.bytes_to_host, 4 * c.size() * sizeof(double));
    EXPECT_EQ(field_stats.bytes_to_device, 0u);
  }
}

TEST(GpuEngine, TwoRankLetBitIdenticalToCpuEngine) {
  const Cloud c = uniform_cube(5000, 8);
  const auto make = [](Backend backend) {
    dist::DistConfig config;
    config.kernel = KernelSpec::yukawa(2.0);
    config.params.treecode = small_params();
    config.params.backend = backend;
    config.nranks = 2;
    return dist::DistSolver(config);
  };
  dist::DistSolver cpu = make(Backend::kCpu);
  dist::DistSolver gpu = make(Backend::kGpuSim);
  cpu.set_sources(c);
  gpu.set_sources(c);
  EXPECT_EQ(cpu.evaluate(), gpu.evaluate());
  const FieldResult cf = cpu.evaluate_field();
  const FieldResult gf = gpu.evaluate_field();
  EXPECT_EQ(cf.phi, gf.phi);
  EXPECT_EQ(cf.ex, gf.ex);
  EXPECT_EQ(cf.ey, gf.ey);
  EXPECT_EQ(cf.ez, gf.ez);
}

}  // namespace
}  // namespace bltc
