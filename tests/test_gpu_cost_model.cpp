// Pinned GpuSim cost model: modeled phase seconds, launch counts and PCIe
// bytes for one representative run of every lifecycle shape the simulated
// device models. The expected values are exact (EXPECT_EQ, doubles
// included): the cost model is deterministic integer and floating-point
// bookkeeping over the plan structure, independent of the computed
// potentials and of the OpenMP thread count, so any change to a launch
// sequence, a KernelCost, or a transfer shows up here bit for bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "util/rng.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

struct Pin {
  double setup;
  double precompute;
  double compute;
  std::size_t launches;
  std::size_t bytes_to_device;
  std::size_t bytes_to_host;
};

void expect_pin(const RunStats& s, const Pin& pin) {
  EXPECT_EQ(s.modeled.setup, pin.setup);
  EXPECT_EQ(s.modeled.precompute, pin.precompute);
  EXPECT_EQ(s.modeled.compute, pin.compute);
  EXPECT_EQ(s.gpu_launches, pin.launches);
  EXPECT_EQ(s.bytes_to_device, pin.bytes_to_device);
  EXPECT_EQ(s.bytes_to_host, pin.bytes_to_host);
}

/// DistStats carries no launch count: ranks pin modeled seconds and bytes.
void expect_pin(const dist::RankStats& s, const Pin& pin) {
  EXPECT_EQ(s.modeled.setup, pin.setup);
  EXPECT_EQ(s.modeled.precompute, pin.precompute);
  EXPECT_EQ(s.modeled.compute, pin.compute);
  EXPECT_EQ(s.bytes_to_device, pin.bytes_to_device);
  EXPECT_EQ(s.bytes_to_host, pin.bytes_to_host);
}

TreecodeParams base_params() {
  TreecodeParams params;
  params.theta = 0.7;
  params.degree = 6;
  params.max_leaf = 300;
  params.max_batch = 300;
  return params;
}

Solver gpu_solver(const TreecodeParams& params,
                  const KernelSpec& kernel = KernelSpec::coulomb()) {
  SolverConfig config;
  config.kernel = kernel;
  config.params = params;
  config.backend = Backend::kGpuSim;
  return Solver(std::move(config));
}

TEST(GpuCostModel, BatchedCoulombFirstAndRepeat) {
  const Cloud c = uniform_cube(6000, 101);
  Solver solver = gpu_solver(base_params());
  solver.set_sources(c);
  RunStats first, repeat;
  solver.evaluate(c, &first);
  solver.evaluate(c, &repeat);
  expect_pin(first,
             {0.0015664073333333333, 0.00060257999999999872,
              0.01549000000000084, 4018, 548576, 248312});
  expect_pin(repeat,
             {4.0000000000000024e-06, 0,
              0.015490000000001763, 3872, 0, 48000});
}

TEST(GpuCostModel, DualSelfMode) {
  const Cloud c = uniform_cube(6000, 102);
  TreecodeParams params = base_params();
  params.traversal = TraversalMode::kDual;
  Solver solver = gpu_solver(params);
  solver.set_sources(c);
  RunStats s;
  solver.evaluate(c, &s);
  ASSERT_TRUE(s.dual_traversal);
  expect_pin(s,
             {0.0015937093333333334, 0.00062657999999999887,
              0.0080819999999998619, 2170, 876200, 248312});
}

TEST(GpuCostModel, PeriodicYukawaOneShell) {
  const Cloud c = uniform_cube(3000, 103, 0.0, 1.0);
  TreecodeParams params = base_params();
  params.boundary = BoundaryConditions::kPeriodic;
  params.domain = Box3::cube(0.0, 1.0);
  params.image_shells = 1;
  Solver solver = gpu_solver(params, KernelSpec::yukawa(2.0));
  solver.set_sources(c);
  RunStats s;
  solver.evaluate(c, &s);
  expect_pin(s,
             {0.00080046133333333341, 0.00059228999999999879,
              0.080301999999998291, 20221, 381224, 224312});
}

TEST(GpuCostModel, MixedPrecisionBatchedAndDual) {
  const Cloud c = uniform_cube(6000, 104);
  TreecodeParams params = base_params();
  params.precision = PrecisionPolicy::kMixed;
  {
    Solver solver = gpu_solver(params);
    solver.set_sources(c);
    RunStats s;
    solver.evaluate(c, &s);
    expect_pin(s,
               {0.00155755, 0.00060257999999999872,
                0.01549000000000084, 4018, 442288, 248312});
  }
  params.traversal = TraversalMode::kDual;
  {
    Solver solver = gpu_solver(params);
    solver.set_sources(c);
    RunStats s;
    solver.evaluate(c, &s);
    expect_pin(s,
               {0.0015730259999999999, 0.00062657999999999887,
                0.0080819999999998619, 2170, 628000, 248312});
  }
}

TEST(GpuCostModel, UpdateCharges) {
  const Cloud c = uniform_cube(6000, 105);
  Solver solver = gpu_solver(base_params());
  solver.set_sources(c);
  solver.evaluate(c);
  std::vector<double> q(c.size());
  SplitMix64 rng(106);
  for (double& v : q) v = rng.uniform(-1.0, 1.0);
  solver.update_charges(q);
  RunStats s;
  solver.evaluate(c, &s);
  expect_pin(s,
             {4.1385333333333332e-05, 0.00060258000000007472,
              0.015490000000001242, 4018, 248312, 248312});
}

TEST(GpuCostModel, UpdatePositionsWithSlack) {
  Cloud c = uniform_cube(6000, 107);
  TreecodeParams params = base_params();
  params.position_slack = 0.1;
  Solver solver = gpu_solver(params);
  solver.set_sources(c);
  solver.evaluate(c);
  SplitMix64 rng(108);
  for (std::size_t i = 0; i < c.size(); i += 50) {
    c.x[i] += rng.uniform(-1e-3, 1e-3);
    c.y[i] += rng.uniform(-1e-3, 1e-3);
    c.z[i] += rng.uniform(-1e-3, 1e-3);
  }
  solver.update_positions(c);
  RunStats s;
  solver.evaluate(c, &s);
  ASSERT_TRUE(s.incremental_update);
  expect_pin(s,
             {3.2457333333333325e-05, 0.00050658000000006198,
              0.016162000000000249, 4162, 174104, 215384});
}

TEST(GpuCostModel, TwoRankYukawaEvaluateAndUpdateCharges) {
  const Cloud c = uniform_cube(6000, 109);
  dist::DistConfig config;
  config.kernel = KernelSpec::yukawa(2.0);
  config.params.treecode = base_params();
  config.params.backend = Backend::kGpuSim;
  config.nranks = 2;
  dist::DistSolver solver(config);
  solver.set_sources(c);
  dist::DistStats first;
  solver.evaluate(&first);
  ASSERT_EQ(first.per_rank.size(), 2u);
  expect_pin(first.per_rank[0],
             {0.0012322599999999998, 0.000383333333333334,
              0.0096839999999996738, 0, 479488, 125528});
  expect_pin(first.per_rank[1],
             {0.0012322599999999998, 0.000383333333333334,
              0.0096839999999996738, 0, 479488, 125528});

  std::vector<double> q(c.size());
  SplitMix64 rng(110);
  for (double& v : q) v = rng.uniform(-1.0, 1.0);
  solver.update_charges(q);
  dist::DistStats refreshed;
  solver.evaluate(&refreshed);
  expect_pin(refreshed.per_rank[0],
             {5.9653599999999994e-05, 0.00038333333333331887,
              0.0096840000000011708, 0, 251056, 125528});
  expect_pin(refreshed.per_rank[1],
             {5.9653599999999994e-05, 0.00038333333333331887,
              0.0096840000000011708, 0, 251056, 125528});
}

TEST(GpuCostModel, PeriodicMesh) {
  const Cloud c = uniform_cube(4000, 111, 0.0, 1.0);
  TreecodeParams params = base_params();
  params.boundary = BoundaryConditions::kPeriodicMesh;
  params.domain = Box3::cube(0.0, 1.0);
  Solver solver = gpu_solver(params);
  solver.set_sources(c);
  RunStats first, repeat;
  solver.evaluate(c, &first);
  solver.evaluate(c, &repeat);
  expect_pin(first,
             {0.0010584613333333333, 0.0005957199999999988,
              0.020703200000001525, 5311, 437224, 264312});
  expect_pin(repeat,
             {5.3333333333333387e-06, 0,
              0.020701199999993456, 5165, 0, 64000});
}

}  // namespace
}  // namespace bltc
