// Tests of the benchmark's own logic: the percentile rule, the oracle gate,
// open-loop latency timing, and span self-time accounting.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/solver.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(PercentileRule, ReportsOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(percentile(ramp(19), 50.0).has_value());
  ASSERT_TRUE(percentile(ramp(20), 50.0).has_value());
  EXPECT_DOUBLE_EQ(*percentile(ramp(20), 50.0), 10.0);

  EXPECT_FALSE(percentile(ramp(999), 99.0).has_value());
  ASSERT_TRUE(percentile(ramp(1000), 99.0).has_value());
  EXPECT_DOUBLE_EQ(*percentile(ramp(1000), 99.0), 990.0);

  EXPECT_FALSE(percentile(ramp(99), 90.0).has_value());
  EXPECT_TRUE(percentile(ramp(100), 90.0).has_value());
  EXPECT_FALSE(percentile({}, 50.0).has_value());
}

TEST(PercentileRule, MinimumSampleCounts) {
  EXPECT_EQ(min_samples_for(50.0), 20u);
  EXPECT_EQ(min_samples_for(75.0), 40u);
  EXPECT_EQ(min_samples_for(90.0), 100u);
  EXPECT_EQ(min_samples_for(99.0), 1000u);
  for (const double p : {50.0, 75.0, 90.0, 99.0}) {
    const std::size_t n = min_samples_for(p);
    EXPECT_TRUE(percentile(ramp(n), p).has_value()) << p;
    EXPECT_FALSE(percentile(ramp(n - 1), p).has_value()) << p;
  }
}

TEST(OracleGate, PassesATreecodeResultAndTripsOnAPerturbedOne) {
  const bltc::Cloud cloud = bltc::uniform_cube(3000, 7);
  bltc::SolverConfig config;
  config.kernel = bltc::KernelSpec::coulomb();
  config.params.theta = 0.7;
  config.params.degree = 4;
  config.params.max_leaf = 200;
  config.params.max_batch = 200;
  bltc::Solver solver(config);
  solver.set_sources(cloud);
  std::vector<double> phi = solver.evaluate(cloud);

  const auto sample = bltc::sample_indices(cloud.size(), 100);
  const std::vector<double> exact =
      bltc::direct_sum_sampled(cloud, sample, cloud, config.kernel);
  const auto sampled = [&](const std::vector<double>& values) {
    std::vector<double> out;
    for (const std::size_t i : sample) out.push_back(values[i]);
    return out;
  };
  const double bound = apriori_bound(0.7, 4);
  const double err = bltc::relative_l2_error(exact, sampled(phi));
  EXPECT_TRUE(within_bound(err, bound)) << err;

  for (double& v : phi) v *= 1.0 + 2.0 * bound;
  EXPECT_FALSE(
      within_bound(bltc::relative_l2_error(exact, sampled(phi)), bound));
  EXPECT_FALSE(within_bound(NAN, bound));
}

TEST(OracleGate, BitIdentity) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = a;
  EXPECT_TRUE(bit_identical(a, b));
  b[1] = std::nextafter(b[1], 3.0);
  EXPECT_FALSE(bit_identical(a, b));
  EXPECT_FALSE(bit_identical(a, std::vector<double>{1.0, 2.0}));
}

TEST(OpenLoop, LatencyRunsFromTheScheduledSend) {
  // Request 0 stalls the sender for 100 ms; requests 1..4 are due every
  // 10 ms meanwhile. Each resolves the moment it is sent, so timing from
  // the actual send would hide the stall; timing from the schedule charges
  // it to every request that waited.
  const double stall = 0.100;
  const auto run = run_open_loop<int>(8, 100.0, [&](std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall));
    }
    std::promise<int> p;
    p.set_value(static_cast<int>(i));
    return p.get_future();
  });
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(run.results[i], static_cast<int>(i));
    EXPECT_GE(run.latency(i), run.done[i] - run.sent[i]);
  }
  for (std::size_t i = 1; i <= 4; ++i) {
    const double due = static_cast<double>(i) * 0.010;
    EXPECT_NEAR(run.scheduled[i], due, 1e-12);
    EXPECT_GE(run.latency(i), stall - due - 1e-3) << i;
    EXPECT_GE(run.lateness(i), stall - due - 1e-3) << i;
  }
}

TEST(OpenLoop, SubmitErrorsAreRecordedPerRequest) {
  const auto run = run_open_loop<int>(3, 1000.0, [](std::size_t i) {
    if (i == 1) throw std::runtime_error("shed");
    std::promise<int> p;
    p.set_value(1);
    return p.get_future();
  });
  EXPECT_FALSE(run.errors[0]);
  EXPECT_TRUE(run.errors[1]);
  EXPECT_FALSE(run.errors[2]);
}

TEST(Tracer, SelfTimeSubtractsChildrenAndCoverageCountsLayers) {
  Tracer tracer(true);
  const int root = tracer.add({"", "op", 0.0, 10.0, -1, 0});
  tracer.add({"plan", "build", 1.0, 4.0, root, 0});
  const int eval = tracer.add({"cpu_engine", "eval", 4.0, 9.0, root, 0});
  tracer.add({"moments", "inner", 5.0, 6.0, eval, 0});
  const std::vector<double> self = tracer.self_seconds();
  EXPECT_DOUBLE_EQ(self[0], 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(tracer.root_seconds(), 10.0);
  EXPECT_DOUBLE_EQ(tracer.coverage(), 0.8);
  EXPECT_DOUBLE_EQ(tracer.layer_self_seconds().at("cpu_engine"), 4.0);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  tracer.begin_op(0, "op");
  { Tracer::Scope s(tracer, "plan", "build"); }
  tracer.end_op();
  EXPECT_EQ(tracer.add({"plan", "x", 0.0, 1.0, -1, 0}), -1);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_DOUBLE_EQ(tracer.coverage(), 1.0);
}

}  // namespace
}  // namespace perfbench
