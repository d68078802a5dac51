// Parity suite for the blocked evaluation core (core/cpu_kernels.hpp):
// every host path — {potential, field} x {batched MAC, per-target MAC} x
// all five kernel families — must match a naive scalar reference built on
// the independent evaluate_kernel / evaluate_kernel_gradient helpers to
// ~1e-12 relative error. The geometry is chosen adversarially: batch sizes
// that are not a multiple of the tile width (edge tiles), single-target
// lists (the nt == 1 path), coincident targets and sources (the singular
// skip convention), and duplicated source points. Below the list drivers,
// the AVX-512 vector exp helpers are checked against std::exp, and the
// Yukawa tiles (full and lane-masked partial) against both the portable
// `Fast = false` tile and the scalar reference at every tile width.
#include "core/cpu_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/batches.hpp"
#include "core/fields.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "core/tree.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

constexpr double kTol = 1e-12;

std::vector<KernelSpec> all_kernels() {
  return {KernelSpec::coulomb(), KernelSpec::yukawa(0.7),
          KernelSpec::gaussian(0.4), KernelSpec::multiquadric(0.9),
          KernelSpec::inverse_square()};
}

/// Shared plan for one (targets, sources) pair: batched and per-target
/// interaction lists over the same source tree.
struct EvalPlan {
  OrderedParticles src;
  ClusterTree tree;
  ClusterMoments moments;
  OrderedParticles tgt;          ///< permuted by batch construction
  std::vector<TargetBatch> batches;
  InteractionLists lists;
  OrderedParticles tgt_pt;       ///< caller order (per-target MAC path)
  InteractionLists pt_lists;

  EvalPlan(const Cloud& targets, const Cloud& sources, double theta, int degree,
        std::size_t max_leaf, std::size_t max_batch) {
    src = OrderedParticles::from_cloud(sources);
    TreeParams tp;
    tp.max_leaf = max_leaf;
    tree = ClusterTree::build(src, tp);
    moments = ClusterMoments::compute(tree, src, degree);
    tgt = OrderedParticles::from_cloud(targets);
    batches = build_target_batches(tgt, max_batch);
    lists = build_interaction_lists(batches, tree, theta, degree);
    tgt_pt = OrderedParticles::from_cloud(targets);
    pt_lists = build_interaction_lists_per_target(tgt_pt, tree, theta, degree);
  }
};

/// Naive scalar reference: accumulate one interaction list into target i,
/// through the scalar kernel helpers (independent of the blocked core).
void ref_accumulate(const KernelSpec& spec, const OrderedParticles& targets,
                    std::size_t i, const BatchInteractions& bi,
                    const ClusterTree& tree, const OrderedParticles& src,
                    const ClusterMoments& moments, double& phi, double& ex,
                    double& ey, double& ez) {
  const double txi = targets.x[i], tyi = targets.y[i], tzi = targets.z[i];
  double g3[3];
  for (const int ci : bi.approx) {
    const auto gx = moments.grid(ci, 0);
    const auto gy = moments.grid(ci, 1);
    const auto gz = moments.grid(ci, 2);
    const auto qhat = moments.qhat(ci);
    const std::size_t m = gx.size();
    for (std::size_t k1 = 0; k1 < m; ++k1) {
      for (std::size_t k2 = 0; k2 < m; ++k2) {
        for (std::size_t k3 = 0; k3 < m; ++k3) {
          const double q = qhat[(k1 * m + k2) * m + k3];
          phi += evaluate_kernel_gradient(spec, txi, tyi, tzi, gx[k1],
                                          gy[k2], gz[k3], g3) *
                 q;
          ex -= g3[0] * q;
          ey -= g3[1] * q;
          ez -= g3[2] * q;
        }
      }
    }
  }
  for (const int ci : bi.direct) {
    const ClusterNode& node = tree.node(ci);
    for (std::size_t j = node.begin; j < node.end; ++j) {
      const double q = src.q[j];
      phi += evaluate_kernel_gradient(spec, txi, tyi, tzi, src.x[j],
                                      src.y[j], src.z[j], g3) *
             q;
      ex -= g3[0] * q;
      ey -= g3[1] * q;
      ez -= g3[2] * q;
    }
  }
}

struct RefResult {
  std::vector<double> phi, ex, ey, ez;
};

RefResult ref_batched(const KernelSpec& spec, const EvalPlan& s) {
  RefResult out;
  const std::size_t n = s.tgt.size();
  out.phi.assign(n, 0.0);
  out.ex.assign(n, 0.0);
  out.ey.assign(n, 0.0);
  out.ez.assign(n, 0.0);
  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    for (std::size_t i = s.batches[b].begin; i < s.batches[b].end; ++i) {
      ref_accumulate(spec, s.tgt, i, s.lists.per_batch[b], s.tree, s.src,
                     s.moments, out.phi[i], out.ex[i], out.ey[i], out.ez[i]);
    }
  }
  return out;
}

RefResult ref_per_target(const KernelSpec& spec, const EvalPlan& s) {
  RefResult out;
  const std::size_t n = s.tgt_pt.size();
  out.phi.assign(n, 0.0);
  out.ex.assign(n, 0.0);
  out.ey.assign(n, 0.0);
  out.ez.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    ref_accumulate(spec, s.tgt_pt, i, s.pt_lists.per_batch[i], s.tree, s.src,
                   s.moments, out.phi[i], out.ex[i], out.ey[i], out.ez[i]);
  }
  return out;
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, const char* what,
                  const std::string& kernel) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], kTol * (1.0 + std::fabs(want[i])))
        << what << " kernel=" << kernel << " i=" << i;
  }
}

/// All four blocked paths against the reference, one kernel at a time.
void check_all_paths(const EvalPlan& s, const KernelSpec& spec) {
  const std::string name = spec.name();
  const RefResult rb = ref_batched(spec, s);
  const RefResult rp = ref_per_target(spec, s);

  EngineCounters counters;
  const auto phi = cpu_evaluate(s.tgt, s.batches, s.lists, s.tree, s.src,
                                s.moments, spec, nullptr, &counters);
  expect_close(phi, rb.phi, "batched potential", name);
  EXPECT_EQ(counters.approx_launches, s.lists.total_approx);
  EXPECT_EQ(counters.direct_launches, s.lists.total_direct);

  const auto f = cpu_evaluate_field(s.tgt, s.batches, s.lists, s.tree, s.src,
                                    s.moments, spec);
  expect_close(f.phi, rb.phi, "batched field phi", name);
  expect_close(f.ex, rb.ex, "batched field ex", name);
  expect_close(f.ey, rb.ey, "batched field ey", name);
  expect_close(f.ez, rb.ez, "batched field ez", name);

  const auto phi_pt = cpu_evaluate_per_target(s.tgt_pt, s.pt_lists, s.tree,
                                              s.src, s.moments, spec);
  expect_close(phi_pt, rp.phi, "per-target potential", name);

  const auto f_pt = cpu_evaluate_field_per_target(s.tgt_pt, s.pt_lists,
                                                  s.tree, s.src, s.moments,
                                                  spec);
  expect_close(f_pt.phi, rp.phi, "per-target field phi", name);
  expect_close(f_pt.ex, rp.ex, "per-target field ex", name);
  expect_close(f_pt.ey, rp.ey, "per-target field ey", name);
  expect_close(f_pt.ez, rp.ez, "per-target field ez", name);
}

TEST(CpuKernels, ParityDisjointCloudsEdgeTiles) {
  // 403 targets with batch cap 37: every batch ends in an edge tile, and
  // none is a multiple of the tile width.
  const Cloud targets = uniform_cube(403, 11);
  const Cloud sources = uniform_cube(500, 12);
  const EvalPlan s(targets, sources, 0.7, 3, 64, 37);
  ASSERT_GT(s.lists.total_approx, 0u);
  ASSERT_GT(s.lists.total_direct, 0u);
  for (const KernelSpec& spec : all_kernels()) check_all_paths(s, spec);
}

TEST(CpuKernels, ParityCoincidentTargetsAndSources) {
  // Targets are the sources: every direct cluster containing the target
  // exercises the singular skip (r2 == 0) in the blocked guard.
  Cloud c = uniform_cube(250, 13);
  // Duplicate some points so r2 == 0 also happens between distinct
  // particles, not only at self-interaction.
  for (std::size_t i = 0; i < 8; ++i) {
    c.x[i + 100] = c.x[i];
    c.y[i + 100] = c.y[i];
    c.z[i + 100] = c.z[i];
  }
  const EvalPlan s(c, c, 0.6, 2, 32, 41);
  ASSERT_GT(s.lists.total_direct, 0u);
  for (const KernelSpec& spec : all_kernels()) check_all_paths(s, spec);
}

TEST(CpuKernels, ParitySingleTargetLists) {
  // One target per batch: the blocked evaluator must fall through to the
  // single-target (simd reduction) path everywhere.
  const Cloud targets = uniform_cube(9, 14);
  const Cloud sources = uniform_cube(300, 15);
  const EvalPlan s(targets, sources, 0.7, 3, 50, 1);
  for (const KernelSpec& spec : all_kernels()) check_all_paths(s, spec);
}

#if defined(__AVX512F__)
static_assert(TileSimd<false, YukawaKernel>::kAvailable);
static_assert(TileSimd<true, YukawaGradKernel>::kAvailable);

/// Largest relative error of detail::exp_pd<Degree> against std::exp over
/// [-700, 0]: a dense sweep plus the reduction boundaries (n ln2 +- ln2/2).
template <int Degree>
double max_exp_rel_error() {
  std::vector<double> xs;
  for (int i = 0; i <= 200000; ++i) xs.push_back(-700.0 * i / 200000.0);
  for (int n = -1009; n <= 0; ++n) {
    const double mid = n * 0.6931471805599453;
    xs.push_back(std::min(0.0, mid + 0.34657359027997264));
    xs.push_back(std::max(-700.0, mid - 0.34657359027997264));
  }
  while (xs.size() % 8 != 0) xs.push_back(0.0);
  double worst = 0.0;
  alignas(64) double out[8];
  for (std::size_t i = 0; i < xs.size(); i += 8) {
    _mm512_store_pd(out, detail::exp_pd<Degree>(_mm512_loadu_pd(&xs[i])));
    for (std::size_t l = 0; l < 8; ++l) {
      const double want = std::exp(xs[i + l]);
      worst = std::max(worst, std::fabs(out[l] - want) / want);
    }
  }
  return worst;
}
#endif

TEST(CpuKernels, VectorExpAccuracy) {
#if defined(__AVX512F__)
  EXPECT_LE(max_exp_rel_error<detail::kExpDegreeFull>(), 1e-15);
  EXPECT_LE(max_exp_rel_error<detail::kExpDegreeErfc>(), 1e-8);
#else
  GTEST_SKIP() << "built without __AVX512F__: no vector exp helpers";
#endif
}

/// One Yukawa tile configuration: n targets (several sit exactly on source
/// points) against a source stream with a duplicated point.
struct YukawaTileCase {
  std::vector<double> tx, ty, tz, sx, sy, sz, sq;

  explicit YukawaTileCase(std::size_t n) {
    const Cloud src = uniform_cube(301, 21);
    sx = src.x;
    sy = src.y;
    sz = src.z;
    sq = src.q;
    sx[7] = sx[3];
    sy[7] = sy[3];
    sz[7] = sz[3];
    const Cloud tgt = uniform_cube(n, 22 + n);
    tx = tgt.x;
    ty = tgt.y;
    tz = tgt.z;
    for (std::size_t t = 0; t < n; t += 3) {
      tx[t] = sx[(3 * t + 3) % sx.size()];
      ty[t] = sy[(3 * t + 3) % sx.size()];
      tz[t] = sz[(3 * t + 3) % sx.size()];
    }
  }

  /// Run accumulate_tile over the targets in kTargetTile chunks, the way
  /// the list drivers do.
  template <bool Field, bool Fast, typename K>
  RefResult run(K k) const {
    const std::size_t n = tx.size();
    RefResult r{std::vector<double>(n), std::vector<double>(n),
                std::vector<double>(n), std::vector<double>(n)};
    for (std::size_t t0 = 0; t0 < n; t0 += kTargetTile) {
      const std::size_t nt = std::min(kTargetTile, n - t0);
      accumulate_tile<Field, Fast>(&tx[t0], &ty[t0], &tz[t0], nt, sx.data(),
                                   sy.data(), sz.data(), sq.data(), sx.size(),
                                   k, &r.phi[t0], &r.ex[t0], &r.ey[t0],
                                   &r.ez[t0]);
    }
    return r;
  }
};

TEST(CpuKernels, YukawaTilesEveryTargetCount) {
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= 17; ++n) counts.push_back(n);
  counts.push_back(48);
  for (const double kappa : {0.5, 8.0}) {
    const KernelSpec spec = KernelSpec::yukawa(kappa);
    for (const std::size_t n : counts) {
      const YukawaTileCase c(n);
      const RefResult pot_fast = c.run<false, true>(YukawaKernel{kappa});
      const RefResult pot_exact = c.run<false, false>(YukawaKernel{kappa});
      const RefResult fld_fast = c.run<true, true>(YukawaGradKernel{kappa});
      const RefResult fld_exact = c.run<true, false>(YukawaGradKernel{kappa});
      for (std::size_t t = 0; t < n; ++t) {
        // Scalar reference, plus the sums of |contribution| that scale the
        // relative comparison against the portable path.
        double phi = 0.0, e[3] = {0.0, 0.0, 0.0};
        double phi_abs = 0.0, e_abs = 0.0;
        for (std::size_t j = 0; j < c.sx.size(); ++j) {
          double g3[3];
          const double g = evaluate_kernel_gradient(
              spec, c.tx[t], c.ty[t], c.tz[t], c.sx[j], c.sy[j], c.sz[j], g3);
          phi += g * c.sq[j];
          phi_abs += std::fabs(g * c.sq[j]);
          for (int d = 0; d < 3; ++d) {
            e[d] -= g3[d] * c.sq[j];
            e_abs += std::fabs(g3[d] * c.sq[j]);
          }
        }
        const std::string where = "kappa=" + std::to_string(kappa) +
                                  " n=" + std::to_string(n) +
                                  " t=" + std::to_string(t);
        const double tol_phi = 1e-13 * phi_abs;
        const double tol_e = 1e-13 * e_abs;
        EXPECT_NEAR(pot_fast.phi[t], pot_exact.phi[t], tol_phi) << where;
        EXPECT_NEAR(fld_fast.phi[t], fld_exact.phi[t], tol_phi) << where;
        EXPECT_NEAR(fld_fast.ex[t], fld_exact.ex[t], tol_e) << where;
        EXPECT_NEAR(fld_fast.ey[t], fld_exact.ey[t], tol_e) << where;
        EXPECT_NEAR(fld_fast.ez[t], fld_exact.ez[t], tol_e) << where;
        EXPECT_NEAR(pot_fast.phi[t], phi, kTol * (1.0 + std::fabs(phi)))
            << where;
        EXPECT_NEAR(fld_fast.phi[t], phi, kTol * (1.0 + std::fabs(phi)))
            << where;
        EXPECT_NEAR(fld_fast.ex[t], e[0], kTol * (1.0 + std::fabs(e[0])))
            << where;
        EXPECT_NEAR(fld_fast.ey[t], e[1], kTol * (1.0 + std::fabs(e[1])))
            << where;
        EXPECT_NEAR(fld_fast.ez[t], e[2], kTol * (1.0 + std::fabs(e[2])))
            << where;
      }
    }
  }
}

TEST(CpuKernels, WorkspaceReuseIsDeterministic) {
  // Repeated evaluation through one persistent workspace must return
  // bitwise-identical results (scratch is overwritten, never accumulated).
  const Cloud c = uniform_cube(300, 16);
  const EvalPlan s(c, c, 0.7, 4, 64, 48);
  CpuWorkspace ws;
  const auto a = cpu_evaluate(s.tgt, s.batches, s.lists, s.tree, s.src,
                              s.moments, KernelSpec::coulomb(), nullptr,
                              nullptr, &ws);
  const auto b = cpu_evaluate(s.tgt, s.batches, s.lists, s.tree, s.src,
                              s.moments, KernelSpec::coulomb(), nullptr,
                              nullptr, &ws);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace bltc
