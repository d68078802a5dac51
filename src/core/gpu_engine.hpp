// Simulated-GPU engine: a cost model over the host engine. The paper's GPU
// code (§3.2) runs the same four computations as its CPU comparator — two
// preprocessing kernels for the modified charges (Eqs. 14-15), the
// batch-cluster direct sum (Eq. 9) and the batch-cluster approximation
// (Eq. 11) — and changes only where they run and what the data movement
// costs. `GpuSimEngine` mirrors that split: it holds a `CpuEngine` and
// forwards every lifecycle call to it, so potentials and fields are the
// host tile core's bits exactly. On top it keeps the cost model:
//   * launch walks — for each call it walks the tree, the interaction
//     lists and the dirty clusters and issues the launch sequence a device
//     implementation issues (one launch per preprocessing kernel per
//     cluster, one per batch-cluster or dual pair, the downward-pass chain),
//     each with its KernelCost, cycling round-robin over the async streams;
//   * residency — what is device-resident is recorded as element counts
//     and staged flags, and transfers are accounted as the paper's
//     data-region schedule moves them: sources HtD before the precompute,
//     modified charges DtH after it, targets + cluster data HtD before the
//     compute, results DtH at the end.
// Sources, grids, and modified charges stay resident across evaluate()
// calls: a Solver that evaluates repeatedly uploads source data exactly
// once, and target data only when the target plan changes. In the
// distributed path each rank's engine additionally keeps its locally
// essential tree resident — attached LET pieces stage their fetched
// particles, grids, and modified charges once, and a charges-only refresh
// re-uploads exactly the charge arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/cpu_engine.hpp"
#include "core/engine.hpp"
#include "core/kernels.hpp"
#include "gpusim/device.hpp"

namespace bltc {

/// Relative cost of one kernel evaluation by kernel family, used to weight
/// KernelCost::evals. Calibrated to the paper's observation that Yukawa runs
/// ~1.5x slower than Coulomb on the GPU and ~1.8x on the CPU (§4, Fig. 4).
double kernel_eval_weight(const KernelSpec& spec, bool on_gpu);

/// Engine-interface cost model owning one simulated device for the lifetime
/// of its Solver. Numerics come from the wrapped CpuEngine; statistics carry
/// the host engine's work counters plus this engine's modeled seconds,
/// launch count, and PCIe bytes, reported as deltas per evaluation — a
/// repeat evaluation on an unchanged plan shows zero host-to-device bytes.
class GpuSimEngine final : public Engine {
 public:
  explicit GpuSimEngine(const GpuOptions& options);

  Backend backend() const override { return Backend::kGpuSim; }
  bool supports_per_target_mac() const override { return false; }

  void prepare_sources(const SourcePlan& plan, const TreecodeParams& params,
                       bool charges_only) override;
  void update_sources(const SourcePlan& plan, const TreecodeParams& params,
                      const SourceUpdate& update) override;
  void update_targets(const TargetPlan& plan,
                      std::span<const std::pair<std::size_t, std::size_t>>
                          moved_ranges) override;
  void attach_let_pieces(std::span<const LetPiece> pieces,
                         const TreecodeParams& params,
                         bool charges_only) override;
  void refresh_let_positions(std::span<const LetPiece> pieces,
                             const TreecodeParams& params) override;
  std::span<const double> prepared_qhat() const override {
    return host_.prepared_qhat();
  }
  std::vector<double> evaluate_potential(const SourcePlan& sources,
                                         const TargetPlan& targets,
                                         const KernelSpec& kernel,
                                         bool fresh_targets, RunStats& stats,
                                         ExecContext* ctx) const override;
  FieldResult evaluate_field(const SourcePlan& sources,
                             const TargetPlan& targets,
                             const KernelSpec& kernel, bool fresh_targets,
                             RunStats& stats,
                             ExecContext* ctx) const override;
  void mesh_far_field(const mesh::MeshPlan& plan, const TargetPlan& targets,
                      std::vector<double>& phi, FieldResult* field,
                      RunStats& stats) const override;

  /// Cumulative device counters (tests and benches).
  const gpusim::Device& device() const { return device_; }

 private:
  /// Queue one launch on the next round-robin stream (the numerics ran on
  /// the host engine).
  void launch(const gpusim::KernelCost& cost) const;
  /// The two preprocessing kernels (Eqs. 14-15) for each non-empty cluster
  /// of `clusters`, then the DtH of `clusters.size()` clusters' modified
  /// charges; adds the modeled kernel time to the pending precompute.
  void model_precompute(const ClusterTree& tree, int degree,
                        std::span<const std::size_t> clusters);
  /// Target-side checks and staging shared by both evaluations.
  void stage_targets(const TargetPlan& targets, bool fresh_targets) const;
  /// The compute-phase launch walk over every source piece, the DtH of
  /// `result_doubles`, and the modeled/device fields of `stats`.
  void model_evaluation(const SourcePlan& sources, const TargetPlan& targets,
                        const KernelSpec& kernel, std::size_t result_doubles,
                        RunStats& stats) const;
  void model_batched(const TargetPlan& targets, const InteractionLists& lists,
                     const ClusterTree& tree, std::size_t ppc,
                     double weight) const;
  void model_dual(const TargetPlan& targets, const ClusterTree& source_tree,
                  double weight) const;

  /// Numerics: every lifecycle call is forwarded here.
  CpuEngine host_;

  // Deliberate `mutable` audit: evaluation is const under the Engine
  // re-entrancy contract, but a simulated device accumulates time/transfer
  // counters and stages target data on first use — physically mutable state
  // that is logically part of executing a read-only plan. Everything touched
  // by evaluation is marked mutable and serialized by `eval_mutex_` (one
  // device executes one evaluation at a time — the "one rank per device"
  // shape of the paper); all remaining members are written only by the
  // non-const lifecycle calls.
  mutable std::mutex eval_mutex_;

  GpuOptions options_;
  mutable gpusim::Device device_;

  // Residency bookkeeping. Source side (staged by prepare_sources): the
  // particle count, cluster count, and interpolation degree of the
  // resident sources, and the degree ladder of the resident dual moment
  // levels (empty outside the dual traversal; [0] is the nominal degree).
  bool sources_staged_ = false;
  std::size_t staged_sources_ = 0;
  std::size_t staged_clusters_ = 0;
  int staged_degree_ = 0;
  std::vector<int> staged_ladder_;
  /// Attached LET pieces (views into caller-owned storage); their fetched
  /// particle counts and charge arrays size the staged transfers.
  std::vector<LetPiece> let_;
  // Target side, staged lazily inside evaluate (hence mutable) and dropped
  // when the source plan changes.
  mutable bool targets_staged_ = false;
  mutable std::size_t staged_targets_ = 0;
  /// Periodic boundaries: the lattice shift table rides to the device once
  /// per engine lifetime (it depends only on the solver's domain/shell
  /// configuration); that upload is the entire extra device footprint of
  /// the image sum — sources, grids, and modified charges serve every
  /// shift.
  mutable bool shift_table_staged_ = false;

  // Phase accounting pending attribution to the next evaluation.
  mutable double pending_modeled_precompute_ = 0.0;
  mutable std::size_t pending_host_setup_particles_ = 0;

  /// Mesh-mode (kPeriodicMesh) device residency: version of the MeshPlan
  /// whose solved k-space grid was last staged/solved on the device. A
  /// version change models the full spread → FFT → Green multiply →
  /// inverse-FFT pipeline; matching versions model only the per-call
  /// interpolation launch plus the result download.
  mutable std::uint64_t mesh_version_staged_ = 0;

  // Snapshots of the device's cumulative counters at the last report.
  mutable gpusim::TimeMarker reported_marker_;
  mutable std::size_t reported_launches_ = 0;
  mutable std::size_t reported_bytes_htd_ = 0;
  mutable std::size_t reported_bytes_dth_ = 0;
};

}  // namespace bltc
