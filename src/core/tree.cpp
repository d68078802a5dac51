#include "core/tree.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>

namespace bltc {
namespace {

std::atomic<std::size_t> tree_build_count{0};

}  // namespace

std::size_t ClusterTree::build_count() {
  return tree_build_count.load(std::memory_order_relaxed);
}

namespace {

/// Decide which of the three dimensions to bisect: a dimension is split iff
/// its extent exceeds longest/max_aspect. Returns a 3-bit mask.
unsigned split_mask(const Box3& box, double max_aspect) {
  const auto L = box.lengths();
  const double longest = std::max({L[0], L[1], L[2]});
  if (longest <= 0.0) return 0u;
  const double threshold = longest / max_aspect;
  unsigned mask = 0u;
  for (int d = 0; d < 3; ++d) {
    if (L[static_cast<std::size_t>(d)] > threshold) mask |= (1u << d);
  }
  return mask;
}

}  // namespace

ClusterTree ClusterTree::build(OrderedParticles& particles,
                               const TreeParams& params) {
  tree_build_count.fetch_add(1, std::memory_order_relaxed);
  ClusterTree tree;
  const std::size_t n = particles.size();
  const std::size_t max_leaf = std::max<std::size_t>(1, params.max_leaf);

  ClusterNode root;
  root.begin = 0;
  root.end = n;
  root.box = minimal_bounding_box_range(particles.x, particles.y, particles.z,
                                        0, n);
  if (!root.box.valid()) root.box = Box3{};  // empty input
  root.center = root.box.center();
  root.radius = root.box.radius();
  tree.nodes_.push_back(root);

  // Scratch arrays reused across splits.
  std::vector<std::size_t> scratch_idx;
  std::vector<int> octant;

  // Iterative subdivision with an explicit work stack (the recursion depth
  // is O(log N) but an explicit stack keeps very deep adaptive trees safe).
  std::vector<int> stack{0};
  while (!stack.empty()) {
    const int ni = stack.back();
    stack.pop_back();

    // Copy out what we need: pushing children may reallocate nodes_.
    const std::size_t begin = tree.nodes_[static_cast<std::size_t>(ni)].begin;
    const std::size_t end = tree.nodes_[static_cast<std::size_t>(ni)].end;
    const Box3 box = tree.nodes_[static_cast<std::size_t>(ni)].box;
    const int level = tree.nodes_[static_cast<std::size_t>(ni)].level;
    const std::size_t count = end - begin;

    if (count <= max_leaf) {
      ++tree.num_leaves_;
      continue;
    }

    unsigned mask = split_mask(box, params.max_aspect);
    const auto mid = box.center();

    // Assign each particle an octant code restricted to the split mask.
    octant.resize(count);
    std::array<std::size_t, 8> bucket_count{};
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t p = begin + i;
      int code = 0;
      if ((mask & 1u) && particles.x[p] > mid[0]) code |= 1;
      if ((mask & 2u) && particles.y[p] > mid[1]) code |= 2;
      if ((mask & 4u) && particles.z[p] > mid[2]) code |= 4;
      octant[i] = code;
      ++bucket_count[static_cast<std::size_t>(code)];
    }

    // Degenerate case (coincident particles or zero-extent box): midpoint
    // splitting cannot separate the points, so bisect by index instead to
    // preserve the leaf-size invariant.
    const bool degenerate =
        mask == 0u ||
        std::count_if(bucket_count.begin(), bucket_count.end(),
                      [](std::size_t c) { return c > 0; }) <= 1;
    if (degenerate) {
      const std::size_t half = count / 2;
      for (std::size_t i = 0; i < count; ++i) {
        octant[i] = (i < half) ? 0 : 1;
      }
      bucket_count.fill(0);
      bucket_count[0] = half;
      bucket_count[1] = count - half;
    }

    {
      auto& node = tree.nodes_[static_cast<std::size_t>(ni)];
      node.split_mid = mid;
      node.split_dims = degenerate ? 0u : mask;
      node.degenerate_split = degenerate;
    }

    // Counting sort of the particle range into octant order.
    std::array<std::size_t, 8> offset{};
    std::size_t running = 0;
    for (int c = 0; c < 8; ++c) {
      offset[static_cast<std::size_t>(c)] = running;
      running += bucket_count[static_cast<std::size_t>(c)];
    }
    scratch_idx.resize(count);
    {
      std::array<std::size_t, 8> cursor = offset;
      for (std::size_t i = 0; i < count; ++i) {
        scratch_idx[cursor[static_cast<std::size_t>(octant[i])]++] = begin + i;
      }
    }
    // Apply the in-range permutation to the SoA arrays.
    {
      const auto apply = [&](AlignedVector& a) {
        std::vector<double> tmp(count);
        for (std::size_t i = 0; i < count; ++i) tmp[i] = a[scratch_idx[i]];
        std::copy(tmp.begin(), tmp.end(), a.begin() + static_cast<long>(begin));
      };
      apply(particles.x);
      apply(particles.y);
      apply(particles.z);
      apply(particles.q);
      std::vector<std::size_t> tmp(count);
      for (std::size_t i = 0; i < count; ++i)
        tmp[i] = particles.original_index[scratch_idx[i]];
      std::copy(tmp.begin(), tmp.end(),
                particles.original_index.begin() + static_cast<long>(begin));
    }

    // Create the non-empty children with minimal bounding boxes.
    for (int c = 0; c < 8; ++c) {
      const std::size_t cnt = bucket_count[static_cast<std::size_t>(c)];
      if (cnt == 0) continue;
      ClusterNode child;
      child.begin = begin + offset[static_cast<std::size_t>(c)];
      child.end = child.begin + cnt;
      child.box = minimal_bounding_box_range(particles.x, particles.y,
                                             particles.z, child.begin,
                                             child.end);
      child.center = child.box.center();
      child.radius = child.box.radius();
      child.parent = ni;
      child.level = level + 1;
      const int child_index = static_cast<int>(tree.nodes_.size());
      tree.nodes_.push_back(child);
      auto& parent_node = tree.nodes_[static_cast<std::size_t>(ni)];
      parent_node.children[static_cast<std::size_t>(parent_node.num_children)] =
          child_index;
      ++parent_node.num_children;
      parent_node.child_by_code[static_cast<std::size_t>(c)] = child_index;
      tree.max_level_ = std::max(tree.max_level_, level + 1);
      stack.push_back(child_index);
    }
  }

  // Record the tight boxes and, with slack, fatten every box by half the
  // slack fraction of its tight longest extent per side. A zero-extent node
  // (a leaf holding one particle, or coincident particles) takes the pad of
  // its nearest ancestor with positive extent instead, so its particles can
  // move at all without leaving the leaf. Padding is monotone down the tree
  // (a parent's tight box contains its children's, so its pad is at least
  // theirs, and an inherited pad equals the parent's), which preserves
  // nesting: a particle inside its leaf's fat box is inside every
  // ancestor's fat box too. The MAC geometry (center, radius) follows the
  // fat box so interaction lists built over it stay admissible for any
  // particle positions within the fat leaves. Parents precede their
  // children in nodes_, so each parent's pad is final when a child reads it.
  std::vector<double> pads(tree.nodes_.size(), 0.0);
  for (std::size_t ni = 0; ni < tree.nodes_.size(); ++ni) {
    ClusterNode& node = tree.nodes_[ni];
    node.tight_box = node.box;
    if (params.slack <= 0.0 || !node.box.valid()) continue;
    double pad = 0.5 * params.slack * node.tight_box.longest();
    if (pad <= 0.0 && node.parent >= 0) {
      pad = pads[static_cast<std::size_t>(node.parent)];
    }
    pads[ni] = pad;
    if (pad <= 0.0) continue;
    for (std::size_t d = 0; d < 3; ++d) {
      node.box.lo[d] -= pad;
      node.box.hi[d] += pad;
    }
    node.center = node.box.center();
    node.radius = node.box.radius();
  }

  return tree;
}

int ClusterTree::locate_leaf(double x, double y, double z) const {
  if (nodes_.empty()) return -1;
  int ni = 0;
  while (!nodes_[static_cast<std::size_t>(ni)].is_leaf()) {
    const ClusterNode& n = nodes_[static_cast<std::size_t>(ni)];
    if (n.degenerate_split) return -1;
    int code = 0;
    if ((n.split_dims & 1u) && x > n.split_mid[0]) code |= 1;
    if ((n.split_dims & 2u) && y > n.split_mid[1]) code |= 2;
    if ((n.split_dims & 4u) && z > n.split_mid[2]) code |= 4;
    ni = n.child_by_code[static_cast<std::size_t>(code)];
    if (ni < 0) return -1;
  }
  return ni;
}

void ClusterTree::reassign_leaf_counts(const std::vector<std::size_t>& counts) {
  assert(counts.size() == nodes_.size());
  // Leaves in current range order (leaf_indices() is node-index order,
  // which need not be range order).
  std::vector<int> leaves = leaf_indices();
  // Total order (begin, node index): equal begins occur once a leaf has
  // emptied, and callers laying out permutations must agree on the order.
  std::sort(leaves.begin(), leaves.end(), [&](int a, int b) {
    const std::size_t ba = nodes_[static_cast<std::size_t>(a)].begin;
    const std::size_t bb = nodes_[static_cast<std::size_t>(b)].begin;
    if (ba != bb) return ba < bb;
    return a < b;
  });
  std::size_t cursor = 0;
  for (const int li : leaves) {
    ClusterNode& leaf = nodes_[static_cast<std::size_t>(li)];
    leaf.begin = cursor;
    cursor += counts[static_cast<std::size_t>(li)];
    leaf.end = cursor;
  }
  // Children are always pushed after their parent, so a reverse index walk
  // sees every child before its parent.
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    ClusterNode& node = nodes_[i];
    if (node.is_leaf()) continue;
    std::size_t begin = std::numeric_limits<std::size_t>::max();
    std::size_t end = 0;
    for (int c = 0; c < node.num_children; ++c) {
      const ClusterNode& child =
          nodes_[static_cast<std::size_t>(node.children[static_cast<std::size_t>(c)])];
      begin = std::min(begin, child.begin);
      end = std::max(end, child.end);
    }
    node.begin = begin;
    node.end = end;
  }
}

ClusterTree ClusterTree::from_nodes(std::vector<ClusterNode> nodes) {
  ClusterTree tree;
  tree.nodes_ = std::move(nodes);
  for (const ClusterNode& n : tree.nodes_) {
    if (n.is_leaf()) ++tree.num_leaves_;
    tree.max_level_ = std::max(tree.max_level_, n.level);
  }
  return tree;
}

std::vector<int> ClusterTree::leaf_indices() const {
  std::vector<int> leaves;
  leaves.reserve(num_leaves_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_leaf()) leaves.push_back(static_cast<int>(i));
  }
  return leaves;
}

}  // namespace bltc
