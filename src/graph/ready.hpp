// Indegree / ready-set utilities for list schedulers.
//
// A list scheduler repeatedly asks "which nodes have every predecessor
// finished?". Rescanning all pending nodes each round costs O(V^2 * deg)
// over a whole schedule; ReadyTracker answers it incrementally: snapshot
// the indegrees once, then each complete() decrements the counters of the
// node's successors and hands back exactly the nodes that just became
// ready — O(V + E) total across the run.
//
// The snapshot's successor CSR is immutable and shared: copying a
// tracker copies only its counters, so a scheduler that keeps one pristine
// tracker per problem starts each run for the price of two flat arrays.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/digraph.hpp"
#include "util/error.hpp"

namespace pdr::graph {

/// Live-edge indegree of every node, indexed by NodeId (dead slots 0).
template <typename V, typename E>
std::vector<std::size_t> indegree_counts(const Digraph<V, E>& g) {
  std::vector<std::size_t> indeg(g.node_capacity(), 0);
  for (NodeId n = 0; n < indeg.size(); ++n)
    if (g.valid(n)) indeg[n] = g.in_degree(n);
  return indeg;
}

/// Incremental ready-set over a DAG snapshot. Construction captures
/// indegrees and successor lists (flattened CSR — one allocation, not one
/// vector per node, shared by every copy); complete(n) returns the
/// successors whose last outstanding predecessor was n. Completing every
/// node exactly once visits each edge exactly once; completing a node
/// twice is a checked error, since the second completion would decrement
/// successor indegrees again and surface nodes as ready before their real
/// predecessors finished.
class ReadyTracker {
 public:
  template <typename V, typename E>
  explicit ReadyTracker(const Digraph<V, E>& g) {
    // Indegrees and the successor CSR come from two sequential edge
    // scans instead of a per-node adjacency chase. Per-node out-lists
    // hold ascending edge ids, so scanning edges in id order fills each
    // CSR row in exactly the order for_each_successor would visit.
    const std::size_t cap = g.node_capacity();
    auto csr = std::make_shared<Csr>();
    indeg_.assign(cap, 0);
    completed_.assign(cap, 0);
    csr->offset.assign(cap + 1, 0);
    g.for_each_live_edge([&](EdgeId, NodeId from, NodeId to) {
      ++indeg_[to];
      ++csr->offset[from + 1];
    });
    for (std::size_t n = 0; n < cap; ++n) csr->offset[n + 1] += csr->offset[n];
    csr->succ.resize(csr->offset[cap]);
    std::vector<std::size_t> cursor(csr->offset.begin(), csr->offset.end() - 1);
    g.for_each_live_edge([&](EdgeId, NodeId from, NodeId to) { csr->succ[cursor[from]++] = to; });
    for (NodeId n = 0; n < cap; ++n) {
      if (!g.valid(n)) continue;
      if (indeg_[n] == 0) csr->initial.push_back(n);
      ++remaining_;
    }
    csr->total = remaining_;
    csr_ = std::move(csr);
  }

  /// Nodes ready before any completion (indegree 0), in id order.
  const std::vector<NodeId>& initial() const { return csr_->initial; }

  /// Marks `n` complete, appending the successors that just became ready
  /// to `newly_ready` (not cleared — callers reuse one buffer across the
  /// run to stay allocation-free). Each node must be completed exactly
  /// once; a double complete is a PDR_CHECK failure.
  void complete(NodeId n, std::vector<NodeId>& newly_ready) {
    PDR_CHECK(n < indeg_.size(), "ReadyTracker::complete", "node does not exist");
    PDR_CHECK(remaining_ > 0, "ReadyTracker::complete", "all nodes already completed");
    PDR_CHECK(!completed_[n], "ReadyTracker::complete", "node completed twice");
    completed_[n] = 1;
    --remaining_;
    const Csr& csr = *csr_;
    for (std::size_t i = csr.offset[n]; i < csr.offset[n + 1]; ++i) {
      const NodeId s = csr.succ[i];
      PDR_CHECK(indeg_[s] > 0, "ReadyTracker::complete",
                "successor completed before its predecessor");
      if (--indeg_[s] == 0) newly_ready.push_back(s);
    }
  }

  /// Marks `n` complete; returns the successors that just became ready.
  std::vector<NodeId> complete(NodeId n) {
    std::vector<NodeId> newly_ready;
    complete(n, newly_ready);
    return newly_ready;
  }

  /// True once `n` has been completed.
  bool is_completed(NodeId n) const { return n < completed_.size() && completed_[n] != 0; }

  /// Per-node "distance to sink" over the snapshot — the same values as
  /// Digraph::critical_path_remainder (max over identical successor sets
  /// is permutation-independent), computed from the tracker's flattened
  /// CSR so a scheduler that already built a tracker pays no second
  /// adjacency chase. Requires a pristine tracker: the counters must
  /// still hold the snapshot indegrees, so call before any complete().
  template <typename Weight>
  std::vector<double> critical_path_remainder(const Weight& weight) const {
    const Csr& csr = *csr_;
    PDR_CHECK(remaining_ == csr.total, "ReadyTracker::critical_path_remainder",
              "tracker already partially consumed");
    std::vector<std::uint32_t> indeg(indeg_);
    std::vector<NodeId> order;
    order.reserve(csr.total);
    order.insert(order.end(), csr.initial.begin(), csr.initial.end());
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId n = order[head];
      for (std::size_t i = csr.offset[n]; i < csr.offset[n + 1]; ++i)
        if (--indeg[csr.succ[i]] == 0) order.push_back(csr.succ[i]);
    }
    PDR_CHECK(order.size() == csr.total, "ReadyTracker::critical_path_remainder",
              "graph has a cycle");
    std::vector<double> dist(indeg_.size(), 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId n = *it;
      double best = 0.0;
      for (std::size_t i = csr.offset[n]; i < csr.offset[n + 1]; ++i)
        best = std::max(best, dist[csr.succ[i]]);
      dist[n] = weight(n) + best;
    }
    return dist;
  }

  /// Nodes not yet completed.
  std::size_t remaining() const { return remaining_; }
  bool done() const { return remaining_ == 0; }

 private:
  /// The snapshot's immutable part, shared by every copy.
  struct Csr {
    std::vector<std::size_t> offset;  ///< row offsets into succ
    std::vector<NodeId> succ;         ///< flattened successor lists
    std::vector<NodeId> initial;
    std::size_t total = 0;  ///< live nodes in the snapshot
  };

  std::shared_ptr<const Csr> csr_;
  std::vector<std::uint32_t> indeg_;  ///< outstanding predecessors
  std::vector<char> completed_;
  std::size_t remaining_ = 0;
};

/// A set of ranks in [0, n) that pops its smallest first: one bit per
/// rank plus one summary bit per word on each level above, so push and
/// pop cost a few word operations per level (log64 n levels), where a
/// binary heap takes a data-dependent branch per level of log2 n. A list
/// scheduler whose priorities are fixed per problem numbers its nodes by
/// priority once and keeps its ready set here.
class RankQueue {
 public:
  explicit RankQueue(std::size_t n) {
    do {
      n = (n + 63) / 64;
      levels_.emplace_back(std::max<std::size_t>(n, 1), 0);
    } while (n > 1);
  }

  bool empty() const { return levels_.back()[0] == 0; }

  /// Adds `rank` (< n); adding a rank already present changes nothing.
  void push(std::uint32_t rank) {
    for (std::vector<std::uint64_t>& level : levels_) {
      level[rank >> 6] |= std::uint64_t{1} << (rank & 63);
      rank >>= 6;
    }
  }

  /// Removes and returns the smallest rank. The queue must not be empty.
  std::uint32_t pop() {
    std::uint32_t rank = 0;
    for (std::size_t l = levels_.size(); l-- > 0;)
      rank = (rank << 6) | static_cast<std::uint32_t>(std::countr_zero(levels_[l][rank]));
    // Clear the rank's bit, and each summary bit whose word it emptied.
    for (std::uint32_t r = rank; std::vector<std::uint64_t>& level : levels_) {
      std::uint64_t& word = level[r >> 6];
      word &= ~(std::uint64_t{1} << (r & 63));
      if (word != 0) break;
      r >>= 6;
    }
    return rank;
  }

 private:
  std::vector<std::vector<std::uint64_t>> levels_;  ///< levels_[0]: one bit per rank
};

}  // namespace pdr::graph
