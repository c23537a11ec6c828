#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "graph/ready.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdr::graph {
namespace {

using G = Digraph<int, int>;

G diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3
  G g;
  const NodeId a = g.add_node(0);
  const NodeId b = g.add_node(1);
  const NodeId c = g.add_node(2);
  const NodeId d = g.add_node(3);
  g.add_edge(a, b, 0);
  g.add_edge(a, c, 0);
  g.add_edge(b, d, 0);
  g.add_edge(c, d, 0);
  return g;
}

TEST(Digraph, AddAndAccess) {
  G g;
  const NodeId n = g.add_node(42);
  EXPECT_EQ(g[n], 42);
  g[n] = 7;
  EXPECT_EQ(g[n], 7);
  EXPECT_EQ(g.node_count(), 1u);
}

TEST(Digraph, EdgeEndpoints) {
  G g;
  const NodeId a = g.add_node(1);
  const NodeId b = g.add_node(2);
  const EdgeId e = g.add_edge(a, b, 9);
  EXPECT_EQ(g.edge(e), 9);
  EXPECT_EQ(g.edge_from(e), a);
  EXPECT_EQ(g.edge_to(e), b);
}

TEST(Digraph, SuccessorsPredecessors) {
  G g = diamond();
  EXPECT_EQ(g.successors(0).size(), 2u);
  EXPECT_EQ(g.predecessors(3).size(), 2u);
  EXPECT_TRUE(g.predecessors(0).empty());
}

TEST(Digraph, RemoveNodeTombstonesEdges) {
  G g = diamond();
  g.remove_node(1);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.successors(0).size(), 1u);
  EXPECT_EQ(g.predecessors(3).size(), 1u);
  EXPECT_THROW(g[1], Error);
}

TEST(Digraph, RemoveEdge) {
  G g = diamond();
  const auto edges = g.out_edges(0);
  g.remove_edge(edges[0]);
  EXPECT_EQ(g.successors(0).size(), 1u);
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(Digraph, AddEdgeToMissingNodeThrows) {
  G g;
  const NodeId a = g.add_node(0);
  EXPECT_THROW(g.add_edge(a, 99, 0), Error);
}

TEST(Digraph, TopologicalOrderOfDag) {
  G g = diamond();
  const auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 4u);
  auto pos = [&](NodeId n) {
    return std::find(order->begin(), order->end(), n) - order->begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
}

TEST(Digraph, CycleHasNoTopologicalOrder) {
  G g;
  const NodeId a = g.add_node(0);
  const NodeId b = g.add_node(1);
  g.add_edge(a, b, 0);
  g.add_edge(b, a, 0);
  EXPECT_FALSE(g.topological_order().has_value());
  EXPECT_FALSE(g.is_acyclic());
}

TEST(Digraph, RemovingEdgeBreaksCycle) {
  G g;
  const NodeId a = g.add_node(0);
  const NodeId b = g.add_node(1);
  g.add_edge(a, b, 0);
  const EdgeId back = g.add_edge(b, a, 0);
  g.remove_edge(back);
  EXPECT_TRUE(g.is_acyclic());
}

TEST(Digraph, CriticalPathRemainder) {
  G g = diamond();
  // weights: node id + 1 -> path 0-2-3: 1+3+4 = 8.
  const auto dist = g.critical_path_remainder([&](NodeId n) { return static_cast<double>(g[n] + 1); });
  EXPECT_DOUBLE_EQ(dist[3], 4.0);
  EXPECT_DOUBLE_EQ(dist[2], 7.0);
  EXPECT_DOUBLE_EQ(dist[1], 6.0);
  EXPECT_DOUBLE_EQ(dist[0], 8.0);
}

TEST(Digraph, CriticalPathThrowsOnCycle) {
  G g;
  const NodeId a = g.add_node(0);
  const NodeId b = g.add_node(1);
  g.add_edge(a, b, 0);
  g.add_edge(b, a, 0);
  EXPECT_THROW(g.critical_path_remainder([](NodeId) { return 1.0; }), Error);
}

TEST(Digraph, ReachableFrom) {
  G g = diamond();
  const auto reach = g.reachable_from(0);
  EXPECT_EQ(reach.size(), 3u);
  EXPECT_TRUE(g.reachable_from(3).empty());
}

TEST(Digraph, NodeIdsSkipTombstones) {
  G g = diamond();
  g.remove_node(2);
  const auto ids = g.node_ids();
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 2u) == ids.end());
}

/// Property: random DAGs (edges only forward) always topo-sort, and every
/// edge is consistent with the order.
class RandomDagTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagTest, TopologicalOrderConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  G g;
  const int n = 30;
  for (int i = 0; i < n; ++i) g.add_node(i);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.chance(0.1)) g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j), 0);

  const auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  std::vector<int> pos(n);
  for (std::size_t k = 0; k < order->size(); ++k) pos[(*order)[k]] = static_cast<int>(k);
  for (EdgeId e : g.edge_ids()) EXPECT_LT(pos[g.edge_from(e)], pos[g.edge_to(e)]);

  const auto dist = g.critical_path_remainder([](NodeId) { return 1.0; });
  for (EdgeId e : g.edge_ids()) EXPECT_GT(dist[g.edge_from(e)], dist[g.edge_to(e)]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTest, ::testing::Range(0, 12));

TEST(ReadyTracker, DiamondCompletesInDependencyOrder) {
  const G g = diamond();
  ReadyTracker tracker(g);
  ASSERT_EQ(tracker.initial().size(), 1u);
  EXPECT_EQ(tracker.initial()[0], 0u);
  EXPECT_EQ(tracker.remaining(), 4u);

  auto ready = tracker.complete(0);  // unlocks both branches
  EXPECT_EQ(ready, (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(tracker.complete(1).empty());  // 3 still waits on 2
  EXPECT_EQ(tracker.complete(2), (std::vector<NodeId>{3}));
  EXPECT_TRUE(tracker.complete(3).empty());
  EXPECT_TRUE(tracker.done());
}

TEST(ReadyTracker, ParallelEdgesCountAsSeparatePredecessors) {
  G g;
  const NodeId a = g.add_node(0);
  const NodeId b = g.add_node(1);
  g.add_edge(a, b, 0);
  g.add_edge(a, b, 0);  // duplicate in-edge: indegree 2, one completer
  ReadyTracker tracker(g);
  const auto indeg = indegree_counts(g);
  EXPECT_EQ(indeg[b], 2u);
  // a's successor list yields b twice; both decrements happen in one
  // complete(), so b becomes ready exactly once.
  const auto ready = tracker.complete(a);
  EXPECT_EQ(ready, (std::vector<NodeId>{b}));
}

TEST(ReadyTracker, RefusesOverCompletion) {
  G g;
  const NodeId a = g.add_node(0);
  const NodeId b = g.add_node(1);
  g.add_edge(a, b, 0);
  ReadyTracker tracker(g);
  tracker.complete(a);
  // A second completion would decrement b's already-zero counter.
  EXPECT_THROW(tracker.complete(a), pdr::Error);
}

TEST(ReadyTracker, RefusesDoubleCompleteEvenWithPredecessorsOutstanding) {
  // The subtle variant of over-completion: c waits on BOTH a and b.
  // Before the completed bitmap, completing a twice silently drained c's
  // counter and surfaced c as ready while b was still outstanding — no
  // throw, a corrupted schedule. Now the second complete(a) itself throws
  // and c stays un-ready.
  G g;
  const NodeId a = g.add_node(0);
  const NodeId b = g.add_node(1);
  const NodeId c = g.add_node(2);
  g.add_edge(a, c, 0);
  g.add_edge(b, c, 0);
  ReadyTracker tracker(g);
  EXPECT_TRUE(tracker.complete(a).empty());
  EXPECT_TRUE(tracker.is_completed(a));
  EXPECT_FALSE(tracker.is_completed(c));
  EXPECT_THROW(tracker.complete(a), pdr::Error);
  // The failed call must not have decremented c: completing b (the real
  // remaining predecessor) releases c exactly once.
  EXPECT_EQ(tracker.complete(b), (std::vector<NodeId>{c}));
  EXPECT_TRUE(tracker.complete(c).empty());
  EXPECT_TRUE(tracker.done());
}

TEST(ReadyTracker, MatchesRescanOnRandomDags) {
  // Property: driving the tracker to exhaustion visits every node exactly
  // once, and a node only surfaces after all its predecessors.
  Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    G g;
    const int n = 30;
    for (int i = 0; i < n; ++i) g.add_node(i);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.chance(0.08)) g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j), 0);

    ReadyTracker tracker(g);
    std::vector<NodeId> queue = tracker.initial();
    std::vector<bool> seen(n, false);
    std::size_t completed = 0;
    while (!queue.empty()) {
      const NodeId x = queue.back();
      queue.pop_back();
      EXPECT_FALSE(seen[x]);
      for (EdgeId e : g.in_edges(x)) EXPECT_TRUE(seen[g.edge_from(e)] || g.edge_from(e) == x);
      seen[x] = true;
      ++completed;
      for (NodeId s : tracker.complete(x)) queue.push_back(s);
    }
    EXPECT_EQ(completed, g.node_count());
    EXPECT_TRUE(tracker.done());
  }
}

TEST(ReadyTracker, CopiesShareTheSnapshotButNotTheCounters) {
  const G g = diamond();
  const ReadyTracker pristine(g);
  ReadyTracker run(pristine);
  EXPECT_EQ(run.complete(0), (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(run.complete(1).empty());
  // The pristine tracker saw none of it, and a second copy starts over.
  EXPECT_EQ(pristine.remaining(), 4u);
  EXPECT_FALSE(pristine.is_completed(0));
  ReadyTracker again(pristine);
  EXPECT_EQ(again.initial(), (std::vector<NodeId>{0}));
  EXPECT_EQ(again.complete(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(run.complete(2), (std::vector<NodeId>{3}));
  const auto dist = pristine.critical_path_remainder([](NodeId) { return 1.0; });
  EXPECT_EQ(dist[0], 3.0);
}

TEST(RankQueue, PopsTheSmallestRankFirst) {
  // Sizes around each level boundary: one word, two, a second summary
  // level, a third.
  Rng rng(77);
  for (const std::size_t n : {std::size_t{1}, std::size_t{64}, std::size_t{65}, std::size_t{4096},
                              std::size_t{4097}, std::size_t{300'000}}) {
    RankQueue queue(n);
    std::set<std::uint32_t> reference;
    EXPECT_TRUE(queue.empty());
    for (int step = 0; step < 4000; ++step) {
      if (reference.empty() || rng.chance(0.55)) {
        const auto rank = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        queue.push(rank);
        reference.insert(rank);
      } else {
        ASSERT_EQ(queue.pop(), *reference.begin()) << "n " << n << " step " << step;
        reference.erase(reference.begin());
      }
      ASSERT_EQ(queue.empty(), reference.empty());
    }
    while (!reference.empty()) {
      ASSERT_EQ(queue.pop(), *reference.begin());
      reference.erase(reference.begin());
    }
    EXPECT_TRUE(queue.empty());
    queue.push(static_cast<std::uint32_t>(n - 1));  // the largest rank fits
    EXPECT_EQ(queue.pop(), n - 1);
  }
}

TEST(Dot, RendersNodesAndEdges) {
  const std::string dot = to_dot("g", {{"a", "A", "box", ""}, {"b", "B", "ellipse", "red"}},
                                 {{"a", "b", "lbl", true}});
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
  EXPECT_NE(dot.find("a -> b"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=\"red\""), std::string::npos);
}

TEST(Dot, EscapesQuotes) {
  const std::string dot = to_dot("g", {{"a", "say \"hi\"", "box", ""}}, {});
  EXPECT_NE(dot.find("\\\"hi\\\""), std::string::npos);
}

}  // namespace
}  // namespace pdr::graph
