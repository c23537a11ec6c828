#include "bench/rescan_reference.hpp"

#include <algorithm>
#include <vector>

#include "aaa/scheduler.hpp"
#include "util/error.hpp"

namespace pdr::bench {

aaa::Schedule schedule_rescan_reference(const aaa::Adequation& adequation,
                                        const aaa::AdequationOptions& options) {
  aaa::Scheduler scheduler(adequation, options);
  const auto& g = adequation.algorithm().digraph();
  const bool by_priority = options.strategy == aaa::MappingStrategy::SynDExList;
  // Priorities straight from the digraph: the same values as the
  // problem's tracker-CSR walk (max over identical successor sets), by a
  // different code path, which is what an oracle should exercise.
  const std::vector<double> remainder =
      by_priority ? g.critical_path_remainder(
                        [&](graph::NodeId n) { return scheduler.problem().weight(n); })
                  : std::vector<double>{};
  std::vector<char> done(g.node_capacity(), 0);
  std::vector<graph::NodeId> pending = g.node_ids();
  while (!pending.empty()) {
    graph::NodeId best_op = graph::kNoNode;
    double best_prio = -1;
    for (graph::NodeId n : pending) {
      bool is_ready = true;
      g.for_each_predecessor(n, [&](graph::NodeId p) {
        if (!done[p]) is_ready = false;
      });
      if (!is_ready) continue;
      if (!by_priority) {
        best_op = n;
        break;
      }
      if (remainder[n] > best_prio) {
        best_prio = remainder[n];
        best_op = n;
      }
    }
    PDR_CHECK(best_op != graph::kNoNode, "schedule_rescan_reference", "no ready operation (cycle?)");
    scheduler.place(best_op);
    done[best_op] = 1;
    pending.erase(std::remove(pending.begin(), pending.end(), best_op), pending.end());
  }
  return scheduler.finish();
}

}  // namespace pdr::bench
