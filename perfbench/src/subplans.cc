#include "subplans.h"

#include <cstdint>

#include "util/check.h"

namespace perfbench {

std::vector<lc::Query> ConnectedSubplans(const lc::Query& query,
                                         const lc::Schema& schema) {
  const size_t n = query.tables.size();
  LC_CHECK_LE(n, 16u) << "sub-plan enumeration is exponential in tables";
  // Join edges as pairs of positions in query.tables.
  std::vector<std::pair<size_t, size_t>> edges;
  for (const int join : query.joins) {
    const lc::JoinEdgeDef& edge = schema.join_edge(join);
    size_t left = n;
    size_t right = n;
    for (size_t i = 0; i < n; ++i) {
      if (query.tables[i] == edge.left_table) left = i;
      if (query.tables[i] == edge.right_table) right = i;
    }
    LC_CHECK(left < n && right < n) << "join touches a table not in query";
    edges.emplace_back(left, right);
  }

  std::vector<lc::Query> plans;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    // Flood-fill from the lowest table through joins inside the subset.
    uint32_t reached = mask & (~mask + 1);
    for (bool grew = true; grew;) {
      grew = false;
      for (const auto& [a, b] : edges) {
        const uint32_t bits = (1u << a) | (1u << b);
        if ((mask & bits) == bits && (reached & bits) != 0 &&
            (reached & bits) != bits) {
          reached |= bits;
          grew = true;
        }
      }
    }
    if (reached != mask) continue;

    lc::Query plan;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) plan.tables.push_back(query.tables[i]);
    }
    for (size_t e = 0; e < edges.size(); ++e) {
      if (((mask >> edges[e].first) & 1u) && ((mask >> edges[e].second) & 1u)) {
        plan.joins.push_back(query.joins[e]);
      }
    }
    for (const lc::Predicate& predicate : query.predicates) {
      if (plan.UsesTable(predicate.table)) {
        plan.predicates.push_back(predicate);
      }
    }
    plan.Canonicalize();
    plans.push_back(std::move(plan));
  }
  return plans;
}

}  // namespace perfbench
