#include "exec/executor.h"

#include <algorithm>
#include <type_traits>
#include <unordered_map>

#include "db/column.h"
#include "util/check.h"

namespace lc {

namespace {

// Rows are selected and joined one block at a time, so the scratch stays
// L1-sized however large the table is.
constexpr uint32_t kBlockRows = 2048;

// Branch-free Predicate::Matches: NULL never matches. The NULL test is
// what keeps `kNullValue < literal` (and `kNullValue == INT32_MIN`) out.
template <CompareOp kOp>
inline uint32_t Match(int32_t value, int32_t literal) {
  bool hit;
  if constexpr (kOp == CompareOp::kEq) {
    hit = value == literal;
  } else if constexpr (kOp == CompareOp::kLt) {
    hit = value < literal;
  } else {
    hit = value > literal;
  }
  return static_cast<uint32_t>((value != kNullValue) & hit);
}

// Writes the ids of the rows in [begin, end) that match to `rows`.
template <CompareOp kOp>
uint32_t SelectRange(const int32_t* values, int32_t literal, uint32_t begin,
                     uint32_t end, uint32_t* rows) {
  uint32_t count = 0;
  for (uint32_t row = begin; row < end; ++row) {
    rows[count] = row;
    count += Match<kOp>(values[row], literal);
  }
  return count;
}

// Keeps the rows among `rows[0, count)` that match, in order.
template <CompareOp kOp>
uint32_t FilterRows(const int32_t* values, int32_t literal, uint32_t* rows,
                    uint32_t count) {
  uint32_t kept = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t row = rows[i];
    rows[kept] = row;
    kept += Match<kOp>(values[row], literal);
  }
  return kept;
}

// Calls `fn` with `op` as a compile-time constant, so each operator runs
// its own branch-free loop.
template <typename Fn>
uint32_t WithOp(CompareOp op, Fn&& fn) {
  switch (op) {
    case CompareOp::kEq:
      return fn(std::integral_constant<CompareOp, CompareOp::kEq>{});
    case CompareOp::kLt:
      return fn(std::integral_constant<CompareOp, CompareOp::kLt>{});
    case CompareOp::kGt:
      return fn(std::integral_constant<CompareOp, CompareOp::kGt>{});
  }
  return 0;
}

// Fraction of `column`'s rows that `predicate` is expected to keep, from
// the column statistics. It only orders the predicates, so a rough value
// is enough; the counts never depend on it.
double EstimatedSelectivity(const Column& column, const Predicate& predicate) {
  if (!column.finalized() || column.size() == 0) return 1.0;
  const double low = column.min_value();
  const double high = column.max_value();
  const double width = high - low + 1.0;
  double fraction = 1.0;
  switch (predicate.op) {
    case CompareOp::kEq:
      fraction = 1.0 / static_cast<double>(
                           std::max<int64_t>(1, column.distinct_count()));
      break;
    case CompareOp::kLt:
      fraction = (predicate.literal - low) / width;
      break;
    case CompareOp::kGt:
      fraction = (high - predicate.literal) / width;
      break;
  }
  return (1.0 - column.null_fraction()) * std::clamp(fraction, 0.0, 1.0);
}

// One table's predicates bound to their raw columns, tightest first.
class TableFilter {
 public:
  TableFilter(const Table& table, TableId table_id,
              const std::vector<Predicate>& predicates) {
    terms_.reserve(predicates.size());
    for (const Predicate& predicate : predicates) {
      if (predicate.table != table_id) continue;
      const Column& column = table.column(predicate.column);
      terms_.push_back({column.raw_values().data(), predicate.op,
                        predicate.literal,
                        EstimatedSelectivity(column, predicate)});
    }
    std::stable_sort(terms_.begin(), terms_.end(),
                     [](const Term& a, const Term& b) {
                       return a.selectivity < b.selectivity;
                     });
  }

  /// Writes the ids of the qualifying rows in [begin, end) to `rows`, in
  /// ascending order, and returns how many there are.
  uint32_t Select(uint32_t begin, uint32_t end, uint32_t* rows) const {
    if (terms_.empty()) {
      for (uint32_t row = begin; row < end; ++row) rows[row - begin] = row;
      return end - begin;
    }
    const Term& first = terms_.front();
    uint32_t count = WithOp(first.op, [&](auto op) {
      return SelectRange<op()>(first.values, first.literal, begin, end, rows);
    });
    for (size_t t = 1; t < terms_.size() && count > 0; ++t) {
      const Term& term = terms_[t];
      count = WithOp(term.op, [&](auto op) {
        return FilterRows<op()>(term.values, term.literal, rows, count);
      });
    }
    return count;
  }

 private:
  struct Term {
    const int32_t* values;
    CompareOp op;
    int32_t literal;
    double selectivity;
  };
  std::vector<Term> terms_;
};

// A key -> count map that switches to a dense array when the key domain is
// compact (e.g. title ids), which it almost always is for PK-FK joins.
// Reset() keeps the storage, so a map reused from query to query stops
// allocating once it has seen its largest key domain.
class CountMap {
 public:
  void Reset(int32_t min_key, int32_t max_key, size_t expected_entries) {
    const int64_t span =
        static_cast<int64_t>(max_key) - static_cast<int64_t>(min_key) + 1;
    sparse_counts_.clear();
    // Dense pays off whenever the domain is not wildly larger than the data.
    dense_ =
        span > 0 && span <= 8 * static_cast<int64_t>(expected_entries) + 1024;
    if (dense_) {
      base_ = min_key;
      dense_counts_.assign(static_cast<size_t>(span), 0);
    } else {
      sparse_counts_.reserve(expected_entries);
    }
  }

  /// Adds `weights[i]` (1 when `weights` is null) under the key
  /// `keys[rows[i]]` for each i < count; NULL keys are dropped.
  void AddRows(const int32_t* keys, const uint32_t* rows,
               const int64_t* weights, uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      const int32_t key = keys[rows[i]];
      if (key == kNullValue) continue;
      const int64_t weight = weights == nullptr ? 1 : weights[i];
      if (dense_) {
        dense_counts_[static_cast<size_t>(key - base_)] += weight;
      } else if (weight != 0) {
        sparse_counts_[key] += weight;
      }
    }
  }

  /// Multiplies `weights[i]` by the count under `keys[rows[i]]` for each
  /// i < count, or sets it when `first`. Absent and NULL keys count 0.
  void MultiplyRows(const int32_t* keys, const uint32_t* rows, uint32_t count,
                    bool first, int64_t* weights) const {
    for (uint32_t i = 0; i < count; ++i) {
      const int64_t found = Get(keys[rows[i]]);
      weights[i] = first ? found : weights[i] * found;
    }
  }

 private:
  int64_t Get(int32_t key) const {
    if (dense_) {
      const uint64_t index = static_cast<uint64_t>(static_cast<int64_t>(key) -
                                                   static_cast<int64_t>(base_));
      return index < dense_counts_.size() ? dense_counts_[index] : 0;
    }
    const auto it = sparse_counts_.find(key);
    return it == sparse_counts_.end() ? 0 : it->second;
  }

  bool dense_ = false;
  int32_t base_ = 0;
  std::vector<int64_t> dense_counts_;
  std::unordered_map<int32_t, int64_t> sparse_counts_;
};

// Per-thread working memory of Cardinality/CountSelected: one block of row
// ids and weights, and one message per query table. Nothing here outlives
// a call logically; it is kept only so the next call skips the allocation.
struct Scratch {
  std::vector<uint32_t> rows = std::vector<uint32_t>(kBlockRows);
  std::vector<int64_t> weights = std::vector<int64_t>(kBlockRows);
  std::vector<CountMap> messages;
};

Scratch& LocalScratch() {
  static thread_local Scratch scratch;
  return scratch;
}

}  // namespace

Executor::Executor(const Database* db) : db_(db) { LC_CHECK(db != nullptr); }

int64_t Executor::CountSelected(
    TableId table, const std::vector<Predicate>& predicates) const {
  for (const Predicate& predicate : predicates) {
    LC_DCHECK_EQ(predicate.table, table);
  }
  const Table& data = db_->table(table);
  const uint32_t rows = static_cast<uint32_t>(data.num_rows());
  if (predicates.empty()) return rows;
  const TableFilter filter(data, table, predicates);
  uint32_t* selected = LocalScratch().rows.data();
  int64_t count = 0;
  for (uint32_t begin = 0; begin < rows; begin += kBlockRows) {
    count += filter.Select(begin, std::min(rows, begin + kBlockRows),
                           selected);
  }
  return count;
}

int64_t Executor::Cardinality(const Query& query) const {
  LC_CHECK(!query.tables.empty());
  const Schema& schema = db_->schema();

  if (query.num_tables() == 1) {
    LC_CHECK(query.joins.empty());
    return CountSelected(query.tables[0], query.predicates);
  }

  // The join graph must form a tree over the query's tables.
  LC_CHECK_EQ(query.num_joins(), query.num_tables() - 1)
      << "join graph must be a tree";

  // Local node indices.
  std::unordered_map<TableId, int> node_of;
  for (int i = 0; i < query.num_tables(); ++i) node_of[query.tables[i]] = i;
  struct Neighbor {
    int node;
    int edge;  // Schema edge index.
  };
  std::vector<std::vector<Neighbor>> adjacency(query.tables.size());
  for (int join : query.joins) {
    const JoinEdgeDef& edge = schema.join_edge(join);
    const auto left = node_of.find(edge.left_table);
    const auto right = node_of.find(edge.right_table);
    LC_CHECK(left != node_of.end() && right != node_of.end())
        << "join references table outside the query";
    adjacency[static_cast<size_t>(left->second)].push_back(
        {right->second, join});
    adjacency[static_cast<size_t>(right->second)].push_back(
        {left->second, join});
  }

  // Iterative post-order DFS from node 0; also validates connectivity.
  struct Visit {
    int node;
    int parent;
    int parent_edge;  // Schema edge index connecting to the parent, or -1.
  };
  std::vector<Visit> order;
  std::vector<bool> seen(query.tables.size(), false);
  std::vector<Visit> stack = {{0, -1, -1}};
  seen[0] = true;
  while (!stack.empty()) {
    const Visit visit = stack.back();
    stack.pop_back();
    order.push_back(visit);
    for (const Neighbor& neighbor :
         adjacency[static_cast<size_t>(visit.node)]) {
      if (seen[static_cast<size_t>(neighbor.node)]) continue;
      seen[static_cast<size_t>(neighbor.node)] = true;
      stack.push_back({neighbor.node, visit.node, neighbor.edge});
    }
  }
  LC_CHECK_EQ(order.size(), query.tables.size())
      << "join graph must be connected";

  Scratch& scratch = LocalScratch();
  if (scratch.messages.size() < query.tables.size()) {
    scratch.messages.resize(query.tables.size());
  }
  uint32_t* selected = scratch.rows.data();
  int64_t* weights = scratch.weights.data();

  // Messages indexed by node; children appear after parents in `order`, so
  // processing in reverse yields post-order (children first).
  int64_t total = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Visit& visit = *it;
    const TableId table_id = query.tables[static_cast<size_t>(visit.node)];
    const Table& table = db_->table(table_id);
    const TableFilter filter(table, table_id, query.predicates);

    // Key columns this node matches against its children's messages.
    struct ChildRef {
      const int32_t* keys;
      const CountMap* message;
    };
    std::vector<ChildRef> children;
    for (const Neighbor& neighbor :
         adjacency[static_cast<size_t>(visit.node)]) {
      if (neighbor.node == visit.parent) continue;
      const JoinEdgeDef& edge = schema.join_edge(neighbor.edge);
      children.push_back(
          {table.column(edge.ColumnOf(table_id)).raw_values().data(),
           &scratch.messages[static_cast<size_t>(neighbor.node)]});
    }

    const bool is_root = visit.parent < 0;
    const int32_t* parent_keys = nullptr;
    CountMap* out_message = nullptr;
    if (!is_root) {
      const JoinEdgeDef& edge = schema.join_edge(visit.parent_edge);
      const Column& parent_column = table.column(edge.ColumnOf(table_id));
      LC_CHECK(parent_column.finalized());
      parent_keys = parent_column.raw_values().data();
      out_message = &scratch.messages[static_cast<size_t>(visit.node)];
      out_message->Reset(parent_column.min_value(), parent_column.max_value(),
                         table.num_rows());
    }

    // A row's weight is the product of its children's counts under its
    // keys; a leaf's rows weigh 1 each (null weights).
    const int64_t* row_weights = children.empty() ? nullptr : weights;
    const uint32_t rows = static_cast<uint32_t>(table.num_rows());
    for (uint32_t begin = 0; begin < rows; begin += kBlockRows) {
      const uint32_t count =
          filter.Select(begin, std::min(rows, begin + kBlockRows), selected);
      for (size_t c = 0; c < children.size(); ++c) {
        children[c].message->MultiplyRows(children[c].keys, selected, count,
                                          /*first=*/c == 0, weights);
      }
      if (is_root) {
        if (row_weights == nullptr) {
          total += count;
        } else {
          for (uint32_t i = 0; i < count; ++i) total += row_weights[i];
        }
      } else {
        out_message->AddRows(parent_keys, selected, row_weights, count);
      }
    }
  }
  return total;
}

int64_t BruteForceCardinality(const Database& db, const Query& query) {
  const Schema& schema = db.schema();
  const int k = query.num_tables();
  LC_CHECK_GT(k, 0);
  std::vector<uint32_t> assignment(static_cast<size_t>(k), 0);

  // Recursive enumeration with early predicate/join checks.
  struct Enumerator {
    const Database& db;
    const Schema& schema;
    const Query& query;
    std::vector<uint32_t>& assignment;
    int64_t count = 0;

    bool JoinsConsistent(int bound) const {
      for (int join : query.joins) {
        const JoinEdgeDef& edge = schema.join_edge(join);
        int left_pos = -1;
        int right_pos = -1;
        for (int i = 0; i < bound; ++i) {
          if (query.tables[static_cast<size_t>(i)] == edge.left_table) {
            left_pos = i;
          }
          if (query.tables[static_cast<size_t>(i)] == edge.right_table) {
            right_pos = i;
          }
        }
        if (left_pos < 0 || right_pos < 0) continue;
        const int32_t left_value =
            db.table(edge.left_table)
                .column(edge.left_column)
                .raw(assignment[static_cast<size_t>(left_pos)]);
        const int32_t right_value =
            db.table(edge.right_table)
                .column(edge.right_column)
                .raw(assignment[static_cast<size_t>(right_pos)]);
        if (left_value == kNullValue || right_value == kNullValue ||
            left_value != right_value) {
          return false;
        }
      }
      return true;
    }

    void Recurse(int depth) {
      if (depth == static_cast<int>(query.tables.size())) {
        ++count;
        return;
      }
      const TableId table_id = query.tables[static_cast<size_t>(depth)];
      const Table& table = db.table(table_id);
      const std::vector<Predicate> predicates =
          query.PredicatesFor(table_id);
      for (uint32_t row = 0; row < table.num_rows(); ++row) {
        bool matches = true;
        for (const Predicate& predicate : predicates) {
          if (!predicate.Matches(table.column(predicate.column).raw(row))) {
            matches = false;
            break;
          }
        }
        if (!matches) continue;
        assignment[static_cast<size_t>(depth)] = row;
        if (!JoinsConsistent(depth + 1)) continue;
        Recurse(depth + 1);
      }
    }
  };

  Enumerator enumerator{db, schema, query, assignment};
  enumerator.Recurse(0);
  return enumerator.count;
}

}  // namespace lc
