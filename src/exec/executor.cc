#include "exec/executor.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "db/column.h"
#include "exec/select.h"
#include "util/check.h"

namespace lc {

namespace {

using internal::kBlockRows;
using internal::SelectKernels;

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
              const std::vector<Predicate>& predicates)
      // The AVX-512 kernels gather with signed 32-bit row ids.
      : kernels_(table.num_rows() <= std::numeric_limits<int32_t>::max()
                     ? &internal::ActiveSelectKernels()
                     : &internal::ScalarSelectKernels()) {
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
    uint32_t count = kernels_->select_range(first.op, first.values,
                                            first.literal, begin, end, rows);
    for (size_t t = 1; t < terms_.size() && count > 0; ++t) {
      const Term& term = terms_[t];
      count = kernels_->filter_rows(term.op, term.values, term.literal, rows,
                                    count);
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
  const SelectKernels* kernels_;
  std::vector<Term> terms_;
};

// Whether a key span is worth a dense array for `entries` keys: when the
// domain is not wildly larger than the data.
bool DenseSpan(int64_t span, size_t entries) {
  return span > 0 && span <= 8 * static_cast<int64_t>(entries) + 1024;
}

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
    dense_ = DenseSpan(span, expected_entries);
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

// The number of rows under each key of `column`, dense over
// [min_value, max_value]: the message a leaf without predicates sends over
// that column. Empty when the column holds no keys, is not finalized, or
// spans too sparse a domain for a dense array.
std::vector<int32_t> KeyDegrees(const Column& column) {
  constexpr size_t kMaxRows = std::numeric_limits<int32_t>::max();
  if (!column.finalized() || column.non_null_count() == 0 ||
      column.size() > kMaxRows) {
    return {};
  }
  const int32_t base = column.min_value();
  const int64_t span = static_cast<int64_t>(column.max_value()) - base + 1;
  if (!DenseSpan(span, column.size())) return {};
  std::vector<int32_t> counts(static_cast<size_t>(span), 0);
  for (const int32_t key : column.raw_values()) {
    if (key == kNullValue) continue;
    ++counts[static_cast<size_t>(static_cast<int64_t>(key) - base)];
  }
  return counts;
}

// Multiplies `weights[i]` by the degree of `keys[rows[i]]` for each
// i < count, or sets it when `first`; CountMap::MultiplyRows over a
// precomputed message. Keys outside the span, NULL included, count 0.
void MultiplyByDegrees(const std::vector<int32_t>& counts, int32_t base,
                       const int32_t* keys, const uint32_t* rows,
                       uint32_t count, bool first, int64_t* weights) {
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t index = static_cast<uint64_t>(
        static_cast<int64_t>(keys[rows[i]]) - static_cast<int64_t>(base));
    const int64_t found = index < counts.size() ? counts[index] : 0;
    weights[i] = first ? found : weights[i] * found;
  }
}

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

Executor::Executor(const Database* db) : db_(db) {
  LC_CHECK(db != nullptr);
  const Schema& schema = db->schema();
  degrees_.resize(static_cast<size_t>(schema.num_tables()));
  for (TableId table = 0; table < schema.num_tables(); ++table) {
    degrees_[static_cast<size_t>(table)].resize(
        schema.table(table).columns.size());
  }
  for (int e = 0; e < schema.num_join_edges(); ++e) {
    const JoinEdgeDef& edge = schema.join_edge(e);
    const std::pair<TableId, int> sides[] = {
        {edge.left_table, edge.left_column},
        {edge.right_table, edge.right_column}};
    for (const auto& [table, column] : sides) {
      Degrees& degrees =
          degrees_[static_cast<size_t>(table)][static_cast<size_t>(column)];
      if (!degrees.counts.empty()) continue;  // Shared by several edges.
      const Column& data = db->table(table).column(column);
      degrees.counts = KeyDegrees(data);
      if (!degrees.counts.empty()) degrees.base = data.min_value();
    }
  }
}

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

  // A leaf without predicates sends the precomputed degrees of its join
  // column and is never scanned.
  std::vector<const Degrees*> precomputed(query.tables.size(), nullptr);
  for (const Visit& visit : order) {
    const size_t node = static_cast<size_t>(visit.node);
    if (visit.parent < 0 || adjacency[node].size() != 1) continue;
    const TableId table_id = query.tables[node];
    if (std::any_of(query.predicates.begin(), query.predicates.end(),
                    [&](const Predicate& predicate) {
                      return predicate.table == table_id;
                    })) {
      continue;
    }
    const int column = schema.join_edge(visit.parent_edge).ColumnOf(table_id);
    const Degrees& degrees =
        degrees_[static_cast<size_t>(table_id)][static_cast<size_t>(column)];
    if (!degrees.counts.empty()) precomputed[node] = &degrees;
  }

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
    if (precomputed[static_cast<size_t>(visit.node)] != nullptr) continue;
    const TableId table_id = query.tables[static_cast<size_t>(visit.node)];
    const Table& table = db_->table(table_id);
    const TableFilter filter(table, table_id, query.predicates);

    // Key columns this node matches against its children's messages, each
    // either precomputed or computed above.
    struct ChildRef {
      const int32_t* keys;
      const Degrees* degrees;
      const CountMap* message;
    };
    std::vector<ChildRef> children;
    for (const Neighbor& neighbor :
         adjacency[static_cast<size_t>(visit.node)]) {
      if (neighbor.node == visit.parent) continue;
      const JoinEdgeDef& edge = schema.join_edge(neighbor.edge);
      const size_t child = static_cast<size_t>(neighbor.node);
      children.push_back(
          {table.column(edge.ColumnOf(table_id)).raw_values().data(),
           precomputed[child], &scratch.messages[child]});
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
        const ChildRef& child = children[c];
        if (child.degrees != nullptr) {
          MultiplyByDegrees(child.degrees->counts, child.degrees->base,
                            child.keys, selected, count, /*first=*/c == 0,
                            weights);
        } else {
          child.message->MultiplyRows(child.keys, selected, count,
                                      /*first=*/c == 0, weights);
        }
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
