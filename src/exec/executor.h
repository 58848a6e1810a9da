// Exact cardinality computation — the reproduction's stand-in for HyPer,
// which the paper uses to label training queries with true cardinalities
// (section 3.5).
//
// Selection is column at a time. Each table's predicates are ordered
// tightest first by the column statistics. The rows are then cut into
// fixed-size blocks. Within a block, the first predicate compacts the
// matching row ids out of `Column::raw_values()`, and each later predicate
// filters that row-id vector. The kernels (exec/select.h) are chosen once
// by cpuid: AVX-512 where the CPU has it, otherwise the branch-free scalar
// loops, which are also the reference the tests check it against. Both
// drop NULL (kNullValue) exactly as Predicate::Matches does; this matters
// for `<`, because kNullValue is INT32_MIN and would otherwise pass every
// `v < literal`.
//
// Join cardinalities are computed without materializing join results: the
// query's join graph (always a tree for PK-FK schemas like IMDb's star) is
// rooted anywhere and each node sends its parent a multiset "key -> number
// of subtree join combinations" message, computed over the node's selected
// row ids one child column at a time. This is exact for acyclic joins and
// linear in the scanned rows; the test suite cross-validates it against a
// brute-force nested-loop counter.
//
// A leaf without predicates sends a message that depends only on the data:
// its join column's key -> row count ("degree") vector. The constructor
// computes it once per join-edge column, as int32 dense over the column's
// key span (skipped when the span is sparse), and Cardinality multiplies by
// it instead of scanning the leaf. Inner nodes and leaves with predicates
// are scanned.
//
// The row-id and weight blocks and the dense message arrays live in
// per-thread scratch that is reused from query to query. It is bounded by
// one block plus one key domain per query table, so labelling on a thread
// pool allocates nothing per query node once each worker has warmed up.

#ifndef LC_EXEC_EXECUTOR_H_
#define LC_EXEC_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "db/database.h"
#include "exec/query.h"

namespace lc {

/// Exact COUNT(*) evaluation over a Database. Read-only and reentrant: the
/// only mutable state is per-thread scratch, so one executor may serve any
/// number of threads. The database must outlive the executor and must not
/// change after it is built, since the degree vectors are computed then.
class Executor {
 public:
  explicit Executor(const Database* db);

  /// Exact result cardinality of `query`. The query's join graph must be
  /// connected and acyclic (checked).
  int64_t Cardinality(const Query& query) const;

  /// Number of rows of `table` matching all predicates (which must all
  /// reference `table`).
  int64_t CountSelected(TableId table,
                        const std::vector<Predicate>& predicates) const;

 private:
  // The message a join leaf without predicates sends its parent: the
  // number of rows under each key of its join column, dense over
  // [base, base + counts.size()). Empty when not precomputed: not a join
  // column, no keys, or a key span too sparse for a dense array.
  struct Degrees {
    int32_t base = 0;
    std::vector<int32_t> counts;
  };

  const Database* db_;
  // degrees_[table][column], filled for join-edge columns only.
  std::vector<std::vector<Degrees>> degrees_;
};

/// Reference nested-loop counter for validation; exponential in the number
/// of tables — use only on tiny databases in tests.
int64_t BruteForceCardinality(const Database& db, const Query& query);

}  // namespace lc

#endif  // LC_EXEC_EXECUTOR_H_
