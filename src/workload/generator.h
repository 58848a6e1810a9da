// The random query generator of paper section 3.3: uniform join count,
// uniform walk over the schema's join graph, uniform predicate count per
// base table, uniform operator, literals drawn from actual column values;
// duplicate queries are rejected and (when labelling) empty-result queries
// are skipped.

#ifndef LC_WORKLOAD_GENERATOR_H_
#define LC_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <string>
#include <unordered_set>

#include "db/database.h"
#include "exec/executor.h"
#include "sample/sample.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace lc {

struct GeneratorConfig {
  uint64_t seed = 42;
  int min_joins = 0;
  int max_joins = 2;  // The paper trains on 0-2 joins (section 3.3).
  /// Drop queries whose true cardinality is zero (paper section 3.3).
  bool skip_empty = true;
  /// Upper bound on generation attempts per accepted query, to guarantee
  /// termination on hostile configurations.
  int max_attempts_per_query = 200;
};

/// Stateful random query generator over one database.
class QueryGenerator {
 public:
  QueryGenerator(const Database* db, GeneratorConfig config);

  /// Draws one random (canonical) query; may duplicate earlier draws and
  /// may have an empty result.
  Query Generate();

  /// Generates `count` unique queries labelled with true cardinalities and
  /// sample annotations, honouring skip_empty. Checks (fatally) that the
  /// attempt budget suffices.
  ///
  /// Candidate queries are drawn sequentially (one Rng stream, one dedup
  /// set) but the expensive labelling — executing the true-cardinality
  /// count and the sample bitmaps — fans out over `pool` in waves, and
  /// candidates are accepted in generation order. The produced workload is
  /// therefore bit-identical for every worker count, including the fully
  /// sequential pool (see docs/ARCHITECTURE.md, "Concurrency"). `pool`
  /// defaults to the process pool; nullptr labels inline.
  Workload GenerateLabeled(const Executor& executor, const SampleSet& samples,
                           size_t count, const std::string& name,
                           ThreadPool* pool = ThreadPool::Global());

  const GeneratorConfig& config() const { return config_; }

  /// Per-query labelling wall time of the last GenerateLabeled call,
  /// merged from the per-shard accumulators (seconds).
  const RunningStat& label_time_stats() const { return label_time_stats_; }

 private:
  /// Draws a uniformly random literal from the actual values of a column
  /// (skipping NULLs); false if the column holds only NULLs.
  bool DrawLiteral(TableId table, int column, int32_t* literal);

  const Database* db_;
  GeneratorConfig config_;
  Rng rng_;
  std::unordered_set<std::string> seen_;
  RunningStat label_time_stats_;
};

}  // namespace lc

#endif  // LC_WORKLOAD_GENERATOR_H_
