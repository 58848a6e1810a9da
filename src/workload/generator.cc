#include "workload/generator.h"

#include <algorithm>

#include "db/column.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lc {

QueryGenerator::QueryGenerator(const Database* db, GeneratorConfig config)
    : db_(db), config_(config), rng_(config.seed) {
  LC_CHECK(db != nullptr);
  LC_CHECK_GE(config.min_joins, 0);
  LC_CHECK_LE(config.min_joins, config.max_joins);
  LC_CHECK_LE(config.max_joins, db->schema().num_join_edges());
}

bool QueryGenerator::DrawLiteral(TableId table, int column,
                                 int32_t* literal) {
  const Column& data = db_->table(table).column(column);
  if (data.non_null_count() == 0 || data.size() == 0) return false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int32_t value = data.raw(static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(data.size()) - 1)));
    if (value != kNullValue) {
      *literal = value;
      return true;
    }
  }
  return false;
}

Query QueryGenerator::Generate() {
  const Schema& schema = db_->schema();
  Query query;

  // Uniform join count, then a uniform connected walk over the join graph
  // (paper section 3.3).
  const int num_joins = static_cast<int>(
      rng_.UniformInt(config_.min_joins, config_.max_joins));

  // Start tables must participate in at least one join edge.
  std::vector<TableId> joinable;
  for (TableId table = 0; table < schema.num_tables(); ++table) {
    if (!schema.EdgesForTable(table).empty()) joinable.push_back(table);
  }
  LC_CHECK(!joinable.empty());
  const TableId start = joinable[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(joinable.size()) - 1))];
  query.tables.push_back(start);

  for (int j = 0; j < num_joins; ++j) {
    // Candidate edges: incident to the current table set, leading outside.
    std::vector<int> candidates;
    for (int edge_index = 0; edge_index < schema.num_join_edges();
         ++edge_index) {
      const JoinEdgeDef& edge = schema.join_edge(edge_index);
      const bool has_left = query.UsesTable(edge.left_table);
      const bool has_right = query.UsesTable(edge.right_table);
      if (has_left != has_right) candidates.push_back(edge_index);
    }
    if (candidates.empty()) break;  // Join graph exhausted.
    const int chosen = candidates[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
    const JoinEdgeDef& edge = schema.join_edge(chosen);
    query.joins.push_back(chosen);
    query.tables.push_back(query.UsesTable(edge.left_table)
                               ? edge.right_table
                               : edge.left_table);
  }

  // Per-table predicates: uniform count over [0, #non-key columns], distinct
  // columns, uniform operator, literal from the data.
  for (TableId table : query.tables) {
    const TableDef& def = schema.table(table);
    std::vector<int> non_key_columns;
    for (int column = 0; column < static_cast<int>(def.columns.size());
         ++column) {
      if (!def.columns[static_cast<size_t>(column)].is_key) {
        non_key_columns.push_back(column);
      }
    }
    if (non_key_columns.empty()) continue;
    const int num_predicates = static_cast<int>(rng_.UniformInt(
        0, static_cast<int64_t>(non_key_columns.size())));
    if (num_predicates == 0) continue;
    const std::vector<size_t> picks = rng_.SampleWithoutReplacement(
        non_key_columns.size(), static_cast<size_t>(num_predicates));
    for (size_t pick : picks) {
      const int column = non_key_columns[pick];
      int32_t literal = 0;
      if (!DrawLiteral(table, column, &literal)) continue;
      const CompareOp op = static_cast<CompareOp>(rng_.UniformInt(0, 2));
      query.predicates.push_back(Predicate{table, column, op, literal});
    }
  }

  query.Canonicalize();
  return query;
}

Workload QueryGenerator::GenerateLabeled(const Executor& executor,
                                         const SampleSet& samples,
                                         size_t count, const std::string& name,
                                         ThreadPool* pool) {
  Workload workload;
  workload.name = name;
  workload.sample_size = samples.sample_size();
  workload.queries.reserve(count);
  label_time_stats_ = RunningStat();
  int64_t attempts = 0;
  const int64_t attempt_budget =
      static_cast<int64_t>(count) * config_.max_attempts_per_query;

  // Pipeline: draw a wave of unique candidates sequentially (the Rng stream
  // and the dedup set advance in one deterministic order), label the wave
  // across the pool (labelling is pure — no randomness), then accept in
  // generation order. The accepted prefix is the same for every wave size,
  // so the output never depends on the worker count; a larger wave only
  // risks labelling a few extra candidates after the last acceptance.
  const size_t lanes = static_cast<size_t>(Lanes(pool));
  while (workload.queries.size() < count) {
    const size_t remaining = count - workload.queries.size();
    // Waves scale with the remaining work so the serial generation phase
    // and the fork/join barrier amortize over large corpora (the 16Ki cap
    // bounds wave memory); skip_empty rejections shrink `remaining`
    // geometrically, so only a handful of waves ever run. The sizing must
    // NOT depend on the lane count: overshoot (candidates drawn beyond the
    // last acceptance) advances rng_ and seen_, and a reused generator's
    // next call has to start from the same state for every LC_THREADS.
    const size_t wave_target =
        std::max<size_t>(16, std::min<size_t>(remaining, 16384));
    std::vector<Query> wave;
    wave.reserve(wave_target);
    while (wave.size() < wave_target && attempts < attempt_budget) {
      ++attempts;
      Query query = Generate();
      if (!seen_.insert(query.CanonicalKey()).second) continue;
      wave.push_back(std::move(query));
    }
    LC_CHECK(!wave.empty() || attempts < attempt_budget)
        << "query generation stalled; too many duplicates/empties for "
        << name;

    std::vector<LabeledQuery> labeled(wave.size());
    const size_t grain =
        std::max<size_t>(1, wave.size() / (4 * lanes));
    std::vector<RunningStat> shard_times((wave.size() + grain - 1) / grain);
    ParallelForShards(
        pool, 0, wave.size(), grain,
        [&](size_t shard, size_t lo, size_t hi) {
          RunningStat& times = shard_times[shard];
          for (size_t i = lo; i < hi; ++i) {
            WallTimer timer;
            labeled[i] = LabelQuery(wave[i], &executor, samples);
            times.Add(timer.Seconds());
          }
        });
    for (RunningStat& times : shard_times) label_time_stats_.Merge(times);

    for (LabeledQuery& query : labeled) {
      if (config_.skip_empty && query.cardinality <= 0) continue;
      if (workload.queries.size() >= count) break;
      workload.queries.push_back(std::move(query));
    }
    LC_CHECK(workload.queries.size() >= count || attempts < attempt_budget)
        << "query generation stalled; too many duplicates/empties for "
        << name;
  }
  LC_LOG(DEBUG) << "generated " << workload.queries.size() << " queries for "
                << name << " in " << attempts << " attempts over "
                << lanes << " lanes (label mean "
                << label_time_stats_.mean() * 1e3 << "ms, max "
                << label_time_stats_.max() * 1e3 << "ms)";
  return workload;
}

}  // namespace lc
