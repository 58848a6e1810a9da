// Workload container, labelling, serialization, the section-3.3 query
// generator's invariants, and the JOB-light analogue.

#include "workload/workload.h"

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "db/column.h"
#include "imdb/imdb.h"
#include "workload/generator.h"
#include "util/file.h"
#include "workload/job_light.h"

namespace lc {
namespace {

ImdbConfig TestConfig() {
  ImdbConfig config;
  config.seed = 33;
  config.num_titles = 1500;
  config.num_companies = 250;
  config.num_persons = 1200;
  config.num_keywords = 300;
  return config;
}

struct Fixture {
  Database db;
  Executor executor;
  SampleSet samples;

  Fixture()
      : db(GenerateImdb(TestConfig())),
        executor(&db),
        samples(&db, 64, 99) {}
};

TEST(LabelQueryTest, AnnotationsAlignWithTables) {
  Fixture f;
  const ImdbColumns cols = ResolveImdbColumns(f.db.schema());
  Query query;
  query.tables = {cols.title, cols.movie_companies};
  query.joins = {0};
  query.predicates = {
      {cols.title, cols.title_production_year, CompareOp::kGt, 2000}};
  query.Canonicalize();

  const LabeledQuery labeled = LabelQuery(query, &f.executor, f.samples);
  ASSERT_EQ(labeled.sample_counts.size(), 2u);
  ASSERT_EQ(labeled.sample_bitmaps.size(), 2u);
  EXPECT_GT(labeled.cardinality, 0);
  for (size_t i = 0; i < labeled.sample_counts.size(); ++i) {
    EXPECT_EQ(static_cast<int64_t>(labeled.sample_bitmaps[i].Count()),
              labeled.sample_counts[i]);
    EXPECT_EQ(labeled.sample_bitmaps[i].size(), 64u);
  }
  // The unfiltered movie_companies side qualifies every sampled tuple.
  const size_t mc_index =
      labeled.query.tables[0] == cols.movie_companies ? 0 : 1;
  EXPECT_EQ(labeled.sample_counts[mc_index],
            static_cast<int64_t>(
                f.samples.sample(cols.movie_companies).size()));
}

TEST(WorkloadTest, JoinHistogramAndSelection) {
  Workload workload;
  for (int joins : {0, 0, 1, 2, 2, 2}) {
    LabeledQuery labeled;
    labeled.query.tables = {0};
    for (int j = 0; j < joins; ++j) {
      labeled.query.joins.push_back(j);
      labeled.query.tables.push_back(static_cast<TableId>(j + 1));
    }
    workload.queries.push_back(labeled);
  }
  EXPECT_EQ(workload.JoinHistogram(2), (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(workload.QueriesWithJoins(0).size(), 2u);
  EXPECT_EQ(workload.QueriesWithJoins(2).size(), 3u);
  EXPECT_EQ(workload.QueriesWithJoins(4).size(), 0u);
}

TEST(WorkloadTest, SerializeRoundTrip) {
  Fixture f;
  GeneratorConfig config;
  config.seed = 5;
  QueryGenerator generator(&f.db, config);
  Workload workload =
      generator.GenerateLabeled(f.executor, f.samples, 25, "roundtrip");

  const std::string bytes = workload.Serialize();
  const auto loaded = Workload::Deserialize(bytes);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), workload.size());
  EXPECT_EQ(loaded->name, "roundtrip");
  EXPECT_EQ(loaded->sample_size, 64u);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(loaded->queries[i].query, workload.queries[i].query);
    EXPECT_EQ(loaded->queries[i].cardinality, workload.queries[i].cardinality);
    EXPECT_EQ(loaded->queries[i].sample_counts,
              workload.queries[i].sample_counts);
    for (size_t t = 0; t < workload.queries[i].sample_bitmaps.size(); ++t) {
      EXPECT_TRUE(loaded->queries[i].sample_bitmaps[t] ==
                  workload.queries[i].sample_bitmaps[t]);
    }
  }
}

TEST(WorkloadTest, DeserializeRejectsCorruption) {
  Workload workload;
  workload.name = "x";
  std::string bytes = workload.Serialize();
  bytes[0] = 'Z';
  EXPECT_FALSE(Workload::Deserialize(bytes).ok());
  bytes = workload.Serialize();
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(Workload::Deserialize(bytes).ok());
  bytes = workload.Serialize();
  bytes += "junk";
  EXPECT_FALSE(Workload::Deserialize(bytes).ok());
}

// A crafted query count must be Corruption, not a std::length_error out of
// reserve(). An empty workload's bytes end with its 8-byte count.
TEST(WorkloadTest, DeserializeRejectsHugeQueryCount) {
  Workload workload;
  workload.name = "x";
  for (const uint64_t count : {uint64_t{1} << 62, ~uint64_t{0}}) {
    std::string bytes = workload.Serialize();
    std::memcpy(&bytes[bytes.size() - sizeof(count)], &count, sizeof(count));
    const auto loaded = Workload::Deserialize(bytes);
    ASSERT_FALSE(loaded.ok()) << count;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << count;
  }
}

TEST(WorkloadTest, FileRoundTrip) {
  Workload workload;
  workload.name = "file-test";
  workload.sample_size = 8;
  const std::string path = testing::TempDir() + "/lc_workload_test.bin";
  ASSERT_TRUE(workload.SaveToFile(path).ok());
  const auto loaded = Workload::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->name, "file-test");
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(GeneratorTest, QueriesAreCanonicalUniqueAndWithinJoinBounds) {
  Fixture f;
  GeneratorConfig config;
  config.seed = 7;
  config.min_joins = 0;
  config.max_joins = 2;
  QueryGenerator generator(&f.db, config);
  Workload workload =
      generator.GenerateLabeled(f.executor, f.samples, 120, "gen-test");

  std::unordered_set<std::string> keys;
  for (const LabeledQuery& labeled : workload.queries) {
    const Query& query = labeled.query;
    EXPECT_GE(query.num_joins(), 0);
    EXPECT_LE(query.num_joins(), 2);
    EXPECT_EQ(query.num_tables(), query.num_joins() + 1);
    EXPECT_TRUE(keys.insert(query.CanonicalKey()).second)
        << "duplicate query " << query.Serialize();
    // Canonical: tables sorted.
    Query copy = query;
    copy.Canonicalize();
    EXPECT_EQ(copy, query);
    // Non-empty label (skip_empty).
    EXPECT_GT(labeled.cardinality, 0);
  }
}

TEST(GeneratorTest, JoinGraphIsConnected) {
  Fixture f;
  GeneratorConfig config;
  config.seed = 11;
  config.max_joins = 4;
  QueryGenerator generator(&f.db, config);
  const Schema& schema = f.db.schema();
  for (int i = 0; i < 200; ++i) {
    const Query query = generator.Generate();
    if (query.num_joins() == 0) continue;
    // Every join edge connects two tables of the query; grow a reachable
    // set from the first table.
    std::set<TableId> reached = {query.tables[0]};
    bool progress = true;
    while (progress) {
      progress = false;
      for (int join : query.joins) {
        const JoinEdgeDef& edge = schema.join_edge(join);
        const bool has_left = reached.count(edge.left_table) > 0;
        const bool has_right = reached.count(edge.right_table) > 0;
        if (has_left != has_right) {
          reached.insert(has_left ? edge.right_table : edge.left_table);
          progress = true;
        }
      }
    }
    EXPECT_EQ(reached.size(), query.tables.size())
        << query.Serialize();
  }
}

TEST(GeneratorTest, PredicatesUseNonKeyColumnsAndDataLiterals) {
  Fixture f;
  GeneratorConfig config;
  config.seed = 13;
  QueryGenerator generator(&f.db, config);
  const Schema& schema = f.db.schema();
  for (int i = 0; i < 150; ++i) {
    const Query query = generator.Generate();
    std::set<std::pair<TableId, int>> seen_columns;
    for (const Predicate& predicate : query.predicates) {
      EXPECT_TRUE(query.UsesTable(predicate.table));
      EXPECT_FALSE(schema.table(predicate.table)
                       .columns[static_cast<size_t>(predicate.column)]
                       .is_key);
      // At most one predicate per column (distinct columns per table).
      EXPECT_TRUE(
          seen_columns.insert({predicate.table, predicate.column}).second);
      const Column& data = f.db.table(predicate.table).column(predicate.column);
      EXPECT_GE(predicate.literal, data.min_value());
      EXPECT_LE(predicate.literal, data.max_value());
    }
  }
}

TEST(GeneratorTest, RespectsMinJoins) {
  Fixture f;
  GeneratorConfig config;
  config.seed = 17;
  config.min_joins = 3;
  config.max_joins = 4;
  QueryGenerator generator(&f.db, config);
  for (int i = 0; i < 50; ++i) {
    const Query query = generator.Generate();
    EXPECT_GE(query.num_joins(), 3);
    EXPECT_LE(query.num_joins(), 4);
  }
}

TEST(GeneratorTest, DeterministicAcrossInstances) {
  Fixture f;
  GeneratorConfig config;
  config.seed = 23;
  QueryGenerator a(&f.db, config);
  QueryGenerator b(&f.db, config);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(a.Generate(), b.Generate());
  }
}

TEST(JobLightTest, Builds70QueriesWithPaperJoinDistribution) {
  Fixture f;
  const std::vector<Query> queries = BuildJobLightQueries(f.db);
  ASSERT_EQ(queries.size(), 70u);
  std::vector<int> histogram(5, 0);
  for (const Query& query : queries) {
    ASSERT_GE(query.num_joins(), 1);
    ASSERT_LE(query.num_joins(), 4);
    ++histogram[static_cast<size_t>(query.num_joins())];
  }
  // Paper Table 1: JOB-light has 3/32/23/12 queries with 1/2/3/4 joins.
  EXPECT_EQ(histogram[1], 3);
  EXPECT_EQ(histogram[2], 32);
  EXPECT_EQ(histogram[3], 23);
  EXPECT_EQ(histogram[4], 12);
}

TEST(JobLightTest, AllQueriesIncludeTitleHub) {
  Fixture f;
  const TableId title = f.db.schema().FindTable("title").value();
  for (const Query& query : BuildJobLightQueries(f.db)) {
    EXPECT_TRUE(query.UsesTable(title));
    EXPECT_EQ(query.num_tables(), query.num_joins() + 1);
  }
}

TEST(JobLightTest, FractionalLiteralsResolveWithinDomain) {
  Fixture f;
  Query query = ParseJobLightSpec(f.db, "mk; mk.keyword_id=@0.5").value();
  ASSERT_EQ(query.predicates.size(), 1u);
  const Predicate& predicate = query.predicates[0];
  const Column& data = f.db.table(predicate.table).column(predicate.column);
  EXPECT_GE(predicate.literal, data.min_value());
  EXPECT_LE(predicate.literal, data.max_value());
}

TEST(JobLightTest, ParserRejectsBadSpecs) {
  Fixture f;
  EXPECT_FALSE(ParseJobLightSpec(f.db, "no-semicolon").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "zz; t.kind_id=1").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mc; t.bogus=1").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mc; kind_id 1").ok());
}

TEST(JobLightTest, ParserRejectsMalformedLiteralsStrictly) {
  // The same bug class exec/query.cc fixed for the serving path: atol/atof
  // silently truncated out-of-range literals and accepted trailing
  // garbage, mislabeling the workload line instead of rejecting it.
  Fixture f;
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mc; t.kind_id=").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mc; t.kind_id=1x").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mc; t.kind_id=1 2").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mc; t.kind_id=99999999999").ok());
  // Fractional literals: strict parse, and the fraction must land in
  // [0, 1] (it interpolates the column domain).
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mk; mk.keyword_id=@").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mk; mk.keyword_id=@0.5x").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mk; mk.keyword_id=@ 0.5").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mk; mk.keyword_id=@0x1p-1").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mk; mk.keyword_id=@-0.5").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mk; mk.keyword_id=@1.5").ok());
  EXPECT_FALSE(ParseJobLightSpec(f.db, "mk; mk.keyword_id=@nan").ok());
  // Still-valid forms keep parsing.
  EXPECT_TRUE(ParseJobLightSpec(f.db, "mc; t.kind_id=1").ok());
  EXPECT_TRUE(ParseJobLightSpec(f.db, "mc; t.production_year>-5").ok());
  EXPECT_TRUE(ParseJobLightSpec(f.db, "mk; mk.keyword_id=@0.25").ok());
}

TEST(JobLightTest, MostQueriesHaveNonZeroCardinality) {
  // JOB-light queries should mostly be satisfiable on the synthetic data;
  // a few zero results are tolerated (the paper keeps them too).
  Fixture f;
  int non_zero = 0;
  const std::vector<Query> queries = BuildJobLightQueries(f.db);
  for (const Query& query : queries) {
    if (f.executor.Cardinality(query) > 0) ++non_zero;
  }
  // At this tiny test scale (1500 titles) some selective 3-4 join queries
  // are legitimately empty; at bench scale (60k titles) nearly all are not.
  EXPECT_GT(non_zero, 40);
}

}  // namespace
}  // namespace lc
