// Query IR tests plus the executor's core correctness property: the tree
// count-propagation cardinality equals brute-force nested-loop counting on
// random databases and queries.

#include "exec/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "db/column.h"
#include "exec/index.h"
#include "exec/query.h"
#include "exec/select.h"
#include "imdb/imdb.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace lc {
namespace {

// A handcrafted 2-table database with known join counts.
//   a: ids 0..3, x = {10, 20, 20, 30}
//   b: a_id = {0, 0, 1, 3, 3, 3, NULL}, z = {1, 2, 1, 1, 2, 1, 1}
Database TinyDatabase() {
  Schema schema;
  const TableId a = schema.AddTable(TableDef{
      "a", {{"id", true}, {"x", false}}, /*primary_key=*/0});
  const TableId b = schema.AddTable(TableDef{
      "b", {{"id", true}, {"a_id", true}, {"z", false}}, /*primary_key=*/0});
  schema.AddJoinEdge(a, "id", b, "a_id");
  Database db(std::move(schema));
  Table& ta = db.table(0);
  const int32_t xs[] = {10, 20, 20, 30};
  for (int32_t i = 0; i < 4; ++i) {
    ta.column(0).Append(i);
    ta.column(1).Append(xs[i]);
  }
  Table& tb = db.table(1);
  const int32_t a_ids[] = {0, 0, 1, 3, 3, 3, kNullValue};
  const int32_t zs[] = {1, 2, 1, 1, 2, 1, 1};
  for (int32_t i = 0; i < 7; ++i) {
    tb.column(0).Append(i);
    if (a_ids[i] == kNullValue) {
      tb.column(1).AppendNull();
    } else {
      tb.column(1).Append(a_ids[i]);
    }
    tb.column(2).Append(zs[i]);
  }
  db.Finalize();
  return db;
}

TEST(PredicateTest, MatchSemantics) {
  Predicate eq{0, 0, CompareOp::kEq, 5};
  EXPECT_TRUE(eq.Matches(5));
  EXPECT_FALSE(eq.Matches(4));
  EXPECT_FALSE(eq.Matches(kNullValue));

  Predicate lt{0, 0, CompareOp::kLt, 5};
  EXPECT_TRUE(lt.Matches(4));
  EXPECT_FALSE(lt.Matches(5));
  EXPECT_FALSE(lt.Matches(kNullValue));

  Predicate gt{0, 0, CompareOp::kGt, 5};
  EXPECT_TRUE(gt.Matches(6));
  EXPECT_FALSE(gt.Matches(5));
  EXPECT_FALSE(gt.Matches(kNullValue));
}

TEST(QueryTest, CanonicalizeSortsAndDeduplicates) {
  Query query;
  query.tables = {2, 0, 2};
  query.joins = {3, 1, 3};
  query.predicates = {{2, 1, CompareOp::kGt, 5}, {0, 1, CompareOp::kEq, 3}};
  query.Canonicalize();
  EXPECT_EQ(query.tables, (std::vector<TableId>{0, 2}));
  EXPECT_EQ(query.joins, (std::vector<int>{1, 3}));
  EXPECT_EQ(query.predicates[0].table, 0);
  EXPECT_EQ(query.predicates[1].table, 2);
}

TEST(QueryTest, SerializeRoundTrip) {
  Query query;
  query.tables = {0, 1};
  query.joins = {0};
  query.predicates = {{0, 1, CompareOp::kGt, 2005},
                      {1, 2, CompareOp::kEq, 3}};
  query.Canonicalize();
  const auto parsed = Query::Deserialize(query.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, query);
}

TEST(QueryTest, SerializeRoundTripEmptySections) {
  Query query;
  query.tables = {4};
  query.Canonicalize();
  const auto parsed = Query::Deserialize(query.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, query);
}

TEST(QueryTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Query::Deserialize("garbage").ok());
  EXPECT_FALSE(Query::Deserialize("T:0|J:").ok());
  EXPECT_FALSE(Query::Deserialize("T:x|J:|P:").ok());
}

TEST(QueryTest, DeserializeRejectsMalformedStrictly) {
  // The serving path feeds untrusted text through Deserialize; every one of
  // these used to be silently mis-parsed by atoi/atol or accepted outright.
  EXPECT_FALSE(Query::Deserialize("").ok());
  EXPECT_FALSE(Query::Deserialize("T:|J:|P:").ok());       // No tables.
  EXPECT_FALSE(Query::Deserialize("T:1x|J:|P:").ok());     // Trailing junk.
  EXPECT_FALSE(Query::Deserialize("T:-1|J:|P:").ok());     // Negative id.
  EXPECT_FALSE(Query::Deserialize("T:0|J:-2|P:").ok());
  EXPECT_FALSE(Query::Deserialize("T:0|J:|P:0.1=").ok());  // Empty literal.
  EXPECT_FALSE(Query::Deserialize("T:0|J:|P:0.=5").ok());  // Empty column.
  EXPECT_FALSE(Query::Deserialize("T:0|J:|P:.1=5").ok());  // Empty table.
  EXPECT_FALSE(Query::Deserialize("T:0|J:|P:0.1a=5").ok());
  EXPECT_FALSE(Query::Deserialize("T:0|J:|P:0.1=5x").ok());
  // Out-of-int32-range values must be rejected, not truncated.
  EXPECT_FALSE(Query::Deserialize("T:99999999999|J:|P:").ok());
  EXPECT_FALSE(Query::Deserialize("T:0|J:|P:0.1=99999999999999").ok());
  // Still-valid inputs keep parsing.
  EXPECT_TRUE(Query::Deserialize("T:0|J:|P:0.1=-5").ok());
  EXPECT_TRUE(Query::Deserialize("T:0,1|J:0|P:1.2>2005").ok());
}

TEST(QueryTest, DuplicatePredicatesCanonicalizeToOne) {
  // `p AND p` is `p`: duplicated conjuncts must not produce a different
  // canonical key (cache/dedup identity) or a larger predicate set.
  const auto duplicated = Query::Deserialize("T:0|J:|P:0.1=5,0.1=5");
  ASSERT_TRUE(duplicated.ok());
  EXPECT_EQ(duplicated->predicates.size(), 1u);
  const auto single = Query::Deserialize("T:0|J:|P:0.1=5");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(duplicated->CanonicalKey(), single->CanonicalKey());
  EXPECT_EQ(*duplicated, *single);
}

TEST(QueryTest, ValidateChecksSchemaReferences) {
  const Database db = TinyDatabase();
  const Schema& schema = db.schema();

  Query ok;
  ok.tables = {0, 1};
  ok.joins = {0};
  ok.predicates = {{0, 1, CompareOp::kGt, 15}, {1, 2, CompareOp::kEq, 1}};
  ok.Canonicalize();
  EXPECT_TRUE(ok.Validate(schema).ok());

  Query no_tables;
  EXPECT_EQ(no_tables.Validate(schema).code(),
            StatusCode::kInvalidArgument);

  Query bad_table = ok;
  bad_table.tables = {0, 7};
  EXPECT_FALSE(bad_table.Validate(schema).ok());

  Query bad_join = ok;
  bad_join.joins = {3};
  EXPECT_FALSE(bad_join.Validate(schema).ok());

  Query join_without_table = ok;
  join_without_table.tables = {0};  // Edge 0 also needs table 1.
  join_without_table.predicates.clear();
  EXPECT_FALSE(join_without_table.Validate(schema).ok());

  Query predicate_unlisted_table = ok;
  predicate_unlisted_table.tables = {0};
  predicate_unlisted_table.joins.clear();
  predicate_unlisted_table.predicates = {{1, 2, CompareOp::kEq, 1}};
  EXPECT_FALSE(predicate_unlisted_table.Validate(schema).ok());

  Query bad_column = ok;
  bad_column.predicates = {{0, 5, CompareOp::kEq, 1}};
  EXPECT_FALSE(bad_column.Validate(schema).ok());

  Query key_column = ok;
  key_column.predicates = {{0, 0, CompareOp::kEq, 1}};  // a.id is a key.
  EXPECT_FALSE(key_column.Validate(schema).ok());
}

TEST(QueryTest, ToSqlRendersJoinsAndPredicates) {
  const Database db = TinyDatabase();
  Query query;
  query.tables = {0, 1};
  query.joins = {0};
  query.predicates = {{0, 1, CompareOp::kGt, 15}};
  const std::string sql = query.ToSql(db.schema());
  EXPECT_NE(sql.find("FROM a, b"), std::string::npos);
  EXPECT_NE(sql.find("a.id = b.a_id"), std::string::npos);
  EXPECT_NE(sql.find("a.x > 15"), std::string::npos);
}

TEST(ExecutorTest, SingleTableCounts) {
  const Database db = TinyDatabase();
  const Executor executor(&db);
  Query query;
  query.tables = {0};
  EXPECT_EQ(executor.Cardinality(query), 4);
  query.predicates = {{0, 1, CompareOp::kEq, 20}};
  EXPECT_EQ(executor.Cardinality(query), 2);
  query.predicates = {{0, 1, CompareOp::kGt, 10}, {0, 1, CompareOp::kLt, 30}};
  EXPECT_EQ(executor.Cardinality(query), 2);
}

TEST(ExecutorTest, JoinCountsWithNullKeys) {
  const Database db = TinyDatabase();
  const Executor executor(&db);
  Query query;
  query.tables = {0, 1};
  query.joins = {0};
  // Matches: a0-b0, a0-b1, a1-b2, a3-b3, a3-b4, a3-b5. NULL never joins.
  EXPECT_EQ(executor.Cardinality(query), 6);
}

TEST(ExecutorTest, JoinWithPredicatesOnBothSides) {
  const Database db = TinyDatabase();
  const Executor executor(&db);
  Query query;
  query.tables = {0, 1};
  query.joins = {0};
  query.predicates = {{0, 1, CompareOp::kEq, 30}, {1, 2, CompareOp::kEq, 1}};
  // a3 joins b3(z=1), b4(z=2), b5(z=1) -> 2 rows with z=1.
  EXPECT_EQ(executor.Cardinality(query), 2);
}

TEST(ExecutorTest, EmptyResultWhenPredicateSelectsNothing) {
  const Database db = TinyDatabase();
  const Executor executor(&db);
  Query query;
  query.tables = {0, 1};
  query.joins = {0};
  query.predicates = {{0, 1, CompareOp::kGt, 1000}};
  EXPECT_EQ(executor.Cardinality(query), 0);
}

TEST(ExecutorTest, CountSelectedMatchesPredicateMatches) {
  const Database db = TinyDatabase();
  const Executor executor(&db);
  // b.z = {1, 2, 1, 1, 2, 1, 1}; b.a_id holds a NULL in its last row.
  EXPECT_EQ(executor.CountSelected(1, {{1, 2, CompareOp::kEq, 1}}), 5);
  EXPECT_EQ(executor.CountSelected(1, {{1, 1, CompareOp::kLt, 3}}), 3);
  EXPECT_EQ(executor.CountSelected(1, {{1, 1, CompareOp::kGt, -1}}), 6);
  EXPECT_EQ(executor.CountSelected(1, {{1, 2, CompareOp::kEq, 1},
                                       {1, 1, CompareOp::kLt, 3}}),
            2);
  EXPECT_EQ(executor.CountSelected(1, {}), 7);
}

// One nullable column of `rows` values spread over the whole int32 range,
// including its extremes, so a scan crosses several selection blocks.
Database WideNullableTable(size_t rows, uint64_t seed) {
  Schema schema;
  schema.AddTable(TableDef{"t", {{"id", true}, {"v", false}, {"w", false}},
                           /*primary_key=*/0});
  Database db(std::move(schema));
  Table& table = db.table(0);
  Rng rng(seed);
  const int32_t extremes[] = {std::numeric_limits<int32_t>::min() + 1,
                              std::numeric_limits<int32_t>::max(), 0, -1, 1};
  for (size_t row = 0; row < rows; ++row) {
    table.column(0).Append(static_cast<int32_t>(row));
    for (int column = 1; column <= 2; ++column) {
      const int64_t draw = rng.UniformInt(0, 9);
      if (draw == 0) {
        table.column(column).AppendNull();
      } else if (draw == 1) {
        table.column(column).Append(
            extremes[rng.UniformInt(0, std::size(extremes) - 1)]);
      } else {
        table.column(column).Append(
            static_cast<int32_t>(rng.UniformInt(-50, 50)));
      }
    }
  }
  db.Finalize();
  return db;
}

TEST(ExecutorTest, CountSelectedEqualsMatchesOverNullsAndExtremes) {
  const Database db = WideNullableTable(5000, 17);
  const Executor executor(&db);
  const Table& table = db.table(0);
  ASSERT_GT(table.column(1).null_count(), 0u);
  const int32_t literals[] = {std::numeric_limits<int32_t>::min() + 1,
                              std::numeric_limits<int32_t>::max(), 0, 7, -50};
  const auto reference = [&](const std::vector<Predicate>& predicates) {
    int64_t count = 0;
    for (size_t row = 0; row < table.num_rows(); ++row) {
      bool matches = true;
      for (const Predicate& predicate : predicates) {
        matches = matches &&
                  predicate.Matches(table.column(predicate.column).raw(row));
      }
      count += matches ? 1 : 0;
    }
    return count;
  };
  for (int op = 0; op < kNumCompareOps; ++op) {
    for (const int32_t literal : literals) {
      const Predicate first{0, 1, static_cast<CompareOp>(op), literal};
      EXPECT_EQ(executor.CountSelected(0, {first}), reference({first}))
          << op << " " << literal;
      for (int second_op = 0; second_op < kNumCompareOps; ++second_op) {
        const std::vector<Predicate> both = {
            first, {0, 2, static_cast<CompareOp>(second_op), 3}};
        EXPECT_EQ(executor.CountSelected(0, both), reference(both))
            << op << " " << literal << " " << second_op;
      }
    }
  }
}

// Row selection kernels against Predicate::Matches, for each backend:
// random values with NULLs and int32 extremes, every operator, literals at
// both ends of the range, and lengths from 0 to kBlockRows, ragged ones
// included. Nothing may be written past the ids the caller's buffer holds.
class SelectKernelTest : public testing::TestWithParam<const char*> {
 protected:
  const internal::SelectKernels* Kernels() const {
    return std::string(GetParam()) == "avx512"
               ? internal::Avx512SelectKernels()
               : &internal::ScalarSelectKernels();
  }
};

TEST_P(SelectKernelTest, MatchesPredicateReference) {
  const internal::SelectKernels* kernels = Kernels();
  if (kernels == nullptr) GTEST_SKIP() << "no AVX-512F on this CPU or build";
  constexpr uint32_t kBlockRows = internal::kBlockRows;
  constexpr uint32_t kSlack = 40;
  constexpr uint32_t kGuardIds = 32;
  constexpr uint32_t kGuard = 0xdeadbeef;
  const Database db = WideNullableTable(kBlockRows + kSlack, 23);
  const Column& column = db.table(0).column(1);
  ASSERT_GT(column.null_count(), 0u);
  const int32_t* values = column.raw_values().data();
  const int32_t literals[] = {std::numeric_limits<int32_t>::min() + 1,
                              std::numeric_limits<int32_t>::max(), 0, 7, -50};
  std::vector<uint32_t> lengths;
  for (uint32_t length = 0; length <= 80; ++length) lengths.push_back(length);
  for (const uint32_t length :
       {255u, 256u, 257u, 1000u, kBlockRows - 17, kBlockRows - 1, kBlockRows}) {
    lengths.push_back(length);
  }

  Rng rng(41);
  for (const uint32_t length : lengths) {
    const uint32_t begin = static_cast<uint32_t>(rng.UniformInt(0, kSlack));
    // Random (repeating, unordered) ids for FilterRows.
    std::vector<uint32_t> input(length);
    for (uint32_t& row : input) {
      row = static_cast<uint32_t>(rng.UniformInt(0, kBlockRows + kSlack - 1));
    }
    for (int op = 0; op < kNumCompareOps; ++op) {
      for (const int32_t literal : literals) {
        const Predicate predicate{0, 1, static_cast<CompareOp>(op), literal};
        const std::string where = std::to_string(length) + " " +
                                  std::to_string(op) + " " +
                                  std::to_string(literal);

        std::vector<uint32_t> expected;
        for (uint32_t row = begin; row < begin + length; ++row) {
          if (predicate.Matches(values[row])) expected.push_back(row);
        }
        std::vector<uint32_t> rows(length + kGuardIds, kGuard);
        const uint32_t count = kernels->select_range(
            predicate.op, values, literal, begin, begin + length, rows.data());
        ASSERT_EQ(count, expected.size()) << where;
        EXPECT_TRUE(std::equal(expected.begin(), expected.end(), rows.begin()))
            << where;
        EXPECT_TRUE(std::all_of(rows.begin() + length, rows.end(),
                                [](uint32_t id) { return id == kGuard; }))
            << where;

        expected.clear();
        for (const uint32_t row : input) {
          if (predicate.Matches(values[row])) expected.push_back(row);
        }
        rows.assign(input.begin(), input.end());
        rows.resize(length + kGuardIds, kGuard);
        const uint32_t kept = kernels->filter_rows(
            predicate.op, values, literal, rows.data(), length);
        ASSERT_EQ(kept, expected.size()) << where;
        EXPECT_TRUE(std::equal(expected.begin(), expected.end(), rows.begin()))
            << where;
        EXPECT_TRUE(std::all_of(rows.begin() + length, rows.end(),
                                [](uint32_t id) { return id == kGuard; }))
            << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SelectKernelTest,
                         testing::Values("scalar", "avx512"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(ExecutorTest, MatchesBruteForceOnTinyDatabase) {
  const Database db = TinyDatabase();
  const Executor executor(&db);
  Query query;
  query.tables = {0, 1};
  query.joins = {0};
  EXPECT_EQ(executor.Cardinality(query), BruteForceCardinality(db, query));
}

// Property test: on small random IMDb instances, the tree-DP executor always
// equals brute force for random star queries with 0-3 joins.
class ExecutorPropertyTest : public testing::TestWithParam<int> {};

TEST_P(ExecutorPropertyTest, TreeCountEqualsBruteForce) {
  ImdbConfig config;
  config.seed = 1000 + static_cast<uint64_t>(GetParam());
  config.num_titles = 12;
  config.num_companies = 20;
  config.num_persons = 30;
  config.num_keywords = 15;
  const Database db = GenerateImdb(config);
  const Executor executor(&db);
  const Schema& schema = db.schema();
  const TableId title = schema.FindTable("title").value();

  Rng rng(500 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 12; ++trial) {
    const int num_joins = static_cast<int>(rng.UniformInt(0, 3));
    Query query;
    if (num_joins == 0) {
      query.tables = {static_cast<TableId>(
          rng.UniformInt(0, schema.num_tables() - 1))};
    } else {
      query.tables = {title};
      std::vector<size_t> edges =
          rng.SampleWithoutReplacement(
              static_cast<size_t>(schema.num_join_edges()),
              static_cast<size_t>(num_joins));
      for (size_t edge : edges) {
        const int edge_index = static_cast<int>(edge);
        query.joins.push_back(edge_index);
        query.tables.push_back(schema.join_edge(edge_index).Other(title));
      }
    }
    // Random predicates on the query's non-key columns.
    for (TableId table : query.tables) {
      const TableDef& def = schema.table(table);
      for (int column = 0; column < static_cast<int>(def.columns.size());
           ++column) {
        if (def.columns[static_cast<size_t>(column)].is_key) continue;
        if (!rng.Bernoulli(0.5)) continue;
        const Column& data = db.table(table).column(column);
        if (data.non_null_count() == 0) continue;
        // Literal drawn from the actual data.
        int32_t literal = kNullValue;
        while (literal == kNullValue) {
          literal = data.raw(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(data.size()) - 1)));
        }
        const CompareOp op = static_cast<CompareOp>(rng.UniformInt(0, 2));
        query.predicates.push_back(Predicate{table, column, op, literal});
      }
    }
    query.Canonicalize();
    EXPECT_EQ(executor.Cardinality(query), BruteForceCardinality(db, query))
        << query.Serialize();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         testing::Range(0, 6));

// Random tree queries whose predicates include every operator at the
// int32 extremes over title.production_year, which holds NULLs. A bare
// `v < literal` scan would count the NULL rows, since kNullValue is
// INT32_MIN.
TEST_P(ExecutorPropertyTest, NullableColumnsEqualBruteForce) {
  ImdbConfig config;
  config.seed = 2000 + static_cast<uint64_t>(GetParam());
  config.num_titles = 100;
  config.num_companies = 20;
  config.num_persons = 30;
  config.num_keywords = 15;
  const Database db = GenerateImdb(config);
  const Executor executor(&db);
  const Schema& schema = db.schema();
  const ImdbColumns cols = ResolveImdbColumns(schema);
  ASSERT_GT(db.table(cols.title).column(cols.title_production_year)
                .null_count(),
            0u);

  Rng rng(700 + static_cast<uint64_t>(GetParam()));
  const int32_t extremes[] = {std::numeric_limits<int32_t>::min() + 1,
                              std::numeric_limits<int32_t>::max()};
  for (int op = 0; op < kNumCompareOps; ++op) {
    for (const int32_t literal : extremes) {
      Query query;
      query.tables = {cols.title};
      const int num_joins = static_cast<int>(rng.UniformInt(0, 1));
      if (num_joins == 1) {
        const int edge = static_cast<int>(
            rng.UniformInt(0, schema.num_join_edges() - 1));
        query.joins = {edge};
        query.tables.push_back(schema.join_edge(edge).Other(cols.title));
      }
      query.predicates = {{cols.title, cols.title_production_year,
                           static_cast<CompareOp>(op), literal}};
      if (rng.Bernoulli(0.5)) {
        query.predicates.push_back(
            {cols.title, cols.title_kind_id,
             static_cast<CompareOp>(rng.UniformInt(0, 2)),
             extremes[rng.UniformInt(0, 1)]});
      }
      query.Canonicalize();
      EXPECT_EQ(executor.Cardinality(query), BruteForceCardinality(db, query))
          << query.Serialize();
    }
  }
}

// Queries whose leaves carry no predicates, which the executor answers
// from precomputed degree messages instead of scanning them. The schema is
// a hub a with leaves d and e and a chain a <- b <- c, so c is a leaf under
// the inner node b. The key columns hold NULLs, and e joins a over a
// sparse key span, which is too wide to precompute and takes the scan.
TEST_P(ExecutorPropertyTest, BareLeavesEqualBruteForce) {
  Schema schema;
  const TableId a = schema.AddTable(TableDef{
      "a", {{"id", true}, {"code", true}, {"x", false}}, /*primary_key=*/0});
  const TableId b = schema.AddTable(TableDef{
      "b", {{"id", true}, {"a_id", true}, {"y", false}}, /*primary_key=*/0});
  const TableId c = schema.AddTable(TableDef{
      "c", {{"id", true}, {"b_id", true}, {"z", false}}, /*primary_key=*/0});
  const TableId d = schema.AddTable(TableDef{
      "d", {{"id", true}, {"a_id", true}, {"w", false}}, /*primary_key=*/0});
  const TableId e = schema.AddTable(TableDef{
      "e", {{"id", true}, {"a_code", true}, {"v", false}}, /*primary_key=*/0});
  schema.AddJoinEdge(a, "id", b, "a_id");      // Edge 0.
  schema.AddJoinEdge(b, "id", c, "b_id");      // Edge 1.
  schema.AddJoinEdge(a, "id", d, "a_id");      // Edge 2.
  schema.AddJoinEdge(a, "code", e, "a_code");  // Edge 3.
  Database db(std::move(schema));
  constexpr int32_t kCodeStride = 1000003;
  Rng rng(900 + static_cast<uint64_t>(GetParam()));
  const auto value = [&](Column& column) {
    if (rng.Bernoulli(0.1)) {
      column.AppendNull();
    } else {
      column.Append(static_cast<int32_t>(rng.UniformInt(0, 9)));
    }
  };
  const auto key = [&](Column& column, int32_t range, int32_t stride) {
    if (rng.Bernoulli(0.1)) {
      column.AppendNull();
    } else {
      column.Append(static_cast<int32_t>(rng.UniformInt(0, range - 1)) *
                    stride);
    }
  };
  constexpr int32_t kRows[] = {20, 300, 2500, 90, 60};
  for (int32_t row = 0; row < kRows[a]; ++row) {
    db.table(a).column(0).Append(row);
    db.table(a).column(1).Append(row * kCodeStride);
    value(db.table(a).column(2));
  }
  const struct {
    TableId table;
    int32_t parent_rows;
    int32_t stride;
  } children[] = {{b, kRows[a], 1}, {c, kRows[b], 1}, {d, kRows[a], 1},
                  {e, kRows[a], kCodeStride}};
  for (const auto& child : children) {
    Table& table = db.table(child.table);
    for (int32_t row = 0; row < kRows[child.table]; ++row) {
      table.column(0).Append(row);
      key(table.column(1), child.parent_rows, child.stride);
      value(table.column(2));
    }
  }
  db.Finalize();
  const Executor executor(&db);

  const auto bare_except = [](std::vector<TableId> tables,
                              std::vector<int> joins,
                              std::vector<TableId> filtered) {
    Query query;
    query.tables = std::move(tables);
    query.joins = std::move(joins);
    for (const TableId table : filtered) {
      query.predicates.push_back({table, 2, CompareOp::kLt, 6});
    }
    return query;
  };
  std::vector<Query> queries = {
      bare_except({a, b, c, d, e}, {0, 1, 2, 3}, {}),   // All bare.
      bare_except({a, b, c, d, e}, {0, 1, 2, 3}, {b}),  // c under b.
      bare_except({a, b, c}, {0, 1}, {a, b}),           // c under b.
      bare_except({a, d, e}, {2, 3}, {d, e}),           // Bare hub.
      bare_except({a, b, d}, {0, 2}, {}),               // Bare hub.
      bare_except({b, c}, {1}, {b}),                    // Root b.
      bare_except({b, c}, {1}, {}),
      bare_except({a, d}, {2}, {a}),
      bare_except({a, e}, {3}, {a}),  // Sparse span: scanned.
  };
  // Random connected subtrees: c may only join through b.
  for (int trial = 0; trial < 12; ++trial) {
    Query query;
    query.tables = {a};
    const std::pair<int, TableId> edges[] = {{0, b}, {2, d}, {3, e}};
    for (const auto& [edge, table] : edges) {
      if (!rng.Bernoulli(0.6)) continue;
      query.joins.push_back(edge);
      query.tables.push_back(table);
      if (table == b && rng.Bernoulli(0.6)) {
        query.joins.push_back(1);
        query.tables.push_back(c);
      }
    }
    for (const TableId table : query.tables) {
      if (rng.Bernoulli(0.5)) continue;  // Bare.
      query.predicates.push_back(
          {table, 2, static_cast<CompareOp>(rng.UniformInt(0, 2)),
           static_cast<int32_t>(rng.UniformInt(0, 9))});
    }
    queries.push_back(std::move(query));
  }
  for (Query& query : queries) {
    query.Canonicalize();
    EXPECT_EQ(executor.Cardinality(query), BruteForceCardinality(db, query))
        << query.Serialize();
  }
}

// A chain a <- b <- c, so that b is an inner node: it receives c's message
// and sends its own to the root a. (IMDb's star never has one, because the
// root is always title.) c is larger than one selection block.
TEST(ExecutorTest, ChainThroughInnerNodeEqualsBruteForce) {
  Schema schema;
  const TableId a = schema.AddTable(
      TableDef{"a", {{"id", true}, {"x", false}}, /*primary_key=*/0});
  const TableId b = schema.AddTable(TableDef{
      "b", {{"id", true}, {"a_id", true}, {"y", false}}, /*primary_key=*/0});
  const TableId c = schema.AddTable(TableDef{
      "c", {{"id", true}, {"b_id", true}, {"z", false}}, /*primary_key=*/0});
  schema.AddJoinEdge(a, "id", b, "a_id");
  schema.AddJoinEdge(b, "id", c, "b_id");
  Database db(std::move(schema));
  Rng rng(31);
  const auto append = [&](Table& table, int32_t rows, int32_t key_range) {
    for (int32_t row = 0; row < rows; ++row) {
      table.column(0).Append(row);
      if (key_range > 0) {
        if (rng.Bernoulli(0.05)) {
          table.column(1).AppendNull();
        } else {
          table.column(1).Append(
              static_cast<int32_t>(rng.UniformInt(0, key_range - 1)));
        }
      }
      Column& value = table.column(key_range > 0 ? 2 : 1);
      if (rng.Bernoulli(0.1)) {
        value.AppendNull();
      } else {
        value.Append(static_cast<int32_t>(rng.UniformInt(0, 9)));
      }
    }
  };
  append(db.table(a), 20, 0);
  append(db.table(b), 300, 20);
  append(db.table(c), 2500, 300);
  db.Finalize();
  const Executor executor(&db);

  for (int trial = 0; trial < 8; ++trial) {
    Query query;
    query.tables = {a, b, c};
    query.joins = {0, 1};
    const std::pair<TableId, int> columns[] = {{a, 1}, {b, 2}, {c, 2}};
    for (const auto& [table, column] : columns) {
      if (!rng.Bernoulli(0.6)) continue;
      query.predicates.push_back(
          {table, column, static_cast<CompareOp>(rng.UniformInt(0, 2)),
           static_cast<int32_t>(rng.UniformInt(0, 9))});
    }
    query.Canonicalize();
    EXPECT_EQ(executor.Cardinality(query), BruteForceCardinality(db, query))
        << query.Serialize();
  }
}

// Golden labels: a fixed, seeded corpus of 300 queries with 0-4 joins at
// the default IMDb scale, empty results included. The checksum was
// recorded from the row-at-a-time executor this one replaced, so any
// change to the labels fails here.
TEST(ExecutorGoldenTest, DefaultScaleCorpusChecksum) {
  const Database db = GenerateImdb(ImdbConfig{});
  const Executor executor(&db);
  const SampleSet samples(&db, /*sample_size=*/8, /*seed=*/1);
  GeneratorConfig config;
  config.seed = 2024;
  config.max_joins = 4;
  config.skip_empty = false;
  QueryGenerator generator(&db, config);
  const Workload workload =
      generator.GenerateLabeled(executor, samples, 300, "golden");
  ASSERT_EQ(workload.size(), 300u);

  // FNV-1a over the cardinalities in corpus order.
  uint64_t checksum = 14695981039346656037ull;
  int64_t sum = 0;
  for (const LabeledQuery& labeled : workload.queries) {
    const uint64_t value = static_cast<uint64_t>(labeled.cardinality);
    for (int byte = 0; byte < 8; ++byte) {
      checksum ^= (value >> (8 * byte)) & 0xff;
      checksum *= 1099511628211ull;
    }
    sum += labeled.cardinality;
  }
  EXPECT_EQ(sum, 37594176);
  EXPECT_EQ(checksum, 4042375823297383928ull);
}

TEST(HashIndexTest, LookupReturnsAllRows) {
  const Database db = TinyDatabase();
  const HashIndex index(db.table(1), 1);  // b.a_id
  EXPECT_EQ(index.Lookup(0).size(), 2u);
  EXPECT_EQ(index.Lookup(3).size(), 3u);
  EXPECT_TRUE(index.Lookup(2).empty());
  EXPECT_TRUE(index.Lookup(999).empty());
  // NULL rows are not indexed: 6 of 7 rows have keys.
  EXPECT_EQ(index.num_entries(), 6u);
  EXPECT_EQ(index.num_keys(), 3u);
}

TEST(IndexSetTest, BuildsLazilyAndCaches) {
  const Database db = TinyDatabase();
  IndexSet indexes(&db);
  const HashIndex& first = indexes.Get(1, 1);
  const HashIndex& second = indexes.Get(1, 1);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.Lookup(0).size(), 2u);
}

}  // namespace
}  // namespace lc
