#include <gtest/gtest.h>

#include <limits>
#include <unordered_set>
#include <vector>

#include "db/column.h"
#include "db/database.h"
#include "db/schema.h"
#include "db/table.h"
#include "util/rng.h"

namespace lc {
namespace {

Schema TwoTableSchema() {
  Schema schema;
  const TableId a = schema.AddTable(TableDef{
      "a", {{"id", true}, {"x", false}, {"y", false}}, /*primary_key=*/0});
  const TableId b = schema.AddTable(TableDef{
      "b", {{"id", true}, {"a_id", true}, {"z", false}}, /*primary_key=*/0});
  schema.AddJoinEdge(a, "id", b, "a_id");
  return schema;
}

TEST(SchemaTest, TableAndColumnLookup) {
  const Schema schema = TwoTableSchema();
  EXPECT_EQ(schema.num_tables(), 2);
  ASSERT_TRUE(schema.FindTable("a").ok());
  ASSERT_TRUE(schema.FindTable("b").ok());
  EXPECT_FALSE(schema.FindTable("c").ok());
  EXPECT_EQ(schema.table(0).FindColumn("x"), 1);
  EXPECT_EQ(schema.table(0).FindColumn("nope"), -1);
}

TEST(SchemaTest, JoinEdgeAccessors) {
  const Schema schema = TwoTableSchema();
  EXPECT_EQ(schema.num_join_edges(), 1);
  const JoinEdgeDef& edge = schema.join_edge(0);
  EXPECT_TRUE(edge.Touches(0));
  EXPECT_TRUE(edge.Touches(1));
  EXPECT_FALSE(edge.Touches(2));
  EXPECT_EQ(edge.Other(0), 1);
  EXPECT_EQ(edge.Other(1), 0);
  EXPECT_EQ(edge.ColumnOf(0), 0);  // a.id
  EXPECT_EQ(edge.ColumnOf(1), 1);  // b.a_id
  EXPECT_EQ(schema.EdgesForTable(0), (std::vector<int>{0}));
}

TEST(SchemaTest, PredicateColumnIndexing) {
  const Schema schema = TwoTableSchema();
  // Non-key columns: a.x, a.y, b.z -> 3 predicate columns.
  EXPECT_EQ(schema.num_predicate_columns(), 3);
  EXPECT_EQ(schema.PredicateColumnIndex(0, 1), 0);
  EXPECT_EQ(schema.PredicateColumnIndex(0, 2), 1);
  EXPECT_EQ(schema.PredicateColumnIndex(1, 2), 2);
  EXPECT_EQ(schema.PredicateColumnIndex(0, 0), -1);  // Key column.
  const Schema::PredicateColumnRef ref = schema.PredicateColumnAt(2);
  EXPECT_EQ(ref.table, 1);
  EXPECT_EQ(ref.column, 2);
}

TEST(SchemaTest, QualifiedColumnName) {
  const Schema schema = TwoTableSchema();
  EXPECT_EQ(schema.QualifiedColumnName(0, 1), "a.x");
  EXPECT_EQ(schema.QualifiedColumnName(1, 2), "b.z");
}

TEST(ColumnTest, AppendAndRead) {
  Column column;
  column.Append(5);
  column.AppendNull();
  column.Append(-3);
  EXPECT_EQ(column.size(), 3u);
  EXPECT_FALSE(column.is_null(0));
  EXPECT_TRUE(column.is_null(1));
  EXPECT_EQ(column.value(0), 5);
  EXPECT_EQ(column.raw(1), kNullValue);
  EXPECT_EQ(column.value(2), -3);
}

TEST(ColumnTest, StatisticsAfterFinalize) {
  Column column;
  for (int32_t v : {4, 7, 4, -1, 7, 7}) column.Append(v);
  column.AppendNull();
  column.AppendNull();
  column.Finalize();
  EXPECT_EQ(column.min_value(), -1);
  EXPECT_EQ(column.max_value(), 7);
  EXPECT_EQ(column.distinct_count(), 3);
  EXPECT_EQ(column.null_count(), 2u);
  EXPECT_EQ(column.non_null_count(), 6u);
  EXPECT_DOUBLE_EQ(column.null_fraction(), 0.25);
}

TEST(ColumnTest, AllNullColumn) {
  Column column;
  column.AppendNull();
  column.Finalize();
  EXPECT_EQ(column.distinct_count(), 0);
  EXPECT_EQ(column.null_count(), 1u);
}

// Distinct counts from Finalize (a bitmap over dense spans, a sort over
// sparse ones) against a hash-set reference.
TEST(ColumnTest, DistinctCountMatchesHashSetReference) {
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min() + 1;
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  struct Case {
    const char* name;
    size_t rows;
    double null_fraction;
    int64_t low;
    int64_t high;
    std::vector<int32_t> extra;  // Appended after the random rows.
  };
  const Case cases[] = {
      {"empty", 0, 0.0, 0, 0, {}},
      {"all_null", 50, 1.0, 0, 0, {}},
      {"single", 1, 0.0, 42, 42, {}},
      {"dense", 5000, 0.1, -300, 900, {}},
      // 100 values over a span of exactly 6400, then of 6401.
      {"dense_at_64_per_row", 98, 0.0, 0, 6399, {0, 6399}},
      {"sparse_just_past_64_per_row", 98, 0.0, 0, 6400, {0, 6400}},
      {"sparse_wide", 3000, 0.2, -1000000000, 1000000000, {}},
      {"extremes_only", 0, 0.0, 0, 0, {kMin, kMax, kMax, kMin}},
      {"extremes_in_dense", 4000, 0.05, -20, 20, {kMin, kMax}},
      {"top_of_range", 2000, 0.05, kMax - 500, kMax, {kMax}},
      {"bottom_of_range", 2000, 0.05, kMin, kMin + 500, {kMin}},
  };
  Rng rng(5);
  for (const Case& c : cases) {
    Column column;
    for (size_t row = 0; row < c.rows; ++row) {
      if (rng.Bernoulli(c.null_fraction)) {
        column.AppendNull();
      } else {
        column.Append(static_cast<int32_t>(rng.UniformInt(c.low, c.high)));
      }
    }
    for (const int32_t value : c.extra) column.Append(value);
    column.AppendNull();
    column.Finalize();
    std::unordered_set<int32_t> reference;
    for (size_t row = 0; row < column.size(); ++row) {
      if (!column.is_null(row)) reference.insert(column.value(row));
    }
    EXPECT_EQ(column.distinct_count(), static_cast<int64_t>(reference.size()))
        << c.name;
  }
}

TEST(ColumnTest, FinalizeIsIdempotent) {
  Column column;
  column.Append(1);
  column.Finalize();
  column.Finalize();
  EXPECT_EQ(column.min_value(), 1);
}

TEST(DatabaseTest, TablesMatchSchema) {
  Database db(TwoTableSchema());
  EXPECT_EQ(db.schema().num_tables(), 2);
  EXPECT_EQ(db.table(0).num_columns(), 3);
  EXPECT_EQ(db.table(1).num_columns(), 3);
  EXPECT_EQ(db.table(0).def().name, "a");
}

TEST(DatabaseTest, PopulateFinalizeAndCount) {
  Database db(TwoTableSchema());
  Table& a = db.table(0);
  for (int32_t i = 0; i < 10; ++i) {
    a.column(0).Append(i);
    a.column(1).Append(i % 3);
    a.column(2).Append(100 + i);
  }
  Table& b = db.table(1);
  for (int32_t i = 0; i < 4; ++i) {
    b.column(0).Append(i);
    b.column(1).Append(i % 2);
    b.column(2).Append(7);
  }
  db.Finalize();
  EXPECT_EQ(db.table(0).num_rows(), 10u);
  EXPECT_EQ(db.table(1).num_rows(), 4u);
  EXPECT_EQ(db.TotalRows(), 14u);
  EXPECT_EQ(db.table(0).column(1).distinct_count(), 3);
}

TEST(DatabaseTest, MoveKeepsTableDefPointersValid) {
  Database db(TwoTableSchema());
  db.table(0).column(0).Append(1);
  db.table(0).column(1).Append(2);
  db.table(0).column(2).Append(3);
  Database moved = std::move(db);
  EXPECT_EQ(moved.table(0).def().name, "a");
  EXPECT_EQ(moved.table(0).num_rows(), 1u);
}

}  // namespace
}  // namespace lc
