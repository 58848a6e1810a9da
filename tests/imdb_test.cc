// Generator invariants: schema shape, determinism, value domains, and —
// most importantly — the planted correlations that make the dataset
// IMDb-like (join-crossing dependencies between title attributes and the
// satellite tables).

#include "imdb/imdb.h"

#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "db/column.h"

namespace lc {
namespace {

ImdbConfig SmallConfig(uint64_t seed = 11) {
  ImdbConfig config;
  config.seed = seed;
  config.num_titles = 4000;
  config.num_companies = 700;
  config.num_persons = 3000;
  config.num_keywords = 900;
  return config;
}

TEST(ImdbSchemaTest, ShapeMatchesJobLight) {
  const Schema schema = MakeImdbSchema();
  EXPECT_EQ(schema.num_tables(), 6);
  EXPECT_EQ(schema.num_join_edges(), 5);
  // 9 predicate columns: kind_id, production_year, company_id,
  // company_type_id, person_id, role_id, and 3 info/keyword ids.
  EXPECT_EQ(schema.num_predicate_columns(), 9);
  // Star: every edge touches title.
  const TableId title = schema.FindTable("title").value();
  for (const JoinEdgeDef& edge : schema.join_edges()) {
    EXPECT_TRUE(edge.Touches(title));
  }
}

TEST(ImdbSchemaTest, ResolveColumnsFindsEverything) {
  const Schema schema = MakeImdbSchema();
  const ImdbColumns cols = ResolveImdbColumns(schema);
  EXPECT_GE(cols.title, 0);
  EXPECT_GE(cols.title_kind_id, 0);
  EXPECT_GE(cols.title_production_year, 0);
  EXPECT_GE(cols.mc_company_id, 0);
  EXPECT_GE(cols.ci_role_id, 0);
  EXPECT_GE(cols.mi_info_type_id, 0);
  EXPECT_GE(cols.mii_info_type_id, 0);
  EXPECT_GE(cols.mk_keyword_id, 0);
}

TEST(EraTest, YearBuckets) {
  EXPECT_EQ(EraOfYear(kMinYear), 0);
  EXPECT_EQ(EraOfYear(kMaxYear), kNumEras - 1);
  EXPECT_EQ(EraOfYear(kMinYear - 100), 0);
  EXPECT_EQ(EraOfYear(kMaxYear + 100), kNumEras - 1);
  for (int year = kMinYear; year <= kMaxYear; ++year) {
    const int era = EraOfYear(year);
    EXPECT_GE(era, 0);
    EXPECT_LT(era, kNumEras);
  }
}

TEST(ImdbGeneratorTest, DeterministicForSameSeed) {
  const Database a = GenerateImdb(SmallConfig(3));
  const Database b = GenerateImdb(SmallConfig(3));
  ASSERT_EQ(a.TotalRows(), b.TotalRows());
  const ImdbColumns cols = ResolveImdbColumns(a.schema());
  const Column& ca = a.table(cols.movie_companies).column(cols.mc_company_id);
  const Column& cb = b.table(cols.movie_companies).column(cols.mc_company_id);
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); i += 97) {
    EXPECT_EQ(ca.raw(i), cb.raw(i));
  }
}

TEST(ImdbGeneratorTest, DifferentSeedsDiffer) {
  const Database a = GenerateImdb(SmallConfig(3));
  const Database b = GenerateImdb(SmallConfig(4));
  EXPECT_NE(a.TotalRows(), b.TotalRows());
}

TEST(ImdbGeneratorTest, RowCountsScaleWithConfig) {
  ImdbConfig config = SmallConfig();
  const Database db = GenerateImdb(config);
  const ImdbColumns cols = ResolveImdbColumns(db.schema());
  EXPECT_EQ(db.table(cols.title).num_rows(),
            static_cast<size_t>(config.num_titles));
  // Satellite tables average near their configured fan-out (era modulation
  // keeps the global mean close to base * ~0.99).
  const double mc_mean =
      static_cast<double>(db.table(cols.movie_companies).num_rows()) /
      config.num_titles;
  EXPECT_GT(mc_mean, config.companies_per_title * 0.5);
  EXPECT_LT(mc_mean, config.companies_per_title * 1.6);
}

TEST(ImdbGeneratorTest, ValueDomains) {
  const Database db = GenerateImdb(SmallConfig());
  const ImdbColumns cols = ResolveImdbColumns(db.schema());

  const Column& kind = db.table(cols.title).column(cols.title_kind_id);
  EXPECT_GE(kind.min_value(), 1);
  EXPECT_LE(kind.max_value(), kNumTitleKinds);

  const Column& year =
      db.table(cols.title).column(cols.title_production_year);
  EXPECT_GE(year.min_value(), kMinYear);
  EXPECT_LE(year.max_value(), kMaxYear);
  EXPECT_GT(year.null_count(), 0u);  // ~4% null years.
  EXPECT_LT(year.null_fraction(), 0.10);

  const Column& company =
      db.table(cols.movie_companies).column(cols.mc_company_id);
  EXPECT_GE(company.min_value(), 1);
  EXPECT_LE(company.max_value(), 700);

  const Column& role = db.table(cols.cast_info).column(cols.ci_role_id);
  EXPECT_GE(role.min_value(), 1);
  EXPECT_LE(role.max_value(), kNumRoles);
}

TEST(ImdbGeneratorTest, ForeignKeysReferenceExistingTitles) {
  const Database db = GenerateImdb(SmallConfig());
  const ImdbColumns cols = ResolveImdbColumns(db.schema());
  for (TableId fk_table : {cols.movie_companies, cols.cast_info,
                           cols.movie_info, cols.movie_info_idx,
                           cols.movie_keyword}) {
    const Column& movie_id = db.table(fk_table).column(1);
    EXPECT_GE(movie_id.min_value(), 0);
    EXPECT_LT(movie_id.max_value(), SmallConfig().num_titles);
    EXPECT_EQ(movie_id.null_count(), 0u);
  }
}

TEST(ImdbGeneratorTest, PopularityIsHeavyTailed) {
  const Database db = GenerateImdb(SmallConfig());
  const ImdbColumns cols = ResolveImdbColumns(db.schema());
  const Column& company =
      db.table(cols.movie_companies).column(cols.mc_company_id);
  std::map<int32_t, int64_t> histogram;
  for (size_t row = 0; row < company.size(); ++row) {
    ++histogram[company.raw(row)];
  }
  // The most common company should take far more than a uniform share.
  int64_t max_count = 0;
  for (const auto& [value, count] : histogram) max_count = std::max(max_count, count);
  const double uniform_share =
      static_cast<double>(company.size()) / 700.0;
  EXPECT_GT(static_cast<double>(max_count), 5.0 * uniform_share);
}

// The join-crossing correlation the whole paper is about: company ids are
// era-specialized, so conditioning a company band on the joined title's era
// concentrates the distribution.
TEST(ImdbGeneratorTest, CompanyEraBandsFollowTitleEras) {
  const ImdbConfig config = SmallConfig();
  const Database db = GenerateImdb(config);
  const ImdbColumns cols = ResolveImdbColumns(db.schema());
  const Table& title = db.table(cols.title);
  const Table& mc = db.table(cols.movie_companies);
  const Column& year = title.column(cols.title_production_year);

  const int band = config.num_companies / kNumEras;
  int64_t matching = 0;
  int64_t total = 0;
  for (size_t row = 0; row < mc.num_rows(); ++row) {
    const int32_t movie = mc.column(cols.mc_movie_id).raw(row);
    const int32_t year_value = year.raw(static_cast<size_t>(movie));
    if (year_value == kNullValue) continue;
    const int era = EraOfYear(year_value);
    const int32_t company = mc.column(cols.mc_company_id).raw(row);
    const int32_t base =
        std::min(config.num_companies - band, era * band);
    ++total;
    if (company > base && company <= base + band) ++matching;
  }
  // Under independence the band would capture ~1/7 of rows; with the planted
  // correlation (strength 0.8) it captures the vast majority.
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(matching) / static_cast<double>(total), 0.5);
}

TEST(ImdbGeneratorTest, RoleMixDependsOnTitleKind) {
  const Database db = GenerateImdb(SmallConfig());
  const ImdbColumns cols = ResolveImdbColumns(db.schema());
  const Column& kind = db.table(cols.title).column(cols.title_kind_id);
  const Table& ci = db.table(cols.cast_info);

  // Fraction of role 11 ("self") for episodes (kind 3) vs movies (kind 1).
  int64_t episode_rows = 0;
  int64_t episode_self = 0;
  int64_t movie_rows = 0;
  int64_t movie_self = 0;
  for (size_t row = 0; row < ci.num_rows(); ++row) {
    const int32_t movie = ci.column(cols.ci_movie_id).raw(row);
    const int32_t role = ci.column(cols.ci_role_id).raw(row);
    const int32_t k = kind.raw(static_cast<size_t>(movie));
    if (k == 3) {
      ++episode_rows;
      episode_self += (role == 11);
    } else if (k == 1) {
      ++movie_rows;
      movie_self += (role == 11);
    }
  }
  ASSERT_GT(episode_rows, 0);
  ASSERT_GT(movie_rows, 0);
  const double episode_fraction =
      static_cast<double>(episode_self) / static_cast<double>(episode_rows);
  const double movie_fraction =
      static_cast<double>(movie_self) / static_cast<double>(movie_rows);
  EXPECT_GT(episode_fraction, 3.0 * movie_fraction);
}

TEST(ImdbGeneratorTest, CorrelationKnobRemovesDependence) {
  ImdbConfig config = SmallConfig();
  config.correlation_strength = 0.0;
  const Database db = GenerateImdb(config);
  const ImdbColumns cols = ResolveImdbColumns(db.schema());
  const Column& year =
      db.table(cols.title).column(cols.title_production_year);
  const Table& mc = db.table(cols.movie_companies);

  const int band = config.num_companies / kNumEras;
  int64_t matching = 0;
  int64_t total = 0;
  for (size_t row = 0; row < mc.num_rows(); ++row) {
    const int32_t movie = mc.column(cols.mc_movie_id).raw(row);
    const int32_t year_value = year.raw(static_cast<size_t>(movie));
    if (year_value == kNullValue) continue;
    const int era = EraOfYear(year_value);
    const int32_t company = mc.column(cols.mc_company_id).raw(row);
    const int32_t base = std::min(config.num_companies - band, era * band);
    ++total;
    if (company > base && company <= base + band) ++matching;
  }
  ASSERT_GT(total, 0);
  // Without correlation the Zipf head dominates; era bands get no special
  // mass beyond their popularity share. Band 0 holds the popular head, so
  // allow a generous margin while staying far below the correlated case.
  EXPECT_LT(static_cast<double>(matching) / static_cast<double>(total), 0.45);
}

}  // namespace
}  // namespace lc
