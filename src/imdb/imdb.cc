#include "imdb/imdb.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"

namespace lc {

namespace {

// Per-kind weights for title.kind_id (1=movie, 2=tv series, 3=episode,
// 4=video, 5=tv movie, 6=video game, 7=short).
const std::vector<double>& KindWeights() {
  static const std::vector<double>* weights = new std::vector<double>{
      0.42, 0.10, 0.26, 0.08, 0.06, 0.03, 0.05};
  return *weights;
}

// Role-id weight tables per kind (join-crossing correlation: the role mix of
// a title's cast depends on the title's kind).
const std::vector<double>& RoleWeightsForKind(int kind) {
  // 11 roles: 1=actor 2=actress 3=producer 4=writer 5=cinematographer
  // 6=composer 7=costume designer 8=director 9=editor 10=miscellaneous
  // 11=self.
  static const std::vector<std::vector<double>>* tables =
      new std::vector<std::vector<double>>{
          // movie: acting + crew heavy.
          {30, 24, 8, 9, 4, 4, 2, 7, 5, 6, 1},
          // tv series: writers/directors rotate, some self.
          {22, 18, 10, 14, 3, 3, 2, 9, 6, 8, 5},
          // episode: lots of "self" (talk shows) and writers.
          {16, 13, 7, 15, 2, 2, 1, 8, 5, 9, 22},
          // video: miscellaneous heavy.
          {24, 18, 9, 8, 4, 5, 3, 8, 6, 12, 3},
          // tv movie.
          {28, 24, 9, 10, 3, 4, 3, 8, 5, 5, 1},
          // video game: voice actors + misc.
          {34, 16, 8, 10, 1, 6, 1, 6, 4, 13, 1},
          // short.
          {26, 20, 8, 10, 5, 4, 2, 12, 7, 5, 1},
      };
  LC_CHECK(kind >= 1 && kind <= kNumTitleKinds);
  return (*tables)[static_cast<size_t>(kind - 1)];
}

}  // namespace

int EraOfYear(int32_t year) {
  if (year < kMinYear) return 0;
  if (year > kMaxYear) return kNumEras - 1;
  const int span = (kMaxYear - kMinYear + 1 + kNumEras - 1) / kNumEras;
  return (year - kMinYear) / span;
}

ImdbConfig ImdbConfig::FromEnv() {
  ImdbConfig config;
  config.seed = static_cast<uint64_t>(GetEnvInt("LC_SEED", 7));
  config.num_titles =
      static_cast<int32_t>(GetEnvInt("LC_TITLES", config.num_titles));
  config.correlation_strength =
      GetEnvDouble("LC_CORRELATION", config.correlation_strength);
  // Entity pools scale with the title count so selectivities stay stable.
  const double scale = static_cast<double>(config.num_titles) / 60000.0;
  config.num_companies =
      std::max<int32_t>(200, static_cast<int32_t>(3000 * scale));
  config.num_persons =
      std::max<int32_t>(2000, static_cast<int32_t>(40000 * scale));
  config.num_keywords =
      std::max<int32_t>(500, static_cast<int32_t>(8000 * scale));
  return config;
}

Schema MakeImdbSchema() {
  Schema schema;
  const TableId title = schema.AddTable(TableDef{
      "title",
      {{"id", true}, {"kind_id", false}, {"production_year", false}},
      /*primary_key=*/0});
  const TableId mc = schema.AddTable(TableDef{
      "movie_companies",
      {{"id", true},
       {"movie_id", true},
       {"company_id", false},
       {"company_type_id", false}},
      /*primary_key=*/0});
  const TableId ci = schema.AddTable(TableDef{
      "cast_info",
      {{"id", true},
       {"movie_id", true},
       {"person_id", false},
       {"role_id", false}},
      /*primary_key=*/0});
  const TableId mi = schema.AddTable(TableDef{
      "movie_info",
      {{"id", true}, {"movie_id", true}, {"info_type_id", false}},
      /*primary_key=*/0});
  const TableId mii = schema.AddTable(TableDef{
      "movie_info_idx",
      {{"id", true}, {"movie_id", true}, {"info_type_id", false}},
      /*primary_key=*/0});
  const TableId mk = schema.AddTable(TableDef{
      "movie_keyword",
      {{"id", true}, {"movie_id", true}, {"keyword_id", false}},
      /*primary_key=*/0});

  schema.AddJoinEdge(title, "id", mc, "movie_id");
  schema.AddJoinEdge(title, "id", ci, "movie_id");
  schema.AddJoinEdge(title, "id", mi, "movie_id");
  schema.AddJoinEdge(title, "id", mii, "movie_id");
  schema.AddJoinEdge(title, "id", mk, "movie_id");
  return schema;
}

ImdbColumns ResolveImdbColumns(const Schema& schema) {
  ImdbColumns cols;
  cols.title = schema.FindTable("title").value();
  cols.title_id = schema.table(cols.title).FindColumn("id");
  cols.title_kind_id = schema.table(cols.title).FindColumn("kind_id");
  cols.title_production_year =
      schema.table(cols.title).FindColumn("production_year");

  cols.movie_companies = schema.FindTable("movie_companies").value();
  const TableDef& mc = schema.table(cols.movie_companies);
  cols.mc_movie_id = mc.FindColumn("movie_id");
  cols.mc_company_id = mc.FindColumn("company_id");
  cols.mc_company_type_id = mc.FindColumn("company_type_id");

  cols.cast_info = schema.FindTable("cast_info").value();
  const TableDef& ci = schema.table(cols.cast_info);
  cols.ci_movie_id = ci.FindColumn("movie_id");
  cols.ci_person_id = ci.FindColumn("person_id");
  cols.ci_role_id = ci.FindColumn("role_id");

  cols.movie_info = schema.FindTable("movie_info").value();
  const TableDef& mi = schema.table(cols.movie_info);
  cols.mi_movie_id = mi.FindColumn("movie_id");
  cols.mi_info_type_id = mi.FindColumn("info_type_id");

  cols.movie_info_idx = schema.FindTable("movie_info_idx").value();
  const TableDef& mii = schema.table(cols.movie_info_idx);
  cols.mii_movie_id = mii.FindColumn("movie_id");
  cols.mii_info_type_id = mii.FindColumn("info_type_id");

  cols.movie_keyword = schema.FindTable("movie_keyword").value();
  const TableDef& mk = schema.table(cols.movie_keyword);
  cols.mk_movie_id = mk.FindColumn("movie_id");
  cols.mk_keyword_id = mk.FindColumn("keyword_id");
  return cols;
}

namespace {

// Draws an entity id in [1, pool_size] that is, with probability
// `correlation`, specialized to the given era (entities are partitioned into
// kNumEras contiguous "active era" bands, Zipf-popular within their band) and
// otherwise drawn from the global Zipf distribution.
class EraEntitySampler {
 public:
  EraEntitySampler(int32_t pool_size, double zipf_skew, double correlation)
      : pool_size_(pool_size),
        correlation_(correlation),
        global_(static_cast<size_t>(pool_size), zipf_skew),
        band_(static_cast<size_t>(std::max(1, pool_size / kNumEras)),
              zipf_skew) {}

  int32_t Sample(int era, Rng* rng) const {
    if (rng->UniformDouble() < correlation_) {
      const int32_t band_size = std::max(1, pool_size_ / kNumEras);
      const int32_t base = std::min(pool_size_ - band_size,
                                    static_cast<int32_t>(era) * band_size);
      return base + static_cast<int32_t>(band_.Sample(rng)) + 1;
    }
    return static_cast<int32_t>(global_.Sample(rng)) + 1;
  }

 private:
  int32_t pool_size_;
  double correlation_;
  ZipfDistribution global_;
  ZipfDistribution band_;
};

}  // namespace

Database GenerateImdb(const ImdbConfig& config) {
  LC_CHECK_GT(config.num_titles, 0);
  Database db(MakeImdbSchema());
  const ImdbColumns cols = ResolveImdbColumns(db.schema());
  Rng rng(config.seed);

  // ---- title ----
  Table& title = db.table(cols.title);
  std::vector<int32_t> kinds(static_cast<size_t>(config.num_titles));
  std::vector<int32_t> years(static_cast<size_t>(config.num_titles));
  std::vector<int> eras(static_cast<size_t>(config.num_titles));
  title.column(cols.title_id).Reserve(static_cast<size_t>(config.num_titles));
  for (int32_t i = 0; i < config.num_titles; ++i) {
    const int kind = static_cast<int>(rng.WeightedIndex(KindWeights())) + 1;
    // Year skews recent, as in IMDb: u^2.8 concentrates near 0, so most
    // titles land close to kMaxYear. Kinds that did not exist early
    // (episodes, video games) are clamped forward.
    int year = kMaxYear - static_cast<int>(
        (kMaxYear - kMinYear) * std::pow(rng.UniformDouble(), 2.8));
    if (kind == 3) year = std::max(year, 1950 + static_cast<int>(
        rng.UniformInt(0, 10)));
    if (kind == 6) year = std::max(year, 1975 + static_cast<int>(
        rng.UniformInt(0, 5)));
    year = std::min(year, kMaxYear);
    const bool null_year = rng.Bernoulli(0.04);

    title.column(cols.title_id).Append(i);
    title.column(cols.title_kind_id).Append(kind);
    if (null_year) {
      title.column(cols.title_production_year).AppendNull();
    } else {
      title.column(cols.title_production_year).Append(year);
    }
    kinds[static_cast<size_t>(i)] = kind;
    years[static_cast<size_t>(i)] = year;
    eras[static_cast<size_t>(i)] =
        null_year ? static_cast<int>(rng.UniformInt(0, kNumEras - 1))
                  : EraOfYear(year);
  }

  // Era-modulated fan-out: newer titles accumulate more satellite rows.
  const auto fanout = [](double base, int era) {
    return base * (0.45 + 0.18 * static_cast<double>(era));
  };

  // ---- movie_companies ----
  {
    Table& mc = db.table(cols.movie_companies);
    EraEntitySampler companies(config.num_companies, config.zipf_skew,
                               config.correlation_strength);
    int32_t next_id = 0;
    for (int32_t movie = 0; movie < config.num_titles; ++movie) {
      const int era = eras[static_cast<size_t>(movie)];
      const int64_t count =
          rng.Poisson(fanout(config.companies_per_title, era));
      for (int64_t r = 0; r < count; ++r) {
        const int32_t company = companies.Sample(era, &rng);
        // Intra-table correlation: low-id (popular) companies within a band
        // are production companies; the tail skews to distribution et al.
        const int32_t band = std::max(1, config.num_companies / kNumEras);
        const bool major = (company - 1) % band < band / 4;
        int32_t company_type;
        if (major) {
          company_type = rng.Bernoulli(0.7) ? 1 : 2;
        } else {
          const double u = rng.UniformDouble();
          company_type = u < 0.3 ? 1 : (u < 0.7 ? 2 : (u < 0.9 ? 3 : 4));
        }
        mc.column(0).Append(next_id++);
        mc.column(cols.mc_movie_id).Append(movie);
        mc.column(cols.mc_company_id).Append(company);
        mc.column(cols.mc_company_type_id).Append(company_type);
      }
    }
  }

  // ---- cast_info ----
  {
    Table& ci = db.table(cols.cast_info);
    EraEntitySampler persons(config.num_persons, config.zipf_skew,
                             config.correlation_strength);
    int32_t next_id = 0;
    for (int32_t movie = 0; movie < config.num_titles; ++movie) {
      const int era = eras[static_cast<size_t>(movie)];
      const int kind = kinds[static_cast<size_t>(movie)];
      const int64_t count = rng.Poisson(fanout(config.cast_per_title, era));
      const std::vector<double>& role_weights = RoleWeightsForKind(kind);
      for (int64_t r = 0; r < count; ++r) {
        const int32_t person = persons.Sample(era, &rng);
        int32_t role;
        if (rng.UniformDouble() < config.correlation_strength) {
          role = static_cast<int32_t>(rng.WeightedIndex(role_weights)) + 1;
        } else {
          role = static_cast<int32_t>(rng.UniformInt(1, kNumRoles));
        }
        ci.column(0).Append(next_id++);
        ci.column(cols.ci_movie_id).Append(movie);
        ci.column(cols.ci_person_id).Append(person);
        ci.column(cols.ci_role_id).Append(role);
      }
    }
  }

  // ---- movie_info ----
  {
    Table& mi = db.table(cols.movie_info);
    ZipfDistribution info_types(static_cast<size_t>(config.num_info_types),
                                config.zipf_skew);
    const int band = std::max(1, config.num_info_types / kNumTitleKinds);
    ZipfDistribution band_types(static_cast<size_t>(band), config.zipf_skew);
    int32_t next_id = 0;
    for (int32_t movie = 0; movie < config.num_titles; ++movie) {
      const int era = eras[static_cast<size_t>(movie)];
      const int kind = kinds[static_cast<size_t>(movie)];
      const int64_t count = rng.Poisson(fanout(config.info_per_title, era));
      for (int64_t r = 0; r < count; ++r) {
        int32_t info_type;
        if (rng.UniformDouble() < config.correlation_strength) {
          // Kind-conditioned band of info types.
          const int32_t base = std::min(config.num_info_types - band,
                                        (kind - 1) * band);
          info_type = base + static_cast<int32_t>(band_types.Sample(&rng)) + 1;
        } else {
          info_type = static_cast<int32_t>(info_types.Sample(&rng)) + 1;
        }
        mi.column(0).Append(next_id++);
        mi.column(cols.mi_movie_id).Append(movie);
        mi.column(cols.mi_info_type_id).Append(info_type);
      }
    }
  }

  // ---- movie_info_idx ---- (ratings etc.: small type domain 99..113,
  // strongly skewed toward newer titles).
  {
    Table& mii = db.table(cols.movie_info_idx);
    int32_t next_id = 0;
    for (int32_t movie = 0; movie < config.num_titles; ++movie) {
      const int era = eras[static_cast<size_t>(movie)];
      const int64_t count =
          rng.Poisson(fanout(config.info_idx_per_title, era) *
                      (era >= 4 ? 1.5 : 0.6));
      for (int64_t r = 0; r < count; ++r) {
        // 99=votes 100=rating 101=top-250 ... heavier on the first two.
        const double u = rng.UniformDouble();
        int32_t info_type;
        if (u < 0.4) {
          info_type = 99;
        } else if (u < 0.75) {
          info_type = 100;
        } else {
          info_type = 101 + static_cast<int32_t>(rng.UniformInt(0, 12));
        }
        mii.column(0).Append(next_id++);
        mii.column(cols.mii_movie_id).Append(movie);
        mii.column(cols.mii_info_type_id).Append(info_type);
      }
    }
  }

  // ---- movie_keyword ----
  {
    Table& mk = db.table(cols.movie_keyword);
    EraEntitySampler keywords(config.num_keywords, config.zipf_skew,
                              config.correlation_strength);
    int32_t next_id = 0;
    for (int32_t movie = 0; movie < config.num_titles; ++movie) {
      const int era = eras[static_cast<size_t>(movie)];
      const int64_t count =
          rng.Poisson(fanout(config.keywords_per_title, era));
      for (int64_t r = 0; r < count; ++r) {
        const int32_t keyword = keywords.Sample(era, &rng);
        mk.column(0).Append(next_id++);
        mk.column(cols.mk_movie_id).Append(movie);
        mk.column(cols.mk_keyword_id).Append(keyword);
      }
    }
  }

  db.Finalize();
  return db;
}

}  // namespace lc
