// Synthetic IMDb-like dataset (the substitution for the real IMDb snapshot
// the paper evaluates on; see docs/ARCHITECTURE.md, "Design deviations from
// the paper").
//
// The schema is the 6-table star JOB-light uses: `title` as the hub joined by
// `movie_id` foreign keys from movie_companies, cast_info, movie_info,
// movie_info_idx and movie_keyword.
//
// The generator plants the phenomena that make IMDb hard for independence-
// based estimators:
//   * heavy-tailed (Zipf) value popularity (companies, persons, keywords),
//   * intra-table correlations (company_type depends on company; production
//     year depends on title kind),
//   * join-crossing correlations (companies/persons/keywords are "active" in
//     the era of the movies they attach to; info types depend on title kind),
//   * fan-out skew correlated with attributes (newer titles have more
//     companies/keywords).
// These are precisely the paper's "French actors act in romantic movies"
// style effects (section 1).

#ifndef LC_IMDB_IMDB_H_
#define LC_IMDB_IMDB_H_

#include <cstdint>

#include "db/database.h"

namespace lc {

/// Scale and skew knobs for the generator. The defaults are sized so the
/// full experiment suite runs on a single CPU core in minutes; raise
/// num_titles (e.g. via LC_TITLES) to approach paper-scale data.
struct ImdbConfig {
  uint64_t seed = 7;
  int32_t num_titles = 60000;
  int32_t num_companies = 3000;
  int32_t num_persons = 40000;
  int32_t num_keywords = 8000;
  int32_t num_info_types = 110;

  // Mean foreign-key rows per title, before era/kind modulation.
  double companies_per_title = 2.2;
  double cast_per_title = 4.0;
  double info_per_title = 2.6;
  double info_idx_per_title = 1.1;
  double keywords_per_title = 2.2;

  double zipf_skew = 1.05;
  /// Probability that a dependent value is drawn from the correlated
  /// (era- or kind-conditioned) distribution instead of the global one.
  /// 0 removes all join-crossing correlations.
  double correlation_strength = 0.8;

  /// Reads LC_SEED / LC_TITLES / LC_CORRELATION overrides.
  static ImdbConfig FromEnv();
};

/// Column indices of the IMDb-like schema, resolved once for readability.
struct ImdbColumns {
  TableId title = -1;
  int title_id = -1;
  int title_kind_id = -1;
  int title_production_year = -1;

  TableId movie_companies = -1;
  int mc_movie_id = -1;
  int mc_company_id = -1;
  int mc_company_type_id = -1;

  TableId cast_info = -1;
  int ci_movie_id = -1;
  int ci_person_id = -1;
  int ci_role_id = -1;

  TableId movie_info = -1;
  int mi_movie_id = -1;
  int mi_info_type_id = -1;

  TableId movie_info_idx = -1;
  int mii_movie_id = -1;
  int mii_info_type_id = -1;

  TableId movie_keyword = -1;
  int mk_movie_id = -1;
  int mk_keyword_id = -1;
};

/// Number of title kinds (kind_id in [1, kNumTitleKinds]).
inline constexpr int kNumTitleKinds = 7;
/// Production years span [kMinYear, kMaxYear]; divided into kNumEras eras.
inline constexpr int kMinYear = 1880;
inline constexpr int kMaxYear = 2019;
inline constexpr int kNumEras = 7;
/// Role ids in cast_info span [1, kNumRoles].
inline constexpr int kNumRoles = 11;
/// Company type ids span [1, kNumCompanyTypes].
inline constexpr int kNumCompanyTypes = 4;

/// The era (0-based) a production year belongs to.
int EraOfYear(int32_t year);

/// Builds the 6-table schema with its 5 PK-FK join edges.
Schema MakeImdbSchema();

/// Resolves the column indices of a schema built by MakeImdbSchema.
ImdbColumns ResolveImdbColumns(const Schema& schema);

/// Generates the full synthetic database (finalized, statistics ready).
Database GenerateImdb(const ImdbConfig& config);

}  // namespace lc

#endif  // LC_IMDB_IMDB_H_
