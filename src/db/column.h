// Nullable int32 column storage with exact per-column statistics (min, max,
// distinct count, null fraction). The statistics feed literal normalization
// in the featurizer (section 3.1) and the PostgreSQL-style estimator.

#ifndef LC_DB_COLUMN_H_
#define LC_DB_COLUMN_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace lc {

/// Sentinel for SQL NULL inside column storage.
inline constexpr int32_t kNullValue = std::numeric_limits<int32_t>::min();

/// Append-only nullable int32 column. Call Finalize() once loading is done;
/// statistics are only valid afterwards.
class Column {
 public:
  Column() = default;

  void Reserve(size_t rows) { values_.reserve(rows); }
  void Append(int32_t value) {
    LC_DCHECK(value != kNullValue);
    values_.push_back(value);
  }
  void AppendNull() { values_.push_back(kNullValue); }

  size_t size() const { return values_.size(); }
  bool is_null(size_t row) const { return values_[row] == kNullValue; }
  /// Raw value including the kNullValue sentinel; branch-free scans test
  /// against kNullValue themselves.
  int32_t raw(size_t row) const { return values_[row]; }
  /// Non-null value; checked in debug builds.
  int32_t value(size_t row) const {
    LC_DCHECK(!is_null(row));
    return values_[row];
  }
  const std::vector<int32_t>& raw_values() const { return values_; }

  /// Computes min/max/distinct/null statistics; idempotent. Distinct
  /// values are counted without hashing: with a bitmap over [min, max]
  /// when that span is at most 64 values per non-NULL row, otherwise by
  /// sorting a copy and counting unique values.
  void Finalize();

  bool finalized() const { return finalized_; }
  /// Statistics (valid after Finalize). For all-null columns min/max are 0.
  int32_t min_value() const { return stats_checked_().min_value; }
  int32_t max_value() const { return stats_checked_().max_value; }
  int64_t distinct_count() const { return stats_checked_().distinct_count; }
  size_t null_count() const { return stats_checked_().null_count; }
  double null_fraction() const;
  size_t non_null_count() const { return size() - null_count(); }

 private:
  struct Stats {
    int32_t min_value = 0;
    int32_t max_value = 0;
    int64_t distinct_count = 0;
    size_t null_count = 0;
  };
  const Stats& stats_checked_() const {
    LC_CHECK(finalized_) << "column statistics require Finalize()";
    return stats_;
  }

  std::vector<int32_t> values_;
  Stats stats_;
  bool finalized_ = false;
};

}  // namespace lc

#endif  // LC_DB_COLUMN_H_
