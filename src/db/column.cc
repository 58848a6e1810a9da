#include "db/column.h"

#include <algorithm>
#include <bit>

namespace lc {

namespace {

// The number of distinct non-NULL values in `values`, whose `non_null`
// non-NULL values all lie in [min_value, max_value]. A span of at most 64
// values per row is counted with a bitmap over it (8 bytes per row at
// most); a sparser one by sorting a copy.
int64_t CountDistinct(const std::vector<int32_t>& values, int32_t min_value,
                      int32_t max_value, size_t non_null) {
  if (non_null == 0) return 0;
  const uint64_t span = static_cast<uint64_t>(static_cast<int64_t>(max_value) -
                                              min_value) +
                        1;
  if (span <= 64 * static_cast<uint64_t>(non_null)) {
    std::vector<uint64_t> bits((span + 63) / 64, 0);
    for (const int32_t value : values) {
      if (value == kNullValue) continue;
      const uint64_t offset =
          static_cast<uint64_t>(static_cast<int64_t>(value) - min_value);
      bits[offset / 64] |= uint64_t{1} << (offset % 64);
    }
    int64_t distinct = 0;
    for (const uint64_t word : bits) distinct += std::popcount(word);
    return distinct;
  }
  std::vector<int32_t> sorted;
  sorted.reserve(non_null);
  for (const int32_t value : values) {
    if (value != kNullValue) sorted.push_back(value);
  }
  std::sort(sorted.begin(), sorted.end());
  return std::unique(sorted.begin(), sorted.end()) - sorted.begin();
}

}  // namespace

void Column::Finalize() {
  if (finalized_) return;
  Stats stats;
  bool first = true;
  for (int32_t value : values_) {
    if (value == kNullValue) {
      ++stats.null_count;
      continue;
    }
    if (first) {
      stats.min_value = value;
      stats.max_value = value;
      first = false;
    } else {
      stats.min_value = std::min(stats.min_value, value);
      stats.max_value = std::max(stats.max_value, value);
    }
  }
  stats.distinct_count =
      CountDistinct(values_, stats.min_value, stats.max_value,
                    values_.size() - stats.null_count);
  stats_ = stats;
  finalized_ = true;
}

double Column::null_fraction() const {
  if (values_.empty()) return 0.0;
  return static_cast<double>(null_count()) /
         static_cast<double>(values_.size());
}

}  // namespace lc
