#include "core/normalizer.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace lc {

TargetNormalizer::TargetNormalizer(double min_log, double max_log)
    : min_log_(min_log), max_log_(max_log) {
  LC_CHECK_LT(min_log, max_log);
}

TargetNormalizer TargetNormalizer::FromCardinalities(
    const std::vector<int64_t>& cardinalities) {
  LC_CHECK(!cardinalities.empty());
  double min_log = std::numeric_limits<double>::infinity();
  double max_log = -std::numeric_limits<double>::infinity();
  for (int64_t cardinality : cardinalities) {
    const double log_value =
        std::log(static_cast<double>(std::max<int64_t>(1, cardinality)));
    min_log = std::min(min_log, log_value);
    max_log = std::max(max_log, log_value);
  }
  if (max_log - min_log < 1e-9) max_log = min_log + 1.0;  // Degenerate set.
  return TargetNormalizer(min_log, max_log);
}

float TargetNormalizer::Normalize(int64_t cardinality) const {
  const double log_value =
      std::log(static_cast<double>(std::max<int64_t>(1, cardinality)));
  const double scaled = (log_value - min_log_) / (max_log_ - min_log_);
  return static_cast<float>(std::clamp(scaled, 0.0, 1.0));
}

double TargetNormalizer::Denormalize(float normalized) const {
  const double scaled = std::clamp(static_cast<double>(normalized), 0.0, 1.0);
  return std::exp(scaled * (max_log_ - min_log_) + min_log_);
}

float TargetNormalizer::LogRange() const {
  return static_cast<float>(max_log_ - min_log_);
}

void TargetNormalizer::Save(BinaryWriter* writer) const {
  writer->WriteF64(min_log_);
  writer->WriteF64(max_log_);
}

Status TargetNormalizer::Load(BinaryReader* reader) {
  LC_RETURN_IF_ERROR(reader->ReadF64(&min_log_));
  LC_RETURN_IF_ERROR(reader->ReadF64(&max_log_));
  if (!std::isfinite(min_log_) || !std::isfinite(max_log_)) {
    return Status::Corruption("normalizer bounds not finite");
  }
  if (!(min_log_ < max_log_)) {
    return Status::Corruption("normalizer bounds out of order");
  }
  return Status::OK();
}

}  // namespace lc
