#include "core/config.h"

#include "util/env.h"

namespace lc {

const char* FeatureVariantName(FeatureVariant variant) {
  switch (variant) {
    case FeatureVariant::kNoSamples:
      return "no samples";
    case FeatureVariant::kSampleCounts:
      return "#samples";
    case FeatureVariant::kBitmaps:
      return "bitmaps";
    case FeatureVariant::kPredicateBitmaps:
      return "predicate bitmaps";
  }
  return "?";
}

const char* LossKindName(LossKind loss) {
  switch (loss) {
    case LossKind::kMeanQError:
      return "mean q-error";
    case LossKind::kGeoQError:
      return "geometric mean q-error";
    case LossKind::kMse:
      return "mean squared error";
  }
  return "?";
}

MscnConfig MscnConfig::FromEnv() {
  MscnConfig config;
  config.hidden_units = static_cast<int>(
      GetEnvInt("LC_HIDDEN_UNITS", config.hidden_units));
  config.epochs = static_cast<int>(GetEnvInt("LC_EPOCHS", config.epochs));
  config.batch_size =
      static_cast<int>(GetEnvInt("LC_BATCH_SIZE", config.batch_size));
  config.learning_rate =
      GetEnvDouble("LC_LEARNING_RATE", config.learning_rate);
  config.seed = static_cast<uint64_t>(
      GetEnvInt("LC_MSCN_SEED", static_cast<int64_t>(config.seed)));
  return config;
}

}  // namespace lc
