// Configuration of the MSCN estimator: the feature variant ablated in the
// paper's section 4.3, the model hyperparameters of section 4.6 and the
// training-objective choice of section 4.8.

#ifndef LC_CORE_CONFIG_H_
#define LC_CORE_CONFIG_H_

#include <cstdint>

namespace lc {

/// Which sample-derived features the model sees (paper section 4.3).
enum class FeatureVariant : uint8_t {
  kNoSamples = 0,     // "MSCN (no samples)": pure query features.
  kSampleCounts = 1,  // "MSCN (#samples)": one qualifying count per table.
  kBitmaps = 2,       // "MSCN (bitmaps)": full positional bitmaps.
  /// Extension (paper section 5, "More bitmaps"): in addition to the
  /// per-table conjunction bitmap, every predicate-set element carries the
  /// positional bitmap of that predicate evaluated alone.
  kPredicateBitmaps = 3,
};

const char* FeatureVariantName(FeatureVariant variant);

/// Training objective (paper section 4.8).
enum class LossKind : uint8_t {
  kMeanQError = 0,  // The paper's default.
  kGeoQError = 1,
  kMse = 2,
};

const char* LossKindName(LossKind loss);

/// Everything needed to build and train one MSCN instance.
struct MscnConfig {
  FeatureVariant variant = FeatureVariant::kBitmaps;
  /// Width d of every hidden layer and set representation (paper: 256; the
  /// scaled default keeps single-core training fast; see
  /// docs/ARCHITECTURE.md, "Design deviations from the paper").
  int hidden_units = 64;
  int epochs = 48;
  int batch_size = 128;
  double learning_rate = 1e-3;
  LossKind loss = LossKind::kMeanQError;
  /// Fraction of the labelled corpus held out for validation (paper: 10%).
  double validation_fraction = 0.1;
  /// Seed for weight initialization and mini-batch shuffling.
  uint64_t seed = 1234;

  /// Reads LC_HIDDEN_UNITS / LC_EPOCHS / LC_BATCH_SIZE / LC_LEARNING_RATE
  /// overrides onto the defaults.
  static MscnConfig FromEnv();
};

}  // namespace lc

#endif  // LC_CORE_CONFIG_H_
