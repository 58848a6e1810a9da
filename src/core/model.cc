#include "core/model.h"

#include <cstdint>
#include <limits>

#include "util/file.h"

namespace lc {

namespace {
constexpr uint32_t kModelMagic = 0x4c434d4e;  // "LCMN"
constexpr uint32_t kModelVersion = 1;

bool HasShape(const TwoLayerMlp& mlp, int64_t in, int64_t hidden,
              int64_t out, OutputActivation activation) {
  return mlp.in_features() == in && mlp.hidden_units() == hidden &&
         mlp.out_features() == out && mlp.activation() == activation;
}
}  // namespace

MscnModel::MscnModel(const FeatureDims& dims, const MscnConfig& config,
                     Rng* rng)
    : dims_(dims),
      config_(config),
      table_module_(dims.table_features, config.hidden_units,
                    config.hidden_units, OutputActivation::kRelu, rng),
      join_module_(dims.join_features, config.hidden_units,
                   config.hidden_units, OutputActivation::kRelu, rng),
      predicate_module_(dims.predicate_features, config.hidden_units,
                        config.hidden_units, OutputActivation::kRelu, rng),
      output_mlp_(3 * config.hidden_units, config.hidden_units, 1,
                  OutputActivation::kSigmoid, rng) {}

Tape::NodeId MscnModel::Forward(Tape* tape, const MscnBatch& batch) {
  // Per-element shared MLPs on the flattened (batch*set, features) inputs,
  // then masked average pooling back to (batch, d). The featurized inputs
  // are one-hot/bitmap rows — mostly zeros — so the set modules take the
  // sparse-input matmul path; everything downstream is dense.
  const Tape::NodeId table_elements = table_module_.Apply(
      tape, tape->ConstantRef(&batch.tables), /*sparse_input=*/true);
  const Tape::NodeId w_tables =
      tape->MaskedMean(table_elements, tape->ConstantRef(&batch.table_mask),
                       batch.size, batch.table_set_size);

  const Tape::NodeId join_elements = join_module_.Apply(
      tape, tape->ConstantRef(&batch.joins), /*sparse_input=*/true);
  const Tape::NodeId w_joins =
      tape->MaskedMean(join_elements, tape->ConstantRef(&batch.join_mask),
                       batch.size, batch.join_set_size);

  const Tape::NodeId predicate_elements = predicate_module_.Apply(
      tape, tape->ConstantRef(&batch.predicates), /*sparse_input=*/true);
  const Tape::NodeId w_predicates = tape->MaskedMean(
      predicate_elements, tape->ConstantRef(&batch.predicate_mask),
      batch.size, batch.predicate_set_size);

  const Tape::NodeId merged =
      tape->ConcatCols({w_tables, w_joins, w_predicates});
  return output_mlp_.Apply(tape, merged);
}

void MscnModel::Predict(const MscnBatch& batch, Tape* tape,
                        std::vector<double>* estimates) {
  tape->Reset();
  const Tape::NodeId out = Forward(tape, batch);
  const Tensor& predictions = tape->value(out);
  estimates->reserve(estimates->size() + static_cast<size_t>(batch.size));
  for (int64_t i = 0; i < batch.size; ++i) {
    estimates->push_back(normalizer_.Denormalize(predictions[i]));
  }
  // Release the borrowed batch tensors (the caller's batch may die before
  // the tape does); the value buffers stay pooled for the next call.
  tape->Reset();
}

std::vector<double> MscnModel::Predict(const MscnBatch& batch) {
  Tape tape;
  std::vector<double> cardinalities;
  Predict(batch, &tape, &cardinalities);
  return cardinalities;
}

std::vector<Parameter*> MscnModel::parameters() {
  std::vector<Parameter*> all;
  for (TwoLayerMlp* module : {&table_module_, &join_module_,
                              &predicate_module_, &output_mlp_}) {
    for (Parameter* parameter : module->parameters()) {
      all.push_back(parameter);
    }
  }
  return all;
}

size_t MscnModel::ByteSize() const {
  return table_module_.ByteSize() + join_module_.ByteSize() +
         predicate_module_.ByteSize() + output_mlp_.ByteSize();
}

std::string MscnModel::ToBytes() const {
  BinaryWriter writer;
  writer.WriteU32(kModelMagic);
  writer.WriteU32(kModelVersion);
  writer.WriteU8(static_cast<uint8_t>(config_.variant));
  writer.WriteI64(config_.hidden_units);
  writer.WriteI64(dims_.table_features);
  writer.WriteI64(dims_.join_features);
  writer.WriteI64(dims_.predicate_features);
  writer.WriteU64(dims_.sample_bits);
  normalizer_.Save(&writer);
  table_module_.Save(&writer);
  join_module_.Save(&writer);
  predicate_module_.Save(&writer);
  output_mlp_.Save(&writer);
  return std::move(writer.TakeBuffer());
}

StatusOr<MscnModel> MscnModel::FromBytes(const std::string& bytes) {
  BinaryReader reader(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  LC_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kModelMagic) return Status::Corruption("not an MSCN model");
  LC_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kModelVersion) {
    return Status::Corruption("unsupported model version");
  }
  MscnModel model;
  uint8_t variant = 0;
  LC_RETURN_IF_ERROR(reader.ReadU8(&variant));
  if (variant > static_cast<uint8_t>(FeatureVariant::kPredicateBitmaps)) {
    return Status::Corruption("bad feature variant");
  }
  model.config_.variant = static_cast<FeatureVariant>(variant);
  int64_t hidden = 0;
  LC_RETURN_IF_ERROR(reader.ReadI64(&hidden));
  if (hidden < 1 || hidden > std::numeric_limits<int32_t>::max()) {
    return Status::Corruption("hidden_units out of range");
  }
  model.config_.hidden_units = static_cast<int>(hidden);
  LC_RETURN_IF_ERROR(reader.ReadI64(&model.dims_.table_features));
  LC_RETURN_IF_ERROR(reader.ReadI64(&model.dims_.join_features));
  LC_RETURN_IF_ERROR(reader.ReadI64(&model.dims_.predicate_features));
  uint64_t sample_bits = 0;
  LC_RETURN_IF_ERROR(reader.ReadU64(&sample_bits));
  model.dims_.sample_bits = sample_bits;
  LC_RETURN_IF_ERROR(model.normalizer_.Load(&reader));
  LC_RETURN_IF_ERROR(model.table_module_.Load(&reader));
  LC_RETURN_IF_ERROR(model.join_module_.Load(&reader));
  LC_RETURN_IF_ERROR(model.predicate_module_.Load(&reader));
  LC_RETURN_IF_ERROR(model.output_mlp_.Load(&reader));
  if (!reader.AtEnd()) return Status::Corruption("trailing model bytes");
  // Each module must have the shape the constructor gives it: a set module
  // of another width, or an output MLP spliced from another model, would
  // load fine and abort in the first forward pass.
  const int64_t h = model.config_.hidden_units;
  const OutputActivation relu = OutputActivation::kRelu;
  if (!HasShape(model.table_module_, model.dims_.table_features, h, h, relu) ||
      !HasShape(model.join_module_, model.dims_.join_features, h, h, relu) ||
      !HasShape(model.predicate_module_, model.dims_.predicate_features, h, h,
                relu)) {
    return Status::Corruption("model weights do not match dims");
  }
  if (!HasShape(model.output_mlp_, 3 * h, h, 1, OutputActivation::kSigmoid)) {
    return Status::Corruption("output MLP does not match the set modules");
  }
  return model;
}

Status MscnModel::SaveToFile(const std::string& path) const {
  return WriteStringToFile(path, ToBytes());
}

StatusOr<MscnModel> MscnModel::LoadFromFile(const std::string& path) {
  std::string bytes;
  LC_ASSIGN_OR_RETURN(bytes, ReadFileToString(path));
  return FromBytes(bytes);
}

}  // namespace lc
