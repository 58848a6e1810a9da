#include "nn/layers.h"

#include <cmath>

namespace lc {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng)
    : weight_(Tensor::Randn(
          {in_features, out_features},
          std::sqrt(2.0f / static_cast<float>(in_features)), rng)),
      bias_(Tensor({out_features})) {}

Tape::NodeId Linear::Apply(Tape* tape, Tape::NodeId x) {
  const Tape::NodeId w = tape->Leaf(&weight_);
  const Tape::NodeId b = tape->Leaf(&bias_);
  return tape->AddBias(tape->MatMul(x, w), b);
}

Tape::NodeId Linear::ApplyRelu(Tape* tape, Tape::NodeId x,
                               bool sparse_input) {
  const Tape::NodeId w = tape->Leaf(&weight_);
  const Tape::NodeId b = tape->Leaf(&bias_);
  return tape->BiasRelu(tape->MatMul(x, w, sparse_input), b);
}

size_t Linear::ByteSize() const {
  return static_cast<size_t>(weight_.value.size() + bias_.value.size()) *
         sizeof(float);
}

void SaveTensor(const Tensor& tensor, BinaryWriter* writer) {
  writer->WriteU64(static_cast<uint64_t>(tensor.rank()));
  for (int64_t i = 0; i < tensor.rank(); ++i) {
    writer->WriteI64(tensor.dim(i));
  }
  writer->WriteFloats(tensor.data(), static_cast<size_t>(tensor.size()));
}

Status LoadTensor(BinaryReader* reader, Tensor* tensor) {
  uint64_t rank = 0;
  LC_RETURN_IF_ERROR(reader->ReadU64(&rank));
  if (rank == 0 || rank > 3) {
    return Status::Corruption("tensor rank out of range");
  }
  std::vector<int64_t> shape(rank);
  int64_t expected = 1;
  for (uint64_t i = 0; i < rank; ++i) {
    LC_RETURN_IF_ERROR(reader->ReadI64(&shape[i]));
    if (shape[i] <= 0) return Status::Corruption("non-positive tensor dim");
    // Unchecked, dims of 2^40 would wrap the product to 0 and match an
    // empty float array.
    if (__builtin_mul_overflow(expected, shape[i], &expected)) {
      return Status::Corruption("tensor element count overflows");
    }
  }
  std::vector<float> data;
  LC_RETURN_IF_ERROR(reader->ReadFloats(&data));
  if (static_cast<int64_t>(data.size()) != expected) {
    return Status::Corruption("tensor data does not match shape");
  }
  *tensor = Tensor(shape);
  std::copy(data.begin(), data.end(), tensor->data());
  return Status::OK();
}

void Linear::Save(BinaryWriter* writer) const {
  SaveTensor(weight_.value, writer);
  SaveTensor(bias_.value, writer);
}

Status Linear::Load(BinaryReader* reader) {
  LC_RETURN_IF_ERROR(LoadTensor(reader, &weight_.value));
  LC_RETURN_IF_ERROR(LoadTensor(reader, &bias_.value));
  if (weight_.value.rank() != 2 || bias_.value.rank() != 1 ||
      weight_.value.dim(1) != bias_.value.dim(0)) {
    return Status::Corruption("linear layer shapes inconsistent");
  }
  weight_.grad = Tensor(weight_.value.shape());
  bias_.grad = Tensor(bias_.value.shape());
  return Status::OK();
}

TwoLayerMlp::TwoLayerMlp(int64_t in_features, int64_t hidden_units,
                         int64_t out_features, OutputActivation activation,
                         Rng* rng)
    : first_(in_features, hidden_units, rng),
      second_(hidden_units, out_features, rng),
      activation_(activation) {}

Tape::NodeId TwoLayerMlp::Apply(Tape* tape, Tape::NodeId x,
                                bool sparse_input) {
  Tape::NodeId hidden = first_.ApplyRelu(tape, x, sparse_input);
  switch (activation_) {
    case OutputActivation::kRelu:
      return second_.ApplyRelu(tape, hidden);
    case OutputActivation::kSigmoid:
      return tape->Sigmoid(second_.Apply(tape, hidden));
    case OutputActivation::kNone:
      return second_.Apply(tape, hidden);
  }
  LC_FATAL() << "unreachable activation";
  return second_.Apply(tape, hidden);
}

int64_t TwoLayerMlp::in_features() const { return first_.in_features(); }
int64_t TwoLayerMlp::out_features() const { return second_.out_features(); }

std::vector<Parameter*> TwoLayerMlp::parameters() {
  return {&first_.weight(), &first_.bias(), &second_.weight(),
          &second_.bias()};
}

size_t TwoLayerMlp::ByteSize() const {
  return first_.ByteSize() + second_.ByteSize();
}

void TwoLayerMlp::Save(BinaryWriter* writer) const {
  writer->WriteU8(static_cast<uint8_t>(activation_));
  first_.Save(writer);
  second_.Save(writer);
}

Status TwoLayerMlp::Load(BinaryReader* reader) {
  uint8_t activation = 0;
  LC_RETURN_IF_ERROR(reader->ReadU8(&activation));
  if (activation > static_cast<uint8_t>(OutputActivation::kNone)) {
    return Status::Corruption("bad activation tag");
  }
  activation_ = static_cast<OutputActivation>(activation);
  LC_RETURN_IF_ERROR(first_.Load(reader));
  LC_RETURN_IF_ERROR(second_.Load(reader));
  if (first_.out_features() != second_.in_features()) {
    return Status::Corruption("mlp layer shapes inconsistent");
  }
  return Status::OK();
}

}  // namespace lc
