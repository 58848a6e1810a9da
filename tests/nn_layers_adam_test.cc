// Tests for Linear/TwoLayerMlp layers, the Adam optimizer and tensor/layer
// serialization: shapes, a hand-checked Adam step, end-to-end convergence on
// a small regression task, and save/load round trips.

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/tape.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace lc {
namespace {

TEST(LinearTest, ApplyShapeAndValue) {
  Rng rng(1);
  Linear layer(3, 2, &rng);
  // Deterministic weights for a value check.
  layer.weight().value.Fill(1.0f);
  layer.bias().value[0] = 10.0f;
  layer.bias().value[1] = 20.0f;
  Tape tape;
  Tensor x = Tensor::Full({4, 3}, 2.0f);
  const auto out = layer.Apply(&tape, tape.Constant(x));
  EXPECT_EQ(tape.value(out).dim(0), 4);
  EXPECT_EQ(tape.value(out).dim(1), 2);
  EXPECT_FLOAT_EQ(tape.value(out).at(0, 0), 16.0f);  // 3*2*1 + 10.
  EXPECT_FLOAT_EQ(tape.value(out).at(3, 1), 26.0f);  // 3*2*1 + 20.
}

TEST(LinearTest, HeInitializationScale) {
  Rng rng(2);
  Linear layer(256, 128, &rng);
  double sum_sq = 0.0;
  const Tensor& w = layer.weight().value;
  for (int64_t i = 0; i < w.size(); ++i) {
    sum_sq += static_cast<double>(w[i]) * w[i];
  }
  const double variance = sum_sq / static_cast<double>(w.size());
  EXPECT_NEAR(variance, 2.0 / 256.0, 2.0 / 256.0 * 0.2);
  for (int64_t i = 0; i < layer.bias().value.size(); ++i) {
    EXPECT_EQ(layer.bias().value[i], 0.0f);
  }
}

TEST(TwoLayerMlpTest, OutputActivationBounds) {
  Rng rng(3);
  TwoLayerMlp relu_mlp(4, 8, 3, OutputActivation::kRelu, &rng);
  TwoLayerMlp sigmoid_mlp(4, 8, 1, OutputActivation::kSigmoid, &rng);
  Tape tape;
  const Tensor x = Tensor::Randn({10, 4}, 2.0f, &rng);
  const auto relu_out = relu_mlp.Apply(&tape, tape.Constant(x));
  const auto sigmoid_out = sigmoid_mlp.Apply(&tape, tape.Constant(x));
  for (int64_t i = 0; i < tape.value(relu_out).size(); ++i) {
    EXPECT_GE(tape.value(relu_out)[i], 0.0f);
  }
  for (int64_t i = 0; i < tape.value(sigmoid_out).size(); ++i) {
    EXPECT_GT(tape.value(sigmoid_out)[i], 0.0f);
    EXPECT_LT(tape.value(sigmoid_out)[i], 1.0f);
  }
}

TEST(TwoLayerMlpTest, ParameterCountAndByteSize) {
  Rng rng(4);
  TwoLayerMlp mlp(10, 16, 4, OutputActivation::kRelu, &rng);
  EXPECT_EQ(mlp.parameters().size(), 4u);
  // (10*16 + 16) + (16*4 + 4) floats.
  EXPECT_EQ(mlp.ByteSize(), (10 * 16 + 16 + 16 * 4 + 4) * sizeof(float));
}

TEST(AdamTest, SingleStepMatchesHandComputation) {
  Parameter p(Tensor::Full({1}, 1.0f));
  p.grad[0] = 0.5f;
  AdamConfig config;
  config.learning_rate = 0.1f;
  Adam adam({&p}, config);
  adam.Step();
  // After one step m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps).
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f, 1e-5f);
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(AdamTest, ZeroGradClearsAllParameters) {
  Parameter a(Tensor::Full({2}, 1.0f));
  Parameter b(Tensor::Full({3}, 1.0f));
  a.grad.Fill(5.0f);
  b.grad.Fill(-2.0f);
  Adam adam({&a, &b});
  adam.ZeroGrad();
  for (int64_t i = 0; i < a.grad.size(); ++i) EXPECT_EQ(a.grad[i], 0.0f);
  for (int64_t i = 0; i < b.grad.size(); ++i) EXPECT_EQ(b.grad[i], 0.0f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (p - 3)^2 with Adam; should approach 3.
  Parameter p(Tensor::Full({1}, -5.0f));
  AdamConfig config;
  config.learning_rate = 0.05f;
  Adam adam({&p}, config);
  for (int step = 0; step < 2000; ++step) {
    adam.ZeroGrad();
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    adam.Step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(TrainingIntegrationTest, MlpLearnsDeterministicFunction) {
  // Fit y = sigmoid-ish mapping of a linear function of x; checks the whole
  // tape -> backward -> Adam loop reduces the loss by a large factor.
  Rng rng(42);
  TwoLayerMlp mlp(2, 16, 1, OutputActivation::kSigmoid, &rng);
  Adam adam(mlp.parameters());

  const int64_t n = 64;
  Tensor x = Tensor::Randn({n, 2}, 1.0f, &rng);
  Tensor y({n, 1});
  for (int64_t i = 0; i < n; ++i) {
    const float v = 0.8f * x.at(i, 0) - 0.5f * x.at(i, 1);
    y[i] = 1.0f / (1.0f + std::exp(-v));
  }

  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int epoch = 0; epoch < 700; ++epoch) {
    Tape tape;
    const auto out = mlp.Apply(&tape, tape.Constant(x));
    const auto loss = tape.MseLoss(out, y);
    if (epoch == 0) first_loss = tape.value(loss)[0];
    last_loss = tape.value(loss)[0];
    adam.ZeroGrad();
    tape.Backward(loss);
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss / 20.0f);
  EXPECT_LT(last_loss, 2e-3f);
}

TEST(SerializationTest, TensorRoundTrip) {
  Rng rng(7);
  const Tensor original = Tensor::Randn({3, 5}, 1.0f, &rng);
  BinaryWriter writer;
  SaveTensor(original, &writer);
  BinaryReader reader(writer.buffer());
  Tensor loaded;
  ASSERT_TRUE(LoadTensor(&reader, &loaded).ok());
  EXPECT_TRUE(loaded.Equals(original));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializationTest, TensorRejectsCorruptBuffer) {
  BinaryWriter writer;
  SaveTensor(Tensor::Full({4}, 1.0f), &writer);
  std::string truncated = writer.buffer().substr(0, writer.buffer().size() - 3);
  BinaryReader reader(truncated);
  Tensor loaded;
  EXPECT_FALSE(LoadTensor(&reader, &loaded).ok());
}

// Dims whose product wraps int64 (2^40 cubed is 0 modulo 2^64) must not
// pass for an empty float array.
TEST(SerializationTest, TensorRejectsOverflowingDims) {
  const int64_t dims[][3] = {{int64_t{1} << 40, int64_t{1} << 40,
                              int64_t{1} << 40},
                             {int64_t{1} << 32, int64_t{1} << 32, 1},
                             {std::numeric_limits<int64_t>::max(), 2, 1}};
  for (const auto& shape : dims) {
    BinaryWriter writer;
    writer.WriteU64(3);
    for (const int64_t dim : shape) writer.WriteI64(dim);
    writer.WriteFloats(nullptr, 0);
    BinaryReader reader(writer.buffer());
    Tensor loaded;
    EXPECT_EQ(LoadTensor(&reader, &loaded).code(), StatusCode::kCorruption)
        << shape[0] << " " << shape[1] << " " << shape[2];
  }
}

TEST(SerializationTest, LinearRoundTrip) {
  Rng rng(8);
  Linear original(6, 3, &rng);
  BinaryWriter writer;
  original.Save(&writer);
  EXPECT_EQ(writer.buffer().size() > original.ByteSize(), true);

  Linear loaded;
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(loaded.Load(&reader).ok());
  EXPECT_TRUE(loaded.weight().value.Equals(original.weight().value));
  EXPECT_TRUE(loaded.bias().value.Equals(original.bias().value));
}

TEST(SerializationTest, TwoLayerMlpRoundTripPreservesOutputs) {
  Rng rng(9);
  TwoLayerMlp original(4, 8, 2, OutputActivation::kSigmoid, &rng);
  BinaryWriter writer;
  original.Save(&writer);

  TwoLayerMlp loaded;
  BinaryReader reader(writer.buffer());
  ASSERT_TRUE(loaded.Load(&reader).ok());

  const Tensor x = Tensor::Randn({5, 4}, 1.0f, &rng);
  Tape tape_a;
  Tape tape_b;
  const auto out_a = original.Apply(&tape_a, tape_a.Constant(x));
  const auto out_b = loaded.Apply(&tape_b, tape_b.Constant(x));
  EXPECT_TRUE(tape_a.value(out_a).Equals(tape_b.value(out_b)));
}

TEST(SerializationTest, BinaryPrimitivesRoundTrip) {
  BinaryWriter writer;
  writer.WriteU8(7);
  writer.WriteU32(123456u);
  writer.WriteU64(0xdeadbeefcafef00dULL);
  writer.WriteI64(-42);
  writer.WriteF32(1.5f);
  writer.WriteF64(2.25);
  writer.WriteString("mscn");

  BinaryReader reader(writer.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  float f32;
  double f64;
  std::string text;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  ASSERT_TRUE(reader.ReadF32(&f32).ok());
  ASSERT_TRUE(reader.ReadF64(&f64).ok());
  ASSERT_TRUE(reader.ReadString(&text).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, 2.25);
  EXPECT_EQ(text, "mscn");
  EXPECT_TRUE(reader.AtEnd());
}

}  // namespace
}  // namespace lc
