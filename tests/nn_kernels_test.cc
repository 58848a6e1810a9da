// Kernel backend tests: AVX2-vs-scalar parity (a randomized-shape suite
// that skips cleanly where the build or cpuid lacks AVX2/FMA), backend
// dispatch and LC_NN_BACKEND validation, the aligned reusable-capacity
// Tensor contract, and tape workspace reuse.
//
// Parity tolerance is 1e-5 via Tensor::MaxAbsDiff: the axpy-structured
// kernels share accumulation order with the scalar reference (FMA rounding
// is their only divergence), while gemm_trans_b's dot products reassociate
// through 8 lane partials — inputs are scaled like activations
// (stddev 1/sqrt(reduction)) so both stay well inside the bound.

#include "nn/kernels.h"

#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/tape.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace lc {
namespace nn {
namespace {

constexpr float kParityTol = 1e-5f;

// Shapes chosen to hit every code path of the register tiling: scalars,
// sub-vector sizes, exact multiples of 8/16, and odd remainders in both the
// row blocking and the column lanes.
struct GemmShape {
  int64_t m, k, n;
};
const GemmShape kShapes[] = {
    {1, 1, 1},   {2, 3, 5},    {4, 8, 16},  {5, 7, 17},   {3, 33, 9},
    {7, 13, 23}, {8, 16, 24},  {9, 31, 1},  {17, 19, 33}, {64, 29, 40},
    {6, 64, 66}, {13, 100, 3}, {31, 5, 63},
};

// Inputs scaled like He-initialized activations (stddev 1/sqrt(k)) so the
// accumulated values stay O(1) and the 1e-5 parity bound is meaningful.
Tensor RandomMatrix(int64_t rows, int64_t cols, int64_t reduction, Rng* rng) {
  return Tensor::Randn({rows, cols},
                       1.0f / std::sqrt(static_cast<float>(reduction)), rng);
}

// Zeroes out ~80% of entries, mimicking one-hot/bitmap featurized rows.
void Sparsify(Tensor* t, Rng* rng) {
  for (int64_t i = 0; i < t->size(); ++i) {
    if (rng->UniformDouble() < 0.8) (*t)[i] = 0.0f;
  }
}

// The parity suite: every test below runs the AVX2 kernels against the
// scalar reference, and self-skips when this build/CPU lacks them.
class KernelParityTest : public testing::Test {
 protected:
  void SetUp() override {
    if (Avx2KernelOps() == nullptr) {
      GTEST_SKIP() << "avx2 kernels unavailable on this build/CPU";
    }
  }
  const KernelOps& simd() { return *Avx2KernelOps(); }
};

TEST_F(KernelParityTest, GemmMatchesScalar) {
  const KernelOps& scalar = ScalarKernelOps();
  Rng rng(11);
  for (const GemmShape& s : kShapes) {
    const Tensor a = RandomMatrix(s.m, s.k, s.k, &rng);
    const Tensor b = RandomMatrix(s.k, s.n, s.k, &rng);
    Tensor want({s.m, s.n});
    Tensor got({s.m, s.n});
    scalar.gemm(a.data(), b.data(), want.data(), s.m, s.k, s.n, false);
    simd().gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n, false);
    EXPECT_LT(got.MaxAbsDiff(want), kParityTol)
        << "gemm " << s.m << "x" << s.k << "x" << s.n;

    // Accumulating form on pre-seeded outputs.
    Tensor want_acc = Tensor::Full({s.m, s.n}, 0.25f);
    Tensor got_acc = Tensor::Full({s.m, s.n}, 0.25f);
    scalar.gemm(a.data(), b.data(), want_acc.data(), s.m, s.k, s.n, true);
    simd().gemm(a.data(), b.data(), got_acc.data(), s.m, s.k, s.n, true);
    EXPECT_LT(got_acc.MaxAbsDiff(want_acc), kParityTol);
  }
}

TEST_F(KernelParityTest, SparseGemmMatchesScalarAndDense) {
  const KernelOps& scalar = ScalarKernelOps();
  Rng rng(13);
  for (const GemmShape& s : kShapes) {
    Tensor a = RandomMatrix(s.m, s.k, s.k, &rng);
    Sparsify(&a, &rng);
    const Tensor b = RandomMatrix(s.k, s.n, s.k, &rng);
    Tensor dense({s.m, s.n});
    Tensor want({s.m, s.n});
    Tensor got({s.m, s.n});
    scalar.gemm(a.data(), b.data(), dense.data(), s.m, s.k, s.n, false);
    scalar.gemm_sparse_a(a.data(), b.data(), want.data(), s.m, s.k, s.n,
                         false);
    simd().gemm_sparse_a(a.data(), b.data(), got.data(), s.m, s.k, s.n,
                         false);
    // Skipping exact zeros must not change the result at all.
    EXPECT_LT(want.MaxAbsDiff(dense), kParityTol);
    EXPECT_LT(got.MaxAbsDiff(want), kParityTol)
        << "gemm_sparse_a " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_F(KernelParityTest, TransposedGemmsMatchScalar) {
  const KernelOps& scalar = ScalarKernelOps();
  Rng rng(17);
  for (const GemmShape& s : kShapes) {
    // gemm_trans_a: A(m,k)^T * B(m,n) -> C(k,n); reduction over m.
    const Tensor a = RandomMatrix(s.m, s.k, s.m, &rng);
    const Tensor b = RandomMatrix(s.m, s.n, s.m, &rng);
    Tensor want({s.k, s.n});
    Tensor got({s.k, s.n});
    scalar.gemm_trans_a(a.data(), b.data(), want.data(), s.m, s.k, s.n,
                        false);
    simd().gemm_trans_a(a.data(), b.data(), got.data(), s.m, s.k, s.n,
                        false);
    EXPECT_LT(got.MaxAbsDiff(want), kParityTol)
        << "gemm_trans_a " << s.m << "x" << s.k << "x" << s.n;

    // gemm_trans_b: A(m,n) * B(k,n)^T -> C(m,k); reduction over n.
    const Tensor a2 = RandomMatrix(s.m, s.n, s.n, &rng);
    const Tensor b2 = RandomMatrix(s.k, s.n, s.n, &rng);
    Tensor want2({s.m, s.k});
    Tensor got2({s.m, s.k});
    scalar.gemm_trans_b(a2.data(), b2.data(), want2.data(), s.m, s.k, s.n,
                        false);
    simd().gemm_trans_b(a2.data(), b2.data(), got2.data(), s.m, s.k, s.n,
                        false);
    EXPECT_LT(got2.MaxAbsDiff(want2), kParityTol)
        << "gemm_trans_b " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_F(KernelParityTest, ElementwiseKernelsMatchScalar) {
  const KernelOps& scalar = ScalarKernelOps();
  Rng rng(19);
  for (const int64_t rows : {1, 3, 8}) {
    for (const int64_t cols : {1, 5, 8, 17, 64, 131}) {
      const int64_t n = rows * cols;
      const Tensor x = Tensor::Randn({rows, cols}, 1.0f, &rng);
      const Tensor bias = Tensor::Randn({cols}, 1.0f, &rng);
      const Tensor dout = Tensor::Randn({rows, cols}, 1.0f, &rng);

      Tensor want({rows, cols});
      Tensor got({rows, cols});
      scalar.bias_add(x.data(), bias.data(), want.data(), rows, cols);
      simd().bias_add(x.data(), bias.data(), got.data(), rows, cols);
      EXPECT_LT(got.MaxAbsDiff(want), kParityTol) << "bias_add";

      Tensor want_relu({rows, cols});
      Tensor got_relu({rows, cols});
      scalar.bias_relu(x.data(), bias.data(), want_relu.data(), rows, cols);
      simd().bias_relu(x.data(), bias.data(), got_relu.data(), rows, cols);
      EXPECT_LT(got_relu.MaxAbsDiff(want_relu), kParityTol) << "bias_relu";

      // Fused backward: both gradients, against the scalar reference.
      Tensor want_dx = Tensor::Full({rows, cols}, 0.5f);
      Tensor got_dx = Tensor::Full({rows, cols}, 0.5f);
      Tensor want_db = Tensor::Full({cols}, -0.25f);
      Tensor got_db = Tensor::Full({cols}, -0.25f);
      scalar.bias_relu_grad(want_relu.data(), dout.data(), want_dx.data(),
                            want_db.data(), rows, cols);
      simd().bias_relu_grad(got_relu.data(), dout.data(), got_dx.data(),
                            got_db.data(), rows, cols);
      EXPECT_LT(got_dx.MaxAbsDiff(want_dx), kParityTol) << "bias_relu_grad";
      EXPECT_LT(got_db.MaxAbsDiff(want_db), kParityTol) << "bias_relu_grad";

      Tensor want_r({rows, cols});
      Tensor got_r({rows, cols});
      scalar.relu(x.data(), want_r.data(), n);
      simd().relu(x.data(), got_r.data(), n);
      EXPECT_TRUE(got_r.Equals(want_r)) << "relu";

      Tensor want_rg = Tensor::Full({rows, cols}, 0.125f);
      Tensor got_rg = Tensor::Full({rows, cols}, 0.125f);
      scalar.relu_grad(want_r.data(), dout.data(), want_rg.data(), n);
      simd().relu_grad(got_r.data(), dout.data(), got_rg.data(), n);
      EXPECT_LT(got_rg.MaxAbsDiff(want_rg), kParityTol) << "relu_grad";

      Tensor want_y = Tensor::Full({rows, cols}, 2.0f);
      Tensor got_y = Tensor::Full({rows, cols}, 2.0f);
      scalar.axpy(x.data(), 0.75f, want_y.data(), n);
      simd().axpy(x.data(), 0.75f, got_y.data(), n);
      EXPECT_LT(got_y.MaxAbsDiff(want_y), kParityTol) << "axpy";

      Tensor want_s({rows, cols});
      Tensor got_s({rows, cols});
      scalar.scale(x.data(), -1.5f, want_s.data(), n);
      simd().scale(x.data(), -1.5f, got_s.data(), n);
      EXPECT_TRUE(got_s.Equals(want_s)) << "scale";

      Tensor want_cs = Tensor::Full({cols}, 1.0f);
      Tensor got_cs = Tensor::Full({cols}, 1.0f);
      scalar.col_sum_acc(x.data(), want_cs.data(), rows, cols);
      simd().col_sum_acc(x.data(), got_cs.data(), rows, cols);
      EXPECT_LT(got_cs.MaxAbsDiff(want_cs), kParityTol) << "col_sum_acc";
    }
  }
}

TEST_F(KernelParityTest, AdamUpdateMatchesScalar) {
  Rng rng(23);
  for (const int64_t n : {1, 7, 8, 17, 63, 130}) {
    const Tensor grad = Tensor::Randn({n}, 0.3f, &rng);
    Tensor value_a = Tensor::Randn({n}, 1.0f, &rng);
    Tensor value_b = value_a;
    Tensor m_a = Tensor::Randn({n}, 0.1f, &rng);
    Tensor m_b = m_a;
    Tensor v_a = Tensor::Full({n}, 0.01f);
    Tensor v_b = v_a;
    ScalarKernelOps().adam_update(value_a.data(), grad.data(), m_a.data(),
                                  v_a.data(), n, 0.9f, 0.999f, 1e-3f, 0.1f,
                                  0.001f, 1e-8f);
    simd().adam_update(value_b.data(), grad.data(), m_b.data(), v_b.data(),
                       n, 0.9f, 0.999f, 1e-3f, 0.1f, 0.001f, 1e-8f);
    EXPECT_LT(value_b.MaxAbsDiff(value_a), kParityTol);
    EXPECT_LT(m_b.MaxAbsDiff(m_a), kParityTol);
    EXPECT_LT(v_b.MaxAbsDiff(v_a), kParityTol);
  }
}

TEST(KernelDispatchTest, BackendOverrideRoundTrip) {
  const KernelBackend original = ActiveKernelBackend();
  SetKernelBackend(KernelBackend::kScalar);
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  EXPECT_EQ(&Ops(), &ScalarKernelOps());
  if (Avx2KernelOps() != nullptr) {
    SetKernelBackend(KernelBackend::kAvx2);
    EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kAvx2);
    EXPECT_EQ(&Ops(), Avx2KernelOps());
  }
  SetKernelBackend(original);
}

TEST(KernelDispatchTest, BackendNames) {
  EXPECT_STREQ(KernelBackendName(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAvx2), "avx2");
}

// LC_NN_BACKEND is validated: a value that names no backend (one this build
// does not have, a misspelling) aborts instead of silently running the auto
// pick. The backend is resolved once per process, so the check runs in a
// freshly exec'd child where nothing has resolved it yet.
TEST(KernelDispatchDeathTest, UnknownEnvBackendIsFatal) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* value : {"sse4", "AVX2", ""}) {
    EXPECT_DEATH(
        {
          setenv("LC_NN_BACKEND", value, 1);
          ActiveKernelBackend();
        },
        "use scalar, avx2 or auto")
        << "LC_NN_BACKEND=" << value;
  }
}

TEST(TensorStorageTest, DataIsAligned) {
  // Tensor storage starts on a 64-byte cache line (see tensor.h); pin the
  // constant itself so a future "optimization" back to 32 fails loudly here.
  static_assert(kTensorAlignment == 64,
                "Tensor storage must be aligned to a 64-byte cache line");
  for (const int64_t n : {1, 7, 31, 256}) {
    const Tensor t({n});
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % 64, 0u);
  }
}

TEST(TensorStorageTest, ResizeReusesCapacity) {
  Tensor t({16, 16});
  const float* storage = t.data();
  EXPECT_EQ(t.capacity(), 256);
  t.Resize({4, 4});  // Shrink: no free, same allocation.
  EXPECT_EQ(t.data(), storage);
  EXPECT_EQ(t.size(), 16);
  EXPECT_EQ(t.capacity(), 256);
  t.Resize({8, 32});  // Regrow within capacity: still no reallocation.
  EXPECT_EQ(t.data(), storage);
  t.Resize({32, 32});  // Exceeds capacity: must reallocate.
  EXPECT_EQ(t.capacity(), 1024);
}

TEST(TapeReuseTest, ResetKeepsResultsIdenticalAndPoolsBuffers) {
  Rng rng(31);
  TwoLayerMlp mlp(10, 16, 4, OutputActivation::kSigmoid, &rng);
  const Tensor input = Tensor::Randn({6, 10}, 1.0f, &rng);
  Tape tape;
  const Tensor first =
      tape.value(mlp.Apply(&tape, tape.ConstantRef(&input)));
  const size_t nodes_per_pass = tape.node_count();
  Tensor again;
  for (int pass = 0; pass < 3; ++pass) {
    tape.Reset();
    EXPECT_EQ(tape.node_count(), 0u);
    again = tape.value(mlp.Apply(&tape, tape.ConstantRef(&input)));
    EXPECT_EQ(tape.node_count(), nodes_per_pass);
    EXPECT_TRUE(again.Equals(first));
  }
}

TEST(TapeFusedOpTest, BiasReluMatchesUnfusedForwardAndBackward) {
  Rng rng(37);
  // Same weights for the fused and unfused graphs.
  Parameter w(Tensor::Randn({9, 7}, 0.5f, &rng));
  Parameter b(Tensor::Randn({7}, 0.5f, &rng));
  Parameter w2(w.value);
  Parameter b2(b.value);
  const Tensor x = Tensor::Randn({5, 9}, 1.0f, &rng);
  const Tensor target({5, 7});

  Tape fused;
  const auto fused_out = fused.BiasRelu(
      fused.MatMul(fused.ConstantRef(&x), fused.Leaf(&w)), fused.Leaf(&b));
  Tape unfused;
  const auto unfused_out = unfused.Relu(unfused.AddBias(
      unfused.MatMul(unfused.ConstantRef(&x), unfused.Leaf(&w2)),
      unfused.Leaf(&b2)));
  EXPECT_LT(fused.value(fused_out).MaxAbsDiff(unfused.value(unfused_out)),
            kParityTol);

  fused.Backward(fused.MseLoss(fused_out, target));
  unfused.Backward(unfused.MseLoss(unfused_out, target));
  EXPECT_LT(w.grad.MaxAbsDiff(w2.grad), kParityTol);
  EXPECT_LT(b.grad.MaxAbsDiff(b2.grad), kParityTol);
}

// Trains the same tiny MLP under the scalar and AVX2 backends from identical
// init and checks the loss trajectories agree — the fig6-style convergence
// guarantee that SIMD does not change training outcomes.
TEST(BackendConvergenceTest, ScalarAndSimdLossesAgree) {
  if (Avx2KernelOps() == nullptr) {
    GTEST_SKIP() << "avx2 kernels unavailable on this build/CPU";
  }
  const KernelBackend original = ActiveKernelBackend();
  const auto train = [](KernelBackend backend) {
    SetKernelBackend(backend);
    Rng rng(41);
    TwoLayerMlp mlp(6, 32, 1, OutputActivation::kSigmoid, &rng);
    const Tensor x = Tensor::Randn({32, 6}, 1.0f, &rng);
    Tensor target({32, 1});
    for (int64_t i = 0; i < target.size(); ++i) {
      target[i] = 0.5f + 0.4f * std::sin(static_cast<float>(i));
    }
    Adam adam(mlp.parameters());
    std::vector<float> losses;
    Tape tape;
    for (int step = 0; step < 150; ++step) {
      tape.Reset();
      const auto out = mlp.Apply(&tape, tape.ConstantRef(&x));
      const auto loss = tape.MseLoss(out, target);
      losses.push_back(tape.value(loss)[0]);
      adam.ZeroGrad();
      tape.Backward(loss);
      adam.Step();
    }
    return losses;
  };
  const std::vector<float> scalar_losses = train(KernelBackend::kScalar);
  const std::vector<float> simd_losses = train(KernelBackend::kAvx2);
  SetKernelBackend(original);
  ASSERT_EQ(scalar_losses.size(), simd_losses.size());
  for (size_t i = 0; i < scalar_losses.size(); ++i) {
    EXPECT_NEAR(scalar_losses[i], simd_losses[i], 1e-3f) << "step " << i;
  }
  // And training actually converged.
  EXPECT_LT(simd_losses.back(), 0.5f * simd_losses.front());
}

}  // namespace
}  // namespace nn
}  // namespace lc
