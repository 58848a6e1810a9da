// SIMD kernel backend for the NN substrate.
//
// Every hot floating-point loop in the tensor/tape/optimizer stack funnels
// through the function table defined here. Two implementations exist:
//
//   scalar  portable reference, always compiled; the fallback on CPUs
//           without AVX2 and the ground truth that the parity tests
//           (tests/nn_kernels_test.cc) compare against.
//   avx2    AVX2+FMA, compiled only where the toolchain supports
//           -mavx2 -mfma (see src/nn/CMakeLists.txt) and selected at
//           runtime only when cpuid reports both features.
//
// The active table is resolved once, on first use: avx2 when the build and
// the CPU have it, scalar otherwise, overridable with
// LC_NN_BACKEND=scalar|avx2|auto (handy for A/B benchmarking and for
// ruling SIMD in or out when debugging numerics). Any other value is an
// LC_CHECK abort, as is forcing avx2 where it cannot run.
// Numerics: the axpy-structured kernels (gemm, gemm_sparse_a, gemm_trans_a,
// axpy, and the elementwise family) accumulate along the reduction
// dimension in the same element order in both backends, so they differ only
// by FMA contraction; gemm_trans_b is dot-product shaped and the AVX2
// version uses 8 lane-parallel partial sums (a tree reassociation).
// tests/nn_kernels_test.cc pins both kinds of divergence to within 1e-5 on
// activation-scaled inputs.
//
// All kernels take raw row-major float pointers. Buffers may overlap only
// where a kernel documents in-place operation; none require alignment
// (unaligned loads are used), but lc::Tensor hands out cache-line-aligned
// storage so no vector load splits a cache line.

#ifndef LC_NN_KERNELS_H_
#define LC_NN_KERNELS_H_

#include <cstdint>

namespace lc {
namespace nn {

enum class KernelBackend { kScalar, kAvx2 };

/// "scalar" / "avx2".
const char* KernelBackendName(KernelBackend backend);

/// Table of compute kernels; one instance per backend. Dimension convention
/// for the GEMM family matches the Tensor-level wrappers in nn/tensor.h:
/// m/k/n name the logical matmul sizes, and `accumulate` selects C += vs C =.
struct KernelOps {
  /// C(m,n) = A(m,k) * B(k,n). Dense blocked GEMM; no sparsity checks.
  void (*gemm)(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n, bool accumulate);

  /// Same contract as `gemm`, but skips zero entries of A. Only profitable
  /// when A is mostly zeros — the one-hot / bitmap featurized input layers;
  /// for dense A the branch pessimizes the loop, use `gemm`.
  void (*gemm_sparse_a)(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n, bool accumulate);

  /// C(k,n) = A(m,k)^T * B(m,n); weight gradients.
  void (*gemm_trans_a)(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n, bool accumulate);

  /// C(m,k) = A(m,n) * B(k,n)^T; input gradients.
  void (*gemm_trans_b)(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n, bool accumulate);

  /// out(rows,cols) = x + bias, bias broadcast over rows. out may alias x.
  void (*bias_add)(const float* x, const float* bias, float* out,
                   int64_t rows, int64_t cols);

  /// out(rows,cols) = max(x + bias, 0): fused hidden-layer prologue.
  /// out may alias x.
  void (*bias_relu)(const float* x, const float* bias, float* out,
                    int64_t rows, int64_t cols);

  /// Backward of bias_relu, masked by the forward output:
  ///   dx += dout .* (out > 0)          when dx != null
  ///   db[j] += sum_i masked dout(i,j)  when db != null
  void (*bias_relu_grad)(const float* out, const float* dout, float* dx,
                         float* db, int64_t rows, int64_t cols);

  /// out = max(x, 0). out may alias x.
  void (*relu)(const float* x, float* out, int64_t n);

  /// dx += dout .* (out > 0).
  void (*relu_grad)(const float* out, const float* dout, float* dx,
                    int64_t n);

  /// y += alpha * x.
  void (*axpy)(const float* x, float alpha, float* y, int64_t n);

  /// out = alpha * x. out may alias x.
  void (*scale)(const float* x, float alpha, float* out, int64_t n);

  /// out[j] += sum_i x(i,j); column reduction for bias gradients.
  void (*col_sum_acc)(const float* x, float* out, int64_t rows, int64_t cols);

  /// Fused Adam step on one parameter: updates value, first moment m and
  /// second moment v in place. bias1/bias2 are the precomputed
  /// (1 - beta^t) correction denominators.
  void (*adam_update)(float* value, const float* grad, float* m, float* v,
                      int64_t n, float beta1, float beta2,
                      float learning_rate, float bias1, float bias2,
                      float epsilon);
};

/// The active kernel table (env override applied on first call).
const KernelOps& Ops();

/// Backend behind Ops().
KernelBackend ActiveKernelBackend();

/// Portable reference implementation; always available.
const KernelOps& ScalarKernelOps();

/// AVX2+FMA implementation, or null when the build or the CPU lacks it.
const KernelOps* Avx2KernelOps();

/// Forces the active backend (tests / benchmarks). LC_CHECK-fails if the
/// requested backend is unavailable.
void SetKernelBackend(KernelBackend backend);

namespace internal {
// Defined in kernels_avx2.cc, present only in AVX2-capable builds.
const KernelOps* Avx2KernelOpsImpl();
}  // namespace internal

}  // namespace nn
}  // namespace lc

#endif  // LC_NN_KERNELS_H_
