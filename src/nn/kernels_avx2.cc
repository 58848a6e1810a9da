// AVX2+FMA kernels. This translation unit is compiled with -mavx2 -mfma
// (see src/nn/CMakeLists.txt) and must only be *called* after a runtime
// cpuid check — Avx2KernelOps() in kernels.cc guards that.
//
// Numerics contract with the scalar backend: the axpy-structured kernels
// accumulate along their reduction dimension in the same element order as
// the scalar reference (the axpy/ikj formulation keeps the reduction
// sequential per output element regardless of lane width), so their only
// divergence is FMA rounding. The exception is GemmTransBAvx2, whose dot
// products use lane-parallel partial sums (tree reassociation). The parity
// tests pin both to within 1e-5 on activation-scaled inputs.

#include "nn/kernels.h"

#if defined(LC_NN_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace lc {
namespace nn {
namespace {

float Hsum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 1));
  return _mm_cvtss_f32(sum);
}

// C(R, n) += sum_t a(r, t) * b_row(t), with a(r, t) read as
// a_base[r * a_r_stride + t * a_t_stride] and b_row(t) = b_base + t * n.
// One register tile covers R rows x 16 columns; the reduction loop runs
// innermost over t so each output element accumulates in t-order.
// Instantiated for the GEMM (rows of A) and the transposed-A GEMM
// (columns of A) — the two differ only in the strides.
template <int R>
void AxpyTile(const float* a_base, int64_t a_r_stride, int64_t a_t_stride,
              const float* b_base, float* c_base, int64_t t_len, int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0[R];
    __m256 acc1[R];
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm256_loadu_ps(c_base + r * n + j);
      acc1[r] = _mm256_loadu_ps(c_base + r * n + j + 8);
    }
    for (int64_t t = 0; t < t_len; ++t) {
      const float* b_row = b_base + t * n + j;
      const __m256 b0 = _mm256_loadu_ps(b_row);
      const __m256 b1 = _mm256_loadu_ps(b_row + 8);
      for (int r = 0; r < R; ++r) {
        const __m256 av =
            _mm256_set1_ps(a_base[r * a_r_stride + t * a_t_stride]);
        acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c_base + r * n + j, acc0[r]);
      _mm256_storeu_ps(c_base + r * n + j + 8, acc1[r]);
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc[R];
    for (int r = 0; r < R; ++r) acc[r] = _mm256_loadu_ps(c_base + r * n + j);
    for (int64_t t = 0; t < t_len; ++t) {
      const __m256 bv = _mm256_loadu_ps(b_base + t * n + j);
      for (int r = 0; r < R; ++r) {
        const __m256 av =
            _mm256_set1_ps(a_base[r * a_r_stride + t * a_t_stride]);
        acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) _mm256_storeu_ps(c_base + r * n + j, acc[r]);
  }
  for (; j < n; ++j) {
    for (int r = 0; r < R; ++r) {
      float acc = c_base[r * n + j];
      for (int64_t t = 0; t < t_len; ++t) {
        acc = std::fmaf(a_base[r * a_r_stride + t * a_t_stride],
                        b_base[t * n + j], acc);
      }
      c_base[r * n + j] = acc;
    }
  }
}

// Row blocking of the axpy GEMMs: a 6-row tile keeps 12 accumulators, 2 B
// vectors and the broadcast A value in the 16 ymm registers.
constexpr int64_t kTileRows = 6;

// Dispatches the 1..5 leftover rows of the row blocking.
void AxpyTileRemainder(int64_t rows, const float* a_base, int64_t a_r_stride,
                       int64_t a_t_stride, const float* b_base, float* c_base,
                       int64_t t_len, int64_t n) {
  switch (rows) {
    case 5:
      AxpyTile<5>(a_base, a_r_stride, a_t_stride, b_base, c_base, t_len, n);
      return;
    case 4:
      AxpyTile<4>(a_base, a_r_stride, a_t_stride, b_base, c_base, t_len, n);
      return;
    case 3:
      AxpyTile<3>(a_base, a_r_stride, a_t_stride, b_base, c_base, t_len, n);
      return;
    case 2:
      AxpyTile<2>(a_base, a_r_stride, a_t_stride, b_base, c_base, t_len, n);
      return;
    case 1:
      AxpyTile<1>(a_base, a_r_stride, a_t_stride, b_base, c_base, t_len, n);
      return;
    default:
      return;
  }
}

void GemmAvx2(const float* a, const float* b, float* c, int64_t m, int64_t k,
              int64_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  int64_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    AxpyTile<kTileRows>(a + i * k, /*a_r_stride=*/k, /*a_t_stride=*/1, b,
                        c + i * n, /*t_len=*/k, n);
  }
  AxpyTileRemainder(m - i, a + i * k, k, 1, b, c + i * n, k, n);
}

void GemmTransAAvx2(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n, bool accumulate) {
  // C(k,n) = A(m,k)^T * B(m,n): same tile with A walked column-wise.
  if (!accumulate) std::fill(c, c + k * n, 0.0f);
  int64_t p = 0;
  for (; p + kTileRows <= k; p += kTileRows) {
    AxpyTile<kTileRows>(a + p, /*a_r_stride=*/1, /*a_t_stride=*/k, b,
                        c + p * n, /*t_len=*/m, n);
  }
  AxpyTileRemainder(k - p, a + p, 1, k, b, c + p * n, m, n);
}

// y += alpha * x, vectorized; the building block of the sparse-A GEMM.
void AxpyAvx2(const float* x, float alpha, float* y, int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 yv = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), yv));
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

void GemmSparseAAvx2(const float* a, const float* b, float* c, int64_t m,
                     int64_t k, int64_t n, bool accumulate) {
  // Skipping a zero term leaves the accumulator bit-identical (fma with a
  // zero multiplicand is the identity), so this stays in parity with the
  // dense kernels on the same input.
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) continue;
      AxpyAvx2(b + p * n, a_ip, c_row, n);
    }
  }
}

// Lane r of the result is Hsum(v[r]), computed for eight vectors at once
// with Hsum's association, (x0+x4)+(x2+x6) + (x1+x5)+(x3+x7), so the sums
// match a per-vector Hsum bit for bit.
__m256 Hsum8(const __m256 v[8]) {
  // Halves: h[q] holds x(i)+x(i+4) of v[2q] in its low 128 bits and of
  // v[2q+1] in its high 128 bits.
  __m256 h[4];
  for (int q = 0; q < 4; ++q) {
    h[q] = _mm256_add_ps(_mm256_permute2f128_ps(v[2 * q], v[2 * q + 1], 0x20),
                         _mm256_permute2f128_ps(v[2 * q], v[2 * q + 1], 0x31));
  }
  // Quarters: each 128-bit half holds (x0+x4)+(x2+x6), (x1+x5)+(x3+x7)
  // of two vectors.
  const __m256 lo = _mm256_add_ps(
      _mm256_shuffle_ps(h[0], h[1], _MM_SHUFFLE(1, 0, 1, 0)),
      _mm256_shuffle_ps(h[0], h[1], _MM_SHUFFLE(3, 2, 3, 2)));
  const __m256 hi = _mm256_add_ps(
      _mm256_shuffle_ps(h[2], h[3], _MM_SHUFFLE(1, 0, 1, 0)),
      _mm256_shuffle_ps(h[2], h[3], _MM_SHUFFLE(3, 2, 3, 2)));
  // Totals in the order v0 v2 v4 v6 | v1 v3 v5 v7; restore 0..7.
  return _mm256_permutevar8x32_ps(_mm256_hadd_ps(lo, hi),
                                  _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

void GemmTransBAvx2(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n, bool accumulate) {
  // C(m,k) = A(m,n) * B(k,n)^T: rows of both operands are contiguous, so
  // each output element is a dot product over n, accumulated in 8 lane
  // partials + tail and reduced at the end — the one kernel here whose
  // rounding is reassociated relative to the scalar reference. Eight
  // outputs share each load of the A row and one Hsum8. Rows narrower than
  // one vector have no partials to reduce: each output is a scalar dot.
  if (!accumulate) std::fill(c, c + m * k, 0.0f);
  const int64_t n8 = n - n % 8;
  const int64_t k_blocked = n8 > 0 ? k - k % 8 : 0;
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * n;
    float* c_row = c + i * k;
    for (int64_t p = 0; p < k_blocked; p += 8) {
      __m256 acc[8];
      for (int r = 0; r < 8; ++r) acc[r] = _mm256_setzero_ps();
      for (int64_t j = 0; j < n8; j += 8) {
        const __m256 av = _mm256_loadu_ps(a_row + j);
        for (int r = 0; r < 8; ++r) {
          acc[r] = _mm256_fmadd_ps(
              av, _mm256_loadu_ps(b + (p + r) * n + j), acc[r]);
        }
      }
      __m256 dots = Hsum8(acc);
      if (n8 < n) {
        alignas(32) float tail[8];
        for (int r = 0; r < 8; ++r) {
          float sum = 0.0f;
          for (int64_t j = n8; j < n; ++j) {
            sum = std::fmaf(a_row[j], b[(p + r) * n + j], sum);
          }
          tail[r] = sum;
        }
        dots = _mm256_add_ps(dots, _mm256_load_ps(tail));
      }
      _mm256_storeu_ps(c_row + p,
                       _mm256_add_ps(_mm256_loadu_ps(c_row + p), dots));
    }
    for (int64_t p = k_blocked; p < k; ++p) {
      const float* b_row = b + p * n;
      float dot = 0.0f;
      if (n8 > 0) {
        __m256 acc = _mm256_setzero_ps();
        for (int64_t j = 0; j < n8; j += 8) {
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(a_row + j),
                                _mm256_loadu_ps(b_row + j), acc);
        }
        dot = Hsum(acc);
      }
      for (int64_t j = n8; j < n; ++j) dot = std::fmaf(a_row[j], b_row[j], dot);
      c_row[p] += dot;
    }
  }
}

void BiasAddAvx2(const float* x, const float* bias, float* out, int64_t rows,
                 int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    float* out_row = out + i * cols;
    int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(out_row + j,
                       _mm256_add_ps(_mm256_loadu_ps(x_row + j),
                                     _mm256_loadu_ps(bias + j)));
    }
    for (; j < cols; ++j) out_row[j] = x_row[j] + bias[j];
  }
}

void BiasReluAvx2(const float* x, const float* bias, float* out, int64_t rows,
                  int64_t cols) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    float* out_row = out + i * cols;
    int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 sum = _mm256_add_ps(_mm256_loadu_ps(x_row + j),
                                       _mm256_loadu_ps(bias + j));
      _mm256_storeu_ps(out_row + j, _mm256_max_ps(sum, zero));
    }
    for (; j < cols; ++j) out_row[j] = std::max(x_row[j] + bias[j], 0.0f);
  }
}

void BiasReluGradAvx2(const float* out, const float* dout, float* dx,
                      float* db, int64_t rows, int64_t cols) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t i = 0; i < rows; ++i) {
    const float* out_row = out + i * cols;
    const float* dout_row = dout + i * cols;
    float* dx_row = dx == nullptr ? nullptr : dx + i * cols;
    int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(out_row + j), zero,
                                        _CMP_GT_OQ);
      const __m256 masked =
          _mm256_and_ps(mask, _mm256_loadu_ps(dout_row + j));
      if (dx_row != nullptr) {
        _mm256_storeu_ps(dx_row + j,
                         _mm256_add_ps(_mm256_loadu_ps(dx_row + j), masked));
      }
      if (db != nullptr) {
        _mm256_storeu_ps(db + j,
                         _mm256_add_ps(_mm256_loadu_ps(db + j), masked));
      }
    }
    for (; j < cols; ++j) {
      if (out_row[j] <= 0.0f) continue;
      if (dx_row != nullptr) dx_row[j] += dout_row[j];
      if (db != nullptr) db[j] += dout_row[j];
    }
  }
}

void ReluAvx2(const float* x, float* out, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) out[i] = std::max(x[i], 0.0f);
}

void ReluGradAvx2(const float* out, const float* dout, float* dx, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask =
        _mm256_cmp_ps(_mm256_loadu_ps(out + i), zero, _CMP_GT_OQ);
    const __m256 masked = _mm256_and_ps(mask, _mm256_loadu_ps(dout + i));
    _mm256_storeu_ps(dx + i, _mm256_add_ps(_mm256_loadu_ps(dx + i), masked));
  }
  for (; i < n; ++i) {
    if (out[i] > 0.0f) dx[i] += dout[i];
  }
}

void ScaleAvx2(const float* x, float alpha, float* out, int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) out[i] = alpha * x[i];
}

void ColSumAccAvx2(const float* x, float* out, int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x_row = x + i * cols;
    int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j),
                                              _mm256_loadu_ps(x_row + j)));
    }
    for (; j < cols; ++j) out[j] += x_row[j];
  }
}

void AdamUpdateAvx2(float* value, const float* grad, float* m, float* v,
                    int64_t n, float beta1, float beta2, float learning_rate,
                    float bias1, float bias2, float epsilon) {
  const __m256 b1 = _mm256_set1_ps(beta1);
  const __m256 b2 = _mm256_set1_ps(beta2);
  const __m256 one_minus_b1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 one_minus_b2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 inv1 = _mm256_set1_ps(bias1);
  const __m256 inv2 = _mm256_set1_ps(bias2);
  const __m256 lr = _mm256_set1_ps(learning_rate);
  const __m256 eps = _mm256_set1_ps(epsilon);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_loadu_ps(grad + i);
    const __m256 mv = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(one_minus_b1, g));
    const __m256 vv =
        _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(one_minus_b2, _mm256_mul_ps(g, g)));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 m_hat = _mm256_div_ps(mv, inv1);
    const __m256 v_hat = _mm256_div_ps(vv, inv2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(lr, m_hat), denom);
    _mm256_storeu_ps(value + i,
                     _mm256_sub_ps(_mm256_loadu_ps(value + i), step));
  }
  for (; i < n; ++i) {
    const float g = grad[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    value[i] -= learning_rate * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

}  // namespace

namespace internal {

const KernelOps* Avx2KernelOpsImpl() {
  static const KernelOps ops = {
      GemmAvx2,     GemmSparseAAvx2, GemmTransAAvx2, GemmTransBAvx2,
      BiasAddAvx2,  BiasReluAvx2,    BiasReluGradAvx2,
      ReluAvx2,     ReluGradAvx2,    AxpyAvx2,
      ScaleAvx2,    ColSumAccAvx2,   AdamUpdateAvx2,
  };
  return &ops;
}

}  // namespace internal
}  // namespace nn
}  // namespace lc

#endif  // LC_NN_KERNELS_AVX2
