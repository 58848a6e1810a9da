// Dense float32 tensor (rank 1-3) plus the matrix kernels the MSCN model
// needs. This module is the substrate standing in for PyTorch: the tensors
// here carry no autograd state — differentiation lives in nn/tape.h.
//
// Storage is cache-line aligned (kTensorAlignment), so every buffer starts
// on a line boundary, and follows a reusable-capacity model: Resize()
// shrinks and regrows within the existing allocation without freeing, which
// lets the tape and model run batch after batch without touching the
// allocator (see Tape::Reset).

#ifndef LC_NN_TENSOR_H_
#define LC_NN_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace lc {

/// Alignment (bytes) of every Tensor allocation: one cache line, so a
/// buffer always starts on a line boundary.
inline constexpr size_t kTensorAlignment = 64;

/// Row-major dense float tensor with value semantics (copies are deep).
class Tensor {
 public:
  Tensor() = default;
  /// Zero-filled tensor of the given shape. All dimensions must be positive.
  explicit Tensor(std::vector<int64_t> shape);
  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  static Tensor Zeros(std::vector<int64_t> shape) {
    return Tensor(std::move(shape));
  }
  static Tensor Full(std::vector<int64_t> shape, float value);
  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Randn(std::vector<int64_t> shape, float stddev, Rng* rng);
  /// 1-D tensor wrapping the given values.
  static Tensor FromVector(const std::vector<float>& values);

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t i) const;
  /// Total number of elements.
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Elements the current allocation can hold without reallocating.
  int64_t capacity() const { return capacity_; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  float& operator[](int64_t i) {
    LC_DCHECK(i >= 0 && i < size_) << "tensor index out of range";
    return data_[i];
  }
  float operator[](int64_t i) const {
    LC_DCHECK(i >= 0 && i < size_) << "tensor index out of range";
    return data_[i];
  }

  /// 2-D element access (row, col); bounds-checked in debug builds.
  float& at(int64_t row, int64_t col);
  float at(int64_t row, int64_t col) const;

  /// Reinterprets the shape in place; the element count must not change.
  void ReshapeInPlace(std::vector<int64_t> shape);

  /// Takes the given shape, reusing the current allocation when its capacity
  /// suffices (shrink-without-free); reallocates otherwise. Element contents
  /// are unspecified afterwards — callers must overwrite (or Fill) them.
  void Resize(std::vector<int64_t> shape);

  /// Sets every element to `value`.
  void Fill(float value);

  /// True if shapes and all elements match exactly.
  bool Equals(const Tensor& other) const;

  /// Maximum |a-b| over elements; shapes must match.
  float MaxAbsDiff(const Tensor& other) const;

  /// "[2x3]{1, 2, ...}" debugging text (first elements only).
  std::string DebugString() const;

 private:
  // Ensures capacity_ >= count, discarding contents on reallocation.
  void Reserve(int64_t count);

  std::vector<int64_t> shape_;
  float* data_ = nullptr;  // Cache-line aligned; null iff capacity_ == 0.
  int64_t size_ = 0;
  int64_t capacity_ = 0;
};

// Tensor-shaped conveniences over the active kernel backend (nn/kernels.h).
// All are dense — sparsity-aware skipping lives only in the one-hot input
// kernel (KernelOps::gemm_sparse_a), which the tape invokes directly.

/// C = A(m,k) * B(k,n), or C += ... when `accumulate`. C is resized (and the
/// accumulate flag ignored) when its shape does not match.
void MatMul(const Tensor& a, const Tensor& b, Tensor* c,
            bool accumulate = false);

/// C = A(m,k)^T * B(m,n) -> (k,n); used for weight gradients.
void MatMulTransA(const Tensor& a, const Tensor& b, Tensor* c,
                  bool accumulate = false);

/// C = A(m,n) * B(k,n)^T -> (m,k); used for input gradients.
void MatMulTransB(const Tensor& a, const Tensor& b, Tensor* c,
                  bool accumulate = false);

}  // namespace lc

#endif  // LC_NN_TENSOR_H_
