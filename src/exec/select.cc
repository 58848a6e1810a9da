#include "exec/select.h"

#include "db/column.h"

namespace lc {
namespace internal {

namespace {

// Branch-free Predicate::Matches: NULL never matches. The NULL test is
// what keeps `kNullValue < literal` (and `kNullValue == INT32_MIN`) out.
template <CompareOp kOp>
inline uint32_t Match(int32_t value, int32_t literal) {
  bool hit;
  if constexpr (kOp == CompareOp::kEq) {
    hit = value == literal;
  } else if constexpr (kOp == CompareOp::kLt) {
    hit = value < literal;
  } else {
    hit = value > literal;
  }
  return static_cast<uint32_t>((value != kNullValue) & hit);
}

template <CompareOp kOp>
uint32_t SelectRangeScalar(const int32_t* values, int32_t literal,
                           uint32_t begin, uint32_t end, uint32_t* rows) {
  uint32_t count = 0;
  for (uint32_t row = begin; row < end; ++row) {
    rows[count] = row;
    count += Match<kOp>(values[row], literal);
  }
  return count;
}

template <CompareOp kOp>
uint32_t FilterRowsScalar(const int32_t* values, int32_t literal,
                          uint32_t* rows, uint32_t count) {
  uint32_t kept = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t row = rows[i];
    rows[kept] = row;
    kept += Match<kOp>(values[row], literal);
  }
  return kept;
}

}  // namespace

const SelectKernels& ScalarSelectKernels() {
  static const SelectKernels kernels = {
      [](CompareOp op, const int32_t* values, int32_t literal, uint32_t begin,
         uint32_t end, uint32_t* rows) {
        return WithOp(op, [&](auto op_tag) {
          return SelectRangeScalar<op_tag()>(values, literal, begin, end, rows);
        });
      },
      [](CompareOp op, const int32_t* values, int32_t literal, uint32_t* rows,
         uint32_t count) {
        return WithOp(op, [&](auto op_tag) {
          return FilterRowsScalar<op_tag()>(values, literal, rows, count);
        });
      },
  };
  return kernels;
}

const SelectKernels* Avx512SelectKernels() {
#if defined(LC_EXEC_SELECT_AVX512)
  static const SelectKernels* kernels =
      (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("popcnt"))
          ? &Avx512SelectKernelsImpl()
          : nullptr;
  return kernels;
#else
  return nullptr;
#endif
}

const SelectKernels& ActiveSelectKernels() {
  static const SelectKernels& kernels =
      Avx512SelectKernels() != nullptr ? *Avx512SelectKernels()
                                       : ScalarSelectKernels();
  return kernels;
}

}  // namespace internal
}  // namespace lc
