// AVX-512 row selection kernels. This file alone is compiled with
// -mavx512f -mpopcnt (see src/exec/CMakeLists.txt) and must only be
// *called* after a runtime cpuid check — Avx512SelectKernels() in
// select.cc does it.
//
// Each step compares 16 values, drops the NULL lanes, and compacts the
// matching row ids with vpcompressd into a register, which is then stored
// whole at the output cursor. The cursor never passes the input position,
// so a whole store writes at most up to the 16th id of the current step:
// within the `end - begin` (or `count`) ids the caller's buffer holds. The
// last partial step stores only the ids it keeps.

#include <immintrin.h>

#include "db/column.h"
#include "exec/select.h"

namespace lc {
namespace internal {

namespace {

// Lanes of `live` whose value is non-NULL and passes `op literal`.
template <CompareOp kOp>
inline __mmask16 MatchMask(__mmask16 live, __m512i values, __m512i literal) {
  const __mmask16 present = _mm512_mask_cmpneq_epi32_mask(
      live, values, _mm512_set1_epi32(kNullValue));
  if constexpr (kOp == CompareOp::kEq) {
    return _mm512_mask_cmpeq_epi32_mask(present, values, literal);
  } else if constexpr (kOp == CompareOp::kLt) {
    return _mm512_mask_cmplt_epi32_mask(present, values, literal);
  } else {
    return _mm512_mask_cmpgt_epi32_mask(present, values, literal);
  }
}

inline uint32_t Count(__mmask16 mask) {
  return static_cast<uint32_t>(_mm_popcnt_u32(mask));
}

// The first `count` lanes.
inline __mmask16 FirstLanes(uint32_t count) {
  return static_cast<__mmask16>((1u << count) - 1u);
}

template <CompareOp kOp>
uint32_t SelectRangeAvx512(const int32_t* values, int32_t literal,
                           uint32_t begin, uint32_t end, uint32_t* rows) {
  const __m512i literals = _mm512_set1_epi32(literal);
  const __m512i step = _mm512_set1_epi32(16);
  __m512i ids = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int32_t>(begin)),
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  uint32_t count = 0;
  uint32_t row = begin;
  for (; end - row >= 16; row += 16) {
    const __m512i block = _mm512_loadu_si512(values + row);
    const __mmask16 hit = MatchMask<kOp>(0xFFFF, block, literals);
    _mm512_storeu_si512(rows + count, _mm512_maskz_compress_epi32(hit, ids));
    count += Count(hit);
    ids = _mm512_add_epi32(ids, step);
  }
  if (row < end) {
    const __mmask16 live = FirstLanes(end - row);
    const __m512i block = _mm512_maskz_loadu_epi32(live, values + row);
    const __mmask16 hit = MatchMask<kOp>(live, block, literals);
    const uint32_t kept = Count(hit);
    _mm512_mask_storeu_epi32(rows + count, FirstLanes(kept),
                             _mm512_maskz_compress_epi32(hit, ids));
    count += kept;
  }
  return count;
}

template <CompareOp kOp>
uint32_t FilterRowsAvx512(const int32_t* values, int32_t literal,
                          uint32_t* rows, uint32_t count) {
  const __m512i literals = _mm512_set1_epi32(literal);
  const __m512i zero = _mm512_setzero_si512();
  uint32_t kept = 0;
  uint32_t i = 0;
  // The ids of a step are loaded before its store, and the store lands at
  // or before them, so filtering in place never clobbers an unread id.
  for (; count - i >= 16; i += 16) {
    const __m512i ids = _mm512_loadu_si512(rows + i);
    const __m512i block =
        _mm512_mask_i32gather_epi32(zero, 0xFFFF, ids, values, 4);
    const __mmask16 hit = MatchMask<kOp>(0xFFFF, block, literals);
    _mm512_storeu_si512(rows + kept, _mm512_maskz_compress_epi32(hit, ids));
    kept += Count(hit);
  }
  if (i < count) {
    const __mmask16 live = FirstLanes(count - i);
    const __m512i ids = _mm512_maskz_loadu_epi32(live, rows + i);
    const __m512i block =
        _mm512_mask_i32gather_epi32(zero, live, ids, values, 4);
    const __mmask16 hit = MatchMask<kOp>(live, block, literals);
    const uint32_t tail = Count(hit);
    _mm512_mask_storeu_epi32(rows + kept, FirstLanes(tail),
                             _mm512_maskz_compress_epi32(hit, ids));
    kept += tail;
  }
  return kept;
}

}  // namespace

const SelectKernels& Avx512SelectKernelsImpl() {
  static const SelectKernels kernels = {
      [](CompareOp op, const int32_t* values, int32_t literal, uint32_t begin,
         uint32_t end, uint32_t* rows) {
        return WithOp(op, [&](auto op_tag) {
          return SelectRangeAvx512<op_tag()>(values, literal, begin, end,
                                             rows);
        });
      },
      [](CompareOp op, const int32_t* values, int32_t literal, uint32_t* rows,
         uint32_t count) {
        return WithOp(op, [&](auto op_tag) {
          return FilterRowsAvx512<op_tag()>(values, literal, rows, count);
        });
      },
  };
  return kernels;
}

}  // namespace internal
}  // namespace lc
