// Row selection kernels of the exact executor: compact the ids of the rows
// whose value passes one predicate, either out of a row range (the first,
// tightest predicate of a table) or out of an earlier row-id vector (each
// later predicate). NULL (kNullValue) never matches, exactly as
// Predicate::Matches; this matters for `<`, because kNullValue is
// INT32_MIN and would otherwise pass every `v < literal`.
//
// Two backends: the scalar loops, which run everywhere and are the
// reference, and AVX-512 kernels (select_avx512.cc) that compare 16 values
// per step and compact the matching ids with vpcompressd. The backend is
// chosen once by cpuid; both return the same ids in the same order.

#ifndef LC_EXEC_SELECT_H_
#define LC_EXEC_SELECT_H_

#include <cstdint>
#include <type_traits>

#include "exec/query.h"

namespace lc {
namespace internal {

/// Rows selected per block, so the executor's row-id scratch stays L1-sized
/// however large the table is.
inline constexpr uint32_t kBlockRows = 2048;

/// Writes the ids of the rows in [begin, end) whose value passes
/// `op literal` to `rows`, in ascending order, and returns how many there
/// are. `rows` must hold end - begin ids; nothing past that is written.
using SelectRangeFn = uint32_t (*)(CompareOp op, const int32_t* values,
                                   int32_t literal, uint32_t begin,
                                   uint32_t end, uint32_t* rows);

/// Keeps, in order, the ids among rows[0, count) whose value passes
/// `op literal`, and returns how many there are. Row ids must be below
/// 2^31 (the AVX-512 kernel gathers with signed 32-bit indices).
using FilterRowsFn = uint32_t (*)(CompareOp op, const int32_t* values,
                                  int32_t literal, uint32_t* rows,
                                  uint32_t count);

struct SelectKernels {
  SelectRangeFn select_range;
  FilterRowsFn filter_rows;
};

/// The portable loops; the reference the AVX-512 kernels are tested
/// against.
const SelectKernels& ScalarSelectKernels();

/// The AVX-512 kernels, or null when the build or the CPU lacks AVX-512F.
const SelectKernels* Avx512SelectKernels();

/// AVX-512 where the CPU has it, the scalar loops otherwise.
const SelectKernels& ActiveSelectKernels();

/// Calls `fn` with `op` as a compile-time constant, so each operator runs
/// its own branch-free loop.
template <typename Fn>
uint32_t WithOp(CompareOp op, Fn&& fn) {
  switch (op) {
    case CompareOp::kEq:
      return fn(std::integral_constant<CompareOp, CompareOp::kEq>{});
    case CompareOp::kLt:
      return fn(std::integral_constant<CompareOp, CompareOp::kLt>{});
    case CompareOp::kGt:
      return fn(std::integral_constant<CompareOp, CompareOp::kGt>{});
  }
  return 0;
}

#if defined(LC_EXEC_SELECT_AVX512)
/// Defined in select_avx512.cc, which is compiled with -mavx512f. Call only
/// after a cpuid check (Avx512SelectKernels does it).
const SelectKernels& Avx512SelectKernelsImpl();
#endif

}  // namespace internal
}  // namespace lc

#endif  // LC_EXEC_SELECT_H_
