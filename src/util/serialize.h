// Little binary (de)serialization layer used for model files and cached
// workload artifacts. Fixed little-endian layout; every Read* returns a
// Status so corrupt files surface as errors, not crashes.

#ifndef LC_UTIL_SERIALIZE_H_
#define LC_UTIL_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace lc {

/// Appends primitive values to a growing byte buffer.
class BinaryWriter {
 public:
  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value);
  void WriteF32(float value);
  void WriteF64(double value);
  /// Length-prefixed string.
  void WriteString(std::string_view value);
  /// Length-prefixed float array.
  void WriteFloats(const float* values, size_t count);

  const std::string& buffer() const { return buffer_; }
  std::string&& TakeBuffer() { return std::move(buffer_); }

 private:
  void Append(const void* bytes, size_t count);

  std::string buffer_;
};

/// Reads primitive values sequentially from a byte buffer. The buffer must
/// outlive the reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view buffer) : buffer_(buffer) {}

  Status ReadU8(uint8_t* value);
  Status ReadU32(uint32_t* value);
  Status ReadU64(uint64_t* value);
  Status ReadI64(int64_t* value);
  Status ReadF32(float* value);
  Status ReadF64(double* value);
  Status ReadString(std::string* value);
  Status ReadFloats(std::vector<float>* values);

  /// True when every byte has been consumed.
  bool AtEnd() const { return offset_ == buffer_.size(); }
  size_t offset() const { return offset_; }
  /// Bytes not yet consumed. Loaders bound a file-supplied record count by
  /// it (over the smallest encoding of one record) before allocating.
  size_t remaining() const { return buffer_.size() - offset_; }

 private:
  Status ReadBytes(void* out, size_t count);

  std::string_view buffer_;
  size_t offset_ = 0;
};

}  // namespace lc

#endif  // LC_UTIL_SERIALIZE_H_
