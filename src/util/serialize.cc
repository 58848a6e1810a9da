#include "util/serialize.h"

#include <cstring>

#include "util/str.h"

namespace lc {

void BinaryWriter::Append(const void* bytes, size_t count) {
  buffer_.append(static_cast<const char*>(bytes), count);
}

void BinaryWriter::WriteU8(uint8_t value) { Append(&value, sizeof(value)); }
void BinaryWriter::WriteU32(uint32_t value) { Append(&value, sizeof(value)); }
void BinaryWriter::WriteU64(uint64_t value) { Append(&value, sizeof(value)); }
void BinaryWriter::WriteI64(int64_t value) { Append(&value, sizeof(value)); }
void BinaryWriter::WriteF32(float value) { Append(&value, sizeof(value)); }
void BinaryWriter::WriteF64(double value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteString(std::string_view value) {
  WriteU64(value.size());
  Append(value.data(), value.size());
}

void BinaryWriter::WriteFloats(const float* values, size_t count) {
  WriteU64(count);
  Append(values, count * sizeof(float));
}

// Every bounds check compares against the bytes left, never
// `offset_ + count`: a crafted count near 2^64 would wrap that sum and pass.
Status BinaryReader::ReadBytes(void* out, size_t count) {
  if (count > buffer_.size() - offset_) {
    return Status::Corruption(
        Format("read of %zu bytes at offset %zu exceeds buffer of %zu bytes",
               count, offset_, buffer_.size()));
  }
  // An empty vector's data() may be null, and memcpy's pointers must not
  // be even for a zero count.
  if (count == 0) return Status::OK();
  std::memcpy(out, buffer_.data() + offset_, count);
  offset_ += count;
  return Status::OK();
}

Status BinaryReader::ReadU8(uint8_t* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadU32(uint32_t* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadU64(uint64_t* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadI64(int64_t* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadF32(float* value) {
  return ReadBytes(value, sizeof(*value));
}
Status BinaryReader::ReadF64(double* value) {
  return ReadBytes(value, sizeof(*value));
}

Status BinaryReader::ReadString(std::string* value) {
  uint64_t length = 0;
  LC_RETURN_IF_ERROR(ReadU64(&length));
  if (length > buffer_.size() - offset_) {
    return Status::Corruption("string length exceeds buffer");
  }
  value->assign(buffer_.data() + offset_, length);
  offset_ += length;
  return Status::OK();
}

Status BinaryReader::ReadFloats(std::vector<float>* values) {
  uint64_t count = 0;
  LC_RETURN_IF_ERROR(ReadU64(&count));
  if (count > (buffer_.size() - offset_) / sizeof(float)) {
    return Status::Corruption("float array length exceeds buffer");
  }
  values->resize(count);
  return ReadBytes(values->data(), count * sizeof(float));
}

}  // namespace lc
