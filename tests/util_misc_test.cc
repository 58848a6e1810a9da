// Tests for string helpers (including the strict untrusted-text parsers),
// file utilities, env knobs, the bit vector, the binary reader's
// bounds checks, and the swappable shared handle under copy-train-swap
// model updates.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitvector.h"
#include "util/env.h"
#include "util/file.h"
#include "util/serialize.h"
#include "util/str.h"
#include "util/swap_handle.h"
#include "util/timer.h"

namespace lc {
namespace {

TEST(StrTest, Format) {
  EXPECT_EQ(Format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(Format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(Format("empty"), "empty");
}

TEST(StrTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("solo", ','), (std::vector<std::string>{"solo"}));
}

TEST(StrTest, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "|"), "x|y|z");
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StrTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StrTest, StartsWith) {
  EXPECT_TRUE(StartsWith("movie_id", "movie"));
  EXPECT_FALSE(StartsWith("movie", "movie_id"));
}

TEST(StrTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KiB");
  EXPECT_EQ(HumanBytes(size_t{3} << 20), "3.00 MiB");
}

TEST(StrTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(0.0000005), "0.5 us");
  EXPECT_EQ(HumanSeconds(0.005), "5.00 ms");
  EXPECT_EQ(HumanSeconds(39.0), "39.00 s");
  EXPECT_EQ(HumanSeconds(600.0), "10.0 min");
}

TEST(FileTest, WriteReadRoundTrip) {
  const std::string path = testing::TempDir() + "/lc_file_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello\nworld");
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11);
  EXPECT_TRUE(RemoveFile(path).ok());
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);
  // Removing an absent file is not an error.
  EXPECT_TRUE(RemoveFile(path).ok());
}

TEST(FileTest, ReadMissingFileIsNotFound) {
  auto content = ReadFileToString("/nonexistent/lc/file");
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kNotFound);
}

TEST(StrTest, ParseInt32Strict) {
  int32_t value = 0;
  EXPECT_TRUE(ParseInt32("123", 0, &value).ok());
  EXPECT_EQ(value, 123);
  EXPECT_TRUE(ParseInt32("-5", INT32_MIN, &value).ok());
  EXPECT_EQ(value, -5);
  EXPECT_TRUE(ParseInt32("2147483647", 0, &value).ok());
  EXPECT_EQ(value, 2147483647);
  // Rejections: empty, trailing garbage, below the floor, overflow, and
  // the strtoll leniencies (leading whitespace, leading '+').
  EXPECT_FALSE(ParseInt32("", 0, &value).ok());
  EXPECT_FALSE(ParseInt32("1x", 0, &value).ok());
  EXPECT_FALSE(ParseInt32("1 2", 0, &value).ok());
  EXPECT_FALSE(ParseInt32(" 1", 0, &value).ok());
  EXPECT_FALSE(ParseInt32("+1", 0, &value).ok());
  EXPECT_FALSE(ParseInt32("-1", 0, &value).ok());
  EXPECT_FALSE(ParseInt32("2147483648", 0, &value).ok());
  EXPECT_FALSE(ParseInt32("99999999999999999999", 0, &value).ok());
}

TEST(StrTest, ParseDoubleStrict) {
  double value = 0.0;
  EXPECT_TRUE(ParseDouble("0.25", &value).ok());
  EXPECT_DOUBLE_EQ(value, 0.25);
  EXPECT_TRUE(ParseDouble("-1e3", &value).ok());
  EXPECT_DOUBLE_EQ(value, -1000.0);
  EXPECT_TRUE(ParseDouble(".5", &value).ok());
  EXPECT_DOUBLE_EQ(value, 0.5);
  EXPECT_FALSE(ParseDouble("", &value).ok());
  EXPECT_FALSE(ParseDouble("0.5x", &value).ok());
  EXPECT_FALSE(ParseDouble(" 0.5", &value).ok());
  EXPECT_FALSE(ParseDouble("+0.5", &value).ok());
  EXPECT_FALSE(ParseDouble("0x1p-1", &value).ok());  // strtod hex float.
  EXPECT_FALSE(ParseDouble("nan", &value).ok());
  EXPECT_FALSE(ParseDouble("inf", &value).ok());
  EXPECT_FALSE(ParseDouble("1e999", &value).ok());
}

TEST(SwapHandleTest, LoadAndSwap) {
  SwapHandle<int> handle(std::make_shared<int>(1));
  const std::shared_ptr<int> first = handle.Load();
  EXPECT_EQ(*first, 1);
  const std::shared_ptr<int> old = handle.Swap(std::make_shared<int>(2));
  EXPECT_EQ(old.get(), first.get()) << "Swap must return the superseded value";
  EXPECT_EQ(*handle.Load(), 2);
  // The pre-swap snapshot stays alive and unchanged for its holders.
  EXPECT_EQ(*first, 1);
}

TEST(SwapHandleTest, ReadersNeverSeeTornValuesAcrossConcurrentSwaps) {
  // Each published object is internally consistent (both fields equal);
  // a reader observing a mismatch would mean a torn publication.
  struct Pair {
    int a = 0;
    int b = 0;
  };
  SwapHandle<Pair> handle(std::make_shared<Pair>(Pair{0, 0}));
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<Pair> snapshot = handle.Load();
        EXPECT_EQ(snapshot->a, snapshot->b);
      }
    });
  }
  for (int i = 1; i <= 1000; ++i) {
    handle.Swap(std::make_shared<Pair>(Pair{i, i}));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(handle.Load()->a, 1000);
}

TEST(EnvTest, IntKnob) {
  ::setenv("LC_TEST_INT", "123", 1);
  EXPECT_EQ(GetEnvInt("LC_TEST_INT", 7), 123);
  ::setenv("LC_TEST_INT", "garbage", 1);
  EXPECT_EQ(GetEnvInt("LC_TEST_INT", 7), 7);
  ::unsetenv("LC_TEST_INT");
  EXPECT_EQ(GetEnvInt("LC_TEST_INT", 7), 7);
}

TEST(EnvTest, DoubleKnob) {
  ::setenv("LC_TEST_DOUBLE", "0.25", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("LC_TEST_DOUBLE", 1.0), 0.25);
  ::unsetenv("LC_TEST_DOUBLE");
}

TEST(EnvTest, BoolKnob) {
  ::setenv("LC_TEST_BOOL", "true", 1);
  EXPECT_TRUE(GetEnvBool("LC_TEST_BOOL", false));
  ::setenv("LC_TEST_BOOL", "0", 1);
  EXPECT_FALSE(GetEnvBool("LC_TEST_BOOL", true));
  ::unsetenv("LC_TEST_BOOL");
}

TEST(BitVectorTest, SetTestCount) {
  BitVector bits(130);
  EXPECT_EQ(bits.Count(), 0u);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Set(64, false);
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(BitVectorTest, AllOnesConstructorMasksTail) {
  BitVector bits(70, true);
  EXPECT_EQ(bits.Count(), 70u);
}

TEST(BitVectorTest, AndOr) {
  BitVector a(8);
  BitVector b(8);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  EXPECT_EQ(a.And(b).SetIndices(), (std::vector<size_t>{2}));
  EXPECT_EQ(a.Or(b).SetIndices(), (std::vector<size_t>{1, 2, 3}));
}

TEST(BitVectorTest, ToStringAndClear) {
  BitVector bits(4);
  bits.Set(1);
  EXPECT_EQ(bits.ToString(), "0100");
  bits.Clear();
  EXPECT_TRUE(bits.None());
}

// A length prefix followed by a few payload bytes, as a crafted file
// would carry it.
std::string LengthPrefixed(uint64_t length) {
  BinaryWriter writer;
  writer.WriteU64(length);
  writer.WriteU32(0x01020304);
  return writer.buffer();
}

TEST(BinaryReaderTest, HugeLengthsAreCorruptionNotWraparound) {
  // offset + 4 * 2^62 and offset + (2^64 - 1) both wrap to a small number,
  // which the old `offset + count > size` checks let through to a resize.
  for (const uint64_t length : {uint64_t{1} << 62, ~uint64_t{0}}) {
    const std::string bytes = LengthPrefixed(length);
    {
      BinaryReader reader(bytes);
      std::vector<float> floats;
      EXPECT_EQ(reader.ReadFloats(&floats).code(), StatusCode::kCorruption)
          << length;
      EXPECT_TRUE(floats.empty());
    }
    {
      BinaryReader reader(bytes);
      std::string text;
      EXPECT_EQ(reader.ReadString(&text).code(), StatusCode::kCorruption)
          << length;
      EXPECT_TRUE(text.empty());
    }
  }
}

TEST(BinaryReaderTest, ReadsExactlyToTheEndAndNoFurther) {
  BinaryWriter writer;
  const float values[] = {1.0f, 2.0f};
  writer.WriteFloats(values, 2);
  writer.WriteString("ab");
  writer.WriteFloats(values, 0);
  BinaryReader reader(writer.buffer());
  std::vector<float> floats;
  std::string text;
  ASSERT_TRUE(reader.ReadFloats(&floats).ok());
  ASSERT_TRUE(reader.ReadString(&text).ok());
  EXPECT_EQ(floats, (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(text, "ab");
  // An empty array reads into an empty vector (a null data() under UBSan).
  std::vector<float> empty;
  ASSERT_TRUE(reader.ReadFloats(&empty).ok());
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(reader.AtEnd());
  uint8_t byte = 0;
  EXPECT_EQ(reader.ReadU8(&byte).code(), StatusCode::kCorruption);

  // One float short: a count of 3 over 8 payload bytes.
  BinaryWriter short_writer;
  short_writer.WriteU64(3);
  short_writer.WriteF32(1.0f);
  short_writer.WriteF32(2.0f);
  BinaryReader short_reader(short_writer.buffer());
  EXPECT_EQ(short_reader.ReadFloats(&floats).code(), StatusCode::kCorruption);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(timer.Seconds(), 0.0);
  timer.Reset();
  EXPECT_LT(timer.Seconds(), 1.0);
}

}  // namespace
}  // namespace lc
