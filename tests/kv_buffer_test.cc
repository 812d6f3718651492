#include "src/util/kv_buffer.h"

#include <gtest/gtest.h>

namespace onepass {
namespace {

TEST(KvBufferTest, AppendAndRead) {
  KvBuffer buf;
  buf.Append("k1", "v1");
  buf.Append("", "value-with-empty-key");
  buf.Append("k3", "");
  EXPECT_EQ(buf.count(), 3u);

  KvBufferReader reader(buf);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "k1");
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "");
  EXPECT_EQ(v, "value-with-empty-key");
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "k3");
  EXPECT_EQ(v, "");
  EXPECT_FALSE(reader.Next(&k, &v));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(KvBufferTest, BytesMatchRecordBytes) {
  KvBuffer buf;
  uint64_t expected = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string k = "key" + std::to_string(i);
    const std::string v(i, 'v');
    buf.Append(k, v);
    expected += RecordBytes(k, v);
  }
  EXPECT_EQ(buf.bytes(), expected);
}

TEST(KvBufferTest, ClearAndReuse) {
  KvBuffer buf;
  buf.Append("k", "v");
  buf.Clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.bytes(), 0u);
  buf.Append("k2", "v2");
  EXPECT_EQ(buf.count(), 1u);
}

TEST(KvBufferTest, ReleaseAndFromDataRoundTrip) {
  KvBuffer buf;
  buf.Append("x", "y");
  buf.Append("z", "w");
  KvBuffer restored = KvBuffer::FromData(buf.data(), buf.count());
  EXPECT_EQ(restored.count(), 2u);
  EXPECT_EQ(restored.data(), buf.data());
  KvBufferReader reader(restored);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "x");
}

TEST(KvBufferTest, LargeValues) {
  KvBuffer buf;
  const std::string big(1 << 20, 'B');
  buf.Append("big", big);
  KvBufferReader reader(buf);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(v.size(), big.size());
}

TEST(KvBufferTest, ReserveAvoidsReallocation) {
  KvBuffer buf;
  buf.Reserve(1 << 16);
  const char* before = buf.data().data();
  std::string v(100, 'v');
  for (int i = 0; i < 500; ++i) buf.Append("key" + std::to_string(i), v);
  ASSERT_LT(buf.bytes(), uint64_t{1} << 16);
  EXPECT_EQ(buf.data().data(), before);
  // Reserving less than the current capacity must not shrink anything.
  buf.Reserve(1);
  EXPECT_EQ(buf.data().data(), before);
  EXPECT_EQ(buf.count(), 500u);
}

TEST(KvBufferTest, ShrinkToFitReleasesSlack) {
  KvBuffer buf;
  buf.Reserve(1 << 20);
  buf.Append("key", "value");
  ASSERT_GE(buf.data().capacity(), size_t{1} << 20);
  buf.ShrinkToFit();
  EXPECT_LT(buf.data().capacity(), size_t{1} << 20);
  // Contents survive.
  KvBufferReader reader(buf);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "key");
  EXPECT_EQ(v, "value");
  EXPECT_EQ(buf.count(), 1u);
}

}  // namespace
}  // namespace onepass
