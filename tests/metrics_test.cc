#include "src/mr/metrics.h"

#include <gtest/gtest.h>

namespace onepass {
namespace {

TEST(MetricsTest, MergeAddsEveryField) {
  JobMetrics a, b;
  a.map_input_bytes = 1;
  a.map_spill_write_bytes = 2;
  a.map_spill_read_bytes = 3;
  a.map_output_bytes = 4;
  a.shuffle_bytes = 5;
  a.reduce_spill_write_bytes = 6;
  a.reduce_spill_read_bytes = 7;
  a.reduce_output_bytes = 8;
  a.map_input_records = 9;
  a.map_output_records = 10;
  a.reduce_input_records = 11;
  a.combine_invocations = 12;
  a.reduce_groups = 13;
  a.output_records = 14;
  a.early_output_records = 15;
  a.snapshot_bytes = 16;
  a.snapshot_count = 17;
  a.wasted_cpu_s = 1.5;

  b = a;
  b.Merge(a);
  EXPECT_EQ(b.map_input_bytes, 2u);
  EXPECT_EQ(b.map_spill_write_bytes, 4u);
  EXPECT_EQ(b.map_spill_read_bytes, 6u);
  EXPECT_EQ(b.map_output_bytes, 8u);
  EXPECT_EQ(b.shuffle_bytes, 10u);
  EXPECT_EQ(b.reduce_spill_write_bytes, 12u);
  EXPECT_EQ(b.reduce_spill_read_bytes, 14u);
  EXPECT_EQ(b.reduce_output_bytes, 16u);
  EXPECT_EQ(b.map_input_records, 18u);
  EXPECT_EQ(b.map_output_records, 20u);
  EXPECT_EQ(b.reduce_input_records, 22u);
  EXPECT_EQ(b.combine_invocations, 24u);
  EXPECT_EQ(b.reduce_groups, 26u);
  EXPECT_EQ(b.output_records, 28u);
  EXPECT_EQ(b.early_output_records, 30u);
  EXPECT_EQ(b.snapshot_bytes, 32u);
  EXPECT_EQ(b.snapshot_count, 34u);
  EXPECT_DOUBLE_EQ(b.wasted_cpu_s, 3.0);
}

TEST(MetricsTest, ToStringMentionsKeyNumbers) {
  JobMetrics m;
  m.map_input_bytes = 12345;
  m.output_records = 42;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("12345"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

}  // namespace
}  // namespace onepass
