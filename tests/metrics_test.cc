#include "src/mr/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

namespace onepass {
namespace {

using Field = JobMetrics::Field;

// Gives the counter of row i the distinct value i + 1 (plus 0.5 for a
// double).
JobMetrics DistinctValues() {
  JobMetrics m;
  uint64_t i = 0;
  for (const Field& f : JobMetrics::Fields()) {
    ++i;
    if (f.u64 != nullptr) {
      m.*f.u64 = i;
    } else {
      m.*f.f64 = static_cast<double>(i) + 0.5;
    }
  }
  return m;
}

double Value(const JobMetrics& m, const Field& f) {
  return f.u64 != nullptr ? static_cast<double>(m.*f.u64) : m.*f.f64;
}

// The table names every counter once, in declaration order: row i is
// the member at byte offset 8 * i (the build checks the row count).
TEST(MetricsTest, TableRowsFollowDeclarationOrder) {
  JobMetrics m;
  const auto* base = reinterpret_cast<const char*>(&m);
  size_t i = 0;
  for (const Field& f : JobMetrics::Fields()) {
    ASSERT_NE(f.u64 == nullptr, f.f64 == nullptr) << f.name;
    const auto* member =
        f.u64 != nullptr ? reinterpret_cast<const char*>(&(m.*f.u64))
                         : reinterpret_cast<const char*>(&(m.*f.f64));
    EXPECT_EQ(member - base, static_cast<std::ptrdiff_t>(8 * i)) << f.name;
    ++i;
  }
  EXPECT_EQ(i * 8, sizeof(JobMetrics));
}

TEST(MetricsTest, MergeAddsEveryField) {
  const JobMetrics a = DistinctValues();
  JobMetrics b = a;
  b.Merge(a);
  JobMetrics zero;
  zero.Merge(a);
  for (const Field& f : JobMetrics::Fields()) {
    const double v = Value(a, f);
    // Sums double; the max of a value with itself is that value.
    EXPECT_EQ(Value(b, f), f.merge == Field::kMax ? v : 2 * v) << f.name;
    // Merged into zeros, both rules take the other side's value.
    EXPECT_EQ(Value(zero, f), v) << f.name;
  }
  EXPECT_EQ(b.hash_table_probes, 2 * a.hash_table_probes);
  EXPECT_EQ(b.hash_table_max_probe, a.hash_table_max_probe);
  // The max rule keeps the larger side, whichever it is.
  JobMetrics big;
  big.hash_table_max_probe = 1000;
  big.Merge(a);
  b.Merge(big);
  EXPECT_EQ(big.hash_table_max_probe, 1000u);
  EXPECT_EQ(b.hash_table_max_probe, 1000u);
}

// Serialize prints exactly the printed rows, one "name=value" line each,
// in table (== declaration) order; the host timers stay out.
TEST(MetricsTest, SerializePrintsThePrintedRowsInOrder) {
  const JobMetrics m = DistinctValues();
  std::istringstream lines(m.Serialize());
  std::string line;
  size_t printed = 0;
  for (const Field& f : JobMetrics::Fields()) {
    if (!f.serialized) continue;
    ++printed;
    ASSERT_TRUE(std::getline(lines, line)) << "missing " << f.name;
    const size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << line;
    EXPECT_EQ(line.substr(0, eq), f.name);
    EXPECT_EQ(std::stod(line.substr(eq + 1)), Value(m, f)) << line;
  }
  EXPECT_FALSE(std::getline(lines, line)) << "extra line " << line;
  EXPECT_EQ(printed, JobMetrics::Fields().size() - 2);
  const std::string s = m.Serialize();
  EXPECT_EQ(s.find("compress_ns"), std::string::npos);
  EXPECT_EQ(s.find("decompress_ns"), std::string::npos);
  EXPECT_NE(s.find("\nwasted_cpu_s=29.5\n"), std::string::npos);
}

}  // namespace
}  // namespace onepass
