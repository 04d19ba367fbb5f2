#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/string_util.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

namespace spade {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "PARSE_ERROR: bad token");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::InvalidArgument("x").ToString(), "INVALID_ARGUMENT: x");
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OUT_OF_RANGE: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "INTERNAL: x");
}

Status FailsInside() {
  SPADE_RETURN_NOT_OK(Status::NotFound("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  Status st = FailsInside();
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  int buckets[10] = {0};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.Uniform(10)];
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], kDraws / 10, kDraws / 100);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0, sum2 = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sum2 / kDraws, 1.0, 0.05);
}

TEST(RngTest, ZipfSkewsTowardSmallValues) {
  Rng rng(23);
  int first = 0, last = 0;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Zipf(10, 1.2);
    EXPECT_LT(v, 10u);
    first += (v == 0);
    last += (v == 9);
  }
  EXPECT_GT(first, 5 * last);
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("x", "xy"));
  EXPECT_TRUE(EndsWith("file.nt", ".nt"));
  EXPECT_FALSE(EndsWith("nt", "file.nt"));
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("4.2", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_TRUE(ParseInt64("  13 ", &v));
  EXPECT_EQ(v, 13);
}

TEST(StringUtilTest, ParseDouble) {
  double v;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000);
  EXPECT_FALSE(ParseDouble("12x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

// The reference ParseDouble is pinned to: strtod on a copy of the trimmed
// string, accepted only when it consumes every character.
bool StrtodReference(const std::string& s, double* out) {
  std::string trimmed(Trim(s));
  if (trimmed.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(trimmed.c_str(), &end);
  return end == trimmed.c_str() + trimmed.size();
}

void ExpectSameAsStrtod(const std::string& s) {
  SCOPED_TRACE("input \"" + s + "\"");
  double want = 0;
  double got = 0;
  const bool want_ok = StrtodReference(s, &want);
  ASSERT_EQ(ParseDouble(s, &got), want_ok);
  if (!want_ok) return;
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got));
    return;
  }
  uint64_t want_bits = 0;
  uint64_t got_bits = 0;
  std::memcpy(&want_bits, &want, sizeof(want));
  std::memcpy(&got_bits, &got, sizeof(got));
  EXPECT_EQ(got_bits, want_bits);
}

TEST(StringUtilTest, ParseDoubleMatchesStrtodBitForBit) {
  for (const char* s :
       {"+5", "0x1p3", " 2.5 ", "1e400", "-1e400", "1e-320", "1e-400", "-0",
        "inf", "-inf", "+inf", "infinity", "nan", "-nan", "1.", ".5", "1e",
        "1,5", "", " ", "-", ".", "e5", "12x", "0", "007", "1E+05", "-.5e-3",
        "4.9406564584124654e-324", "1.7976931348623157e308",
        "2.2250738585072011e-308", "0.1000000000000000055511151231257827",
        "123456789012345678901234567890"}) {
    ExpectSameAsStrtod(s);
  }
  Rng rng(20261018);
  char buf[512];  // "%.3f" of 1e308 prints 313 characters
  for (int i = 0; i < 3000; ++i) {
    // Spread the magnitudes over the whole double range: random bits,
    // reinterpreted, skipping NaN and infinity patterns.
    uint64_t bits = rng.Next();
    double d = 0;
    std::memcpy(&d, &bits, sizeof(d));
    if (!std::isfinite(d)) continue;
    for (const char* format : {"%.17g", "%g", "%.3f"}) {
      std::snprintf(buf, sizeof(buf), format, d);
      ExpectSameAsStrtod(buf);
    }
    // Values in the range measures take: a few decimal digits.
    std::snprintf(buf, sizeof(buf), "%.17g", rng.NextGaussian() * 1e4);
    ExpectSameAsStrtod(buf);
  }
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.5, 3), "1.5");
  EXPECT_EQ(FormatDouble(2.0, 3), "2");
  EXPECT_EQ(FormatDouble(0.125, 3), "0.125");
}

TEST(StringUtilTest, JoinAndLower) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"name", "value"});
  tp.AddRow({"x", "1"});
  tp.AddRow({"long-name", "23"});
  std::ostringstream os;
  tp.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 23    |"), std::string::npos);
}

TEST(TablePrinterTest, PadsMissingCells) {
  TablePrinter tp({"a", "b", "c"});
  tp.AddRow({"1"});
  std::ostringstream os;
  tp.Print(os);
  EXPECT_NE(os.str().find("| 1 |"), std::string::npos);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += std::sqrt(static_cast<double>(i));
  EXPECT_GT(x, 0.0);  // keep the loop observable
  EXPECT_GE(t.ElapsedMillis(), 0.0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace spade
