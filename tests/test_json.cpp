// The one JSON writer (util/json.*): every number the library emits goes
// through write_number, every string through write_string, so their
// round-trip guarantees are pinned here once.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace dn::json {
namespace {

std::string rendered(double v) { return Value(v).dump(); }

/// Significant digits of a rendered finite number: mantissa digits with
/// leading and trailing zeros dropped.
std::size_t significant_digits(const std::string& text) {
  std::string digits;
  for (const char c : text.substr(0, text.find_first_of("eE")))
    if (c >= '0' && c <= '9') digits += c;
  const std::size_t first = digits.find_first_not_of('0');
  if (first == std::string::npos) return 1;
  const std::size_t last = digits.find_last_not_of('0');
  return last - first + 1;
}

TEST(JsonWriter, NumbersRoundTripBitForBitInAtMost17Digits) {
  std::vector<double> xs = {0.0,
                            -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            -std::numeric_limits<double>::max(),
                            0.1,
                            1e-5,
                            0.899999999999,
                            9.007199254740992e15};
  for (int k = -1000; k <= 1000; ++k) {  // Integers around 2^53.
    const double near = std::ldexp(1.0, 53) + k;
    xs.push_back(near);
    xs.push_back(-near);
    xs.push_back(std::ldexp(1.0, 53) - 1000.0 * k);
  }
  Rng rng(20011);
  for (int i = 0; i < 5000; ++i) {  // Subnormals: zero exponent field.
    const std::uint64_t sign = rng.next_u64() & (1ull << 63);
    const std::uint64_t mantissa = rng.next_u64() & ((1ull << 52) - 1);
    xs.push_back(std::bit_cast<double>(sign | mantissa));
  }
  while (xs.size() < 120000) {  // Random bit patterns, finite only.
    const double v = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(v)) xs.push_back(v);
  }

  for (const double x : xs) {
    const std::string text = rendered(x);
    StatusOr<Value> back = parse(text);
    ASSERT_TRUE(back.ok()) << text;
    ASSERT_TRUE(back->is_number()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back->as_number()),
              std::bit_cast<std::uint64_t>(x))
        << text;
    EXPECT_LE(significant_digits(text), 17u) << text;
  }
}

TEST(JsonWriter, IntegersPrintWithoutAFraction) {
  EXPECT_EQ(rendered(3.0), "3");
  EXPECT_EQ(rendered(-42.0), "-42");
  EXPECT_EQ(rendered(1e15), "1000000000000000");
  EXPECT_EQ(rendered(-0.0), "-0");
  EXPECT_EQ(rendered(0.5), "0.5");
  EXPECT_EQ(rendered(0.899999999999), "0.899999999999");
}

TEST(JsonWriter, NonFiniteNumbersRenderAsNull) {
  EXPECT_EQ(rendered(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(rendered(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(rendered(std::numeric_limits<double>::quiet_NaN()), "null");
}

std::string rendered(std::string_view s) { return Value(std::string(s)).dump(); }

constexpr std::string_view kReplacement = "\xef\xbf\xbd";  // U+FFFD

TEST(JsonWriter, InvalidUtf8BytesBecomeReplacementCharacters) {
  struct Case {
    std::string_view in;
    int replaced;  // Bytes that are not part of a well-formed sequence.
    std::string_view prefix, suffix;
  };
  const Case cases[] = {
      {"n\xff", 1, "n", ""},
      {"a\xe2\x82z", 2, "a", "z"},  // Truncated 3-byte sequence.
      {"\xe2\x82", 2, "", ""},      // ... at the end of the string.
      {"\xc0\xaf", 2, "", ""},      // Overlong '/'.
      {"\xed\xa0\x80", 3, "", ""},  // Encoded surrogate U+D800.
  };
  for (const Case& c : cases) {
    const std::string text = rendered(c.in);
    // Every invalid byte was escaped, so the text is ASCII: valid UTF-8.
    for (const char ch : text)
      EXPECT_LT(static_cast<unsigned char>(ch), 0x80u) << text;
    StatusOr<Value> back = parse(text);
    ASSERT_TRUE(back.ok()) << text;
    std::string want(c.prefix);
    for (int i = 0; i < c.replaced; ++i) want += kReplacement;
    want += c.suffix;
    EXPECT_EQ(back->as_string(), want) << text;
  }
}

TEST(JsonWriter, WellFormedUtf8PassesThroughByteForByte) {
  for (const std::string_view s :
       {"caf\xc3\xa9", "\xe2\x82\xac 5", "\xf0\x9f\x98\x80", "\xef\xbf\xbd"}) {
    const std::string text = rendered(s);
    EXPECT_EQ(text, "\"" + std::string(s) + "\"");
    StatusOr<Value> back = parse(text);
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(back->as_string(), s);
  }
}

}  // namespace
}  // namespace dn::json
