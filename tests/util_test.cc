/**
 * @file
 * Unit tests for src/util: bit ops, PRNG, fixed point, saturating
 * counters, the table formatter, and the JSON serializer every
 * artifact (run reports, --profile, traces) shares.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bitops.hh"
#include "util/fixed_point.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "util/saturating.hh"
#include "util/table.hh"

namespace slip {
namespace {

TEST(JsonTest, ObjectKeysAreSorted)
{
    json::Value v = json::Value::object();
    v["zulu"] = 1;
    v["alpha"] = 2;
    v["mike"] = 3;
    const std::string s = v.dump();
    EXPECT_LT(s.find("alpha"), s.find("mike"));
    EXPECT_LT(s.find("mike"), s.find("zulu"));
}

TEST(JsonTest, DoublesUseShortestRoundTrip)
{
    EXPECT_EQ(json::formatDouble(0.6), "0.6");
    EXPECT_EQ(json::formatDouble(0.1), "0.1");
    EXPECT_EQ(json::formatDouble(1.0), "1.0");
    EXPECT_EQ(json::formatDouble(1e300), "1e+300");
    // Every finite double must parse back to exactly itself.
    for (double d : {0.3, 1.0 / 3.0, 123456789.123456789, 5e-324}) {
        json::Value v = d;
        json::Value back;
        ASSERT_TRUE(json::Value::parse(v.dump(), back, nullptr));
        EXPECT_EQ(back.asDouble(), d);
    }
}

TEST(JsonTest, StringEscaping)
{
    json::Value v = std::string("a\"b\\c\n\t\x01");
    json::Value back;
    std::string err;
    ASSERT_TRUE(json::Value::parse(v.dump(), back, &err)) << err;
    EXPECT_EQ(back.asString(), "a\"b\\c\n\t\x01");
}

TEST(JsonTest, ParseRoundTripsNestedValue)
{
    json::Value v = json::Value::object();
    v["list"] = json::Value::array();
    v["list"].push(1);
    v["list"].push(false);
    v["list"].push("two");
    v["list"].push(json::Value());
    v["nested"]["deep"] = -5;
    v["big"] = ~0ull;

    json::Value back;
    std::string err;
    ASSERT_TRUE(json::Value::parse(v.dump(), back, &err)) << err;
    EXPECT_EQ(back.dump(), v.dump());
    EXPECT_EQ(back.find("big")->asU64(), ~0ull);
    EXPECT_EQ(back.find("nested")->find("deep")->asI64(), -5);
    EXPECT_EQ(back.find("list")->elements().size(), 4u);
}

TEST(JsonTest, ParseRejectsMalformedInput)
{
    json::Value out;
    std::string err;
    EXPECT_FALSE(json::Value::parse("{", out, &err));
    EXPECT_FALSE(json::Value::parse("[1,]", out, &err));
    EXPECT_FALSE(json::Value::parse("{\"a\": 1} trailing", out, &err));
    EXPECT_FALSE(json::Value::parse("", out, &err));
    EXPECT_FALSE(err.empty());
}

// Parser edge cases, table-driven: every malformed document must be
// rejected (with a non-empty diagnostic), never crash or mis-parse.
TEST(JsonTest, ParseRejectsEdgeCaseInputs)
{
    struct Case
    {
        const char *name;
        std::string text;
    };
    const Case cases[] = {
        // Malformed / truncated escapes.
        {"bad escape letter", R"("a\q")"},
        {"escape at end of input", "\"abc\\"},
        {"truncated \\u escape", R"("\u12")"},
        {"non-hex \\u digits", R"("\uZZZZ")"},
        {"unterminated string", "\"abc"},
        // Truncated documents.
        {"lone minus", "-"},
        {"truncated literal", "tru"},
        {"truncated object key", "{\"a"},
        {"object missing colon", R"({"a" 1})"},
        {"object missing value", R"({"a":})"},
        {"array missing separator", "[1 2]"},
        {"unclosed array", "[1, 2"},
        // Structural garbage.
        {"bare key", "a: 1"},
        {"two top-level values", "1 2"},
        {"comma only", ","},
        // Nesting past the recursion ceiling (stack-overflow guard).
        {"deep array nesting", std::string(100000, '[')},
        {"deep object nesting", [] {
             std::string s;
             for (int i = 0; i < 100000; ++i)
                 s += "{\"k\":";
             return s;
         }()},
    };
    for (const Case &c : cases) {
        json::Value out;
        std::string err;
        EXPECT_FALSE(json::Value::parse(c.text, out, &err)) << c.name;
        EXPECT_FALSE(err.empty()) << c.name;
    }
}

// Nesting below the ceiling still parses; the limit only guards
// adversarial depth, not real documents.
TEST(JsonTest, ParseAcceptsReasonableNesting)
{
    std::string text(64, '[');
    text += std::string(64, ']');
    json::Value out;
    std::string err;
    EXPECT_TRUE(json::Value::parse(text, out, &err)) << err;
}

// Duplicate keys: last value wins (Value::operator[] overwrites), one
// entry survives, and the document round-trips deterministically.
TEST(JsonTest, ParseDuplicateKeysLastWins)
{
    json::Value out;
    std::string err;
    ASSERT_TRUE(
        json::Value::parse(R"({"k": 1, "k": 2})", out, &err)) << err;
    ASSERT_NE(out.find("k"), nullptr);
    EXPECT_EQ(out.find("k")->asU64(), 2u);
    EXPECT_EQ(out.dump(), "{\n  \"k\": 2\n}");
}

TEST(BitopsTest, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(BitopsTest, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(exactLog2(65536), 16u);
}

TEST(BitopsTest, BitsAndMask)
{
    EXPECT_EQ(bits(0xABCD, 7, 4), 0xCull);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
    EXPECT_EQ(mask(0), 0ull);
    EXPECT_EQ(mask(12), 0xFFFull);
    EXPECT_EQ(mask(64), ~0ull);
}

TEST(BitopsTest, RoundUp)
{
    EXPECT_EQ(roundUp(0, 64), 0ull);
    EXPECT_EQ(roundUp(1, 64), 64ull);
    EXPECT_EQ(roundUp(64, 64), 64ull);
    EXPECT_EQ(roundUp(65, 64), 128ull);
}

TEST(RandomTest, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RandomTest, SeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(RandomTest, BelowInRange)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RandomTest, BelowCoversAllValues)
{
    Random r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, UniformInUnitInterval)
{
    Random r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, OneInFrequency)
{
    Random r(11);
    int hits = 0;
    const int trials = 160000;
    for (int i = 0; i < trials; ++i)
        hits += r.oneIn(16);
    // Expect ~1/16 with generous tolerance.
    EXPECT_NEAR(double(hits) / trials, 1.0 / 16, 0.005);
}

TEST(FixedPointTest, RoundTrip)
{
    const std::uint32_t q = quantizeEnergy(39.0, 24, 2);
    EXPECT_NEAR(dequantizeEnergy(q, 2), 39.0, 0.25);
}

TEST(FixedPointTest, Saturates)
{
    const std::uint32_t q = quantizeEnergy(1e12, 16, 2);
    EXPECT_EQ(q, (1u << 16) - 1);
}

TEST(FixedPointTest, NegativeClamped)
{
    EXPECT_EQ(quantizeEnergy(-5.0, 16, 2), 0u);
}

TEST(FixedPointTest, DotProduct)
{
    const std::uint8_t bins[4] = {1, 2, 3, 4};
    const std::uint32_t coeffs[4] = {10, 20, 30, 40};
    EXPECT_EQ(eeuDotProduct(bins, coeffs, 4), 10u + 40 + 90 + 160);
}

TEST(SaturatingTest, BasicIncrement)
{
    SatCounterArray<4> c(4);
    EXPECT_FALSE(c.increment(0));
    EXPECT_EQ(c.count(0), 1);
    EXPECT_EQ(c.total(), 1u);
}

TEST(SaturatingTest, HalveOnOverflow)
{
    SatCounterArray<4> c(4);
    for (int i = 0; i < 15; ++i)
        c.increment(1);
    EXPECT_EQ(c.count(1), 15);
    c.increment(0);
    c.increment(0);
    c.increment(0);
    c.increment(0);
    // Paper example: counts [4, 15, 0, 12] + hit on bin 1 ->
    // [2, 8, 0, 6] (halve all, then increment).
    SatCounterArray<4> p(4);
    for (int i = 0; i < 4; ++i)
        p.increment(0);
    for (int i = 0; i < 15; ++i)
        p.increment(1);
    for (int i = 0; i < 12; ++i)
        p.increment(3);
    // After those increments bin3 overflowed once already; rebuild the
    // exact state by hand instead.
    SatCounterArray<4> q(4);
    q.load({4, 15, 0, 12});
    const bool halved = q.increment(1);
    EXPECT_TRUE(halved);
    EXPECT_EQ(q.count(0), 2);
    EXPECT_EQ(q.count(1), 8);  // 15/2 = 7, +1 = 8
    EXPECT_EQ(q.count(2), 0);
    EXPECT_EQ(q.count(3), 6);
}

TEST(SaturatingTest, WidthChangeClears)
{
    SatCounterArray<4> c(4);
    c.increment(2);
    c.setWidth(2);
    EXPECT_EQ(c.total(), 0u);
    EXPECT_EQ(c.maxCount(), 3);
}

TEST(SaturatingTest, TwoBitSaturation)
{
    SatCounterArray<4> c(2);
    for (int i = 0; i < 3; ++i)
        c.increment(0);
    EXPECT_EQ(c.count(0), 3);
    EXPECT_TRUE(c.increment(0));  // halving triggered
    EXPECT_EQ(c.count(0), 2);     // 3/2 = 1, +1
}

TEST(TableTest, RendersAligned)
{
    TextTable t;
    t.setHeader({"a", "bench"});
    t.addRow({"x", "1"});
    t.addSeparator();
    t.addRow({"longer", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("bench"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header row then separator line.
    EXPECT_EQ(out.find("a"), 0u);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.351, 1), "+35.1%");
    EXPECT_EQ(TextTable::pct(-0.02, 1), "-2.0%");
}

} // namespace
} // namespace slip
