// Exhaustive binary16 encode check (DESIGN.md §8): every one of the 2^32
// float bit patterns, NaNs and subnormals included, through the software
// encoder against the frozen oracle, and through the shipped encoder
// (F16C when built with it) against the software encoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/precision.hpp"
#include "f16_oracle.hpp"

namespace swlb {
namespace {

TEST(F16Exhaustive, EveryFloatEncodesLikeTheOracle) {
  std::uint64_t softMismatches = 0, shippedMismatches = 0;
  std::uint32_t firstSoft = 0, firstShipped = 0;
  for (std::uint64_t i = 0; i <= 0xFFFFFFFFull; ++i) {
    const auto x = static_cast<std::uint32_t>(i);
    float f;
    std::memcpy(&f, &x, sizeof(f));
    const std::uint16_t soft = f16::fromFloatSoft(f);
    if (soft != test::oracleFromFloat(f) && softMismatches++ == 0)
      firstSoft = x;
    if (f16::fromFloat(f) != soft && shippedMismatches++ == 0)
      firstShipped = x;
  }
  EXPECT_EQ(softMismatches, 0u) << "first at 0x" << std::hex << firstSoft;
  EXPECT_EQ(shippedMismatches, 0u)
      << "first at 0x" << std::hex << firstShipped;
}

}  // namespace
}  // namespace swlb
