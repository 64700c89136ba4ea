// Frozen reference binary16 converters for the precision tests: the
// original branchy software f16::fromFloat/toFloat, kept verbatim so the
// shipped converters (software and F16C) are checked bit for bit against
// a fixed oracle rather than against themselves.
#pragma once

#include <cstdint>
#include <cstring>

namespace swlb::test {

inline std::uint16_t oracleFromFloat(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t absx = x & 0x7FFFFFFFu;
  if (absx >= 0x7F800000u) {  // inf / NaN
    const std::uint16_t payload = absx > 0x7F800000u ? 0x0200u : 0u;
    return static_cast<std::uint16_t>(sign | 0x7C00u | payload);
  }
  if (absx >= 0x47800000u)  // >= 65536: overflows half's range -> inf
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  if (absx < 0x33000000u)  // < 2^-25: underflows to zero (even tie)
    return sign;
  std::uint32_t mant = (absx & 0x007FFFFFu) | 0x00800000u;  // implicit 1
  const int exp = static_cast<int>(absx >> 23) - 127;       // unbiased
  int shift;                                                // mant >> shift
  std::uint16_t half;
  if (exp < -14) {
    // Subnormal half: value = mant * 2^(exp-23), half ulp = 2^-24.
    shift = 13 + (-14 - exp);
    half = sign;
  } else {
    shift = 13;
    half = static_cast<std::uint16_t>(sign | ((exp + 15) << 10));
    mant &= 0x007FFFFFu;  // normal: implicit bit lives in the exponent
  }
  std::uint32_t rounded = mant >> shift;
  // Round to nearest, ties to even.
  const std::uint32_t rem = mant & ((1u << shift) - 1);
  const std::uint32_t halfway = 1u << (shift - 1);
  if (rem > halfway || (rem == halfway && (rounded & 1u)))
    ++rounded;  // may carry into the exponent field: that is correct
  return static_cast<std::uint16_t>(half + rounded);
}

inline float oracleToFloat(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  std::uint32_t mant = h & 0x03FFu;
  std::uint32_t x;
  if (exp == 0x1Fu) {  // inf / NaN
    x = sign | 0x7F800000u | (mant << 13);
  } else if (exp != 0) {  // normal
    x = sign | ((exp + 112u) << 23) | (mant << 13);
  } else if (mant != 0) {  // subnormal: normalize into a float
    int e = -1;
    do {
      mant <<= 1;
      ++e;
    } while ((mant & 0x0400u) == 0);
    // mant = orig << (e + 1); value = orig * 2^-24, so the float's
    // unbiased exponent is -15 - e  ->  biased 112 - e.
    x = sign | ((112u - e) << 23) | ((mant & 0x03FFu) << 13);
  } else {  // +/- zero
    x = sign;
  }
  float f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

}  // namespace swlb::test
