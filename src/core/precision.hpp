// Storage-precision layer for population fields (DESIGN.md §8).
//
// SunwayLB's fused pull kernel is memory-bandwidth-bound: every step moves
// 2 * Q * sizeof(Real) bytes per cell, and halo, checkpoint and DMA volume
// all scale with the storage element size.  LBM retains engineering
// accuracy when populations are *stored* in reduced precision and
// *collided* in full precision (Sailfish; miniLB; FluidX3D's compressed
// DDFs), provided the stored value is shifted by the lattice weight:
//
//   store_i = Storage(f_i - w_i)        load_i = Real(store_i) + w_i
//
// Near equilibrium f_i ~ w_i * rho with rho ~ 1, so f_i - w_i is a small
// number close to zero where a float (or half) spends its mantissa on the
// physically meaningful deviation instead of on the constant weight.  The
// relative quantization error is bounded by the storage type's unit
// roundoff *of the deviation*, not of the full population.
//
// Storage types: double (lossless, the compatibility default), float, and
// an IEEE 754 binary16 `f16` (F16C conversions where the build enables
// them, bit-identical software converters otherwise).  The compute path
// always gathers/collides in Real (double) precision.
#pragma once

#include <cstdint>
#include <cstring>

#if defined(__F16C__)
#include <immintrin.h>
#endif

#include "core/common.hpp"

namespace swlb {

/// IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits).
/// Conversions round to nearest, ties to even; overflow saturates to
/// +/-inf; subnormals are handled exactly.  Storage-only type: arithmetic
/// happens after decoding to Real.
///
/// fromFloat/toFloat use the F16C instructions when the build enables
/// them (`__F16C__`, set by swlb's configure-time detection) and the
/// always-compiled software converters otherwise.  Both give the same
/// bits on every input: the hardware and software agree on every
/// non-NaN value, and NaNs (where vcvtps2ph keeps the payload and
/// vcvtph2ps quiets it) always take the software branch, which encodes
/// any NaN as 0x7E00|sign and decodes a NaN half without quieting it.
struct f16 {
  std::uint16_t bits = 0;

  f16() = default;
  explicit f16(float f) : bits(fromFloat(f)) {}
  explicit operator float() const { return toFloat(bits); }

  friend constexpr bool operator==(const f16&, const f16&) = default;

  /// True when fromFloat/toFloat run on the F16C instructions.
#if defined(__F16C__)
  static constexpr bool kHardware = true;
#else
  static constexpr bool kHardware = false;
#endif

  static std::uint16_t fromFloat(float f) {
#if defined(__F16C__)
    std::uint32_t x;
    std::memcpy(&x, &f, sizeof(x));
    if ((x & 0x7FFFFFFFu) <= 0x7F800000u)  // not NaN
      return static_cast<std::uint16_t>(
          _cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT));
#endif
    return fromFloatSoft(f);
  }

  static float toFloat(std::uint16_t h) {
#if defined(__F16C__)
    if ((h & 0x7FFFu) <= 0x7C00u) return _cvtsh_ss(h);  // not NaN
#endif
    return toFloatSoft(h);
  }

  /// Software encode.  Normals rebias the exponent and round on the
  /// 13 dropped bits (adding 0xFFF plus the kept lsb is round to nearest
  /// even, and a carry correctly bumps the exponent, up to inf).  Results
  /// below 2^-14 come from one float add of 0.5f: its ulp is 2^-24, the
  /// half subnormal ulp, so the FPU's own rounding is the half's.
  static std::uint16_t fromFloatSoft(float f) {
    std::uint32_t x;
    std::memcpy(&x, &f, sizeof(x));
    const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
    const std::uint32_t absx = x & 0x7FFFFFFFu;
    std::uint32_t half;
    if (absx >= 0x47800000u) {  // >= 65536, inf or NaN
      half = absx > 0x7F800000u ? 0x7E00u : 0x7C00u;
    } else if (absx < 0x38800000u) {  // < 2^-14: subnormal half or zero
      float a;
      std::memcpy(&a, &absx, sizeof(a));
      a += 0.5f;
      std::uint32_t ab;
      std::memcpy(&ab, &a, sizeof(ab));
      half = ab - 0x3F000000u;
    } else {
      half = (absx + (static_cast<std::uint32_t>(15 - 127) << 23) + 0xFFFu +
              ((absx >> 13) & 1u)) >>
             13;
    }
    return static_cast<std::uint16_t>(sign | half);
  }

  /// Software decode: shift exponent and mantissa into place and rebias;
  /// inf/NaN get the full float exponent, and subnormals are renormalized
  /// exactly by subtracting the 2^-14 the rebias added.
  static float toFloatSoft(std::uint16_t h) {
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    std::uint32_t x = static_cast<std::uint32_t>(h & 0x7FFFu) << 13;
    const std::uint32_t exp = x & 0x0F800000u;
    x += static_cast<std::uint32_t>(127 - 15) << 23;
    float f;
    if (exp == 0x0F800000u) {  // inf / NaN
      x += static_cast<std::uint32_t>(128 - 16) << 23;
    } else if (exp == 0) {  // zero / subnormal
      x += 1u << 23;
      std::memcpy(&f, &x, sizeof(f));
      f -= 0x1.0p-14f;
      std::memcpy(&x, &f, sizeof(x));
    }
    x |= sign;
    std::memcpy(&f, &x, sizeof(f));
    return f;
  }
};

/// Encode/decode and metadata for a population storage type.  `decode`
/// and `encode` implement the weight-shifted (DDF-shifting) transform;
/// the shift is zero for identity (double) storage so the default path
/// stays bit-exact with the historical format.
///
/// Valid storage types: exactly `double` ("f64", 8 B, the default —
/// bit-exact reproduction), `float` ("f32", 4 B, ~2x traffic reduction,
/// Ghia-validated) and `f16` ("f16", 2 B, exploratory only).  Per-type
/// constants and their units:
///   * `kBits` — storage width in bits; doubles as the checkpoint
///     precision tag (io/checkpoint.hpp format v2).
///   * `kEpsilon` — dimensionless unit roundoff of the *stored
///     deviation* `f_i - w_i` (half ulp, round-to-nearest): the
///     relative quantization bound the tuner reports in
///     `TuningPlan::advisedQuantError`.
///   * `kMinNormal` — smallest normal magnitude in lattice population
///     units; below it the error floor is absolute
///     (kEpsilon * kMinNormal), not relative.
/// Precision is chosen explicitly (`Solver<D, S>`); the auto-tuner only
/// ever *advises* a storage type, it never switches one (DESIGN.md §9).
template <class S>
struct StorageTraits;

template <>
struct StorageTraits<double> {
  static constexpr const char* name() { return "f64"; }
  static constexpr std::uint32_t kBits = 64;
  /// Unit roundoff of the stored deviation (half ulp, round-to-nearest).
  static constexpr Real kEpsilon = 0x1.0p-53;
  /// Smallest normal magnitude: below it the quantization error is the
  /// fixed subnormal half ulp (kEpsilon * kMinNormal), not relative.
  static constexpr Real kMinNormal = 0x1.0p-1022;
  static Real decode(double s, Real shift) { return s + shift; }
  static double encode(Real f, Real shift) { return f - shift; }
};

template <>
struct StorageTraits<float> {
  static constexpr const char* name() { return "f32"; }
  static constexpr std::uint32_t kBits = 32;
  static constexpr Real kEpsilon = 0x1.0p-24;
  static constexpr Real kMinNormal = 0x1.0p-126;
  static Real decode(float s, Real shift) {
    return static_cast<Real>(s) + shift;
  }
  static float encode(Real f, Real shift) {
    return static_cast<float>(f - shift);
  }
};

template <>
struct StorageTraits<f16> {
  static constexpr const char* name() { return "f16"; }
  static constexpr std::uint32_t kBits = 16;
  static constexpr Real kEpsilon = 0x1.0p-11;
  static constexpr Real kMinNormal = 0x1.0p-14;
  static Real decode(f16 s, Real shift) {
    return static_cast<Real>(static_cast<float>(s)) + shift;
  }
  static f16 encode(Real f, Real shift) {
    return f16(static_cast<float>(f - shift));
  }
};

/// Name of a storage precision by its checkpoint tag ("f64"/"f32"/"f16").
inline const char* precision_name(std::uint32_t bits) {
  switch (bits) {
    case StorageTraits<double>::kBits: return "f64";
    case StorageTraits<float>::kBits: return "f32";
    case StorageTraits<f16>::kBits: return "f16";
    default: return "unknown";
  }
}

}  // namespace swlb
