// Storage-precision layer tests (DESIGN.md §8): binary16 conversion
// against known bit patterns and, over every half, against a frozen
// oracle (test_precision_exhaustive sweeps every float), weight-shifted
// encode/decode round trips and quantization bounds, reduced-precision
// population fields, cross-precision checkpoint conversion, the LDM
// blocking gain from smaller storage elements, and a bounded f32-vs-f64
// solver divergence over a lid-driven cavity run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/precision.hpp"
#include "core/solver.hpp"
#include "f16_oracle.hpp"
#include "io/checkpoint.hpp"
#include "sw/sw_kernels.hpp"

namespace swlb {
namespace {

namespace fs = std::filesystem;

std::string tmpPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// ---- f16: binary16 conversion ------------------------------------------

std::uint32_t floatBits(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  return x;
}

TEST(F16, HardwarePathMatchesBuildDetection) {
  // The configure-time F16C check puts -mf16c on swlb's public interface,
  // so every program instantiating the converters sees the same gate.
  EXPECT_EQ(f16::kHardware, static_cast<bool>(SWLB_EXPECT_F16C));
}

TEST(F16, EveryHalfDecodesLikeTheOracle) {
  // All 65536 halves, NaNs and both zeros included: the software decoder
  // against the frozen oracle, and the shipped toFloat (F16C when built
  // with it) against the software decoder.
  for (std::uint32_t b = 0; b < 0x10000u; ++b) {
    const auto h = static_cast<std::uint16_t>(b);
    const std::uint32_t soft = floatBits(f16::toFloatSoft(h));
    ASSERT_EQ(soft, floatBits(test::oracleToFloat(h)))
        << "bits=0x" << std::hex << b;
    ASSERT_EQ(floatBits(f16::toFloat(h)), soft) << "bits=0x" << std::hex << b;
  }
}

TEST(F16, NanEncodingIsCanonicalOnBothPaths) {
  // vcvtps2ph would keep these payloads; the converters must not.
  for (const std::uint32_t x : {0x7FC00000u, 0x7F800001u, 0x7FFFFFFFu,
                                0xFFC00001u, 0x7FA00000u}) {
    float f;
    std::memcpy(&f, &x, sizeof(f));
    const std::uint16_t want = (x & 0x80000000u) ? 0xFE00u : 0x7E00u;
    EXPECT_EQ(f16::fromFloatSoft(f), want) << std::hex << x;
    EXPECT_EQ(f16::fromFloat(f), want) << std::hex << x;
  }
  // vcvtph2ps would quiet a signalling NaN half; the converters keep it.
  EXPECT_EQ(floatBits(f16::toFloat(0x7C01u)), 0x7F802000u);
  EXPECT_EQ(floatBits(f16::toFloat(0xFD00u)), 0xFFA00000u);
}

TEST(F16, KnownBitPatterns) {
  EXPECT_EQ(f16(1.0f).bits, 0x3C00u);
  EXPECT_EQ(f16(-2.0f).bits, 0xC000u);
  EXPECT_EQ(f16(0.5f).bits, 0x3800u);
  EXPECT_EQ(f16(0.0f).bits, 0x0000u);
  EXPECT_EQ(f16(-0.0f).bits, 0x8000u);
  EXPECT_EQ(f16(65504.0f).bits, 0x7BFFu);  // largest finite half
  // Smallest normal and smallest subnormal.
  EXPECT_EQ(f16(std::ldexp(1.0f, -14)).bits, 0x0400u);
  EXPECT_EQ(f16(std::ldexp(1.0f, -24)).bits, 0x0001u);
}

TEST(F16, RoundTripIsExactForRepresentableValues) {
  // Every finite half round-trips bit-exactly through float.
  for (std::uint32_t b = 0; b < 0x10000u; ++b) {
    f16 h;
    h.bits = static_cast<std::uint16_t>(b);
    if ((b & 0x7C00u) == 0x7C00u) continue;  // skip inf/NaN
    const float f = static_cast<float>(h);
    EXPECT_EQ(f16(f).bits, h.bits) << "bits=0x" << std::hex << b;
  }
}

TEST(F16, OverflowSaturatesToInfinity) {
  EXPECT_EQ(f16(65536.0f).bits, 0x7C00u);
  EXPECT_EQ(f16(-1e9f).bits, 0xFC00u);
  EXPECT_EQ(f16(std::numeric_limits<float>::infinity()).bits, 0x7C00u);
  EXPECT_TRUE(std::isinf(static_cast<float>(f16(70000.0f))));
}

TEST(F16, RoundsToNearestTiesToEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 (even mantissa) and the next
  // half up (odd mantissa): ties-to-even keeps 1.0.
  EXPECT_EQ(f16(1.0f + std::ldexp(1.0f, -11)).bits, 0x3C00u);
  // 1 + 3*2^-11 is halfway between mantissas 1 (odd) and 2 (even): up.
  EXPECT_EQ(f16(1.0f + 3 * std::ldexp(1.0f, -11)).bits, 0x3C02u);
  // Just above halfway always rounds up.
  EXPECT_EQ(f16(1.0f + std::ldexp(1.0f, -11) + std::ldexp(1.0f, -16)).bits,
            0x3C01u);
  // Underflow tie at 2^-25 goes to zero (even).
  EXPECT_EQ(f16(std::ldexp(1.0f, -25)).bits, 0x0000u);
}

TEST(F16, SubnormalsConvertExactly) {
  for (int k = 1; k <= 10; ++k) {
    const float v = std::ldexp(1.0f, -14 - k);  // subnormal powers of two
    const f16 h(v);
    EXPECT_EQ(static_cast<float>(h), v);
  }
}

// ---- weight-shifted encode/decode --------------------------------------

TEST(StorageTraits, EquilibriumAtRestStoresExactZero) {
  // At rest equilibrium f_i == w_i, so the shifted stored value is exactly
  // 0 in every storage type — no quantization at the fixed point.
  for (int i = 0; i < D3Q19::Q; ++i) {
    const Real w = D3Q19::w[i];
    EXPECT_EQ(StorageTraits<float>::encode(w, w), 0.0f);
    EXPECT_EQ(StorageTraits<f16>::encode(w, w).bits, 0u);
    EXPECT_EQ(StorageTraits<float>::decode(0.0f, w), w);
    EXPECT_EQ(StorageTraits<f16>::decode(f16{}, w), w);
    EXPECT_EQ(StorageTraits<double>::decode(
                  StorageTraits<double>::encode(w, w), w),
              w);
  }
}

template <class S>
void expectQuantizationBounded() {
  // |roundtrip(f) - f| <= kEpsilon * |f - w|: the error scales with the
  // *deviation* from the shift, not with the population magnitude.
  for (int i = 0; i < D2Q9::Q; ++i) {
    const Real w = D2Q9::w[i];
    for (const Real dev : {1e-1, 1e-3, -1e-2, 3e-5, -4e-7}) {
      const Real f = w * (1 + dev);
      const Real rt = StorageTraits<S>::decode(
          StorageTraits<S>::encode(f, w), w);
      // Relative in the normal range; a fixed subnormal half ulp below it.
      const Real bound = StorageTraits<S>::kEpsilon *
                         std::max(std::abs(f - w),
                                  StorageTraits<S>::kMinNormal) *
                         1.01;
      EXPECT_LE(std::abs(rt - f), bound)
          << StorageTraits<S>::name() << " i=" << i << " dev=" << dev;
    }
  }
}

TEST(StorageTraits, QuantizationBoundedByDeviationF64) {
  expectQuantizationBounded<double>();
}
TEST(StorageTraits, QuantizationBoundedByDeviationF32) {
  expectQuantizationBounded<float>();
}
TEST(StorageTraits, QuantizationBoundedByDeviationF16) {
  expectQuantizationBounded<f16>();
}

// ---- PopulationFieldT with reduced storage -----------------------------

TEST(PopulationFieldT, IdentityStorageIgnoresShift) {
  PopulationFieldT<Real> f(Grid(4, 4, 1), D2Q9::Q);
  f.setShift(D2Q9::w);
  for (int i = 0; i < D2Q9::Q; ++i) EXPECT_EQ(f.shift(i), 0.0);
  f(0, 1, 1, 0) = 0.25;
  EXPECT_EQ(f.raw(0, 1, 1, 0), 0.25);  // raw == logical for identity
}

TEST(PopulationFieldT, ReducedStorageRoundTripsNearEquilibrium) {
  PopulationFieldT<float> f(Grid(4, 4, 1), D2Q9::Q);
  f.setShift(D2Q9::w);
  for (int i = 0; i < D2Q9::Q; ++i) {
    EXPECT_EQ(f.shift(i), D2Q9::w[i]);
    f(i, 2, 1, 0) = D2Q9::w[i];  // rest equilibrium stores exactly
    EXPECT_EQ(static_cast<Real>(f(i, 2, 1, 0)), D2Q9::w[i]);
    EXPECT_EQ(f.raw(i, 2, 1, 0), 0.0f);
    const Real v = D2Q9::w[i] * 1.001;
    f(i, 2, 1, 0) = v;
    EXPECT_NEAR(static_cast<Real>(f(i, 2, 1, 0)), v,
                StorageTraits<float>::kEpsilon * std::abs(v - D2Q9::w[i]) *
                    1.01);
  }
  EXPECT_EQ(f.elemBytes(), sizeof(float));
  EXPECT_EQ(f.bytes(),
            Grid(4, 4, 1).volume() * std::size_t(D2Q9::Q) * sizeof(float));
}

// ---- cross-precision checkpoint conversion -----------------------------

template <class A, class B>
void expectCheckpointConverts(Real tolScale) {
  const Grid g(6, 5, 1);
  PopulationFieldT<A> src(g, D2Q9::Q);
  src.setShift(D2Q9::w);
  for (int i = 0; i < D2Q9::Q; ++i)
    for (std::size_t c = 0; c < g.volume(); ++c)
      src.store(i, c, D2Q9::w[i] * (1 + 1e-3 * std::sin(Real(i + 7 * c))));

  const std::string path = tmpPath("swlb_test_precision_conv.ckpt");
  io::save_checkpoint(path, src, /*steps=*/3, /*parity=*/1);
  const io::CheckpointMeta meta = io::read_checkpoint_meta(path);
  EXPECT_EQ(meta.precisionBits, StorageTraits<A>::kBits);
  EXPECT_EQ(meta.version, io::kCheckpointVersion);

  PopulationFieldT<B> dst(g, D2Q9::Q);
  dst.setShift(D2Q9::w);
  io::load_checkpoint(path, dst);
  std::remove(path.c_str());

  Real maxErr = 0;
  for (int i = 0; i < D2Q9::Q; ++i)
    for (std::size_t c = 0; c < g.volume(); ++c)
      maxErr = std::max(maxErr,
                        std::abs(dst.load(i, c) - src.load(i, c)));
  // Converting up (f32 file -> f64 field) is exact; converting down is
  // bounded by the destination's quantization of the deviation (~1e-3*w).
  EXPECT_LE(maxErr, tolScale);
}

TEST(CheckpointConversion, F64FileIntoF32Field) {
  expectCheckpointConverts<double, float>(StorageTraits<float>::kEpsilon *
                                          2e-3);
}
TEST(CheckpointConversion, F32FileIntoF64FieldIsExact) {
  expectCheckpointConverts<float, double>(0.0);
}
TEST(CheckpointConversion, F16FileIntoF32Field) {
  expectCheckpointConverts<f16, float>(StorageTraits<f16>::kEpsilon * 2e-3);
}

TEST(CheckpointConversion, SamePrecisionRestoreIsBitwise) {
  const Grid g(5, 4, 1);
  Solver<D2Q9, float> a(g, CollisionConfig{}, Periodicity{true, true, false});
  a.initUniform(1.0, {0.02, -0.01, 0});
  a.run(4);
  const std::string path = tmpPath("swlb_test_precision_same.ckpt");
  io::save_checkpoint(path, a);

  Solver<D2Q9, float> b(g, CollisionConfig{}, Periodicity{true, true, false});
  io::load_checkpoint(path, b);
  std::remove(path.c_str());
  EXPECT_EQ(b.stepsDone(), a.stepsDone());
  EXPECT_EQ(std::memcmp(a.f().data(), b.f().data(), a.f().bytes()), 0);
}

// ---- LDM blocking gain from smaller elements ---------------------------

TEST(MaxChunkX, SmallerStorageFitsLargerBlocks) {
  const std::size_t ldm = 64u << 10;  // one CPE's scratchpad
  const int rowsY = 1;
  const int f64 = sw::max_chunk_x(ldm, rowsY, D3Q19::Q, sizeof(double));
  const int f32 = sw::max_chunk_x(ldm, rowsY, D3Q19::Q, sizeof(float));
  const int h16 = sw::max_chunk_x(ldm, rowsY, D3Q19::Q, sizeof(f16));
  EXPECT_GT(f64, 0);
  // Halving the element size nearly doubles the block that fits (the +1
  // mask byte per cell keeps it just under exactly 2x).
  EXPECT_GE(f32, (f64 * 18) / 10);
  EXPECT_GE(h16, (f32 * 18) / 10);
  // Degenerate scratchpads yield no block instead of underflowing.
  EXPECT_EQ(sw::max_chunk_x(16, rowsY, D3Q19::Q, sizeof(double)), 0);
}

// ---- f32-vs-f64 solver divergence --------------------------------------

template <class S>
Solver<D2Q9, S> runCavity(int n, Real uLid, int steps) {
  CollisionConfig cfg;
  cfg.omega = omega_from_tau(tau_from_viscosity(uLid * n / 100.0));
  Solver<D2Q9, S> solver(Grid(n, n + 1, 1), cfg,
                         Periodicity{false, false, true});
  const auto lid = solver.materials().addMovingWall({uLid, 0, 0});
  solver.paint({{0, n, 0}, {n, n + 1, 1}}, lid);
  solver.finalizeMask();
  solver.initUniform(1.0, {0, 0, 0});
  solver.run(steps);
  return solver;
}

TEST(PrecisionDivergence, F32CavityTracksF64Over500Steps) {
  const int n = 32;
  const Real uLid = 0.1;
  auto ref = runCavity<Real>(n, uLid, 500);
  auto low = runCavity<float>(n, uLid, 500);
  Real maxDiff = 0;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      const auto ur = ref.velocity(x, y, 0);
      const auto ul = low.velocity(x, y, 0);
      maxDiff = std::max({maxDiff, std::abs(ur.x - ul.x),
                          std::abs(ur.y - ul.y)});
    }
  // Weight-shifted f32 storage keeps the velocity field within a small
  // multiple of single-precision roundoff of the f64 run — far below the
  // ~3.5e-3 (0.035 * uLid) discretization error budget of the Ghia
  // comparison.
  EXPECT_LT(maxDiff, 1e-4 * uLid);
  EXPECT_GT(maxDiff, 0.0);  // genuinely reduced precision, not a no-op
}

}  // namespace
}  // namespace swlb
