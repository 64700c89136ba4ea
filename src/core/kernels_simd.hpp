// Explicitly vectorized fused pull kernel (DESIGN.md §11).
//
// The scalar fused kernel spends a large fraction of its time in
// per-direction mask branches that almost never fire: in a typical domain
// all but a surface shell of cells have an all-fluid pull stencil.  This
// variant segments each x-row into maximal *bulk runs* (cells whose full
// stencil is fluid) and runs them through a `#pragma omp simd` lane loop —
// gather, collide and store are branch-free and loop-invariant, so the
// compiler can vectorize across cells of the row.  Cells with any
// non-fluid neighbour fall back to the scalar fused kernel verbatim, which
// makes the variant bit-identical to `stream_collide_fused` for every
// storage precision (the lane body calls the exact same inlined
// collision/equilibrium helpers, so the expression trees — and therefore
// any FMA contraction the compiler applies — match; the conformance suite
// pins this).
//
// Included at the bottom of core/kernels.hpp; do not include directly.
#pragma once

// -fopenmp-simd (added by the top-level CMakeLists when supported) honors
// `#pragma omp simd` without pulling in the OpenMP runtime.  Without it the
// pragma would trip -Wunknown-pragmas under -Werror, so it is gated.  The
// macro precedes the include below so it exists whichever of the three
// kernel headers is included first.
#if defined(SWLB_HAS_OMP_SIMD)
#define SWLB_PRAGMA_SIMD _Pragma("omp simd")
#else
#define SWLB_PRAGMA_SIMD
#endif

#include "core/kernels.hpp"

namespace swlb {

/// Vectorized fused pull stream + collide over `range`.  Bit-identical to
/// stream_collide_fused for any mask and storage type.
template <class D, class S>
void stream_collide_simd(const PopulationFieldT<S>& src,
                         PopulationFieldT<S>& dst, const MaskField& mask,
                         const MaterialTable& mats, const CollisionConfig& cfg,
                         const Box3& range) {
  using Traits = StorageTraits<S>;
  const Grid& g = src.grid();
  SWLB_ASSERT(dst.grid() == g && mask.grid() == g);

  std::ptrdiff_t off[D::Q];
  std::size_t slab[D::Q];
  Real sh[D::Q];
  for (int i = 0; i < D::Q; ++i) {
    off[i] = static_cast<std::ptrdiff_t>(
        (static_cast<long long>(D::c[i][2]) * g.sy() + D::c[i][1]) * g.sx() +
        D::c[i][0]);
    slab[i] = src.slab(i);
    sh[i] = src.shift(i);
  }

  const S* sdata = src.data();
  S* ddata = dst.data();
  const std::uint8_t* mdata = mask.data();

  auto ld = [&](int i, std::size_t p) -> Real {
    if constexpr (PopulationFieldT<S>::kIdentityStorage)
      return sdata[slab[i] + p];
    else
      return Traits::decode(sdata[slab[i] + p], sh[i]);
  };
  auto st = [&](int i, std::size_t p, Real v) {
    if constexpr (PopulationFieldT<S>::kIdentityStorage)
      ddata[slab[i] + p] = v;
    else
      ddata[slab[i] + p] = Traits::encode(v, sh[i]);
  };

  // A cell is "bulk" when it and every upstream cell of its pull stencil
  // are plain fluid: the gather needs no boundary rules at all.
  auto isBulk = [&](std::size_t p) -> bool {
    if (mdata[p] != MaterialTable::kFluid) return false;
    for (int i = 1; i < D::Q; ++i)
      if (mdata[p - off[i]] != MaterialTable::kFluid) return false;
    return true;
  };

  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y) {
      const std::size_t rowBase = g.idx(range.lo.x, y, z);
      int x = range.lo.x;
      while (x < range.hi.x) {
        std::size_t p = rowBase + static_cast<std::size_t>(x - range.lo.x);
        int xs = x;
        while (xs < range.hi.x && !isBulk(p)) {
          ++xs;
          ++p;
        }
        if (xs > x)
          stream_collide_fused<D>(src, dst, mask, mats, cfg,
                                  Box3{{x, y, z}, {xs, y + 1, z + 1}});
        int xe = xs;
        while (xe < range.hi.x && isBulk(p)) {
          ++xe;
          ++p;
        }
        const int len = xe - xs;
        if (len > 0) {
          const std::size_t p0 =
              rowBase + static_cast<std::size_t>(xs - range.lo.x);
          SWLB_PRAGMA_SIMD
          for (int lane = 0; lane < len; ++lane) {
            const std::size_t pw = p0 + static_cast<std::size_t>(lane);
            Real fin[D::Q];
            for (int i = 0; i < D::Q; ++i) fin[i] = ld(i, pw - off[i]);
            Real rho;
            Vec3 u;
            collide_cell<D>(fin, cfg, rho, u);
            for (int i = 0; i < D::Q; ++i) st(i, pw, fin[i]);
          }
        }
        x = xe;
      }
    }
}

}  // namespace swlb
