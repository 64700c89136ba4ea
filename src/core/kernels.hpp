// Stream/collide kernel variants.
//
// The production path of SunwayLB is the *pull* scheme fused into a single
// loop (paper §IV-A, citing Wellein et al.): each cell gathers the
// populations streaming into it from its neighbours, applies half-way
// bounce-back on links into solids, collides, and writes to the second
// (A-B pattern) field.  Baseline variants — two-step (separate stream and
// collide), push, and AoS layout — exist for the ablation benchmarks
// (Fig. 8 / Fig. 11 ladders) and for cross-validation tests.
#pragma once

#include "core/boundary.hpp"
#include "core/collision.hpp"
#include "core/equilibrium.hpp"
#include "core/field.hpp"
#include "core/lattice.hpp"

namespace swlb {

/// Which axes wrap periodically (halo copied from the opposite face).
struct Periodicity {
  bool x = false, y = false, z = false;
};

/// Gather the Q populations streaming into cell (x, y, z), applying
/// bounce-back rules on links whose upstream cell is a wall.
template <class D, class FSrc>
inline void gather_incoming(const FSrc& src, const MaskField& mask,
                            const MaterialTable& mats, int x, int y, int z,
                            Real* fin) {
  for (int i = 0; i < D::Q; ++i) {
    const int xn = x - D::c[i][0];
    const int yn = y - D::c[i][1];
    const int zn = z - D::c[i][2];
    const std::uint8_t id = mask(xn, yn, zn);
    if (id == MaterialTable::kFluid) {
      fin[i] = src(i, xn, yn, zn);
      continue;
    }
    const Material& m = mats[id];
    switch (m.cls) {
      case CellClass::Fluid:
      case CellClass::VelocityInlet:
      case CellClass::Outflow:
      case CellClass::ZouHeVelocity:
      case CellClass::ZouHePressure:
      case CellClass::Porous:
        fin[i] = src(i, xn, yn, zn);
        break;
      case CellClass::Solid:
        fin[i] = src(D::opp(i), x, y, z);
        break;
      case CellClass::MovingWall: {
        const Real cu = D::c[i][0] * m.u.x + D::c[i][1] * m.u.y + D::c[i][2] * m.u.z;
        fin[i] = src(D::opp(i), x, y, z) + Real(6) * D::w[i] * m.rho * cu;
        break;
      }
    }
  }
}

/// Update one non-fluid cell (wall copy, inlet equilibrium, outflow copy).
template <class D, class FSrc, class FDst>
inline void update_boundary_cell(const FSrc& src, FDst& dst, const Material& m,
                                 int x, int y, int z) {
  switch (m.cls) {
    case CellClass::VelocityInlet: {
      Real feq[D::Q];
      equilibria<D>(m.rho, m.u, feq);
      for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = feq[i];
      break;
    }
    case CellClass::Outflow: {
      const int xi = x + m.normal.x, yi = y + m.normal.y, zi = z + m.normal.z;
      for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = src(i, xi, yi, zi);
      break;
    }
    default:  // Solid / MovingWall: keep populations defined for checkpoints
      for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = src(i, x, y, z);
      break;
  }
}

/// Zou-He (non-equilibrium bounce-back) reconstruction of the populations
/// streaming in from outside the domain, applied after the gather and
/// before the collision.  `m.normal` is the unit inward normal; unknowns
/// are the directions with c . n > 0.
///
/// Density (velocity BC) or normal velocity (pressure BC) follow from the
/// zeroth/first moments over a straight wall:
///   rho = (S_parallel + 2 S_outgoing) / (1 - u.n)
/// and the unknowns are reconstructed by bouncing back the
/// non-equilibrium part:  f_i = f_opp(i) + (feq_i - feq_opp(i)).
template <class D>
inline void zouhe_fix(Real* fin, const Material& m) {
  const Int3 n = m.normal;
  SWLB_ASSERT(n.x * n.x + n.y * n.y + n.z * n.z == 1);
  Real sPar = 0, sOut = 0;
  for (int i = 0; i < D::Q; ++i) {
    const int cn = D::c[i][0] * n.x + D::c[i][1] * n.y + D::c[i][2] * n.z;
    if (cn == 0)
      sPar += fin[i];
    else if (cn < 0)
      sOut += fin[i];
  }
  Real rho;
  Vec3 u;
  if (m.cls == CellClass::ZouHeVelocity) {
    u = m.u;
    const Real un = u.x * n.x + u.y * n.y + u.z * n.z;
    rho = (sPar + 2 * sOut) / (Real(1) - un);
  } else {  // ZouHePressure: prescribed rho, tangential velocity zero
    rho = m.rho;
    const Real un = Real(1) - (sPar + 2 * sOut) / rho;
    u = {un * n.x, un * n.y, un * n.z};
  }
  Real feq[D::Q];
  equilibria<D>(rho, u, feq);
  for (int i = 0; i < D::Q; ++i) {
    const int cn = D::c[i][0] * n.x + D::c[i][1] * n.y + D::c[i][2] * n.z;
    if (cn > 0) fin[i] = fin[D::opp(i)] + (feq[i] - feq[D::opp(i)]);
  }
}

/// Partial bounce-back of a porous cell (Walsh, Burwinkle & Saar 2009):
/// after collision, a solidity fraction of each population is replaced by
/// the bounce-back of the *incoming* (pre-collision) opposite population:
///   f_i <- (1 - sigma) f_i* + sigma f_opp^in.
/// Mass-conserving for any sigma; sigma acts as a linear momentum sink.
template <class D>
inline void porous_blend(Real* fpost, const Real* fin, Real sigma) {
  Real bounced[D::Q];
  for (int i = 0; i < D::Q; ++i) bounced[i] = fin[D::opp(i)];
  for (int i = 0; i < D::Q; ++i)
    fpost[i] = (Real(1) - sigma) * fpost[i] + sigma * bounced[i];
}

/// Generic fused pull stream + BGK collide over `range`.
/// Works for any field type exposing `Real operator()(q, x, y, z)`,
/// in particular both the SoA and the AoS layouts.
template <class D, class FSrc, class FDst>
void stream_collide_generic(const FSrc& src, FDst& dst, const MaskField& mask,
                            const MaterialTable& mats, const CollisionConfig& cfg,
                            const Box3& range) {
  Real fin[D::Q];
  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y)
      for (int x = range.lo.x; x < range.hi.x; ++x) {
        const std::uint8_t id = mask(x, y, z);
        const Material* zh = nullptr;
        if (id != MaterialTable::kFluid) {
          const Material& m = mats[id];
          if (!is_streaming(m.cls)) {
            update_boundary_cell<D>(src, dst, m, x, y, z);
            continue;
          }
          if (m.cls != CellClass::Fluid) zh = &m;
        }
        gather_incoming<D>(src, mask, mats, x, y, z, fin);
        if (zh) {
          if (zh->cls == CellClass::Porous) {
            Real fpre[D::Q];
            for (int i = 0; i < D::Q; ++i) fpre[i] = fin[i];
            Real rho;
            Vec3 u;
            collide_cell<D>(fin, cfg, rho, u);
            porous_blend<D>(fin, fpre, zh->solidity);
            for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = fin[i];
            continue;
          }
          zouhe_fix<D>(fin, *zh);
        }
        Real rho;
        Vec3 u;
        collide_cell<D>(fin, cfg, rho, u);
        for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = fin[i];
      }
}

/// Optimized fused pull kernel for the SoA layout: raw pointers and
/// precomputed per-direction neighbour offsets; the bulk fast path only
/// touches the mask byte of the upstream cell.  This is the host analogue
/// of the paper's hand-tuned CPE kernel.
///
/// Works for any storage precision: the gather decodes stored elements to
/// a full-precision `Real fin[Q]`, the collision runs entirely in Real,
/// and the write-back encodes once per population.  Identity (double)
/// storage compiles to the historical raw load/store path.
template <class D, class S>
void stream_collide_fused(const PopulationFieldT<S>& src,
                          PopulationFieldT<S>& dst, const MaskField& mask,
                          const MaterialTable& mats, const CollisionConfig& cfg,
                          const Box3& range) {
  using Traits = StorageTraits<S>;
  const Grid& g = src.grid();
  SWLB_ASSERT(dst.grid() == g && mask.grid() == g);

  // Linear offset of neighbour (x - c_i) relative to the current cell.
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

  Real fin[D::Q];
  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y) {
      std::size_t p = g.idx(range.lo.x, y, z);
      for (int x = range.lo.x; x < range.hi.x; ++x, ++p) {
        const std::uint8_t id = mdata[p];
        const Material* zh = nullptr;
        if (id != MaterialTable::kFluid) {
          const Material& m = mats[id];
          if (!is_streaming(m.cls)) {
            update_boundary_cell<D>(src, dst, m, x, y, z);
            continue;
          }
          zh = &m;
        }
        for (int i = 0; i < D::Q; ++i) {
          const std::size_t pn = p - off[i];
          if (mdata[pn] == MaterialTable::kFluid) {
            fin[i] = ld(i, pn);
          } else {
            const Material& m = mats[mdata[pn]];
            if (is_pullable(m.cls)) {
              fin[i] = ld(i, pn);
            } else if (m.cls == CellClass::Solid) {
              fin[i] = ld(D::opp(i), p);
            } else {  // MovingWall
              const Real cu =
                  D::c[i][0] * m.u.x + D::c[i][1] * m.u.y + D::c[i][2] * m.u.z;
              fin[i] = ld(D::opp(i), p) + Real(6) * D::w[i] * m.rho * cu;
            }
          }
        }
        if (zh && zh->cls == CellClass::Porous) {
          Real fpre[D::Q];
          for (int i = 0; i < D::Q; ++i) fpre[i] = fin[i];
          Real rho;
          Vec3 u;
          collide_cell<D>(fin, cfg, rho, u);
          porous_blend<D>(fin, fpre, zh->solidity);
          for (int i = 0; i < D::Q; ++i) st(i, p, fin[i]);
          continue;
        }
        if (zh) zouhe_fix<D>(fin, *zh);
        Real rho;
        Vec3 u;
        collide_cell<D>(fin, cfg, rho, u);
        for (int i = 0; i < D::Q; ++i) st(i, p, fin[i]);
      }
    }
}

/// Pull streaming only (no collision): dst receives the incoming
/// populations.  Combined with collide_inplace this reproduces the fused
/// kernel bit-for-bit; the pair exists to measure the cost of *not*
/// fusing (paper §IV-C3 reports ~30 % gain from fusion).
template <class D, class S>
void stream_only(const PopulationFieldT<S>& src, PopulationFieldT<S>& dst,
                 const MaskField& mask, const MaterialTable& mats,
                 const Box3& range) {
  Real fin[D::Q];
  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y)
      for (int x = range.lo.x; x < range.hi.x; ++x) {
        const std::uint8_t id = mask(x, y, z);
        const Material* zh = nullptr;
        if (id != MaterialTable::kFluid) {
          const Material& m = mats[id];
          if (!is_streaming(m.cls)) {
            update_boundary_cell<D>(src, dst, m, x, y, z);
            continue;
          }
          if (m.cls != CellClass::Fluid) zh = &m;
        }
        gather_incoming<D>(src, mask, mats, x, y, z, fin);
        if (zh && zh->cls != CellClass::Porous) zouhe_fix<D>(fin, *zh);
        for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = fin[i];
      }
}

/// In-place BGK collision over `range` (second half of the two-step scheme).
template <class D, class S>
void collide_inplace(PopulationFieldT<S>& f, const MaskField& mask,
                     const MaterialTable& mats, const CollisionConfig& cfg,
                     const Box3& range) {
  Real fc[D::Q];
  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y)
      for (int x = range.lo.x; x < range.hi.x; ++x) {
        const std::uint8_t id = mask(x, y, z);
        if (id != MaterialTable::kFluid && !is_streaming(mats[id].cls)) continue;
        for (int i = 0; i < D::Q; ++i) fc[i] = f(i, x, y, z);
        Real rho;
        Vec3 u;
        collide_cell<D>(fc, cfg, rho, u);
        if (id != MaterialTable::kFluid && mats[id].cls == CellClass::Porous) {
          Real fpre[D::Q];
          for (int i = 0; i < D::Q; ++i) fpre[i] = f(i, x, y, z);
          porous_blend<D>(fc, fpre, mats[id].solidity);
        }
        for (int i = 0; i < D::Q; ++i) f(i, x, y, z) = fc[i];
      }
}

/// Fused collide + *push* streaming: post-collision populations are
/// scattered to downstream neighbours.  Periodic axes are wrapped in-index
/// (push writes would otherwise land in halo cells and be lost).  Supports
/// fluid/solid/moving-wall cells only (the engineering inlet/outlet
/// conditions run on the pull path); used for cross-validation and the
/// pull-vs-push ablation.
template <class D, class S>
void stream_collide_push(const PopulationFieldT<S>& src,
                         PopulationFieldT<S>& dst, const MaskField& mask,
                         const MaterialTable& mats, const CollisionConfig& cfg,
                         const Box3& range, const Periodicity& per = {}) {
  const Grid& g = src.grid();
  Real fc[D::Q];
  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y)
      for (int x = range.lo.x; x < range.hi.x; ++x) {
        const std::uint8_t id = mask(x, y, z);
        if (id != MaterialTable::kFluid && mats[id].cls != CellClass::Fluid) {
          update_boundary_cell<D>(src, dst, mats[id], x, y, z);
          continue;
        }
        for (int i = 0; i < D::Q; ++i) fc[i] = src(i, x, y, z);
        Real rho;
        Vec3 u;
        collide_cell<D>(fc, cfg, rho, u);
        for (int i = 0; i < D::Q; ++i) {
          int xn = x + D::c[i][0];
          int yn = y + D::c[i][1];
          int zn = z + D::c[i][2];
          if (per.x) xn = (xn + g.nx) % g.nx;
          if (per.y) yn = (yn + g.ny) % g.ny;
          if (per.z) zn = (zn + g.nz) % g.nz;
          const Material& m = mats[mask(xn, yn, zn)];
          switch (m.cls) {
            case CellClass::Fluid:
            case CellClass::VelocityInlet:
            case CellClass::Outflow:
            case CellClass::ZouHeVelocity:
            case CellClass::ZouHePressure:
            case CellClass::Porous:
              // Push supports plain deliveries only; Zou-He/porous cells
              // are documented as pull-path features.
              dst(i, xn, yn, zn) = fc[i];
              break;
            case CellClass::Solid:
              dst(D::opp(i), x, y, z) = fc[i];
              break;
            case CellClass::MovingWall: {
              const Real cu =
                  D::c[i][0] * m.u.x + D::c[i][1] * m.u.y + D::c[i][2] * m.u.z;
              dst(D::opp(i), x, y, z) = fc[i] - Real(6) * D::w[i] * m.rho * cu;
              break;
            }
          }
        }
      }
}

namespace detail {

/// Copy `count` halo layers from the opposite interior face, one axis at a
/// time.  Wrapping x, then y, then z lets edge and corner halo cells pick
/// up already-wrapped data, so diagonal pulls across periodic boundaries
/// are correct.
template <typename FieldLike>
void wrap_axis_x(FieldLike&& get, const Grid& g, int q) {
  for (int z = -g.halo; z < g.nz + g.halo; ++z)
    for (int y = -g.halo; y < g.ny + g.halo; ++y)
      for (int l = 0; l < g.halo; ++l) {
        get(q, -1 - l, y, z) = get(q, g.nx - 1 - l, y, z);
        get(q, g.nx + l, y, z) = get(q, l, y, z);
      }
}

template <typename FieldLike>
void wrap_axis_y(FieldLike&& get, const Grid& g, int q) {
  for (int z = -g.halo; z < g.nz + g.halo; ++z)
    for (int x = -g.halo; x < g.nx + g.halo; ++x)
      for (int l = 0; l < g.halo; ++l) {
        get(q, x, -1 - l, z) = get(q, x, g.ny - 1 - l, z);
        get(q, x, g.ny + l, z) = get(q, x, l, z);
      }
}

template <typename FieldLike>
void wrap_axis_z(FieldLike&& get, const Grid& g, int q) {
  for (int y = -g.halo; y < g.ny + g.halo; ++y)
    for (int x = -g.halo; x < g.nx + g.halo; ++x)
      for (int l = 0; l < g.halo; ++l) {
        get(q, x, y, -1 - l) = get(q, x, y, g.nz - 1 - l);
        get(q, x, y, g.nz + l) = get(q, x, y, l);
      }
}

}  // namespace detail

/// Copy interior faces into the opposite halo layers for periodic axes.
/// Axes are wrapped in x, y, z order so edge/corner halos compose correctly.
/// Population wraps copy the raw storage element — exact for any precision.
template <class S>
void apply_periodic(PopulationFieldT<S>& f, const Periodicity& per) {
  const Grid& g = f.grid();
  auto get = [&f](int q, int x, int y, int z) -> S& {
    return f.raw(q, x, y, z);
  };
  for (int q = 0; q < f.q(); ++q) {
    if (per.x) detail::wrap_axis_x(get, g, q);
    if (per.y) detail::wrap_axis_y(get, g, q);
    if (per.z) detail::wrap_axis_z(get, g, q);
  }
}

void apply_periodic(MaskField& mask, const Periodicity& per);

/// Fill non-periodic halo mask cells with `id` (defaults keep walls).
void fill_halo_mask(MaskField& mask, const Periodicity& per, std::uint8_t id);

}  // namespace swlb

// Vectorized and single-buffer variants build on the definitions above.
#include "core/kernels_esoteric.hpp"
#include "core/kernels_simd.hpp"
