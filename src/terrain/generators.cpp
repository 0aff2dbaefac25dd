#include "terrain/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace thsr {
namespace {

// SplitMix64: deterministic, seed-stable across platforms.
u64 splitmix(u64 x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_rand(u64 seed, u64 a, u64 b, u64 c = 0) noexcept {
  const u64 h = splitmix(seed ^ splitmix(a ^ splitmix(b ^ splitmix(c))));
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
}

double smooth(double t) noexcept { return t * t * (3.0 - 2.0 * t); }

// Lattice value noise with smoothstep bilinear interpolation.
double value_noise(double x, double y, u64 seed) noexcept {
  const double fx = std::floor(x), fy = std::floor(y);
  const auto ix = static_cast<u64>(static_cast<i64>(fx) + (1 << 20));
  const auto iy = static_cast<u64>(static_cast<i64>(fy) + (1 << 20));
  const double tx = smooth(x - fx), ty = smooth(y - fy);
  const double v00 = unit_rand(seed, ix, iy), v10 = unit_rand(seed, ix + 1, iy);
  const double v01 = unit_rand(seed, ix, iy + 1), v11 = unit_rand(seed, ix + 1, iy + 1);
  const double a = v00 + (v10 - v00) * tx, b = v01 + (v11 - v01) * tx;
  return a + (b - a) * ty;
}

double fbm_noise(double x, double y, u64 seed, int octaves = 4) noexcept {
  double v = 0, amp = 1, freq = 1.0 / 12.0, norm = 0;
  for (int o = 0; o < octaves; ++o) {
    v += amp * value_noise(x * freq, y * freq, seed + static_cast<u64>(o) * 7919);
    norm += amp;
    amp *= 0.5;
    freq *= 2.0;
  }
  return v / norm;  // ~[0,1]
}

// Height field h(i,j) in [0, A]; i grows toward the viewer (x = +inf).
struct HeightField {
  u32 g;
  std::vector<i64> h;
  i64& at(u32 i, u32 j) { return h[static_cast<std::size_t>(i) * g + j]; }
};

HeightField heights(const GenOptions& opt, i64 A) {
  const u32 g = opt.grid;
  HeightField f{g, std::vector<i64>(static_cast<std::size_t>(g) * g, 0)};
  const auto clamped = [&](double v) {
    return std::clamp<i64>(static_cast<i64>(std::llround(v)), 0, A);
  };
  switch (opt.family) {
    case Family::Fbm:
      for (u32 i = 0; i < g; ++i)
        for (u32 j = 0; j < g; ++j)
          f.at(i, j) = clamped(static_cast<double>(A) * fbm_noise(i, j, opt.seed));
      break;
    case Family::RidgeFront:
      // Rough low interior, one tall wall two rows from the viewer: the wall
      // hides nearly everything behind it => k << n.
      for (u32 i = 0; i < g; ++i)
        for (u32 j = 0; j < g; ++j) {
          const double base = static_cast<double>(A) / 8.0 * fbm_noise(i, j, opt.seed);
          f.at(i, j) = clamped(i + 2 >= g ? static_cast<double>(A) : base);
        }
      break;
    case Family::TerraceBack:
      // Monotone ascent away from the viewer: every row clears the nearer
      // ones => the whole surface is visible, k ~ n.
      {
        const double step = std::max(1.0, static_cast<double>(A) / g);
        for (u32 i = 0; i < g; ++i)
          for (u32 j = 0; j < g; ++j) {
            const double rough = 0.4 * step * unit_rand(opt.seed, i, j, 3);
            f.at(i, j) = clamped(step * static_cast<double>(g - 1 - i) + rough);
          }
      }
      break;
    case Family::Spikes:
      for (u32 i = 0; i < g; ++i)
        for (u32 j = 0; j < g; ++j) {
          const bool spike = unit_rand(opt.seed, i, j, 1) < opt.spike_density;
          f.at(i, j) =
              spike ? clamped(static_cast<double>(A) * (0.5 + 0.5 * unit_rand(opt.seed, i, j, 2)))
                    : 0;
        }
      break;
    case Family::Valley:
      for (u32 i = 0; i < g; ++i)
        for (u32 j = 0; j < g; ++j) {
          const double d = std::abs(static_cast<double>(i) - static_cast<double>(g) / 2.0);
          const double slope = 2.0 * static_cast<double>(A) * d / g;
          f.at(i, j) = clamped(slope + static_cast<double>(A) / 6.0 * fbm_noise(i, j, opt.seed));
        }
      break;
    case Family::Skyline: {
      // Random axis-aligned blocks with plateau heights: exact ties and long
      // collinear stretches (degeneracy stress).
      const u32 blocks = std::max<u32>(4, g / 2);
      for (u32 b = 0; b < blocks; ++b) {
        const auto pick = [&](u64 c, u32 span) {
          return static_cast<u32>(unit_rand(opt.seed, b, c) * span);
        };
        u32 i0 = pick(11, g), i1 = std::min<u32>(g - 1, i0 + 1 + pick(13, g / 4 + 1));
        u32 j0 = pick(17, g), j1 = std::min<u32>(g - 1, j0 + 1 + pick(19, g / 4 + 1));
        const i64 hb =
            1 + static_cast<i64>(unit_rand(opt.seed, b, 23) * static_cast<double>(A - 1));
        for (u32 i = i0; i <= i1; ++i)
          for (u32 j = j0; j <= j1; ++j) f.at(i, j) = std::max(f.at(i, j), hb);
      }
      break;
    }
  }
  return f;
}

}  // namespace

Terrain make_terrain(const GenOptions& opt) {
  // 180 keeps sheared coordinates (~64*grid^2) within kMaxCoord.
  if (opt.grid < 2 || opt.grid > 180) {
    throw std::invalid_argument("make_terrain: grid must be in [2, 180]");
  }
  const u32 g = opt.grid;
  const i64 A = opt.amplitude > 0 ? opt.amplitude : i64{4} * g;
  if (A > kMaxCoord) throw std::invalid_argument("make_terrain: amplitude exceeds kMaxCoord");

  HeightField f = heights(opt, A);

  // Lattice: ground spacing 8; with shear, y = K*yj + x so no edge has
  // dy == 0 (row edges get dy = dx != 0; others get |dy| >= K - |dx| > 0).
  // Jitter moves interior vertices by at most 1 per ground coordinate. A
  // half-cell triangle's ground orientation determinant is 64; writing the
  // perturbed determinant (AB+d1)x(AC+d2) = 64 + AB x d2 + d1 x AC + d1 x d2
  // with |d| <= (2,2) componentwise bounds the change by 16+32+8 = 56 < 64,
  // so triangle orientations — and hence planarity of the ground subdivision
  // — survive the jitter; the shear is linear and preserves both.
  const i64 K = opt.shear ? i64{8} * g + 16 : 0;
  std::vector<Vertex3> verts(static_cast<std::size_t>(g) * g);
  for (u32 i = 0; i < g; ++i) {
    for (u32 j = 0; j < g; ++j) {
      i64 x = i64{8} * i, yj = i64{8} * j;
      if (opt.jitter && i > 0 && i + 1 < g && j > 0 && j + 1 < g) {
        x += static_cast<i64>(unit_rand(opt.seed, i, j, 101) * 3.0) - 1;
        yj += static_cast<i64>(unit_rand(opt.seed, i, j, 103) * 3.0) - 1;
      }
      verts[static_cast<std::size_t>(i) * g + j] =
          Vertex3{x, opt.shear ? K * yj + x : yj, f.at(i, j)};
    }
  }

  std::vector<Triangle> tris;
  tris.reserve(static_cast<std::size_t>(g - 1) * (g - 1) * 2);
  const auto vid = [g](u32 i, u32 j) { return i * g + j; };
  for (u32 i = 0; i + 1 < g; ++i) {
    for (u32 j = 0; j + 1 < g; ++j) {
      // Alternate the diagonal per cell parity for a less anisotropic TIN.
      if ((i + j) % 2 == 0) {
        tris.push_back({vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)});
        tris.push_back({vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)});
      } else {
        tris.push_back({vid(i, j), vid(i + 1, j), vid(i, j + 1)});
        tris.push_back({vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)});
      }
    }
  }
  return Terrain::from_triangles(std::move(verts), std::move(tris));
}

Family family_from_name(const std::string& name) {
  for (Family f : kAllFamilies) {
    if (name == family_name(f)) return f;
  }
  throw std::invalid_argument("unknown terrain family: " + name);
}

const char* family_name(Family f) noexcept {
  switch (f) {
    case Family::Fbm: return "fbm";
    case Family::RidgeFront: return "ridge_front";
    case Family::TerraceBack: return "terrace_back";
    case Family::Spikes: return "spikes";
    case Family::Valley: return "valley";
    case Family::Skyline: return "skyline";
  }
  return "?";
}

}  // namespace thsr
