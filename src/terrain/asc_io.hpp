#pragma once
/// \file asc_io.hpp
/// ESRI ASCII-grid (.asc) DEM IO: the bridge from real GIS rasters to the
/// integer-lattice terrains the exact predicates require.
///
/// An .asc file is a header (ncols/nrows, llcorner or llcenter origin,
/// cellsize, optional NODATA_value) followed by nrows x ncols height
/// samples, row 0 = northernmost. `load_asc_grid` parses that verbatim
/// into an AscGrid; `terrain_from_asc` resamples it onto the same sheared
/// integer lattice the synthetic generators use (DESIGN.md section 1.5):
/// ground spacing 8, y' = K*(8*col) + x so no edge is parallel to the
/// viewing axis yet every coordinate stays integral. Heights are
/// quantized like OBJ input (offset, scale, round — DESIGN.md section 5);
/// NODATA cells become holes (no triangles), which the terrain model and
/// all three algorithms handle as a smaller edge set.
///
/// Lattice budget: |coordinate| <= 2^21 caps the sheared lattice at
/// kMaxAscGrid (180) samples per side — the same bound as the generators.
/// Larger rasters are downsampled by a row/column stride (automatic by
/// default), trading resolution for exactness, not the other way around.
///
/// All loaders throw std::runtime_error on malformed input (missing or
/// duplicate header keys, short or non-numeric data, out-of-range
/// heights), with the offending line in the message.
///
/// **Numbers.** One parser reads every number of the file — header values
/// and heights, for every loader and source: a whole whitespace-delimited
/// token (space, tab, \v, \f, CR, LF) with an optional sign, decimal
/// digits with an optional point and at least one digit, and an optional
/// exponent — the syntax `istream >> double` accepts in the classic
/// locale, read to the same bits (correctly rounded, an underflow as a
/// signed zero). inf, nan, hex floats, overflowing values, tokens with
/// trailing garbage (also after the payload's last value) and tokens of
/// 64 KiB or more are rejected. Parsing is std::from_chars over the bytes
/// of the file.

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "terrain/terrain.hpp"

namespace thsr {

/// Largest per-side sample count `terrain_from_asc` accepts after
/// striding: keeps the sheared lattice within kMaxCoord (section 5).
inline constexpr u32 kMaxAscGrid = 180;

/// A parsed ESRI ASCII grid, exactly as the file states it.
struct AscGrid {
  u32 ncols{0}, nrows{0};
  double xll{0}, yll{0};        ///< lower-left origin (corner or center)
  bool cell_centered{false};    ///< true when the file used xllcenter/yllcenter
  double cellsize{1.0};
  std::optional<double> nodata; ///< NODATA_value when the header declares one
  std::vector<double> values;   ///< row-major, row 0 = northernmost

  double at(u32 row, u32 col) const { return values[static_cast<std::size_t>(row) * ncols + col]; }
  bool is_nodata(u32 row, u32 col) const { return nodata && at(row, col) == *nodata; }
};

/// Parse a whole grid (an AscRowReader pass; the path overload maps the
/// file). Caps ncols * nrows at 10^8 samples.
AscGrid load_asc_grid(std::istream& is);
AscGrid load_asc_grid(const std::string& path);

/// Write `g` back out as an .asc file (the exact shape load_asc_grid
/// parses; round-trips bit-exactly for finite values).
void save_asc_grid(const AscGrid& g, std::ostream& os);
void save_asc_grid(const AscGrid& g, const std::string& path);

struct AscTerrainOptions {
  double z_scale{1.0};   ///< multiply (offset) heights before rounding to the lattice
  bool normalize_z{true};///< subtract the minimum data height first (keeps z small)
  bool shear{true};      ///< generators' general-position shear; false = axis-aligned
                         ///< lattice whose cross-rows are degenerate sliver edges
  u32 stride{0};         ///< sample every stride-th row/col; 0 = smallest stride
                         ///< that fits kMaxAscGrid
};

/// Sampled-grid site with no terrain vertex (a NODATA hole).
inline constexpr u32 kNoAscVertex = 0xffffffffu;

/// Registration of a terrain built by `terrain_from_asc` back onto the
/// source DEM: which (strided) grid sample became which terrain vertex,
/// plus the georeferencing of the *sampled* grid so raster products
/// (raster/viewshed.hpp) can be written as `.asc` files aligned with the
/// source. Row 0 is the northernmost sampled row, matching AscGrid.
struct AscMapping {
  u32 rows{0};           ///< sampled rows ((nrows-1)/stride + 1)
  u32 cols{0};           ///< sampled cols ((ncols-1)/stride + 1)
  u32 stride{1};         ///< source rows/cols consumed per sample
  double xll{0};         ///< west edge of the sampled grid (= source xll)
  double yll{0};         ///< south edge of the *sampled* grid: the source
                         ///< yll shifted north by the rows the stride drops
  bool cell_centered{false};  ///< source grid used xllcenter/yllcenter
  double cellsize{1.0};  ///< source cellsize * stride
  std::optional<double> nodata;  ///< source NODATA_value, if declared
  std::vector<u32> vertex;  ///< rows*cols: terrain vertex id or kNoAscVertex

  /// Terrain vertex at sampled site (row, col), or kNoAscVertex.
  u32 vertex_at(u32 row, u32 col) const {
    return vertex[static_cast<std::size_t>(row) * cols + col];
  }
};

/// Resample `g` onto the integer lattice and triangulate the data cells
/// (cells with all four corners NODATA-free; alternating diagonals like
/// the generators). The northernmost row lands nearest the viewer
/// (x = +infinity); use Terrain::rotate_ground for other azimuths.
/// When `mapping` is non-null it receives the sample-to-vertex
/// registration of the result (see AscMapping).
Terrain terrain_from_asc(const AscGrid& g, const AscTerrainOptions& opt = {},
                         AscMapping* mapping = nullptr);

/// Parse + resample in one step.
Terrain load_asc(std::istream& is, const AscTerrainOptions& opt = {});
Terrain load_asc(const std::string& path, const AscTerrainOptions& opt = {});

/// An .asc header alone — ncols/nrows and georeferencing exactly as the
/// file states them, no samples. What the streaming reader hands out
/// before any row is parsed.
struct AscHeader {
  u32 ncols{0}, nrows{0};
  double xll{0}, yll{0};
  bool cell_centered{false};
  double cellsize{1.0};
  std::optional<double> nodata;
};

/// Streaming row reader for .asc payloads: parses the header eagerly and
/// the height samples one row at a time, so a grid far larger than
/// resident memory never materializes as a whole — the feed for the
/// out-of-core pipeline (src/stream/). Unlike `load_asc_grid` there is
/// **no total-sample cap**: only one row (ncols doubles) is buffered per
/// read. Error contract matches the loaders: std::runtime_error on any
/// malformed input — short payloads, a row cut off by EOF, non-numeric
/// samples, header dims larger than the data actually present — never a
/// crash or UB (tests/test_io.cpp drives the adversarial corpus under
/// ASan).
///
/// The path constructor memory-maps the file when the platform allows
/// (zero-copy: the payload is parsed straight out of the mapping) and
/// otherwise reads it in fixed 64 KiB chunks; the istream constructor
/// reads its stream in the same chunks, so neither ever holds the whole
/// payload. Byte offsets of visited rows are recorded as the reader
/// advances, so windowed re-reads (`read_rows`) and a second pass
/// (`reset`, e.g. a z-range prescan before the solve pass) seek instead of
/// re-parsing from the top — which needs a seekable stream.
class AscRowReader {
 public:
  /// Wrap a seekable stream (not owned; must outlive the reader).
  explicit AscRowReader(std::istream& is);
  /// Open `path`, memory-mapping it when possible.
  explicit AscRowReader(const std::string& path, bool prefer_mmap = true);
  ~AscRowReader();
  AscRowReader(AscRowReader&&) noexcept;
  AscRowReader& operator=(AscRowReader&&) noexcept;

  const AscHeader& header() const noexcept;
  bool mapped() const noexcept;    ///< true when reading out of an mmap
  u32 next_row() const noexcept;   ///< index of the next unread row

  /// Parse the next row's ncols samples into `out` (size() >= ncols).
  /// Throws when the payload ends mid-row or holds a non-numeric token.
  void read_row(std::span<double> out);

  /// Parse and discard the next `n` rows (they are validated like any
  /// read — skipping is not seeking past unchecked bytes unless the rows
  /// were visited before, in which case the recorded offset is used).
  void skip_rows(u32 n);

  /// Read rows [row_lo, row_hi) into `out`, row-major ((row_hi - row_lo)
  /// * ncols doubles). Rows before next_row() are reachable again via
  /// their recorded offsets; rows beyond are parsed forward.
  void read_rows(u32 row_lo, u32 row_hi, std::span<double> out);

  /// Rewind to the first payload row (a new pass; offsets are kept).
  void reset();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Windowed load: rows [row_lo, row_hi) of the file as an AscGrid whose
/// georeferencing is shifted to the window (yll moves north past the
/// dropped southern rows). Bitwise-identical values to the same rows of a
/// whole-file `load_asc_grid` (tests/test_io.cpp round-trips both).
AscGrid load_asc_window(const std::string& path, u32 row_lo, u32 row_hi);

}  // namespace thsr
