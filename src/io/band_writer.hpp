#pragma once
/// \file band_writer.hpp
/// Incremental image emitters for the out-of-core pipeline (src/stream/):
/// the full output raster never exists in memory — finished column bands
/// land on disk as they are produced, either copied into one 16-bit PGM
/// mapped from disk (PgmBandWriter) or written as a set of georeferenced
/// `.asc` column tiles (AscTileSet).
///
/// Both writers enforce the pipeline's tiling contract mechanically: a
/// band overlapping an already-written column throws immediately, and
/// `finish()` throws unless the bands covered every column exactly once —
/// so a stream run that completes has provably emitted a gap-free,
/// overlap-free image (the satellite property tests/test_stream.cpp also
/// asserts on the in-memory sink).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geometry/exactq.hpp"

namespace thsr::io {

/// Writes one width x height grayscale PGM (P5, byte-identical to
/// io::write_pgm of the finished image: one byte per sample up to maxval
/// 255, two big-endian bytes above) band by band. The constructor sizes
/// the file once — header plus a zero payload, every block reserved up
/// front, so a full disk fails there with a typed error — and maps it
/// shared; each band's rows are then copied straight into the mapping,
/// with no seek or write call per row. Where the platform lacks mmap or
/// posix_fallocate (macOS, Windows) the same contract runs over a
/// seekable file stream.
class PgmBandWriter {
 public:
  /// Creates `path` at its final size; throws std::runtime_error when it
  /// cannot be opened, sized or mapped.
  PgmBandWriter(const std::string& path, u32 width, u32 height, std::uint16_t maxval = 65535);
  ~PgmBandWriter();
  PgmBandWriter(const PgmBandWriter&) = delete;
  PgmBandWriter& operator=(const PgmBandWriter&) = delete;

  /// Copy in columns [col_lo, col_hi): `samples` is the row-major band,
  /// (col_hi - col_lo) * height values <= maxval. Throws std::runtime_error
  /// on an empty or out-of-range band, a short buffer, a sample above
  /// maxval, overlap with a previous band, or a write after finish();
  /// nothing is written then.
  void write_band(u32 col_lo, u32 col_hi, std::span<const std::uint16_t> samples);

  /// Validate and close: throws unless every column was written exactly
  /// once. The destructor closes without validating (errors must not
  /// escape it).
  void finish();

  u32 width() const noexcept { return width_; }
  u32 height() const noexcept { return height_; }

 private:
  struct File;  ///< the open output (a shared mapping, or a file stream)
  std::unique_ptr<File> file_;
  u32 width_, height_;
  std::uint16_t maxval_;
  std::size_t payload_{0};              ///< header bytes before the samples
  std::vector<unsigned char> covered_;  ///< per-column write count (0/1)
  bool finished_{false};
};

/// Writes an image as georeferenced `.asc` column tiles, one per band:
/// `<prefix>_c<col_lo>_<col_hi>.asc`, each carrying the source grid's
/// cellsize and an xll shifted to its band — GIS viewers mosaic them back
/// seamlessly. NODATA cells encode pixels with no visible surface.
class AscTileSet {
 public:
  AscTileSet(std::string prefix, u32 width, u32 height, double xll, double yll, double cellsize,
             double nodata = -9999.0);

  /// Write columns [col_lo, col_hi) as one tile: `values` row-major,
  /// (col_hi - col_lo) * height doubles (use `nodata()` for empty
  /// pixels). Returns the tile's path. Throws on overlap or bad ranges.
  std::string write_tile(u32 col_lo, u32 col_hi, std::span<const double> values);

  /// Throws unless the tiles covered every column exactly once.
  void finish();

  double nodata() const noexcept { return nodata_; }
  const std::vector<std::string>& paths() const noexcept { return paths_; }

 private:
  std::string prefix_;
  u32 width_, height_;
  double xll_, yll_, cellsize_, nodata_;
  std::vector<unsigned char> covered_;
  std::vector<std::string> paths_;
};

}  // namespace thsr::io
