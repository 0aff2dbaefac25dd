#pragma once
/// \file sinks.hpp
/// BandSink implementations: where the streaming pipeline's finished
/// pixel bands go.
///
/// - MemoryBandSink assembles the full image in memory — the comparison
///   harness for the property tests and benches (only usable at sizes
///   where the whole raster fits; the out-of-core paths below are the
///   point of the pipeline).
/// - PgmCoverageBandSink copies coverage into one 16-bit PGM on disk via
///   io::PgmBandWriter (resident state: one band's samples; the file
///   itself is a shared mapping whose pages the kernel writes back).
/// - AscTileBandSink writes per-band georeferenced depth tiles via
///   io::AscTileSet, NODATA where no surface is visible.
/// - NullBandSink discards bands (timing lanes).

#include <string>
#include <utility>
#include <vector>

#include "io/band_writer.hpp"
#include "stream/stream.hpp"

namespace thsr::stream {

/// Assembles emitted bands into one full ImageRaster and records each
/// band's [col_lo, col_hi) so tests can assert the tiling contract.
class MemoryBandSink final : public BandSink {
 public:
  MemoryBandSink(u32 width, u32 height, u32 supersample);
  void emit(u32 col_lo, u32 col_hi, const raster::ImageRaster& band) override;

  /// The assembled image (valid once the bands tiled [0, width)); window
  /// and counters are accumulated from the emitted bands.
  const raster::ImageRaster& image() const noexcept { return image_; }
  const std::vector<std::pair<u32, u32>>& bands() const noexcept { return bands_; }

 private:
  raster::ImageRaster image_;
  std::vector<std::pair<u32, u32>> bands_;
};

/// Streams per-pixel coverage (fraction of supersamples that hit) to a
/// 16-bit PGM: sample value = llround(coverage * maxval).
class PgmCoverageBandSink final : public BandSink {
 public:
  PgmCoverageBandSink(const std::string& path, u32 width, u32 height);
  void emit(u32 col_lo, u32 col_hi, const raster::ImageRaster& band) override;
  /// Validates gap-free coverage of the image (io::PgmBandWriter::finish).
  void finish() { writer_.finish(); }

 private:
  io::PgmBandWriter writer_;
};

/// Streams per-pixel depth (x of the visible surface) to `.asc` column
/// tiles; pixels with no visible triangle become NODATA.
class AscTileBandSink final : public BandSink {
 public:
  AscTileBandSink(std::string prefix, u32 width, u32 height, double cellsize = 1.0);
  void emit(u32 col_lo, u32 col_hi, const raster::ImageRaster& band) override;
  void finish() { tiles_.finish(); }
  const std::vector<std::string>& paths() const noexcept { return tiles_.paths(); }

 private:
  io::AscTileSet tiles_;
};

/// Discards every band (the pipeline still computes and validates them).
class NullBandSink final : public BandSink {
 public:
  void emit(u32, u32, const raster::ImageRaster&) override {}
};

}  // namespace thsr::stream
