#include "io/band_writer.hpp"

#include <stdexcept>

#include "support/check.hpp"
#include "terrain/asc_io.hpp"

// The mapped writer needs posix_fallocate, so it is the __unix__ guard of
// asc_io.cpp's mapped reader without __APPLE__ (macOS lacks the call).
#if defined(__unix__)
#define THSR_PGM_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#else
#include <fstream>
#endif

namespace thsr::io {
namespace {

[[noreturn]] void fail(const std::string& msg) { throw std::runtime_error("band_writer: " + msg); }

/// Big-endian sample bytes, one per sample when maxval fits a byte (the
/// P5 rule write_pgm follows).
void encode(std::span<const std::uint16_t> v, bool wide, unsigned char* dst) {
  if (wide) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      dst[2 * i] = static_cast<unsigned char>(v[i] >> 8);
      dst[2 * i + 1] = static_cast<unsigned char>(v[i] & 0xff);
    }
  } else {
    for (std::size_t i = 0; i < v.size(); ++i) dst[i] = static_cast<unsigned char>(v[i]);
  }
}

}  // namespace

#ifdef THSR_PGM_MMAP
struct PgmBandWriter::File {
  int fd{-1};
  unsigned char* map{nullptr};
  std::size_t len{0};

  File() = default;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File() { (void)close(); }

  /// Unmap and close; false when the close reported an error. The
  /// mapping is shared, so its stores already are the file's contents.
  bool close() noexcept {
    if (map != nullptr) ::munmap(map, len);
    map = nullptr;
    const bool ok = fd < 0 || ::close(fd) == 0;
    fd = -1;
    return ok;
  }
};
#else
struct PgmBandWriter::File {
  std::ofstream os;
};
#endif

PgmBandWriter::PgmBandWriter(const std::string& path, u32 width, u32 height,
                             std::uint16_t maxval)
    : file_(std::make_unique<File>()), width_(width), height_(height), maxval_(maxval) {
  if (width == 0 || height == 0) fail("empty image");
  if (maxval == 0) fail("maxval must be positive");
  const std::string header = "P5\n" + std::to_string(width_) + ' ' + std::to_string(height_) +
                             '\n' + std::to_string(maxval_) + '\n';
  payload_ = header.size();
  const std::size_t bytes = payload_ + std::size_t{width_} * height_ * (maxval_ > 255 ? 2 : 1);
#ifdef THSR_PGM_MMAP
  File& f = *file_;
  f.fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (f.fd < 0) fail("cannot open '" + path + "' for writing: " + std::strerror(errno));
  // Every block exists before the first store: a full disk fails here,
  // not as SIGBUS inside write_band.
  if (const int err = ::posix_fallocate(f.fd, 0, static_cast<off_t>(bytes)); err != 0) {
    fail("cannot size '" + path + "' to " + std::to_string(bytes) + " bytes: " +
         std::strerror(err));
  }
  void* addr = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, f.fd, 0);
  if (addr == MAP_FAILED) fail("cannot map '" + path + "': " + std::strerror(errno));
  f.map = static_cast<unsigned char*>(addr);
  f.len = bytes;
  std::memcpy(f.map, header.data(), header.size());
#else
  std::ofstream& os = file_->os;
  os.open(path, std::ios::binary | std::ios::trunc);
  if (!os) fail("cannot open '" + path + "' for writing");
  os << header;
  // Zero payload up front: the file reaches its final size before any
  // band lands, and unwritten columns read back as 0 mid-run.
  const std::vector<char> zeros(bytes - payload_, 0);
  os.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  if (!os) fail("write failed for '" + path + "'");
#endif
  covered_.assign(width_, 0);
}

PgmBandWriter::~PgmBandWriter() = default;

void PgmBandWriter::write_band(u32 col_lo, u32 col_hi, std::span<const std::uint16_t> samples) {
  if (finished_) fail("write_band after finish()");
  if (col_lo >= col_hi || col_hi > width_) fail("band columns out of range");
  const u32 bw = col_hi - col_lo;
  if (samples.size() < std::size_t{bw} * height_) fail("band sample buffer too small");
  for (u32 c = col_lo; c < col_hi; ++c) {
    if (covered_[c]) fail("band overlaps already-written column " + std::to_string(c));
  }
  for (const std::uint16_t v : samples.first(std::size_t{bw} * height_)) {
    if (v > maxval_) fail("sample exceeds maxval");
  }
  const bool wide = maxval_ > 255;
  const std::size_t px_bytes = wide ? 2 : 1;
#ifdef THSR_PGM_MMAP
  for (u32 r = 0; r < height_; ++r) {
    encode(samples.subspan(std::size_t{r} * bw, bw), wide,
           file_->map + payload_ + (std::size_t{r} * width_ + col_lo) * px_bytes);
  }
#else
  std::ofstream& os = file_->os;
  std::vector<unsigned char> row(std::size_t{bw} * px_bytes);
  for (u32 r = 0; r < height_; ++r) {
    encode(samples.subspan(std::size_t{r} * bw, bw), wide, row.data());
    os.seekp(static_cast<std::streamoff>(payload_ + (std::size_t{r} * width_ + col_lo) * px_bytes));
    os.write(reinterpret_cast<const char*>(row.data()), static_cast<std::streamsize>(row.size()));
  }
  if (!os) fail("write failed");
#endif
  for (u32 c = col_lo; c < col_hi; ++c) covered_[c] = 1;
}

void PgmBandWriter::finish() {
  if (finished_) return;
  for (u32 c = 0; c < width_; ++c) {
    if (!covered_[c]) fail("column " + std::to_string(c) + " was never written (gap)");
  }
#ifdef THSR_PGM_MMAP
  if (!file_->close()) fail("close failed");
#else
  file_->os.flush();
  if (!file_->os) fail("flush failed");
#endif
  finished_ = true;
}

AscTileSet::AscTileSet(std::string prefix, u32 width, u32 height, double xll, double yll,
                       double cellsize, double nodata)
    : prefix_(std::move(prefix)),
      width_(width),
      height_(height),
      xll_(xll),
      yll_(yll),
      cellsize_(cellsize),
      nodata_(nodata) {
  if (width == 0 || height == 0) fail("empty tile set");
  covered_.assign(width_, 0);
}

std::string AscTileSet::write_tile(u32 col_lo, u32 col_hi, std::span<const double> values) {
  if (col_lo >= col_hi || col_hi > width_) fail("tile columns out of range");
  const u32 bw = col_hi - col_lo;
  if (values.size() < std::size_t{bw} * height_) fail("tile value buffer too small");
  for (u32 c = col_lo; c < col_hi; ++c) {
    if (covered_[c]) fail("tile overlaps already-written column " + std::to_string(c));
  }
  AscGrid g;
  g.ncols = bw;
  g.nrows = height_;
  g.xll = xll_ + static_cast<double>(col_lo) * cellsize_;
  g.yll = yll_;
  g.cellsize = cellsize_;
  g.nodata = nodata_;
  g.values.assign(values.begin(), values.begin() + std::ptrdiff_t{bw} * height_);
  const std::string path =
      prefix_ + "_c" + std::to_string(col_lo) + "_" + std::to_string(col_hi) + ".asc";
  save_asc_grid(g, path);
  for (u32 c = col_lo; c < col_hi; ++c) covered_[c] = 1;
  paths_.push_back(path);
  return path;
}

void AscTileSet::finish() {
  for (u32 c = 0; c < width_; ++c) {
    if (!covered_[c]) fail("column " + std::to_string(c) + " was never written (gap)");
  }
}

}  // namespace thsr::io
