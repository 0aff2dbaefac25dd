#include "terrain/asc_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "support/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define THSR_ASC_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace thsr {
namespace {

inline constexpr u32 kNoVert = 0xffffffffu;  ///< lattice site with no data vertex

/// Hard cap on ncols*nrows before the sample buffer is allocated: keeps a
/// hostile or corrupt header (two 1e9 dims = an 8 EB reserve) inside the
/// documented runtime_error contract instead of bad_alloc/OOM. 10^8
/// doubles is ~800 MB — far beyond anything the lattice budget can use.
/// The streaming reader (AscRowReader) caps only ncols by this: it buffers
/// one row at a time, never the grid, which is its whole point.
inline constexpr std::size_t kMaxAscSamples = 100'000'000;

[[noreturn]] void fail(const std::string& what, std::size_t lineno = 0) {
  throw std::runtime_error(lineno ? "load_asc: " + what + " at line " + std::to_string(lineno)
                                  : "load_asc: " + what);
}

/// Bytes the unmapped and istream sources read at a time. No number token
/// may be this long: every token then fits one window whole.
inline constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}
bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// For a decimal token std::from_chars found out of range (sign already
/// stripped): true when its magnitude is below 1 — an underflow — false
/// when above — an overflow. Compares the decimal order of the first
/// significant digit plus the exponent against zero; the exponent
/// saturates, so no token length can overflow the sum.
bool underflows(const char* p, const char* e) {
  i64 order = 0;  // value = 0.d1d2... * 10^order
  bool sig = false, frac = false;
  for (; p != e && *p != 'e' && *p != 'E'; ++p) {
    if (*p == '.') {
      frac = true;
    } else if (*p != '0' || sig) {
      sig = true;
      if (!frac) ++order;
    } else if (frac) {
      --order;  // a zero between the point and the first significant digit
    }
  }
  i64 exp = 0;
  if (p != e) {
    ++p;
    const bool neg = *p == '-';
    if (*p == '+' || *p == '-') ++p;
    for (; p != e; ++p) exp = std::min<i64>(exp * 10 + (*p - '0'), i64{1} << 40);
    if (neg) exp = -exp;
  }
  return order + exp <= 0;
}

/// The one number parser of .asc text (header values and heights alike):
/// a whole whitespace-delimited token in the syntax `istream >> double`
/// accepts in the classic locale — an optional sign, decimal digits with
/// an optional point and at least one digit, an optional exponent; never
/// inf, nan or hex — with `>>`'s value: correctly rounded, an underflow
/// read as a signed zero. An overflow is rejected, as `>>` fails on it.
bool parse_number(std::string_view tok, double& out) {
  const char* p = tok.data();
  const char* const e = p + tok.size();
  const bool neg = p != e && *p == '-';
  if (p != e && (*p == '+' || *p == '-')) ++p;
  // from_chars would also take a second sign, inf and nan.
  if (p == e || !(is_digit(*p) || *p == '.')) return false;
  double v = 0;
  const auto [end, ec] = std::from_chars(p, e, v);
  if (end != e) return false;
  if (ec == std::errc::result_out_of_range) {
    if (!underflows(p, e)) return false;
    v = 0.0;
  } else if (ec != std::errc{}) {
    return false;
  }
  out = neg ? -v : v;
  return true;
}

/// Byte cursor over an .asc source: one window over a whole mapped file,
/// or a kChunkBytes window refilled from a stream — so the unmapped and
/// istream sources never hold more than one chunk of the payload. Offsets
/// count bytes from where the source started; every token handed out lies
/// whole inside the window and stays valid until the next call.
class Scanner {
 public:
  Scanner(const char* b, std::size_t n) : data_(b), len_(n) {}
  explicit Scanner(std::istream& is)
      : is_(&is), start_(is.tellg()), buf_(kChunkBytes), data_(buf_.data()) {}

  u64 offset() const noexcept { return base_ + pos_; }

  /// Reposition to an offset offset() returned earlier.
  void seek(u64 off) {
    if (off >= base_ && off - base_ <= len_) {
      pos_ = static_cast<std::size_t>(off - base_);
      return;
    }
    THSR_CHECK(is_ != nullptr);  // a mapped window holds every offset
    is_->clear();
    if (start_ == std::streampos(-1) || !is_->seekg(start_ + static_cast<std::streamoff>(off))) {
      fail("streaming reads need a seekable source");
    }
    base_ = off;
    pos_ = len_ = 0;
    eof_ = false;
  }

  /// Skip whitespace, stopping at '\n' when `within_line`: the next byte,
  /// or -1 at the end of input.
  int skip_space(bool within_line) {
    while (true) {
      for (; pos_ < len_; ++pos_) {
        const char c = data_[pos_];
        if (!is_space(c) || (within_line && c == '\n')) return static_cast<unsigned char>(c);
      }
      if (!refill()) return -1;
    }
  }

  /// The whitespace-free run at the cursor (empty at a space or the end).
  std::string_view take_token() {
    std::size_t n = 0;
    while (true) {
      while (pos_ + n < len_ && !is_space(data_[pos_ + n])) ++n;
      if (pos_ + n < len_ || !refill()) break;  // refill keeps the partial token
    }
    if (n >= kChunkBytes) fail("a token of " + std::to_string(n) + " bytes is too long");
    const std::string_view tok(data_ + pos_, n);
    pos_ += n;
    return tok;
  }

  /// The next token across any whitespace (empty at the end of input).
  std::string_view next_token() {
    return skip_space(/*within_line=*/false) < 0 ? std::string_view{} : take_token();
  }

  /// Move past the next '\n' (or to the end of input).
  void skip_line() {
    while (true) {
      const void* nl = std::memchr(data_ + pos_, '\n', len_ - pos_);
      if (nl != nullptr) {
        pos_ = static_cast<std::size_t>(static_cast<const char*>(nl) - data_) + 1;
        return;
      }
      pos_ = len_;
      if (!refill()) return;
    }
  }

 private:
  /// Slide the unread bytes to the window's front and read on; false when
  /// no byte was added (a mapped window, or the end of the stream).
  bool refill() {
    if (is_ == nullptr || eof_) return false;
    const std::size_t keep = len_ - pos_;
    if (keep == buf_.size()) fail("a token of " + std::to_string(keep) + "+ bytes is too long");
    std::memmove(buf_.data(), buf_.data() + pos_, keep);
    base_ += pos_;
    pos_ = 0;
    len_ = keep;
    is_->read(buf_.data() + len_, static_cast<std::streamsize>(buf_.size() - len_));
    const auto got = static_cast<std::size_t>(is_->gcount());
    eof_ = len_ + got < buf_.size();
    len_ += got;
    return got > 0;
  }

  std::istream* is_{nullptr};
  std::streampos start_{0};
  std::vector<char> buf_;
  const char* data_{nullptr};
  std::size_t len_{0};  ///< valid bytes in the window
  std::size_t pos_{0};  ///< cursor within the window
  u64 base_{0};         ///< offset of data_[0]
  bool eof_{false};
};

/// Reads header lines up to the first data line, leaving the scanner at
/// that line's first token. Each header line is a key and a number; the
/// rest of the line is ignored.
AscHeader parse_asc_header(Scanner& sc) {
  AscHeader g;
  bool saw_ncols = false, saw_nrows = false, saw_x = false, saw_y = false, saw_cell = false;
  bool x_centered = false, y_centered = false;
  std::size_t lineno = 0;

  while (true) {
    const int c0 = sc.skip_space(/*within_line=*/true);
    if (c0 < 0) break;
    ++lineno;
    if (c0 == '\n') {  // blank line
      sc.skip_line();
      continue;
    }
    const u64 line_at = sc.offset();
    const std::string key(sc.take_token());
    if (std::isalpha(static_cast<unsigned char>(key[0])) == 0) {
      sc.seek(line_at);  // header over: this line already holds data
      break;
    }
    const std::string k = lower(key);
    double v = 0;
    const int c1 = sc.skip_space(/*within_line=*/true);
    if (c1 < 0 || c1 == '\n' || !parse_number(sc.take_token(), v)) {
      fail("header key '" + key + "' has no numeric value", lineno);
    }
    sc.skip_line();
    const auto set = [&](double& slot, bool& seen) {
      if (seen) fail("duplicate header key '" + key + "'", lineno);
      slot = v;
      seen = true;
    };
    if (k == "ncols" || k == "nrows") {
      if (v < 1 || v != std::floor(v) || v > 1e9) fail("bad " + k, lineno);
      double tmp = 0;
      bool& seen = (k == "ncols") ? saw_ncols : saw_nrows;
      set(tmp, seen);
      (k == "ncols" ? g.ncols : g.nrows) = static_cast<u32>(v);
    } else if (k == "xllcorner" || k == "xllcenter") {
      set(g.xll, saw_x);
      x_centered = (k == "xllcenter");
    } else if (k == "yllcorner" || k == "yllcenter") {
      set(g.yll, saw_y);
      y_centered = (k == "yllcenter");
    } else if (k == "cellsize") {
      if (v <= 0) fail("cellsize must be positive", lineno);
      set(g.cellsize, saw_cell);
    } else if (k == "nodata_value") {
      if (g.nodata) fail("duplicate header key '" + key + "'", lineno);
      g.nodata = v;
    } else {
      fail("unknown header key '" + key + "'", lineno);
    }
  }
  if (!saw_ncols || !saw_nrows) fail("header is missing ncols/nrows");
  if (!saw_x || !saw_y || !saw_cell) fail("header is missing the origin or cellsize");
  if (x_centered != y_centered) fail("header mixes llcorner and llcenter origin keys");
  g.cell_centered = x_centered;
  return g;
}

/// Rows [row_lo, row_hi) of `rd` as an AscGrid with the given south edge,
/// under the loader's total-sample cap.
AscGrid read_grid(AscRowReader& rd, u32 row_lo, u32 row_hi, double yll) {
  const AscHeader& h = rd.header();
  const std::size_t want = static_cast<std::size_t>(row_hi - row_lo) * h.ncols;
  if (want > kMaxAscSamples) {
    fail("grid declares " + std::to_string(want) + " samples, over the " +
         std::to_string(kMaxAscSamples) + " loader cap");
  }
  AscGrid g;
  g.ncols = h.ncols;
  g.nrows = row_hi - row_lo;
  g.xll = h.xll;
  g.yll = yll;
  g.cell_centered = h.cell_centered;
  g.cellsize = h.cellsize;
  g.nodata = h.nodata;
  g.values.resize(want);
  rd.read_rows(row_lo, row_hi, g.values);
  return g;
}

}  // namespace

AscGrid load_asc_grid(std::istream& is) {
  AscRowReader rd(is);
  return read_grid(rd, 0, rd.header().nrows, rd.header().yll);
}

AscGrid load_asc_grid(const std::string& path) {
  AscRowReader rd(path);
  return read_grid(rd, 0, rd.header().nrows, rd.header().yll);
}

void save_asc_grid(const AscGrid& g, std::ostream& os) {
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "ncols " << g.ncols << "\nnrows " << g.nrows << "\n"
     << (g.cell_centered ? "xllcenter " : "xllcorner ") << g.xll << "\n"
     << (g.cell_centered ? "yllcenter " : "yllcorner ") << g.yll << "\ncellsize " << g.cellsize
     << "\n";
  if (g.nodata) os << "NODATA_value " << *g.nodata << "\n";
  for (u32 r = 0; r < g.nrows; ++r) {
    for (u32 c = 0; c < g.ncols; ++c) os << g.at(r, c) << (c + 1 < g.ncols ? ' ' : '\n');
  }
}

void save_asc_grid(const AscGrid& g, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_asc: cannot open " + path);
  save_asc_grid(g, os);
}

Terrain terrain_from_asc(const AscGrid& g, const AscTerrainOptions& opt, AscMapping* mapping) {
  if (g.ncols < 2 || g.nrows < 2) fail("grid too small to triangulate (need >= 2x2)");

  // Stride so the sampled lattice fits the coordinate budget.
  u32 stride = opt.stride;
  if (stride == 0) {
    stride = 1;
    while ((std::max(g.ncols, g.nrows) - 1) / stride + 1 > kMaxAscGrid) ++stride;
  }
  const u32 rows = (g.nrows - 1) / stride + 1, cols = (g.ncols - 1) / stride + 1;
  if (rows < 2 || cols < 2) {
    fail("stride " + std::to_string(stride) + " leaves fewer than 2 rows/cols");
  }
  if (std::max(rows, cols) > kMaxAscGrid) {
    fail("grid exceeds " + std::to_string(kMaxAscGrid) +
         " samples per side after stride; raise AscTerrainOptions::stride");
  }

  // Height quantization: offset (normalize_z), scale, round — and reject
  // anything the exact predicates could not carry.
  double z0 = 0;
  if (opt.normalize_z) {
    z0 = std::numeric_limits<double>::infinity();
    for (u32 r = 0; r < g.nrows; ++r) {
      for (u32 c = 0; c < g.ncols; ++c) {
        if (!g.is_nodata(r, c)) z0 = std::min(z0, g.at(r, c));
      }
    }
    if (!std::isfinite(z0)) fail("grid has no data cells");
  }
  const auto quantize = [&](double v) {
    const double s = (v - z0) * opt.z_scale;
    if (!std::isfinite(s) || std::abs(s) > static_cast<double>(kMaxCoord)) {
      fail("height " + std::to_string(v) + " leaves the coordinate range after scaling; "
           "lower AscTerrainOptions::z_scale");
    }
    return static_cast<i64>(std::llround(s));
  };

  // Sheared lattice, generators' convention (DESIGN.md section 1.5): the
  // shear constant clears the x-extent so distinct columns occupy disjoint
  // y-ranges and no edge gets dy == 0. Row 0 (north) lands at maximal x,
  // nearest the viewer.
  const u32 G = std::max(rows, cols);
  const i64 K = opt.shear ? i64{8} * G + 16 : 0;
  std::vector<u32> vid(static_cast<std::size_t>(rows) * cols, kNoVert);
  std::vector<Vertex3> verts;
  std::vector<Triangle> tris;
  const auto sampled = [&](u32 rr, u32 cc) {  // sampled-grid -> source-grid
    return std::pair<u32, u32>{rr * stride, cc * stride};
  };
  for (u32 rr = 0; rr < rows; ++rr) {
    for (u32 cc = 0; cc < cols; ++cc) {
      const auto [r, c] = sampled(rr, cc);
      if (g.is_nodata(r, c)) continue;
      const i64 x = i64{8} * (rows - 1 - rr), yj = i64{8} * cc;
      vid[static_cast<std::size_t>(rr) * cols + cc] = static_cast<u32>(verts.size());
      verts.push_back(Vertex3{x, opt.shear ? K * yj + x : yj, quantize(g.at(r, c))});
    }
  }
  const auto v_at = [&](u32 rr, u32 cc) { return vid[static_cast<std::size_t>(rr) * cols + cc]; };
  for (u32 rr = 0; rr + 1 < rows; ++rr) {
    for (u32 cc = 0; cc + 1 < cols; ++cc) {
      const u32 v00 = v_at(rr, cc), v10 = v_at(rr + 1, cc);
      const u32 v01 = v_at(rr, cc + 1), v11 = v_at(rr + 1, cc + 1);
      if (v00 == kNoVert || v10 == kNoVert || v01 == kNoVert || v11 == kNoVert) continue;
      if ((rr + cc) % 2 == 0) {  // generators' alternating diagonal
        tris.push_back({v00, v10, v11});
        tris.push_back({v00, v11, v01});
      } else {
        tris.push_back({v00, v10, v01});
        tris.push_back({v10, v11, v01});
      }
    }
  }
  if (tris.empty()) fail("no NODATA-free cell to triangulate");

  // Drop vertices only NODATA neighbours referenced (isolated data cells).
  std::vector<u32> used(verts.size(), 0);
  for (const Triangle& tr : tris) used[tr.a] = used[tr.b] = used[tr.c] = 1;
  std::vector<u32> remap(verts.size(), 0);
  std::vector<Vertex3> packed;
  packed.reserve(verts.size());
  for (u32 i = 0; i < verts.size(); ++i) {
    if (used[i]) {
      remap[i] = static_cast<u32>(packed.size());
      packed.push_back(verts[i]);
    }
  }
  for (Triangle& tr : tris) tr = {remap[tr.a], remap[tr.b], remap[tr.c]};

  if (mapping != nullptr) {
    mapping->rows = rows;
    mapping->cols = cols;
    mapping->stride = stride;
    mapping->xll = g.xll;
    // The sampled grid's southernmost row is source row (rows-1)*stride;
    // any rows the stride drops below it shift the south edge north.
    mapping->yll =
        g.yll + static_cast<double>(g.nrows - 1 - (rows - 1) * stride) * g.cellsize;
    mapping->cell_centered = g.cell_centered;
    mapping->cellsize = g.cellsize * stride;
    mapping->nodata = g.nodata;
    mapping->vertex.assign(static_cast<std::size_t>(rows) * cols, kNoAscVertex);
    for (std::size_t i = 0; i < vid.size(); ++i) {
      if (vid[i] != kNoVert && used[vid[i]]) mapping->vertex[i] = remap[vid[i]];
    }
  }
  return Terrain::from_triangles(std::move(packed), std::move(tris));
}

Terrain load_asc(std::istream& is, const AscTerrainOptions& opt) {
  return terrain_from_asc(load_asc_grid(is), opt);
}

Terrain load_asc(const std::string& path, const AscTerrainOptions& opt) {
  return terrain_from_asc(load_asc_grid(path), opt);
}

struct AscRowReader::Impl {
  std::ifstream file;  ///< unmapped source, read in chunks
  void* map_addr{nullptr};
  std::size_t map_len{0};
  std::optional<Scanner> sc;

  AscHeader header;
  u32 next_row{0};
  u64 payload_pos{0};
  std::vector<u64> row_off;  ///< start offset of each visited row

  Impl() = default;
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  ~Impl() {
#ifdef THSR_ASC_MMAP
    if (map_addr != nullptr) ::munmap(map_addr, map_len);
#endif
  }

  void init() {
    header = parse_asc_header(*sc);
    if (header.ncols > kMaxAscSamples) {
      fail("row of " + std::to_string(header.ncols) + " samples exceeds the per-row cap");
    }
    payload_pos = sc->offset();
  }

  void read_one(std::span<double> out) {
    THSR_CHECK(out.size() >= header.ncols);
    if (next_row >= header.nrows) {
      fail("read past the last row (" + std::to_string(header.nrows) + " declared)");
    }
    if (row_off.size() == next_row) row_off.push_back(sc->offset());
    for (u32 c = 0; c < header.ncols; ++c) {
      const std::string_view tok = sc->next_token();
      if (tok.empty()) {
        fail("row " + std::to_string(next_row) + " ends after " + std::to_string(c) + " of " +
             std::to_string(header.ncols) +
             " samples (payload truncated or header dims oversized)");
      }
      if (!parse_number(tok, out[c])) {
        fail("non-numeric height sample '" + std::string(tok.substr(0, 32)) + "' in row " +
             std::to_string(next_row));
      }
    }
    ++next_row;
  }
};

AscRowReader::AscRowReader(std::istream& is) : impl_(std::make_unique<Impl>()) {
  impl_->sc.emplace(is);
  impl_->init();
}

AscRowReader::AscRowReader(const std::string& path, bool prefer_mmap)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
#ifdef THSR_ASC_MMAP
  if (prefer_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st{};
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                            MAP_PRIVATE, fd, 0);
        if (addr != MAP_FAILED) {
          im.map_addr = addr;
          im.map_len = static_cast<std::size_t>(st.st_size);
          im.sc.emplace(static_cast<const char*>(addr), im.map_len);
        }
      }
      ::close(fd);
    }
  }
#else
  (void)prefer_mmap;
#endif
  if (!im.sc) {
    im.file.open(path, std::ios::binary);
    if (!im.file) throw std::runtime_error("load_asc: cannot open " + path);
    im.sc.emplace(im.file);
  }
  im.init();
}

AscRowReader::~AscRowReader() = default;
AscRowReader::AscRowReader(AscRowReader&&) noexcept = default;
AscRowReader& AscRowReader::operator=(AscRowReader&&) noexcept = default;

const AscHeader& AscRowReader::header() const noexcept { return impl_->header; }
bool AscRowReader::mapped() const noexcept { return impl_->map_addr != nullptr; }
u32 AscRowReader::next_row() const noexcept { return impl_->next_row; }

void AscRowReader::read_row(std::span<double> out) { impl_->read_one(out); }

void AscRowReader::skip_rows(u32 n) {
  std::vector<double> scratch(impl_->header.ncols);
  for (u32 i = 0; i < n; ++i) impl_->read_one(scratch);
}

void AscRowReader::read_rows(u32 row_lo, u32 row_hi, std::span<double> out) {
  Impl& im = *impl_;
  if (row_lo > row_hi || row_hi > im.header.nrows) {
    fail("window rows [" + std::to_string(row_lo) + ", " + std::to_string(row_hi) +
         ") outside the declared " + std::to_string(im.header.nrows) + " rows");
  }
  THSR_CHECK(out.size() >= static_cast<std::size_t>(row_hi - row_lo) * im.header.ncols);
  if (row_lo < im.next_row) {
    // Already visited: its byte offset is on record — seek, do not reparse.
    im.sc->seek(im.row_off[row_lo]);
    im.next_row = row_lo;
  } else if (row_lo > im.next_row) {
    skip_rows(row_lo - im.next_row);
  }
  for (u32 r = row_lo; r < row_hi; ++r) {
    im.read_one(out.subspan(static_cast<std::size_t>(r - row_lo) * im.header.ncols));
  }
}

void AscRowReader::reset() {
  Impl& im = *impl_;
  im.sc->seek(im.payload_pos);
  im.next_row = 0;
}

AscGrid load_asc_window(const std::string& path, u32 row_lo, u32 row_hi) {
  AscRowReader r(path);
  const AscHeader& h = r.header();
  if (row_lo >= row_hi || row_hi > h.nrows) {
    fail("window rows [" + std::to_string(row_lo) + ", " + std::to_string(row_hi) +
         ") outside the declared " + std::to_string(h.nrows) + " rows");
  }
  // The window's southernmost row is source row row_hi-1: the dropped
  // southern rows shift the lower-left origin north.
  return read_grid(r, row_lo, row_hi, h.yll + static_cast<double>(h.nrows - row_hi) * h.cellsize);
}

}  // namespace thsr
