#pragma once
/// The test-only reference for `.asc` number parsing, and a reader that
/// pushes one `.asc` text through every library source so suites can hold
/// them all to it (tests/test_io.cpp, tests/test_differential.cpp).
///
/// The reference is `std::istringstream >> double` applied to one whole
/// whitespace-delimited token: the library's parser must accept exactly
/// the tokens it reads completely, with bit-identical values.

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "terrain/asc_io.hpp"

namespace thsr::test {

/// `>>` on one token; nullopt unless it reads the whole token.
inline std::optional<double> reference_number(const std::string& tok) {
  std::istringstream is(tok);
  double v = 0;
  if (!(is >> v) || is.peek() != std::char_traits<char>::eof()) return std::nullopt;
  return v;
}

/// The first `want` whitespace-delimited tokens of `payload` through
/// reference_number; nullopt when a token is missing or rejected.
inline std::optional<std::vector<double>> reference_payload(const std::string& payload,
                                                            std::size_t want) {
  std::vector<double> out;
  std::size_t i = 0;
  while (out.size() < want) {
    while (i < payload.size() && std::isspace(static_cast<unsigned char>(payload[i]))) ++i;
    if (i == payload.size()) return std::nullopt;
    std::size_t j = i;
    while (j < payload.size() && !std::isspace(static_cast<unsigned char>(payload[j]))) ++j;
    const std::optional<double> v = reference_number(payload.substr(i, j - i));
    if (!v) return std::nullopt;
    out.push_back(*v);
    i = j;
  }
  return out;
}

/// Bitwise equality of height vectors (-0.0 differs from 0.0).
inline bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<u64>(a[i]) != std::bit_cast<u64>(b[i])) return false;
  }
  return true;
}

/// One source's reading of an `.asc` text: its heights, or nullopt when it
/// threw std::runtime_error.
struct AscRead {
  std::string source;
  std::optional<std::vector<double>> values;
};

/// `text` read by load_asc_grid (stream and path) and by AscRowReader
/// (mapped file, unmapped file, stream — row by row). `path` is a temporary
/// file, removed afterwards.
inline std::vector<AscRead> read_every_way(const std::string& text, const std::string& path) {
  {
    std::ofstream os(path, std::ios::binary);
    os << text;
  }
  std::vector<AscRead> out;
  const auto add = [&](const char* source, auto&& read) {
    try {
      out.push_back({source, read()});
    } catch (const std::runtime_error&) {
      out.push_back({source, std::nullopt});
    }
  };
  const auto rows = [](AscRowReader& rd) {
    std::vector<double> all, row(rd.header().ncols);
    for (u32 r = 0; r < rd.header().nrows; ++r) {
      rd.read_row(row);
      all.insert(all.end(), row.begin(), row.end());
    }
    return all;
  };
  add("load_asc_grid(istream)", [&] {
    std::istringstream is(text);
    return load_asc_grid(is).values;
  });
  add("load_asc_grid(path)", [&] { return load_asc_grid(path).values; });
  add("AscRowReader(istream)", [&] {
    std::istringstream is(text);
    AscRowReader rd(is);
    return rows(rd);
  });
  add("AscRowReader(mapped)", [&] {
    AscRowReader rd(path, /*prefer_mmap=*/true);
    return rows(rd);
  });
  add("AscRowReader(unmapped)", [&] {
    AscRowReader rd(path, /*prefer_mmap=*/false);
    return rows(rd);
  });
  std::remove(path.c_str());
  return out;
}

/// Every source agrees with `want` (nullopt = every source rejects).
inline void expect_reads_match(const std::vector<AscRead>& got,
                               const std::optional<std::vector<double>>& want,
                               const std::string& what) {
  for (const AscRead& r : got) {
    if (!want) {
      EXPECT_FALSE(r.values.has_value()) << r.source << " accepted " << what;
    } else if (!r.values) {
      ADD_FAILURE() << r.source << " rejected " << what;
    } else {
      EXPECT_TRUE(same_bits(*r.values, *want)) << r.source << " misread " << what;
    }
  }
}

}  // namespace thsr::test
