#include "media/metrics.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <cstdlib>
#include <limits>

namespace media {

double mse(ConstPlaneView a, ConstPlaneView b) {
  SUP_CHECK(a.width == b.width && a.height == b.height);
  double sum = 0;
  for (int y = 0; y < a.height; ++y) {
    const uint8_t* ra = a.row(y);
    const uint8_t* rb = b.row(y);
    for (int x = 0; x < a.width; ++x) {
      double d = static_cast<double>(ra[x]) - rb[x];
      sum += d * d;
    }
  }
  return sum / (static_cast<double>(a.width) * a.height);
}

double psnr(const Frame& a, const Frame& b) {
  SUP_CHECK(a.format() == b.format() && a.width() == b.width() &&
            a.height() == b.height());
  double total_se = 0;
  size_t total_px = 0;
  for (int p = 0; p < a.planes(); ++p) {
    ConstPlaneView pa = a.plane(p);
    total_se += mse(pa, b.plane(p)) * static_cast<double>(pa.bytes());
    total_px += pa.bytes();
  }
  double m = total_se / static_cast<double>(total_px);
  if (m <= 0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / m);
}

namespace {

// XXH64's primes.
constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

uint64_t load_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  }
  return v;
}

uint64_t lane_round(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kP2, 31) * kP1;
}

uint64_t merge(uint64_t h, uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kP1 + kP4;
}

}  // namespace

uint64_t hash_bytes(const uint8_t* data, size_t n, uint64_t seed) {
  const uint8_t* p = data;
  const uint8_t* const end = data + n;
  uint64_t h;
  if (n >= 32) {
    uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed,
             v4 = seed - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load_le64(p));
      v2 = lane_round(v2, load_le64(p + 8));
      v3 = lane_round(v3, load_le64(p + 16));
      v4 = lane_round(v4, load_le64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  } else {
    h = seed + kP5;
  }
  h += n;
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ lane_round(0, load_le64(p)), 27) * kP1 + kP4;
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

uint64_t plane_hash(ConstPlaneView p, uint64_t seed) {
  SUP_CHECK(p.stride == p.width);
  return hash_bytes(p.data, p.bytes(), seed);
}

uint64_t frame_hash(const Frame& f, uint64_t seed) {
  uint64_t h = seed;
  for (int i = 0; i < f.planes(); ++i) h = plane_hash(f.plane(i), h);
  return h;
}

int max_abs_diff(const Frame& a, const Frame& b) {
  SUP_CHECK(a.format() == b.format() && a.width() == b.width() &&
            a.height() == b.height());
  int maxd = 0;
  for (int p = 0; p < a.planes(); ++p) {
    ConstPlaneView pa = a.plane(p);
    ConstPlaneView pb = b.plane(p);
    for (int y = 0; y < pa.height; ++y) {
      const uint8_t* ra = pa.row(y);
      const uint8_t* rb = pb.row(y);
      for (int x = 0; x < pa.width; ++x) {
        int d = std::abs(static_cast<int>(ra[x]) - rb[x]);
        if (d > maxd) maxd = d;
      }
    }
  }
  return maxd;
}

}  // namespace media
