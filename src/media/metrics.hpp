// Image quality metrics used in tests to validate the JPEG codec and the
// equivalence of XSPCL and hand-written application outputs.
#pragma once

#include "media/frame.hpp"

namespace media {

// Mean squared error between two planes of identical size.
double mse(ConstPlaneView a, ConstPlaneView b);

// Peak signal-to-noise ratio over all planes (dB). Returns +inf for
// identical frames. Frames must have identical format and size.
double psnr(const Frame& a, const Frame& b);

// Largest absolute pixel difference over all planes.
int max_abs_diff(const Frame& a, const Frame& b);

// Seed of a hash chain: a sink's checksum before its first frame.
inline constexpr uint64_t kHashSeed = 14695981039346656037ULL;

// Seeded 64-bit hash of `n` bytes: XXH64's four-lane multiply-rotate
// rounds over 32-byte stripes of little-endian words and its avalanche,
// with the tail taken 8 bytes and then 1 byte at a time. Every byte
// contributes; the lanes are independent, so it runs at word speed
// rather than one multiply per byte.
uint64_t hash_bytes(const uint8_t* data, size_t n, uint64_t seed);

// hash_bytes over a tight plane (stride == width), chained onto `seed`.
uint64_t plane_hash(ConstPlaneView p, uint64_t seed);

// plane_hash chained over the frame's planes in order, starting from
// `seed`. Used to compare whole output videos across executions cheaply:
// chain it frame after frame.
uint64_t frame_hash(const Frame& f, uint64_t seed = kHashSeed);

}  // namespace media
