#include "reference/hash_reference.hpp"

namespace reference {

uint64_t fnv1a_frame_hash(const media::Frame& f) {
  uint64_t h = 14695981039346656037ULL;
  const uint8_t* data = f.raw();
  for (size_t i = 0; i < f.bytes(); ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace reference
