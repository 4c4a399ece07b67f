// The byte-serial FNV-1a frame hash that media::frame_hash replaced, kept
// as the "before" leg of bench_media's frame_hash_1080p row. Every byte
// waits for the multiply on the byte before it, so it runs at about one
// multiply latency per byte.
#pragma once

#include <cstdint>

#include "media/frame.hpp"

namespace reference {

// FNV-1a over the frame's contiguous payload, from the offset basis.
uint64_t fnv1a_frame_hash(const media::Frame& f);

}  // namespace reference
