// Picture-in-Picture (§4: "reads multiple uncompressed video files and
// combines these into a single video file"). The background is copied;
// each picture-in-picture video is downscaled by `factor` and blended
// into the background. Task parallelism: pipeline + concurrent colour
// fields; data parallelism: `slices` slices for the downscaler and
// blender (paper: 8 slices at 720x576, factor 4).
#pragma once

#include <cstdint>
#include <string>

#include "apps/seq_machine.hpp"
#include "media/metrics.hpp"
#include "sim/cache.hpp"

namespace apps {

// Result of a hand-written sequential run.
struct SeqResult {
  uint64_t cycles = 0;
  uint64_t checksum = media::kHashSeed;  // chained frame_hash of the output
  int frames = 0;
  sim::MemStats mem;
};

struct PipConfig {
  int width = 720;
  int height = 576;
  int frames = 96;   // iterations (paper: 96)
  int pips = 1;      // picture-in-picture count
  int factor = 4;    // spatial downscale factor (paper: 4)
  int slices = 8;    // data-parallel slices (paper: 8)
  // Reconfigurable variant (PiP-12): pip #2 starts disabled and toggles
  // every `toggle_period` frames (§4.3). Requires pips >= 2.
  bool reconfigurable = false;
  int toggle_period = 12;
  // Synthetic input clips (looped).
  int clip_frames = 16;
  uint64_t bg_seed = 101;
  uint64_t pip_seed = 200;  // pip i uses pip_seed + i
  int alpha = 256;          // 256 = opaque overlay
  bool store_output = false;
};

// Luma-space position of picture-in-picture `index`.
void pip_position(const PipConfig& config, int index, int* x, int* y);

// XSPCL specification text.
std::string pip_xspcl(const PipConfig& config);

// Hand-written fused sequential version.
SeqResult run_pip_sequential(const PipConfig& config,
                             const sim::CacheConfig& cache = {},
                             SeqTrace* trace = nullptr);

}  // namespace apps
