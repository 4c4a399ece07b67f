// Frame-parallel MJPEG decode: the wall-clock throughput application of
// the SIMD + parallel media path. An mjpeg_source feeds a windowed
// decode chain (entropy decode -> sliced IDCT Y/U/V -> yuv_sink) run on
// the work-stealing thread executor, so successive frames decode
// concurrently (every frame of an MJPEG stream is independently coded).
//
// Two orthogonal parallelism knobs:
//   workers  host threads in the executor pool (frame-parallel via the
//            iteration window),
//   slices   data-parallel IDCT slices inside one frame.
// The entropy decode of one frame is sequential.
//
// Throughput is measured in wall seconds (thread backend); the
// simulated-cycle models are not involved.
#pragma once

#include <cstdint>
#include <string>

namespace apps {

struct MjpegDecodeConfig {
  int width = 1920;
  int height = 1080;
  int frames = 32;      // iterations (clip loops if shorter)
  int clip_frames = 8;  // distinct synthetic frames in the clip
  int quality = 85;
  uint64_t seed = 501;
  int slices = 1;           // IDCT slices per plane
  int window = 4;           // concurrently in-flight frames
  int workers = 4;          // executor threads
  int restart = 0;          // restart interval encoded into the clip (MCUs)
  bool store_output = false;
};

struct MjpegDecodeResult {
  double wall_seconds = 0;
  int frames = 0;
  uint64_t checksum = 0;
  uint64_t compressed_bytes = 0;  // total input payload actually decoded
  double frames_per_sec = 0;
  double mb_per_sec = 0;  // compressed megabytes per second
  int64_t frames_done_metric = 0;  // final "live.frames_done" gauge
};

// XSPCL program text for the decode graph.
std::string mjpeg_xspcl(const MjpegDecodeConfig& config);

// Build and run the program on the thread backend; aborts on malformed
// config (this is a bench/test entry point, not a library API).
MjpegDecodeResult run_mjpeg_decode(const MjpegDecodeConfig& config);

}  // namespace apps
