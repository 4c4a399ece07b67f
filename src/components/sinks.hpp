// Public access to sink components' accumulated state, used by tests and
// benchmarks to verify that different executions (sequential baseline,
// XSPCL/sim, XSPCL/threads, different core counts) produced identical
// output video.
#pragma once

#include <mutex>
#include <span>
#include <vector>

#include "media/frame.hpp"
#include "media/metrics.hpp"
#include "media/mjpeg.hpp"

namespace hinch {
class Program;
}

namespace components {

class SinkState {
 public:
  uint64_t checksum() const;
  int frames() const;
  media::FramePtr frame(int i) const;  // only when built with store=1

  void record(const media::Frame& f, bool store);
  // Chains plane_hash over the planes of one output frame without
  // assembling it; the checksum equals record()'s on the same pixels.
  void record_planes(std::span<const media::ConstPlaneView> planes);
  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    hash = media::kHashSeed;
    count = 0;
    stored.clear();
  }

 private:
  friend class SinkStateTestPeer;
  mutable std::mutex mutex;
  uint64_t hash = media::kHashSeed;
  int count = 0;
  std::vector<media::FramePtr> stored;
};

// Implemented by sink components; retrieve with
//   dynamic_cast<const SinkAccess*>(&program.component(i))
class SinkAccess {
 public:
  virtual ~SinkAccess() = default;
  virtual const SinkState& sink() const = 0;
};

// Implemented by mjpeg_sink: access the collected compressed clip.
class MjpegSinkAccess {
 public:
  virtual ~MjpegSinkAccess() = default;
  virtual media::MjpegClip clip() const = 0;
};

// One number over every sink component's checksum, in component order:
// equal iff all output video of the program's run is equal. 0 when the
// program has no sink.
uint64_t output_checksum(hinch::Program& prog);

}  // namespace components
