// Sink components: consume the final frames, accumulate checksums, and
// optionally retain output for correctness comparisons in tests.
#include <vector>

#include "components/detail.hpp"
#include "components/sinks.hpp"
#include "hinch/component.hpp"
#include "hinch/program.hpp"
#include "media/kernels.hpp"
#include "media/metrics.hpp"
#include "obs/metrics.hpp"

namespace components {

uint64_t SinkState::checksum() const {
  std::lock_guard<std::mutex> lock(mutex);
  return hash;
}

int SinkState::frames() const {
  std::lock_guard<std::mutex> lock(mutex);
  return count;
}

media::FramePtr SinkState::frame(int i) const {
  std::lock_guard<std::mutex> lock(mutex);
  SUP_CHECK(i >= 0 && i < static_cast<int>(stored.size()));
  return stored[static_cast<size_t>(i)];
}

void SinkState::record(const media::Frame& f, bool store) {
  std::lock_guard<std::mutex> lock(mutex);
  // Iterations complete in order and a sink is sequential with itself, so
  // the running hash is well-defined under both executors.
  hash = media::frame_hash(f, hash);
  ++count;
  if (store) stored.push_back(f.clone());
}

void SinkState::record_planes(std::span<const media::ConstPlaneView> planes) {
  std::lock_guard<std::mutex> lock(mutex);
  for (const media::ConstPlaneView& p : planes)
    hash = media::plane_hash(p, hash);
  ++count;
}

uint64_t output_checksum(hinch::Program& prog) {
  uint64_t hash = media::kHashSeed;
  bool any = false;
  for (int i = 0; i < prog.component_count(); ++i) {
    const auto* access = dynamic_cast<const SinkAccess*>(&prog.component(i));
    if (access == nullptr) continue;
    any = true;
    uint64_t c = access->sink().checksum();
    uint8_t le[8];
    for (int b = 0; b < 8; ++b) le[b] = static_cast<uint8_t>(c >> (8 * b));
    hash = media::hash_bytes(le, sizeof le, hash);
  }
  return any ? hash : 0;
}

namespace {

// Consumes one full frame per iteration.
class FrameSink : public hinch::Component, public SinkAccess {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    bool store = hinch::param_int_or(config.params, "store", 0) != 0;
    return std::unique_ptr<hinch::Component>(new FrameSink(store));
  }

  explicit FrameSink(bool store) : in_(declare_input("in")), store_(store) {}

  void run(hinch::ExecContext& ctx) override {
    media::FramePtr f = ctx.read(in_).frame();
    state_.record(*f, store_);
    ctx.touch_read(in_, 0, f->bytes());
    // DMA the composed frame out (display / file).
    ctx.charge_compute(media::io_cycles(f->bytes()));
    if (auto* m = ctx.metrics()) {
      m->add("live.frames_done", 1);
      m->add("live.frame_bytes_done", static_cast<int64_t>(f->bytes()));
    }
  }

  void reset() override { state_.clear(); }
  const SinkState& sink() const override { return state_; }

 private:
  int in_;
  bool store_;
  SinkState state_;
};

// Consumes three gray planes (Y, U, V) per iteration — the "Output" node
// of the per-plane task graphs (Fig. 7). It hashes the planes in place
// and reassembles a frame only when it has to keep one (store=1).
class YuvSink : public hinch::Component, public SinkAccess {
 public:
  static support::Result<std::unique_ptr<hinch::Component>> create(
      const hinch::ComponentConfig& config) {
    bool store = hinch::param_int_or(config.params, "store", 0) != 0;
    return std::unique_ptr<hinch::Component>(new YuvSink(store));
  }

  explicit YuvSink(bool store)
      : y_(declare_input("y")),
        u_(declare_input("u")),
        v_(declare_input("v")),
        store_(store) {}

  void run(hinch::ExecContext& ctx) override {
    const media::FramePtr in[3] = {ctx.read(y_).frame(), ctx.read(u_).frame(),
                                   ctx.read(v_).frame()};
    // Infer the subsampling from the plane sizes.
    const int w = in[0]->width(), h = in[0]->height();
    const media::PixelFormat fmt = in[1]->width() == (w + 1) / 2
                                       ? media::PixelFormat::kYuv420
                                       : media::PixelFormat::kYuv444;
    media::ConstPlaneView planes[3];
    size_t bytes = 0;
    for (int p = 0; p < 3; ++p) {
      planes[p] = in[p]->plane(0);
      int pw, ph;
      media::plane_dims(fmt, w, h, p, &pw, &ph);
      SUP_CHECK(planes[p].width == pw && planes[p].height == ph);
      ctx.touch_read(p, 0, in[p]->bytes());
      bytes += planes[p].bytes();
    }
    if (store_) {
      media::FramePtr frame = media::make_frame(fmt, w, h);
      for (int p = 0; p < 3; ++p)
        media::copy_plane(planes[p], frame->plane(p), 0, planes[p].height);
      state_.record(*frame, /*store=*/true);
    } else {
      // The checksum chains the planes in frame order, so it equals the
      // reassembled frame's frame_hash without building that frame.
      state_.record_planes(planes);
    }
    ctx.charge_compute(media::io_cycles(bytes));
    if (auto* m = ctx.metrics()) {
      m->add("live.frames_done", 1);
      m->add("live.frame_bytes_done", static_cast<int64_t>(bytes));
    }
  }

  void reset() override { state_.clear(); }
  const SinkState& sink() const override { return state_; }

 private:
  int y_;
  int u_;
  int v_;
  bool store_;
  SinkState state_;
};

}  // namespace

void register_sinks(hinch::ComponentRegistry& registry) {
  registry.register_class("frame_sink", &FrameSink::create);
  registry.register_class("yuv_sink", &YuvSink::create);
}

}  // namespace components
