// Unit tests of the standard component library, each through a minimal
// program on the simulator: construction-parameter validation, looping
// sources, plane modes, reconfiguration requests, sink retention.
#include <gtest/gtest.h>

#include "apps/mjpeg.hpp"
#include "components/clip_cache.hpp"
#include "components/components.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "media/jpeg.hpp"
#include "media/kernels.hpp"
#include "media/metrics.hpp"
#include "media/mjpeg.hpp"
#include "media/synth.hpp"
#include "xspcl/loader.hpp"

namespace {

std::unique_ptr<hinch::Program> build(const std::string& spec) {
  components::register_standard_globally();
  auto prog =
      xspcl::build_program(spec, hinch::ComponentRegistry::global());
  EXPECT_TRUE(prog.is_ok()) << prog.status().to_string();
  return prog.is_ok() ? std::move(prog).take() : nullptr;
}

const components::SinkAccess* find_sink(hinch::Program& prog) {
  for (int i = 0; i < prog.component_count(); ++i) {
    auto* s =
        dynamic_cast<const components::SinkAccess*>(&prog.component(i));
    if (s) return s;
  }
  return nullptr;
}

void run(hinch::Program& prog, int64_t iterations, int cores = 1) {
  hinch::RunConfig config;
  config.iterations = iterations;
  hinch::SimParams sim;
  sim.cores = cores;
  hinch::run_on_sim(prog, config, sim);
}

// Build errors surface as Status, not crashes.
struct BadComponent {
  const char* name;
  const char* spec;
};

class ComponentCreateErrorTest
    : public ::testing::TestWithParam<BadComponent> {};

TEST_P(ComponentCreateErrorTest, RejectedAtBuildTime) {
  components::register_standard_globally();
  auto prog = xspcl::build_program(GetParam().spec,
                                   hinch::ComponentRegistry::global());
  EXPECT_FALSE(prog.is_ok()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ComponentCreateErrorTest,
    ::testing::Values(
        BadComponent{"tiny_source",
                     R"(<xspcl><procedure name="main"><body>
          <component name="s" class="video_source">
            <param name="width" value="4"/>
            <outport name="out" stream="v"/>
          </component></body></procedure></xspcl>)"},
        BadComponent{"bad_source_kind",
                     R"(<xspcl><procedure name="main"><body>
          <component name="s" class="video_source">
            <param name="source" value="webcam"/>
            <outport name="out" stream="v"/>
          </component></body></procedure></xspcl>)"},
        BadComponent{"downscale_no_factor",
                     R"(<xspcl><procedure name="main"><body>
          <component name="d" class="downscale">
            <inport name="in" stream="v"/>
            <outport name="out" stream="w"/>
          </component></body></procedure></xspcl>)"},
        BadComponent{"downscale_bad_factor",
                     R"(<xspcl><procedure name="main"><body>
          <component name="d" class="downscale">
            <param name="factor" value="0"/>
            <inport name="in" stream="v"/>
            <outport name="out" stream="w"/>
          </component></body></procedure></xspcl>)"},
        BadComponent{"blend_bad_alpha",
                     R"(<xspcl><procedure name="main"><body>
          <component name="b" class="blend">
            <param name="alpha" value="999"/>
            <inport name="fg" stream="v"/>
            <outport name="canvas" stream="w"/>
          </component></body></procedure></xspcl>)"},
        BadComponent{"blur_bad_kernel",
                     R"(<xspcl><procedure name="main"><body>
          <component name="b" class="blur_h">
            <param name="kernel" value="7"/>
            <inport name="in" stream="v"/>
            <outport name="out" stream="w"/>
          </component></body></procedure></xspcl>)"},
        BadComponent{"idct_bad_plane",
                     R"(<xspcl><procedure name="main"><body>
          <component name="i" class="idct">
            <param name="plane" value="5"/>
            <inport name="coeffs" stream="v"/>
            <outport name="out" stream="w"/>
          </component></body></procedure></xspcl>)"},
        BadComponent{"ticker_without_event",
                     R"(<xspcl><procedure name="main"><body>
          <component name="t" class="event_ticker">
            <param name="queue" value="q"/>
          </component></body></procedure></xspcl>)"},
        BadComponent{"ticker_bad_period",
                     R"(<xspcl><procedure name="main"><body>
          <component name="t" class="event_ticker">
            <param name="event" value="e"/>
            <param name="queue" value="q"/>
            <param name="period" value="0"/>
          </component></body></procedure></xspcl>)"},
        BadComponent{"script_bad_entry",
                     R"(<xspcl><procedure name="main"><body>
          <component name="t" class="event_script">
            <param name="queue" value="q"/>
            <param name="script" value="nonsense"/>
          </component></body></procedure></xspcl>)"}),
    [](const ::testing::TestParamInfo<BadComponent>& info) {
      return info.param.name;
    });

TEST(VideoSource, LoopsOverClipFrames) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="seed" value="9"/>
      <param name="width" value="32"/>
      <param name="height" value="24"/>
      <param name="frames" value="3"/>
      <outport name="out" stream="v"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="v"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 7);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  ASSERT_EQ(sink->sink().frames(), 7);
  // Frame 3 repeats frame 0, frame 4 repeats frame 1, etc.
  EXPECT_TRUE(sink->sink().frame(3)->equals(*sink->sink().frame(0)));
  EXPECT_TRUE(sink->sink().frame(4)->equals(*sink->sink().frame(1)));
  EXPECT_FALSE(sink->sink().frame(1)->equals(*sink->sink().frame(0)));
}

TEST(VideoSource, FileSourceRoundTrips) {
  media::SynthSpec spec{.seed = 77, .width = 48, .height = 32};
  media::RawVideo clip = media::RawVideo::synthesize(spec, 4);
  std::string path = ::testing::TempDir() + "/src.rawv";
  ASSERT_TRUE(clip.save(path).is_ok());

  auto prog = build(std::string(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="source" value="file"/>
      <param name="path" value=")") + path + R"("/>
      <outport name="out" stream="v"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="v"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 4);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(sink->sink().frame(i)->equals(*clip.frame(i))) << i;
}

TEST(MjpegSource, FileSourceDecodesViaPipeline) {
  media::SynthSpec spec{.seed = 78, .width = 64, .height = 48};
  media::RawVideo clip = media::RawVideo::synthesize(spec, 2);
  auto encoded = media::MjpegClip::encode(clip, 85);
  ASSERT_TRUE(encoded.is_ok());
  std::string path = ::testing::TempDir() + "/src.mjpg";
  ASSERT_TRUE(encoded.value().save(path).is_ok());

  auto prog = build(std::string(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="mjpeg_source">
      <param name="source" value="file"/>
      <param name="path" value=")") + path + R"("/>
      <outport name="out" stream="j"/>
    </component>
    <component name="d" class="jpeg_decode">
      <inport name="jpeg" stream="j"/>
      <outport name="coeffs" stream="c"/>
    </component>
    <component name="iy" class="idct">
      <param name="plane" value="0"/>
      <inport name="coeffs" stream="c"/>
      <outport name="out" stream="y"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="y"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 2);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  // The decoded luma must be close to the original.
  media::FramePtr y = sink->sink().frame(0);
  ASSERT_EQ(y->format(), media::PixelFormat::kGray);
  media::FramePtr orig_y =
      media::make_frame(media::PixelFormat::kGray, 64, 48);
  media::copy_plane(clip.frame(0)->plane(0), orig_y->plane(0), 0, 48);
  EXPECT_GT(media::psnr(*orig_y, *y), 30.0);
}

TEST(Downscale, PlaneModeProducesGray) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="width" value="64"/><param name="height" value="48"/>
      <outport name="out" stream="v"/>
    </component>
    <component name="d" class="downscale">
      <param name="factor" value="4"/>
      <param name="plane" value="1"/>
      <inport name="in" stream="v"/>
      <outport name="out" stream="w"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="w"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 1);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  media::FramePtr out = sink->sink().frame(0);
  EXPECT_EQ(out->format(), media::PixelFormat::kGray);
  EXPECT_EQ(out->width(), 8);   // U plane is 32x24, /4
  EXPECT_EQ(out->height(), 6);
}

TEST(Blend, ReconfigurePosMovesOverlay) {
  // Initial reconfiguration request (§3.1) places the overlay; the run
  // must reflect the new position, not the x/y params.
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="bg" class="video_source">
      <param name="width" value="64"/><param name="height" value="48"/>
      <outport name="out" stream="b"/>
    </component>
    <component name="fg" class="video_source">
      <param name="seed" value="5"/>
      <param name="width" value="16"/><param name="height" value="16"/>
      <outport name="out" stream="f"/>
    </component>
    <component name="c" class="copy">
      <inport name="in" stream="b"/>
      <outport name="out" stream="canvas"/>
    </component>
    <component name="bl" class="blend">
      <param name="x" value="0"/>
      <param name="y" value="0"/>
      <param name="plane" value="0"/>
      <inport name="fg" stream="f"/>
      <outport name="canvas" stream="canvas"/>
      <reconfig request="pos=40,24"/>
    </component>
    <component name="k" class="frame_sink">
      <param name="store" value="1"/>
      <inport name="in" stream="canvas"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 1);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  media::FramePtr out = sink->sink().frame(0);

  // Rebuild the expectation by hand.
  media::SynthSpec bg_spec{.seed = 1, .width = 64, .height = 48};
  media::SynthSpec fg_spec{.seed = 5, .width = 16, .height = 16};
  media::FramePtr expect = media::make_synth_frame(bg_spec, 0)->clone();
  media::FramePtr fg = media::make_synth_frame(fg_spec, 0);
  media::blend(fg->plane(0), expect->plane(0), 40, 24, 256, 0, 48);
  EXPECT_TRUE(out->equals(*expect));
}

TEST(EventTicker, FiresAtExactPeriods) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="t" class="event_ticker">
      <param name="event" value="tick"/>
      <param name="queue" value="q"/>
      <param name="period" value="4"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 13);
  // Nobody consumed the events; count them: iterations 4, 8, 12.
  hinch::EventQueue* q = prog->queues().find("q");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->size(), 3u);
}

TEST(Sinks, StoreOffKeepsOnlyChecksum) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="width" value="32"/><param name="height" value="24"/>
      <outport name="out" stream="v"/>
    </component>
    <component name="k" class="frame_sink">
      <inport name="in" stream="v"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 5);
  const components::SinkAccess* sink = find_sink(*prog);
  ASSERT_TRUE(sink);
  EXPECT_EQ(sink->sink().frames(), 5);
  EXPECT_NE(sink->sink().checksum(), media::kHashSeed);
}

// yuv_sink hashes the planes in place when it keeps nothing; the
// checksum and the simulated cost must equal the reassembling store=1
// path's, and both the frame_hash chain over the stored frames.
TEST(Sinks, YuvSinkStoreOffMatchesStoreOn) {
  auto run_mjpeg = [](bool store, uint64_t* cycles) {
    apps::MjpegDecodeConfig c;
    c.width = 37;  // odd: 4:2:0 chroma planes round up to 19x13
    c.height = 25;
    c.clip_frames = 3;
    c.slices = 2;
    c.store_output = store;
    auto prog = build(apps::mjpeg_xspcl(c));
    hinch::RunConfig config;
    config.iterations = 5;
    *cycles = hinch::run_on_sim(*prog, config, hinch::SimParams{}).total_cycles;
    return prog;
  };
  uint64_t off_cycles = 0, on_cycles = 0;
  auto off = run_mjpeg(false, &off_cycles);
  auto on = run_mjpeg(true, &on_cycles);
  ASSERT_TRUE(off && on);
  const components::SinkState& off_sink = find_sink(*off)->sink();
  const components::SinkState& on_sink = find_sink(*on)->sink();
  EXPECT_EQ(off_sink.frames(), 5);
  EXPECT_EQ(on_sink.frames(), 5);
  EXPECT_EQ(off_sink.checksum(), on_sink.checksum());
  EXPECT_EQ(off_cycles, on_cycles);
  uint64_t chained = media::kHashSeed;
  for (int i = 0; i < on_sink.frames(); ++i) {
    media::FramePtr f = on_sink.frame(i);
    EXPECT_EQ(f->format(), media::PixelFormat::kYuv420);
    chained = media::frame_hash(*f, chained);
  }
  EXPECT_EQ(on_sink.checksum(), chained);
}

TEST(Sinks, ResetBetweenRunsClearsState) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="width" value="32"/><param name="height" value="24"/>
      <outport name="out" stream="v"/>
    </component>
    <component name="k" class="frame_sink">
      <inport name="in" stream="v"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 5);
  uint64_t first = find_sink(*prog)->sink().checksum();
  run(*prog, 5);
  EXPECT_EQ(find_sink(*prog)->sink().checksum(), first);
  EXPECT_EQ(find_sink(*prog)->sink().frames(), 5);
}

TEST(SceneChange, FiresOnContentJumpsOnly) {
  // threshold=0 -> every frame pair differs in a moving synthetic clip,
  // so events fire from iteration 1 onward; a huge threshold never fires.
  for (auto [threshold, expected] : {std::pair<int, size_t>{0, 9},
                                     std::pair<int, size_t>{100000, 0}}) {
    auto prog = build(std::string(R"(<xspcl><procedure name="main"><body>
      <component name="s" class="video_source">
        <param name="width" value="48"/><param name="height" value="32"/>
        <outport name="out" stream="v"/>
      </component>
      <component name="d" class="scene_change">
        <param name="queue" value="q"/>
        <param name="event" value="cut"/>
        <param name="threshold" value=")") + std::to_string(threshold) +
                      R"("/>
        <inport name="in" stream="v"/>
        <outport name="out" stream="w"/>
      </component>
      <component name="k" class="frame_sink">
        <inport name="in" stream="w"/>
      </component>
    </body></procedure></xspcl>)");
    ASSERT_TRUE(prog);
    run(*prog, 10);
    // The queue is created lazily on the first send; absent == 0 events.
    hinch::EventQueue* q = prog->queues().find("q");
    size_t events = q ? q->size() : 0;
    EXPECT_EQ(events, expected) << "threshold=" << threshold;
    // Pass-through is intact.
    EXPECT_EQ(find_sink(*prog)->sink().frames(), 10);
  }
}

TEST(Transcode, EncodeSinkRoundTrips) {
  auto prog = build(R"(<xspcl><procedure name="main"><body>
    <component name="s" class="video_source">
      <param name="seed" value="44"/>
      <param name="width" value="64"/><param name="height" value="48"/>
      <param name="frames" value="3"/>
      <outport name="out" stream="v"/>
    </component>
    <component name="e" class="jpeg_encode">
      <param name="quality" value="90"/>
      <param name="restart" value="4"/>
      <inport name="in" stream="v"/>
      <outport name="jpeg" stream="j"/>
    </component>
    <component name="k" class="mjpeg_sink">
      <inport name="in" stream="j"/>
    </component>
  </body></procedure></xspcl>)");
  ASSERT_TRUE(prog);
  run(*prog, 3, 2);
  const components::MjpegSinkAccess* sink = nullptr;
  for (int i = 0; i < prog->component_count(); ++i) {
    auto* s = dynamic_cast<const components::MjpegSinkAccess*>(
        &prog->component(i));
    if (s) sink = s;
  }
  ASSERT_TRUE(sink);
  media::MjpegClip clip = sink->clip();
  ASSERT_EQ(clip.frame_count(), 3);
  // Each compressed frame decodes back near the source content.
  media::SynthSpec spec{.seed = 44, .width = 64, .height = 48};
  for (int i = 0; i < 3; ++i) {
    auto decoded = media::jpeg::decode(clip.frame(i).data(),
                                       clip.frame(i).size());
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    media::FramePtr original = media::make_synth_frame(spec, i);
    EXPECT_GT(media::psnr(*original, *decoded.value()), 30.0) << i;
  }
}

TEST(ClipCache, InsertSurvivesBudgetSmallerThanOneClip) {
  components::clear_clip_caches();
  // Budget below the size of any single clip: the freshly inserted entry
  // must be retained (the caller holds a reference to it), not evicted
  // out from under the returned pointer.
  size_t prev = components::set_clip_cache_budget(1);
  components::ClipKey key{1234, 32, 24, media::PixelFormat::kYuv420, 2, 0};
  auto clip = components::cached_raw_clip(key);
  ASSERT_NE(clip, nullptr);
  EXPECT_EQ(clip->frame_count(), 2);
  EXPECT_GT(components::clip_cache_bytes(), 0u);
  // A second insert evicts the colder entry but again keeps the new one.
  components::ClipKey key2 = key;
  key2.seed = 5678;
  auto clip2 = components::cached_raw_clip(key2);
  ASSERT_NE(clip2, nullptr);
  size_t clip2_bytes = static_cast<size_t>(clip2->frame_count()) *
                       clip2->frame(0)->bytes();
  EXPECT_EQ(components::clip_cache_bytes(), clip2_bytes);
  // The evicted clip stays alive through the caller's shared_ptr.
  EXPECT_EQ(clip->frame_count(), 2);
  components::set_clip_cache_budget(prev);
  components::clear_clip_caches();
}

TEST(Registry, ListsAllStandardClasses) {
  hinch::ComponentRegistry reg;
  components::register_standard(reg);
  for (const char* name :
       {"video_source", "mjpeg_source", "copy", "downscale", "blend",
        "blur_h", "blur_v", "jpeg_decode", "idct", "frame_sink", "yuv_sink",
        "event_ticker", "event_script", "scene_change", "jpeg_encode",
        "mjpeg_sink"}) {
    EXPECT_TRUE(reg.has_class(name)) << name;
  }
  EXPECT_GE(reg.class_names().size(), 13u);
}

}  // namespace
