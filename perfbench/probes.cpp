// Per-layer probes of traced runs. Each probe calls one layer's public
// functions directly, repeatedly, and reports the median time per call;
// every call is wrapped in a span of its layer.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "components/components.hpp"
#include "hinch/program.hpp"
#include "media/jpeg.hpp"
#include "media/kernels.hpp"
#include "media/metrics.hpp"
#include "media/synth.hpp"
#include "phases.hpp"
#include "sp/pass.hpp"
#include "xml/parser.hpp"
#include "xspcl/loader.hpp"

namespace pb {
namespace {

// Median over `reps` batches of the per-call time (ms) of `fn`; each
// batch repeats the call until it has run for at least `batch_ms`.
template <typename Fn>
double time_ms(int reps, double batch_ms, Fn&& fn) {
  fn();  // warm caches and lazy state
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    int calls = 0;
    uint64_t t0 = now_ns();
    do {
      fn();
      ++calls;
    } while (ns_to_ms(now_ns() - t0) < batch_ms);
    per_call.push_back(ns_to_ms(now_ns() - t0) / calls);
  }
  return median(per_call);
}

struct TierName {
  media::KernelDispatch tier;
  const char* name;
};

constexpr TierName kTiers[] = {{media::KernelDispatch::kScalar, "scalar"},
                               {media::KernelDispatch::kSse2, "sse2"},
                               {media::KernelDispatch::kAvx2, "avx2"}};

// Restores automatic tier selection however the probe exits.
struct DispatchRestore {
  DispatchRestore() = default;
  DispatchRestore(const DispatchRestore&) = delete;
  DispatchRestore& operator=(const DispatchRestore&) = delete;
  ~DispatchRestore() { media::set_kernel_dispatch(media::KernelDispatch::kAuto); }
};

}  // namespace

void probe_front_end(Run& run, const std::vector<std::string>& specs) {
  components::register_standard_globally();
  Scope probe(run.spans, "probe.front_end", "bench");
  sp::PassOptions all;
  all.kernel_patterns = &components::standard_fusions();
  std::vector<sp::Pass> passes;
  for (const sp::PassInfo& info : sp::registered_passes()) {
    auto p = sp::pass_by_name(info.name, all);
    SUP_CHECK_MSG(p.is_ok(), p.status().to_string().c_str());
    passes.push_back(std::move(p).take());
  }
  constexpr int kReps = 5;
  std::vector<double> xml_us, load_us, build_ms;
  std::vector<std::vector<double>> pass_us(passes.size());
  for (int rep = 0; rep < kReps; ++rep) {
    double x = 0, l = 0, b = 0;
    std::vector<double> pu(passes.size(), 0.0);
    for (const std::string& spec : specs) {
      uint64_t t0 = now_ns();
      {
        Scope s(run.spans, "xml.parse", "xml", probe.id());
        auto doc = xml::parse(spec);
        SUP_CHECK_MSG(doc.is_ok(), doc.status().to_string().c_str());
      }
      uint64_t t1 = now_ns();
      sp::NodePtr graph;
      {
        Scope s(run.spans, "xspcl.load_string", "xspcl", probe.id());
        auto g = xspcl::load_string(spec);
        SUP_CHECK_MSG(g.is_ok(), g.status().to_string().c_str());
        graph = std::move(g).take();
      }
      uint64_t t2 = now_ns();
      x += static_cast<double>(t1 - t0) / 1e3;
      l += static_cast<double>(t2 - t1) / 1e3;
      // The whole pipeline on one clone, in registered order, so each
      // pass is timed on its predecessor's output as in a real compile.
      sp::NodePtr stage = graph->clone();
      for (size_t i = 0; i < passes.size(); ++i) {
        uint64_t p0 = now_ns();
        Scope s(run.spans, "sp.pass." + passes[i].name, "sp", probe.id());
        auto out = passes[i].run(std::move(stage));
        SUP_CHECK_MSG(out.is_ok(), out.status().to_string().c_str());
        stage = std::move(out).take();
        pu[i] += static_cast<double>(now_ns() - p0) / 1e3;
      }
      hinch::BuildConfig cfg;
      cfg.passes = sp::PassOptions::none();
      uint64_t b0 = now_ns();
      {
        Scope s(run.spans, "hinch.Program::build", "hinch", probe.id());
        auto prog = hinch::Program::build(
            *graph, hinch::ComponentRegistry::global(), cfg);
        SUP_CHECK_MSG(prog.is_ok(), prog.status().to_string().c_str());
      }
      b += ns_to_ms(now_ns() - b0);
    }
    const double n = static_cast<double>(specs.size());
    xml_us.push_back(x / n);
    load_us.push_back(l / n);
    build_ms.push_back(b / n);
    for (size_t i = 0; i < passes.size(); ++i) pass_us[i].push_back(pu[i] / n);
  }
  run.metrics.set("xml.parse_us", median(xml_us), "us");
  run.metrics.set("xspcl.load_us", median(load_us), "us");
  run.metrics.set("hinch.program_build_ms", median(build_ms), "ms");
  for (size_t i = 0; i < passes.size(); ++i)
    run.metrics.set("sp.pass." + passes[i].name + "_us", median(pass_us[i]),
                    "us");
}

void probe_kernels(Run& run) {
  Scope probe(run.spans, "probe.kernels", "bench");
  DispatchRestore restore;
  // The workload's own frame sizes: the small tenant frames for
  // tenant_mix, the paper-scale PiP / Blur frames otherwise.
  const bool small = run.opt.workload == Workload::kTenantMix;
  const int blur_w = small ? 176 : 360, blur_h = small ? 144 : 288;
  const int pip_w = small ? 176 : 720, pip_h = small ? 144 : 576;
  const uint64_t seed = run.opt.seed;
  media::FramePtr blur_src =
      media::make_synth_frame({seed, blur_w, blur_h, media::PixelFormat::kYuv420}, 0);
  media::FramePtr pip_bg =
      media::make_synth_frame({seed + 1, pip_w, pip_h, media::PixelFormat::kYuv420}, 0);
  media::FramePtr pip_src =
      media::make_synth_frame({seed + 2, pip_w, pip_h, media::PixelFormat::kYuv420}, 0);
  media::FramePtr blur_dst =
      media::make_frame(media::PixelFormat::kGray, blur_w, blur_h);
  media::FramePtr canvas = media::make_frame(media::PixelFormat::kGray, pip_w, pip_h);
  media::FramePtr small_fg =
      media::make_frame(media::PixelFormat::kGray, pip_w / 4, pip_h / 4);
  media::downscale_box(pip_src->plane(0), small_fg->plane(0), 4, 0, pip_h / 4);
  const int px = pip_w - pip_w / 4 - 8, py = 8;

  struct Kernel {
    const char* name;
    std::function<void()> fn;
  };
  const media::ConstPlaneView by = blur_src->plane(0);
  const media::ConstPlaneView bg = pip_bg->plane(0);
  const media::ConstPlaneView src = pip_src->plane(0);
  std::vector<Kernel> kernels = {
      {"blur_h_k5", [&] { media::blur_h(by, blur_dst->plane(0), 5, 0, blur_h); }},
      {"blur_v_k5", [&] { media::blur_v(by, blur_dst->plane(0), 5, 0, blur_h); }},
      {"blur_hv_k5", [&] { media::blur_hv(by, blur_dst->plane(0), 5, 0, blur_h); }},
      {"downscale_box_f4",
       [&] { media::downscale_box(src, small_fg->plane(0), 4, 0, pip_h / 4); }},
      {"downscale_blend_f4",
       [&] {
         media::copy_plane(bg, canvas->plane(0), 0, pip_h);
         media::downscale_blend(src, canvas->plane(0), 4, px, py, 192, py,
                                py + pip_h / 4);
       }},
      {"blend",
       [&] {
         media::copy_plane(bg, canvas->plane(0), 0, pip_h);
         media::blend(small_fg->plane(0), canvas->plane(0), px, py, 192, py,
                      py + pip_h / 4);
       }},
  };
  for (const Kernel& k : kernels) {
    double scalar_ms = 0;
    for (const TierName& t : kTiers) {
      const std::string name = std::string("media.") + k.name + "_ms." + t.name;
      if (!media::kernel_dispatch_available(t.tier)) {
        // Reported as 0 so the metric set stays the same on every host.
        std::fprintf(stderr, "  kernel tier %s unavailable on this host\n",
                     t.name);
        run.metrics.set(name, 0, "ms");
        if (t.tier != media::KernelDispatch::kScalar)
          run.metrics.set(std::string("media.") + k.name + "_vs_scalar." +
                              t.name,
                          0, "x");
        continue;
      }
      media::set_kernel_dispatch(t.tier);
      Scope s(run.spans, std::string(k.name) + "." + t.name, "media",
              probe.id());
      double ms = time_ms(5, 4.0, k.fn);
      run.metrics.set(name, ms, "ms");
      if (t.tier == media::KernelDispatch::kScalar) {
        scalar_ms = ms;
      } else {
        run.metrics.set(std::string("media.") + k.name + "_vs_scalar." + t.name,
                        ms > 0 ? scalar_ms / ms : 0, "x");
      }
    }
  }
}

void probe_decode(Run& run) {
  Scope probe(run.spans, "probe.decode", "bench");
  // Two 1080p frames of the MJPEG stream's kind (quality 85).
  std::vector<std::vector<uint8_t>> jpegs;
  for (int t = 0; t < 2; ++t) {
    media::FramePtr f = media::make_synth_frame(
        {run.opt.seed + 7, 1920, 1080, media::PixelFormat::kYuv420}, t);
    auto enc = media::jpeg::encode(*f, 85);
    SUP_CHECK_MSG(enc.is_ok(), enc.status().to_string().c_str());
    jpegs.push_back(std::move(enc).take());
  }
  media::jpeg::CoeffImage img;
  size_t next = 0;
  double entropy = 0;
  {
    Scope s(run.spans, "media.entropy_decode", "media", probe.id());
    entropy = time_ms(7, 20.0, [&] {
      const std::vector<uint8_t>& j = jpegs[next++ % jpegs.size()];
      SUP_CHECK(media::jpeg::decode_to_coefficients_into(j.data(), j.size(),
                                                         &img)
                    .is_ok());
    });
  }
  media::FramePtr out = media::make_frame(media::PixelFormat::kYuv420, 1920, 1080);
  double idct = 0;
  {
    Scope s(run.spans, "media.idct", "media", probe.id());
    idct = time_ms(7, 20.0, [&] {
      for (size_t c = 0; c < img.comps.size(); ++c)
        media::jpeg::idct_component(img.comps[c], out->plane(static_cast<int>(c)),
                                    0, img.comps[c].blocks_h);
    });
  }
  double hash = 0;
  {
    Scope s(run.spans, "media.frame_hash", "media", probe.id());
    hash = time_ms(7, 20.0, [&] { (void)media::frame_hash(*out); });
  }
  run.metrics.set("media.entropy_ms_per_frame", entropy, "ms");
  run.metrics.set("media.idct_ms_per_frame", idct, "ms");
  run.metrics.set("media.frame_hash_ms", hash, "ms");
}

}  // namespace pb
