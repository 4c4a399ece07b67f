// app_streams: long closed-loop streams on the thread backend, run one
// after another — MJPEG 1080p q85, JPiP-1 1280x720, PiP-1 720x576 and
// Blur-5 360x288, each timed on one worker (untraced runs, the gated
// rates) or on a 4-worker pool (traced runs).
//
// Each stream's Program is compiled once in set-up and then run in
// turns: each turn is one long session (about a second or two) on a
// pool of the timed width, until the stream's time share is spent. The
// shares follow the session lengths, so every stream gets the same
// number of turns, at least two per run: a slow spell of the host (they
// last seconds) then costs each stream part of its frames rather than
// all of one stream's. The frame rate comes from
// SessionResult::frame_done_ns: every session is cut into chunks of a
// fixed frame count, the first chunk (pipeline fill, two windows and
// more) is dropped, and the stream's fps is the median chunk rate over
// all its sessions. Frame rate per 16-frame chunk of a 480-frame 1080p
// MJPEG session is flat from the second chunk on (4 workers: first
// chunk 117 f/s, then 104-140 around 125; 1 worker: 56, then 61-66), so
// one chunk of warm-up suffices; the median keeps a burst of CPU steal
// on a shared host from moving the figure while a slower program slows
// every chunk.
//
// Checks: all timed sessions of a stream produce one checksum, and one
// session of the same length at the other width must produce it too
// (for MJPEG: 4 workers equals 1 worker); JPiP, PiP and Blur run one
// more, short session (three clip loops) on 4 workers whose checksum
// must equal the hand-written sequential version of the same frames.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "apps/apps.hpp"
#include "components/components.hpp"
#include "hinch/session.hpp"
#include "media/jpeg.hpp"
#include "media/synth.hpp"
#include "obs/trace.hpp"
#include "phases.hpp"
#include "support/rng.hpp"
#include "xspcl/loader.hpp"

namespace pb {
namespace {

constexpr int kWindow = 5;  // = BuildConfig::stream_depth (the default)

// Clip seeds come from the run seed, but the synthetic clips' JPEG size
// swings by tens of percent between seeds (the checkerboard cell either
// aligns with the 8x8 blocks or not), and entropy decode time with it.
// So a compressed stream takes the first seed-derived clip whose first
// frame encodes within 5% of the size of the reference clip (seed 501,
// the repository's default): content varies with the seed, the
// bitrate — and so the decode work per frame — does not.
uint64_t pick_jpeg_seed(support::SplitMix64& rng, int width, int height,
                        int quality) {
  auto bytes = [&](uint64_t seed) {
    media::FramePtr f = media::make_synth_frame(
        {seed, width, height, media::PixelFormat::kYuv420}, 0);
    auto enc = media::jpeg::encode(*f, quality);
    SUP_CHECK_MSG(enc.is_ok(), enc.status().to_string().c_str());
    return static_cast<double>(enc.value().size());
  };
  const double target = bytes(501);
  uint64_t best = 501;
  double best_err = 1e300;
  for (int i = 0; i < 32; ++i) {
    uint64_t seed = 1 + rng.next_below(1000000);
    double err = std::abs(bytes(seed) / target - 1);
    if (err < best_err) {
      best = seed;
      best_err = err;
    }
    if (err < 0.05) break;
  }
  return best;
}

// Frame rate of every whole `chunk`-frame stretch after the first.
void chunk_fps(const std::vector<uint64_t>& done_ns, int64_t chunk,
               std::vector<double>* out) {
  const size_t c = static_cast<size_t>(chunk);
  for (size_t end = 2 * c - 1; end < done_ns.size(); end += c) {
    const uint64_t dt = done_ns[end] - done_ns[end - c];
    if (dt > 0) out->push_back(static_cast<double>(c) / ns_to_s(dt));
  }
}

}  // namespace

StreamSet make_streams(uint64_t seed) {
  support::SplitMix64 rng(seed ^ 0x5354524541ULL);
  auto clip_seed = [&] { return 1 + rng.next_below(1000000); };
  StreamSet set;
  // Legs: {workers, frames, chunk, weight}, serial then parallel. Frame
  // counts make sessions of one to two seconds; the weights follow them.

  apps::MjpegDecodeConfig mj;
  mj.width = 1920;
  mj.height = 1080;
  mj.quality = 85;
  mj.clip_frames = 8;
  mj.seed = pick_jpeg_seed(rng, mj.width, mj.height, mj.quality);
  mj.window = kWindow;
  set.defs.push_back({"mjpeg", apps::mjpeg_xspcl(mj),
                      {{1, 96, 16, 0.25}, {4, 128, 16, 0.25}}, 0, nullptr,
                      nullptr});

  apps::JpipConfig jp;
  jp.width = 1280;
  jp.height = 720;
  jp.factor = 16;
  jp.slices = 45;
  jp.pips = 1;
  jp.clip_frames = 6;
  jp.bg_seed = pick_jpeg_seed(rng, jp.width, jp.height, jp.quality);
  jp.pip_seed = pick_jpeg_seed(rng, jp.width, jp.height, jp.quality);
  set.defs.push_back({"jpip", apps::jpip_xspcl(jp),
                      {{1, 96, 16, 0.25}, {4, 256, 32, 0.27}},
                      3 * jp.clip_frames,
                      [jp](int64_t frames) {
                        apps::JpipConfig c = jp;
                        c.frames = static_cast<int>(frames);
                        return apps::run_jpip_sequential(c).checksum;
                      },
                      nullptr});

  apps::PipConfig pp;
  pp.width = 720;
  pp.height = 576;
  pp.factor = 4;
  pp.slices = 8;
  pp.pips = 1;
  pp.clip_frames = 8;
  pp.bg_seed = clip_seed();
  pp.pip_seed = clip_seed();
  set.defs.push_back({"pip", apps::pip_xspcl(pp),
                      {{1, 768, 64, 0.25}, {4, 640, 64, 0.25}},
                      3 * pp.clip_frames,
                      [pp](int64_t frames) {
                        apps::PipConfig c = pp;
                        c.frames = static_cast<int>(frames);
                        return apps::run_pip_sequential(c).checksum;
                      },
                      nullptr});

  apps::BlurConfig bl;
  bl.width = 360;
  bl.height = 288;
  bl.kernel = 5;
  bl.slices = 9;
  bl.clip_frames = 8;
  bl.seed = clip_seed();
  set.defs.push_back({"blur", apps::blur_xspcl(bl),
                      {{1, 4096, 256, 0.25}, {4, 3072, 256, 0.23}},
                      3 * bl.clip_frames,
                      [bl](int64_t frames) {
                        apps::BlurConfig c = bl;
                        c.frames = static_cast<int>(frames);
                        return apps::run_blur_sequential(c).checksum;
                      },
                      nullptr});
  return set;
}

void build_streams(StreamSet* set) {
  components::register_standard_globally();
  for (StreamDef& d : set->defs) {
    auto prog =
        xspcl::build_program(d.spec, hinch::ComponentRegistry::global());
    SUP_CHECK_MSG(prog.is_ok(), prog.status().to_string().c_str());
    d.prog = std::move(prog).take();
  }
}

StreamReport run_streams(Run& run, StreamSet& set, double seconds, Width width,
                         HinchAgg* agg) {
  StreamReport rep;
  const bool traced = run.opt.trace;
  const int w = static_cast<int>(width);
  Scope phase(run.spans, "app_streams", "bench");

  struct State {
    uint64_t budget = 0;
    uint64_t spent = 0;
    std::vector<double> chunk_fps;
    int sessions = 0;
    std::vector<uint64_t> checksums;
    std::vector<double> sink_ms, ceiling_fps;
    std::string bound_task;
    bool failed = false;
  };
  std::vector<State> states(set.defs.size());
  for (size_t i = 0; i < set.defs.size(); ++i)
    states[i].budget =
        static_cast<uint64_t>(seconds * set.defs[i].legs[w].weight * 1e9);

  // One session of `d` on a fresh pool of `workers`. The pool lives for
  // the session only: an idle pool's workers keep polling, so no pool of
  // a stream that is not running may exist while another stream is timed.
  // `trace` (optional) is attached to the session.
  auto run_once = [&](StreamDef& d, int workers, int64_t frames,
                      obs::TraceSession* trace, int parent,
                      hinch::SessionResult* r, PoolTotals* pools) {
    hinch::SessionExecutor::Config pool;
    pool.workers = workers;
    hinch::SessionExecutor exec(pool);
    hinch::SessionConfig cfg;
    cfg.run.iterations = frames;
    cfg.run.window = kWindow;
    cfg.name = d.name;
    cfg.record_frame_times = true;
    cfg.trace = trace;
    hinch::SessionPtr s;
    {
      Scope submit(run.spans, "hinch.submit", "hinch", parent);
      s = exec.submit(*d.prog, cfg);
    }
    const uint64_t t0_abs = now_ns();
    *r = s->wait();
    exec.shutdown();
    if (pools) pools->add(exec);
    return t0_abs;
  };

  // One turn of stream `d`: one long timed session at the phase's width.
  auto run_session = [&](StreamDef& d, State& st) {
    const StreamLeg& leg = d.legs[w];
    const uint64_t t_begin = now_ns();
    // Job spans land on every worker; twice a worker's share of the
    // session's jobs (span plus up to three markers each) never wraps.
    std::unique_ptr<obs::TraceSession> trace;
    if (traced)
      trace = std::make_unique<obs::TraceSession>(
          8 * d.prog->tasks().size() * static_cast<size_t>(leg.frames) /
          static_cast<size_t>(leg.workers));
    int session_span =
        run.spans.open("hinch.session " + d.name, "hinch", phase.id());
    hinch::SessionResult r;
    const uint64_t t0_abs =
        run_once(d, leg.workers, leg.frames, trace.get(), session_span, &r,
                 traced ? &agg->pools : nullptr);
    run.spans.close(session_span);
    st.spent += now_ns() - t_begin;
    if (r.status != hinch::SessionStatus::kDone ||
        r.iterations_done != leg.frames) {
      run.checks.fail("stream " + d.name + " session did not complete");
      st.failed = true;
      return;
    }
    ++st.sessions;
    chunk_fps(r.frame_done_ns, leg.chunk, &st.chunk_fps);
    st.checksums.push_back(sink_checksum(*d.prog));
    if (!traced) return;
    TaskSpanStats ts = import_task_spans(run, *trace, *d.prog, t0_abs,
                                         leg.frames, session_span);
    agg->add(ts, leg.frames, r.wall_seconds, leg.workers);
    st.sink_ms.push_back(ts.sink_ms_per_iter);
    if (ts.max_task_ms_per_iter > 0)
      st.ceiling_fps.push_back(1000.0 / ts.max_task_ms_per_iter);
    st.bound_task = ts.max_task;
  };

  // Streams take turns, one session each per round, until every stream
  // has used its share: a slow spell on a shared host then costs every
  // stream a session or two instead of all of one stream's sessions.
  for (bool more = true; more;) {
    more = false;
    for (size_t i = 0; i < set.defs.size(); ++i) {
      State& st = states[i];
      if (st.failed || (st.sessions >= 2 && st.spent >= st.budget)) continue;
      run_session(set.defs[i], st);
      more = true;
    }
  }

  for (size_t i = 0; i < set.defs.size(); ++i) {
    StreamDef& d = set.defs[i];
    const StreamLeg& leg = d.legs[w];
    State& st = states[i];
    const double f = median(st.chunk_fps);
    rep.fps.emplace_back(
        d.name + (width == Width::kSerial ? ".fps_1w" : ".fps"), f);
    std::fprintf(stderr, "  stream %-5s %d workers %d sessions x %4lld "
                 "frames  %.1f f/s (chunks %.1f-%.1f)\n", d.name.c_str(),
                 leg.workers, st.sessions, static_cast<long long>(leg.frames),
                 f, percentile(st.chunk_fps, 0.1),
                 percentile(st.chunk_fps, 0.9));
    if (d.name == "mjpeg") {
      rep.mjpeg_sink_ms = median(st.sink_ms);
      rep.mjpeg_ceiling_fps = median(st.ceiling_fps);
      rep.mjpeg_bound_task = st.bound_task;
    }
    if (st.checksums.empty()) continue;

    // Verification, after every timed session: the timed sessions agree
    // with each other and with one session of the other width.
    for (uint64_t c : st.checksums)
      run.checks.expect_eq(c, st.checksums.front(), d.name + " sessions");
    {
      const StreamLeg& other = d.legs[1 - w];
      Scope s(run.spans, "stream.cross_width_check", "bench", phase.id());
      hinch::SessionResult r;
      run_once(d, other.workers, leg.frames, nullptr, s.id(), &r, nullptr);
      uint64_t want = r.status == hinch::SessionStatus::kDone
                          ? sink_checksum(*d.prog)
                          : 0;
      if (run.opt.inject == "checksum" && d.name == "mjpeg") want ^= 1;
      run.checks.expect_eq(st.checksums.front(), want,
                           d.name + " " + std::to_string(leg.workers) +
                               "-worker vs " + std::to_string(other.workers) +
                               "-worker checksum");
    }
    if (d.reference) {
      const StreamLeg& par = d.legs[static_cast<int>(Width::kParallel)];
      Scope s(run.spans, "stream.reference_check", "bench", phase.id());
      hinch::SessionResult r;
      run_once(d, par.workers, d.ref_frames, nullptr, s.id(), &r, nullptr);
      uint64_t got =
          r.status == hinch::SessionStatus::kDone ? sink_checksum(*d.prog) : 0;
      Scope ref(run.spans, "apps.sequential_reference", "apps", s.id());
      run.checks.expect_eq(got, d.reference(d.ref_frames),
                           d.name + " vs hand-written sequential checksum");
    }
  }
  return rep;
}

}  // namespace pb
