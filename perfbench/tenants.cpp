// tenant_mix: the hinchd tenant path driven in process. Each tenant goes
// through apps::builtin_xspcl -> SpecCache::build_program ->
// SessionExecutor::submit, and its session is harvested (Session::wait,
// output checksum) once finished.
//
// Untraced runs drive it closed loop (run_tenants_serial) on a 1-worker
// pool: the caller builds and submits tenants and harvests the oldest
// once kClosedLoopDepth are in flight, so the worker never waits. The
// gated figure is tenants served per CPU-second of the process (the
// caller's front end and harvest plus the worker's sessions: the whole
// path's cost per tenant), taken over chunks of 144 tenants (one miss
// of each app) as the median chunk rate. It is CPU time rather than wall
// time so that time the host takes the virtual CPUs away (steal) does
// not count: by wall time, whole runs made in a spell of host load read
// 25-40% slow, every chunk alike.
//
// Traced runs drive it open loop (run_tenants): one generator thread
// (the caller) and a 3-worker SessionExecutor keep the run within four
// host threads. Every latency is measured from the moment the tenant was
// due, so a stalled generator charges its stall to the tenants behind
// it. The phase first runs at a fixed reference rate, well below the knee,
// for the latency metrics. The rest is a capacity search: an up-down
// staircase of short fixed-rate steps that climbs after every step that
// holds and falls after every step that does not, by 20% at first and
// by a factor that shrinks at every reversal down to 4%. The staircase is not
// bounded above, so the sustained rate it reports is the program's own
// knee, not a ceiling of the schedule.
//
// Tenants are seeded draws of pip/blur/jpip at small frame sizes; one in
// kMissEvery asks for a resolution no earlier tenant used, so both the
// SpecCache and the clip cache miss on it. After the timed rates, every
// tenant's checksum is compared with a solo 1-worker run of the same
// spec and iteration count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>

#include "apps/catalog.hpp"
#include "components/clip_cache.hpp"
#include "components/components.hpp"
#include "hinch/session.hpp"
#include "hinch/thread_executor.hpp"
#include "obs/trace.hpp"
#include "phases.hpp"
#include "support/rng.hpp"
#include "xspcl/loader.hpp"
#include "xspcl/spec_cache.hpp"

namespace pb {
namespace {

constexpr int kPoolWorkers = 3;  // + the generator thread = 4 host threads
constexpr int kWindow = 5;
constexpr int kMissEvery = 48;
// Tenants in flight in the closed loop: enough that the pool's worker
// always has the next session queued and never parks between sessions
// (waking a parked worker on a virtual CPU costs a swinging fraction of
// a session).
constexpr size_t kClosedLoopDepth = 4;
// The reference rate (tenants/s) the latency metrics are reported at,
// about a quarter of the knee of this mix on a 4-core x86 host (near
// 1150/s), and the share of the phase it runs for.
constexpr double kRefRate = 300;
constexpr double kRefShare = 0.2;
// Capacity staircase: first rate (a little below that knee, so the
// search spends its steps near it), the first and the smallest factor
// between steps, and the length of one step. The factor stops shrinking
// at 4%, so the staircase keeps up when the host's speed, and with it
// the knee, drifts during the run.
constexpr double kStartRate = 900;
constexpr double kStartFactor = 1.2;
constexpr double kFineFactor = 1.04;
constexpr double kStepSeconds = 0.5;
// A step holds when every tenant completes, the first-frame p99 stays
// within the limit, and the backlog does not grow: the last quarter of
// the step's tenants waits at most kGrowthMs longer (mean, due -> first
// frame) than the first quarter.
constexpr double kFirstFrameP99LimitMs = 100;
constexpr double kGrowthMs = 5;
// A step whose backlog passes this many sessions in flight, about the
// p99 limit's worth of work at the knee, stops there and does not hold.
// Steps that hold peak near 100; the cut keeps an overloaded step's
// backlog (each session holds its Program's stream buffers) from
// setting the run's peak memory.
constexpr size_t kMaxInFlight = 128;

struct AppShape {
  const char* app;
  int width;
  int height;
  std::vector<apps::CatalogParam> extra;
};

const std::vector<AppShape>& shapes() {
  static const std::vector<AppShape> kShapes = {
      {"pip", 176, 144, {{"factor", "4"}, {"slices", "2"}}},
      {"blur", 176, 144, {{"kernel", "5"}, {"slices", "3"}}},
      {"jpip", 192, 128, {{"factor", "4"}, {"slices", "2"}}},
  };
  return kShapes;
}

constexpr int64_t kIterChoices[3] = {8, 12, 16};

// One drawn tenant.
struct Draw {
  int shape = 0;
  int width = 0;
  int height = 0;
  int64_t iterations = 0;
};

}  // namespace

class TenantSource {
  static constexpr int kMissCells = 144;

 public:
  explicit TenantSource(uint64_t seed) : rng_(seed ^ 0x54454e414e54ULL) {
    miss_phase_ = static_cast<int>(rng_.next_below(kMissEvery));
    // Miss sizes: one fixed order over a 12 x 12 grid of 8-pixel steps
    // below each app's base size, the same for every seed, so every run
    // pays for the same sequence of misses.
    support::SplitMix64 order(0x4d495353);
    for (int i = 0; i < kMissCells; ++i) miss_cells_.push_back(i);
    for (int i = kMissCells - 1; i > 0; --i)
      std::swap(miss_cells_[static_cast<size_t>(i)],
                miss_cells_[order.next_below(static_cast<uint64_t>(i + 1))]);
  }

  Draw next() {
    Draw d;
    d.shape = static_cast<int>(rng_.next_below(shapes().size()));
    d.iterations = kIterChoices[rng_.next_below(3)];
    const bool miss = count_++ % kMissEvery == miss_phase_;
    if (miss) {
      // Misses take the apps in turn, so every run has the same mix of
      // (cheap) raw-clip and (dear) JPEG-clip misses.
      d.shape = static_cast<int>(misses_ % shapes().size());
    }
    const AppShape& s = shapes()[static_cast<size_t>(d.shape)];
    d.width = s.width;
    d.height = s.height;
    if (miss) {
      // 144 sizes per app: at 1200 tenants/s, one in 48 a miss, 17 s of
      // tenant phase never reuse one.
      int cell = miss_cells_[static_cast<size_t>(
          misses_ / static_cast<int64_t>(shapes().size()) % kMissCells)];
      // Smaller than the base size, so the clips the misses leave in the
      // clip cache stay a small share of the process's memory, and the
      // peak RSS hardly depends on how many tenants the run admitted.
      d.width -= 8 * (1 + cell % 12);
      d.height -= 8 * (1 + cell / 12);
      ++misses_;
    }
    return d;
  }

 private:
  support::SplitMix64 rng_;
  int miss_phase_ = 0;
  int64_t count_ = 0;
  int64_t misses_ = 0;
  std::vector<int> miss_cells_;
};

namespace {

std::vector<apps::CatalogParam> params_of(const Draw& d) {
  const AppShape& s = shapes()[static_cast<size_t>(d.shape)];
  std::vector<apps::CatalogParam> p = s.extra;
  p.emplace_back("width", std::to_string(d.width));
  p.emplace_back("height", std::to_string(d.height));
  return p;
}

struct Tenant {
  Draw draw;
  int spec = -1;  // index into the spec table
  uint64_t due = 0;
  uint64_t handled = 0;       // generator picked it up
  uint64_t submit_start = 0;
  uint64_t submit_end = 0;    // session running (admission is uncapped)
  double build_ms = 0;
  bool spec_hit = false;
  bool clip_hit = false;
  // Harvest.
  bool ok = false;
  double first_frame_ms = 0;
  double session_ms = 0;
  uint64_t checksum = 0;
  hinch::SessionPtr session;
  std::unique_ptr<obs::TraceSession> trace;
  int span = -1;
  int session_span = -1;
  bool trace_jobs = false;  // job spans go into the span log
};

// Draws the tenant's spec and builds its program through the spec cache,
// recording the cache outcome in `t`. Null (and one failed check) when
// the build fails.
std::unique_ptr<hinch::Program> build_tenant(
    Run& run, xspcl::SpecCache& cache, Tenant& t,
    std::vector<std::string>& spec_table,
    std::map<std::string, int>& spec_index) {
  const AppShape& shape = shapes()[static_cast<size_t>(t.draw.shape)];
  std::string spec;
  {
    Scope s(run.spans, "apps.builtin_xspcl", "apps", t.span);
    auto r = apps::builtin_xspcl(shape.app, params_of(t.draw));
    SUP_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
    spec = std::move(r).take();
  }
  auto [it, inserted] =
      spec_index.emplace(spec, static_cast<int>(spec_table.size()));
  if (inserted) spec_table.push_back(spec);
  t.spec = it->second;

  const uint64_t hits_before = cache.stats().hits;
  const size_t clip_bytes_before = components::clip_cache_bytes();
  Scope s(run.spans, "xspcl.spec_cache.build_program", "xspcl", t.span);
  uint64_t b0 = now_ns();
  auto r = cache.build_program(spec, hinch::ComponentRegistry::global());
  t.build_ms = ns_to_ms(now_ns() - b0);
  if (!r.is_ok()) {
    run.checks.fail("tenant build: " + r.status().to_string());
    return nullptr;
  }
  t.spec_hit = cache.stats().hits > hits_before;
  t.clip_hit = components::clip_cache_bytes() <= clip_bytes_before;
  return std::move(r).take();
}

// Every tenant's output checksum against a solo 1-worker run of its spec
// and iteration count.
void verify_tenants(Run& run, const std::vector<std::unique_ptr<Tenant>>& tenants,
                    const std::vector<std::string>& spec_table, int parent) {
  Scope verify(run.spans, "tenant.verify", "bench", parent);
  std::map<std::pair<int, int64_t>, uint64_t> solo;
  for (const auto& tp : tenants) {
    const Tenant& t = *tp;
    if (t.submit_end == 0) continue;  // build failure, already counted
    if (!t.ok) {
      run.checks.fail("tenant session did not complete");
      continue;
    }
    auto key = std::make_pair(t.spec, t.draw.iterations);
    auto it = solo.find(key);
    if (it == solo.end()) {
      auto prog = xspcl::build_program(spec_table[static_cast<size_t>(t.spec)],
                                       hinch::ComponentRegistry::global());
      SUP_CHECK_MSG(prog.is_ok(), prog.status().to_string().c_str());
      hinch::RunConfig rc;
      rc.iterations = t.draw.iterations;
      rc.window = kWindow;
      hinch::run_on_threads(*prog.value(), rc, 1);
      uint64_t want = sink_checksum(*prog.value());
      if (run.opt.inject == "checksum" && solo.empty()) want ^= 1;
      it = solo.emplace(key, want).first;
    }
    run.checks.expect_eq(t.checksum, it->second,
                         "tenant vs solo run of " +
                             std::string(shapes()[static_cast<size_t>(
                                 t.draw.shape)].app));
  }
}

}  // namespace

TenantSetup setup_tenants() {
  components::register_standard_globally();
  TenantSetup setup;
  setup.cache = std::make_unique<xspcl::SpecCache>();
  for (const AppShape& s : shapes()) {
    Draw d;
    d.shape = static_cast<int>(&s - shapes().data());
    d.width = s.width;
    d.height = s.height;
    auto spec = apps::builtin_xspcl(s.app, params_of(d));
    SUP_CHECK_MSG(spec.is_ok(), spec.status().to_string().c_str());
    setup.hit_specs.push_back(spec.value());
    auto prog = setup.cache->build_program(spec.value(),
                                           hinch::ComponentRegistry::global());
    SUP_CHECK_MSG(prog.is_ok(), prog.status().to_string().c_str());
  }
  return setup;
}

TenantReport run_tenants(Run& run, TenantSetup& setup, double seconds,
                         HinchAgg* agg) {
  TenantReport rep;
  const bool traced = run.opt.trace;
  Scope phase(run.spans, "tenant_mix", "bench");
  xspcl::SpecCache& cache = *setup.cache;
  if (!setup.source) setup.source = std::make_unique<TenantSource>(run.opt.seed);
  TenantSource& source = *setup.source;

  hinch::SessionExecutor::Config pool_cfg;
  pool_cfg.workers = kPoolWorkers;
  hinch::SessionExecutor exec(pool_cfg);

  std::vector<std::string> spec_table;
  std::map<std::string, int> spec_index;
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::deque<Tenant*> inflight;

  auto harvest = [&](Tenant& t) {
    hinch::SessionResult r = t.session->wait();
    t.ok = r.status == hinch::SessionStatus::kDone &&
           r.iterations_done == t.draw.iterations && !r.frame_done_ns.empty();
    if (t.ok) {
      t.first_frame_ms = ns_to_ms(t.submit_end + r.frame_done_ns.front() - t.due);
      t.session_ms = ns_to_ms(t.submit_end + r.frame_done_ns.back() - t.due);
      t.checksum = sink_checksum(t.session->program());
    }
    if (traced) {
      uint64_t end = t.submit_end + static_cast<uint64_t>(r.wall_seconds * 1e9);
      run.spans.close_at(t.session_span, end);
      run.spans.close_at(t.span, end);
      TaskSpanStats st = import_task_spans(
          run, *t.trace, t.session->program(), t.submit_end, t.draw.iterations,
          t.trace_jobs ? t.session_span : t.span, t.trace_jobs);
      agg->add(st, t.draw.iterations, r.wall_seconds, kPoolWorkers);
      t.trace.reset();
    }
    t.session.reset();  // releases the Program
  };
  auto harvest_finished = [&] {
    for (auto it = inflight.begin(); it != inflight.end();) {
      if ((*it)->session->finished()) {
        harvest(**it);
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
  };

  // One fixed-rate step: `n` tenants due every 1/rate seconds, then a
  // drain, so every step starts from an empty pool. Traced runs trace
  // every session for the executor statistics, but only steps with
  // `trace_jobs` put each job into the span log: the staircase runs
  // over ten thousand sessions, whose jobs would make the Chrome trace
  // hundreds of megabytes.
  struct StepResult {
    double rate = 0;
    size_t first = 0, end = 0;  // tenants[first, end)
    std::vector<double> first_ms, session_ms;
    size_t done = 0;
    double growth_ms = 0;
    double achieved_per_s = 0;
    size_t max_inflight = 0;
    bool cut_short = false;
    bool holds = false;
  };
  auto run_step = [&](double rate, size_t n, int parent, bool trace_jobs) {
    StepResult sr;
    sr.rate = rate;
    sr.first = tenants.size();
    const uint64_t period = static_cast<uint64_t>(1e9 / rate);
    const uint64_t t_start = now_ns() + 1000000;
    Scope step_scope(run.spans,
                     "rate " + std::to_string(std::lround(rate)) + "/s",
                     "bench", parent);
    for (size_t i = 0; i < n; ++i) {
      auto tp = std::make_unique<Tenant>();
      Tenant& t = *tp;
      t.draw = source.next();
      t.due = t_start + i * period;
      sleep_until_ns(t.due);
      t.handled = now_ns();
      t.span = run.spans.open("tenant", "bench", step_scope.id());
      t.trace_jobs = trace_jobs;
      const AppShape& shape = shapes()[static_cast<size_t>(t.draw.shape)];
      std::unique_ptr<hinch::Program> prog =
          build_tenant(run, cache, t, spec_table, spec_index);
      if (!prog) {
        run.spans.close(t.span);
        tenants.push_back(std::move(tp));
        continue;
      }

      hinch::SessionConfig cfg;
      cfg.run.iterations = t.draw.iterations;
      cfg.run.window = kWindow;
      cfg.name = shape.app;
      cfg.record_frame_times = true;
      if (traced) {
        // Room for every job of the session on one lane (span plus up to
        // three markers each), so small sessions never wrap.
        t.trace = std::make_unique<obs::TraceSession>(
            4 * prog->tasks().size() * static_cast<size_t>(t.draw.iterations));
        cfg.trace = t.trace.get();
      }
      {
        Scope s(run.spans, "hinch.submit", "hinch", t.span);
        t.submit_start = now_ns();
        t.session = exec.submit(std::move(prog), cfg);
        t.submit_end = now_ns();
      }
      if (trace_jobs)
        t.session_span = run.spans.open("hinch.session", "hinch", t.span);
      inflight.push_back(&t);
      tenants.push_back(std::move(tp));
      harvest_finished();
      sr.max_inflight = std::max(sr.max_inflight, inflight.size());
      if (inflight.size() > kMaxInFlight) {
        sr.cut_short = true;
        break;
      }
    }
    while (!inflight.empty()) {
      harvest(*inflight.front());
      inflight.pop_front();
    }
    sr.end = tenants.size();
    uint64_t last_done = t_start;
    for (size_t i = sr.first; i < sr.end; ++i) {
      const Tenant& t = *tenants[i];
      if (!t.ok) continue;
      sr.first_ms.push_back(t.first_frame_ms);
      sr.session_ms.push_back(t.session_ms);
      ++sr.done;
      last_done =
          std::max(last_done, t.due + static_cast<uint64_t>(t.session_ms * 1e6));
    }
    // Backlog growth: mean first-frame wait of the last quarter of the
    // step's tenants over that of the first quarter (in due order).
    const size_t q = std::max<size_t>(1, sr.first_ms.size() / 4);
    double head = 0, tail = 0;
    for (size_t i = 0; i < q && i < sr.first_ms.size(); ++i) {
      head += sr.first_ms[i];
      tail += sr.first_ms[sr.first_ms.size() - 1 - i];
    }
    sr.growth_ms = (tail - head) / static_cast<double>(q);
    sr.achieved_per_s =
        last_done > t_start ? static_cast<double>(sr.done) /
                                  ns_to_s(last_done - t_start)
                            : 0;
    sr.holds = !sr.cut_short && sr.done == n && sr.growth_ms <= kGrowthMs &&
               percentile(sr.first_ms, 0.99) <= kFirstFrameP99LimitMs;
    return sr;
  };

  // Reference rate: the latency metrics and the per-tenant front-end
  // and submit figures.
  const size_t ref_n = std::max<size_t>(
      16, static_cast<size_t>(seconds * kRefShare * kRefRate));
  const StepResult ref = run_step(kRefRate, ref_n, phase.id(), true);
  std::fprintf(stderr,
               "  tenants %4.0f/s: %4zu done  first-frame p50 %.2f ms p99 "
               "%.2f ms  session p50 %.2f ms\n",
               kRefRate, ref.done, median(ref.first_ms),
               percentile(ref.first_ms, 0.99), median(ref.session_ms));

  // Capacity staircase until the phase's time is spent: up after a step
  // that holds, down after one that does not; the factor shrinks to its
  // square root at every reversal until it reaches the fine factor.
  std::vector<StepResult> steps;
  {
    Scope stair(run.spans, "capacity staircase", "bench", phase.id());
    const uint64_t stair_end =
        now_ns() + static_cast<uint64_t>(seconds * (1 - kRefShare) * 1e9);
    double rate = kStartRate, factor = kStartFactor;
    while (steps.empty() || now_ns() < stair_end) {
      const size_t n =
          std::max<size_t>(16, static_cast<size_t>(rate * kStepSeconds));
      steps.push_back(run_step(rate, n, stair.id(), false));
      const StepResult& sr = steps.back();
      if (steps.size() > 1 && sr.holds != steps[steps.size() - 2].holds)
        factor = std::max(kFineFactor, std::sqrt(factor));
      rate = sr.holds ? rate * factor : rate / factor;
    }
  }
  // The sustained rate: the median completion rate the steps achieved
  // from the staircase's first reversal on, while it tracked the knee
  // (a step below the knee completes what it is offered, one above it
  // what the program can). If no step ever failed, the knee was out of
  // reach and the best step that held stands in.
  size_t first_reversal = steps.size();
  for (size_t i = 1; i < steps.size(); ++i)
    if (steps[i].holds != steps[i - 1].holds) {
      first_reversal = i;
      break;
    }
  std::vector<double> tracked;
  double best_held = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i >= first_reversal) tracked.push_back(steps[i].achieved_per_s);
    if (steps[i].holds)
      best_held = std::max(best_held, steps[i].achieved_per_s);
  }
  rep.sustained_per_s = tracked.empty() ? best_held : median(tracked);
  std::fprintf(stderr, "  tenant staircase (x: did not hold):");
  for (const StepResult& sr : steps)
    std::fprintf(stderr, " %.0f%s", sr.rate, sr.holds ? "" : "x");
  std::fprintf(stderr, "  -> sustained %.1f/s over %zu steps%s\n",
               rep.sustained_per_s, tracked.size(),
               tracked.empty() ? "  (no reversal: knee out of reach)" : "");

  rep.first_frame_p50_ms = median(ref.first_ms);
  rep.first_frame_p99_ms = percentile(ref.first_ms, 0.99);
  rep.session_p50_ms = median(ref.session_ms);
  exec.shutdown();
  if (traced) agg->pools.add(exec);

  // Generator lateness, submit and admission at the reference rate (the
  // staircase overloads the pool on purpose); cache figures over all.
  std::vector<double> late, submit, admission, hit_ms, miss_ms;
  size_t spec_hits = 0, clip_hits = 0, built = 0;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const Tenant& t = *tenants[i];
    const bool at_ref = i < ref.end;
    if (at_ref)
      late.push_back(ns_to_ms(t.handled > t.due ? t.handled - t.due : 0));
    if (t.submit_end == 0) continue;
    ++built;
    if (at_ref) {
      submit.push_back(static_cast<double>(t.submit_end - t.submit_start) /
                       1e3);
      admission.push_back(ns_to_ms(t.submit_end - t.due));
    }
    (t.spec_hit ? hit_ms : miss_ms).push_back(t.build_ms);
    spec_hits += t.spec_hit;
    clip_hits += t.clip_hit;
  }
  rep.late_p99_ms = percentile(late, 0.99);
  rep.submit_us = median(submit);
  rep.admission_wait_ms = median(admission);
  rep.hit_build_ms = median(hit_ms);
  rep.miss_build_ms = median(miss_ms);
  rep.spec_hit_ratio = static_cast<double>(spec_hits) /
                       static_cast<double>(std::max<size_t>(1, built));
  rep.clip_hit_ratio = static_cast<double>(clip_hits) /
                       static_cast<double>(std::max<size_t>(1, built));

  verify_tenants(run, tenants, spec_table, phase.id());
  return rep;
}

TenantReport run_tenants_serial(Run& run, TenantSetup& setup, double seconds) {
  TenantReport rep;
  Scope phase(run.spans, "tenant_mix closed loop", "bench");
  xspcl::SpecCache& cache = *setup.cache;
  if (!setup.source) setup.source = std::make_unique<TenantSource>(run.opt.seed);
  TenantSource& source = *setup.source;

  hinch::SessionExecutor::Config pool_cfg;
  pool_cfg.workers = 1;
  hinch::SessionExecutor exec(pool_cfg);

  std::vector<std::string> spec_table;
  std::map<std::string, int> spec_index;
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::deque<Tenant*> inflight;
  // Process CPU time when each tenant was harvested.
  std::vector<uint64_t> done_cpu_ns;

  auto harvest_oldest = [&] {
    Tenant& t = *inflight.front();
    inflight.pop_front();
    hinch::SessionResult r = t.session->wait();
    t.ok = r.status == hinch::SessionStatus::kDone &&
           r.iterations_done == t.draw.iterations;
    if (t.ok) t.checksum = sink_checksum(t.session->program());
    t.session.reset();  // releases the Program
    done_cpu_ns.push_back(process_cpu_ns());
  };

  // Chunks of kMissEvery tenants per app, so each holds one miss of
  // every app (misses take the apps in turn). Whole chunks only, at
  // least three (the first is warm-up).
  const size_t chunk = kMissEvery * shapes().size();
  const uint64_t t_end = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  while (tenants.size() < 3 * chunk || now_ns() < t_end ||
         tenants.size() % chunk != 0) {
    auto tp = std::make_unique<Tenant>();
    Tenant& t = *tp;
    t.draw = source.next();
    t.due = t.handled = now_ns();
    std::unique_ptr<hinch::Program> prog =
        build_tenant(run, cache, t, spec_table, spec_index);
    tenants.push_back(std::move(tp));
    if (!prog) continue;
    hinch::SessionConfig cfg;
    cfg.run.iterations = t.draw.iterations;
    cfg.run.window = kWindow;
    cfg.name = shapes()[static_cast<size_t>(t.draw.shape)].app;
    t.submit_start = now_ns();
    t.session = exec.submit(std::move(prog), cfg);
    t.submit_end = now_ns();
    inflight.push_back(&t);
    if (inflight.size() >= kClosedLoopDepth) harvest_oldest();
  }
  while (!inflight.empty()) harvest_oldest();
  exec.shutdown();

  std::vector<double> rates;
  for (size_t end = 2 * chunk - 1; end < done_cpu_ns.size(); end += chunk)
    rates.push_back(static_cast<double>(chunk) /
                    ns_to_s(done_cpu_ns[end] - done_cpu_ns[end - chunk]));
  rep.per_cpu_s = median(rates);
  std::fprintf(stderr,
               "  tenants closed loop, 1 worker: %zu done  %.1f per CPU-s "
               "(chunks %.1f-%.1f)\n",
               tenants.size(), rep.per_cpu_s, percentile(rates, 0.1),
               percentile(rates, 0.9));
  verify_tenants(run, tenants, spec_table, phase.id());
  return rep;
}
}  // namespace pb
