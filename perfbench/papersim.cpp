// paper_sim: the point set of Figures 8, 9 and 10 on the simulator.
//
// Each point is one deterministic simulation — a hand-written
// sequential run or an XSPCL program on N simulated cores, configured by
// the figure harnesses' own paper_pip/paper_jpip/paper_blur
// (bench/bench_util.hpp) — with its simulated cycles checked against
// perfbench/sim_goldens.txt. The full
// set is the union of the three figures' points with duplicates removed
// (fig9's sequential column repeats fig8's, and fig10's static variants
// are fig9 series). Points run on a sweep of at most `threads` host
// threads, longest first. The metric is simulated megacycles per CPU
// second of one simulator — the set's cycles over the summed thread CPU
// time of its points, so neither the sweep's load imbalance nor time the
// host took from the VM enters it — as the median over repetitions of
// the set. (Each point is one single-threaded simulation, so its CPU
// time is its wall time on an undisturbed host.)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "apps/apps.hpp"
#include "bench/bench_util.hpp"
#include "components/components.hpp"
#include "hinch/runtime.hpp"
#include "obs/trace.hpp"
#include "phases.hpp"
#include "xspcl/loader.hpp"

namespace pb {
namespace {

struct SimPoint {
  std::string key;
  // Hand-written sequential run (set) or XSPCL program on the sim.
  std::function<uint64_t()> sequential;
  std::string spec;
  int64_t frames = 0;
  int cores = 1;
  bool sync = true;
  bool replayable = false;  // no reconfiguration manager
};

void add_series(std::vector<SimPoint>* out, const std::string& name,
                const std::string& spec, int64_t frames, bool fig8_only,
                bool replayable) {
  out->push_back({name + "/c1", nullptr, spec, frames, 1, true, replayable});
  if (fig8_only) return;
  out->push_back(
      {name + "/c1/nosync", nullptr, spec, frames, 1, false, replayable});
  for (int cores = 2; cores <= 9; ++cores)
    out->push_back({name + "/c" + std::to_string(cores), nullptr, spec,
                    frames, cores, true, replayable});
}

std::vector<SimPoint> sim_points(bool full_set) {
  std::vector<SimPoint> pts;
  const bool fig8 = !full_set;
  for (int pips : {1, 2}) {
    apps::PipConfig c = bench::paper_pip(pips);
    std::string n = "PiP-" + std::to_string(pips);
    pts.push_back({"seq/" + n, [c] { return apps::run_pip_sequential(c).cycles; },
                   "", c.frames, 1, true, false});
    add_series(&pts, n, apps::pip_xspcl(c), c.frames, fig8, true);
  }
  for (int pips : {1, 2}) {
    apps::JpipConfig c = bench::paper_jpip(pips);
    std::string n = "JPiP-" + std::to_string(pips);
    pts.push_back({"seq/" + n,
                   [c] { return apps::run_jpip_sequential(c).cycles; }, "",
                   c.frames, 1, true, false});
    add_series(&pts, n, apps::jpip_xspcl(c), c.frames, fig8, true);
  }
  for (int kernel : {3, 5}) {
    apps::BlurConfig c = bench::paper_blur(kernel);
    std::string n = "Blur-" + std::to_string(kernel);
    pts.push_back({"seq/" + n,
                   [c] { return apps::run_blur_sequential(c).cycles; }, "",
                   c.frames, 1, true, false});
    add_series(&pts, n, apps::blur_xspcl(c), c.frames, fig8, true);
  }
  if (full_set) {
    // Figure 10's reconfigurable variants (the static ones are above).
    struct Reconf {
      std::string name;
      std::string spec;
      int64_t frames;
    };
    std::vector<Reconf> rs = {
        {"PiP-12", apps::pip_xspcl(bench::paper_pip(2, true)),
         bench::paper_pip(2).frames},
        {"JPiP-12", apps::jpip_xspcl(bench::paper_jpip(2, true)),
         bench::paper_jpip(2).frames},
        {"Blur-35", apps::blur_xspcl(bench::paper_blur(3, true)),
         bench::paper_blur(3).frames}};
    for (const Reconf& r : rs)
      for (int cores = 1; cores <= 9; ++cores)
        pts.push_back({r.name + "/c" + std::to_string(cores), nullptr, r.spec,
                       r.frames, cores, true, false});
  }
  return pts;
}

struct PointOut {
  uint64_t cycles = 0;
  double cpu_s = 0;  // the point's thread CPU time
};

// Run one point. `traced` attaches an obs::TraceSession to the sim run;
// `record` / `replay` select charge-trace capture or replay.
PointOut run_point(Run* run, const SimPoint& p, int lane, int parent,
                   bool traced, hinch::ChargeTrace* record,
                   const hinch::ChargeTrace* replay) {
  PointOut out;
  const uint64_t t0 = thread_cpu_ns();
  SpanLog* log = run != nullptr ? &run->spans : nullptr;
  int span = log ? log->open("sim.point " + p.key, "bench", parent, lane) : -1;
  if (p.sequential) {
    int s = log ? log->open("apps.run_sequential", "apps", span, lane) : -1;
    out.cycles = p.sequential();
    if (log) log->close(s);
  } else {
    std::unique_ptr<hinch::Program> prog;
    {
      int s = log ? log->open("xspcl.build_program", "xspcl", span, lane) : -1;
      auto r = xspcl::build_program(p.spec, hinch::ComponentRegistry::global());
      SUP_CHECK_MSG(r.is_ok(), r.status().to_string().c_str());
      prog = std::move(r).take();
      if (log) log->close(s);
    }
    // The sim emits about six events per job and its central queue
    // spreads jobs evenly, so twice a core's share of the jobs bound
    // keeps every lane's ring from wrapping.
    std::unique_ptr<obs::TraceSession> trace;
    if (traced)
      trace = std::make_unique<obs::TraceSession>(
          2 * 7 * prog->tasks().size() * static_cast<size_t>(p.frames) /
          static_cast<size_t>(p.cores));
    hinch::RunConfig rc;
    rc.iterations = p.frames;
    rc.window = 5;
    hinch::SimParams sp;
    sp.cores = p.cores;
    sp.sync_costs = p.sync;
    sp.trace = trace.get();
    sp.record_trace = record;
    sp.replay_trace = replay;
    int s = log ? log->open("hinch.run_on_sim", "sim", span, lane) : -1;
    out.cycles = hinch::run_on_sim(*prog, rc, sp).total_cycles;
    if (log) log->close(s);
    if (trace) run->note_trace(*trace);
  }
  if (log) log->close(span);
  out.cpu_s = ns_to_s(thread_cpu_ns() - t0);
  return out;
}

// Run fn(i) for i in [0, n) on `threads` host threads (the caller is
// one of them); fn receives the point index and its thread's lane.
//
// The points are dealt out in turn (thread t runs t, t + T, t + 2T, ...)
// rather than taken from a shared counter, so a thread runs the same
// points in every sweep: the process's peak memory, which is the sum of
// what each thread's allocator arena has held, then does not depend on
// which points happened to run side by side.
void sweep(int n, int threads, const std::function<void(int, int)>& fn) {
  const int t_count = std::max(1, std::min(threads, n));
  auto work = [&](int t) {
    for (int i = t; i < n; i += t_count) fn(i, kLaneSweep + t);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < t_count; ++t) pool.emplace_back(work, t);
  work(0);
  for (std::thread& t : pool) t.join();
}

std::map<std::string, uint64_t> load_goldens(const std::string& path) {
  std::map<std::string, uint64_t> g;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    unsigned long long cycles = 0;
    if (ls >> key >> cycles) g[key] = cycles;
  }
  return g;
}

}  // namespace

std::vector<std::string> paper_specs() {
  return {apps::pip_xspcl(bench::paper_pip(1)),
          apps::jpip_xspcl(bench::paper_jpip(1)),
          apps::blur_xspcl(bench::paper_blur(3)),
          apps::pip_xspcl(bench::paper_pip(2, true))};
}

SimReport run_papersim(Run& run, double seconds, bool full_set) {
  components::register_standard_globally();
  SimReport rep;
  Scope phase(run.spans, "paper_sim", "bench");
  std::map<std::string, uint64_t> goldens = load_goldens(run.opt.goldens_path);
  std::vector<SimPoint> pts = sim_points(full_set);
  for (const SimPoint& p : pts)
    if (!goldens.count(p.key)) {
      run.checks.fail("no golden for sim point " + p.key);
      return rep;
    }
  // Longest first: simulated work grows with cycles x cores.
  std::stable_sort(pts.begin(), pts.end(),
                   [&](const SimPoint& a, const SimPoint& b) {
                     return goldens[a.key] * a.cores > goldens[b.key] * b.cores;
                   });
  if (run.opt.inject == "golden") goldens[pts.front().key] ^= 1;

  const bool traced = run.opt.trace;
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t t_begin = now_ns();
  std::vector<double> rates;
  while (rates.empty() || now_ns() - t_begin < budget) {
    std::vector<PointOut> outs(pts.size());
    Scope rep_scope(run.spans, "sim.sweep", "bench", phase.id());
    sweep(static_cast<int>(pts.size()), run.opt.threads, [&](int i, int lane) {
      outs[static_cast<size_t>(i)] =
          run_point(&run, pts[static_cast<size_t>(i)], lane, rep_scope.id(),
                    traced, nullptr, nullptr);
    });
    uint64_t cycles = 0;
    double cpu = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      cycles += outs[i].cycles;
      cpu += outs[i].cpu_s;
      run.checks.expect_eq(outs[i].cycles, goldens[pts[i].key],
                           "sim cycles of " + pts[i].key);
    }
    rates.push_back(static_cast<double>(cycles) / 1e6 / cpu);
  }
  rep.mcycles_per_s = median(rates);
  std::fprintf(stderr, "  sim %zu points x %zu sweeps  %.1f Mcycles/s\n",
               pts.size(), rates.size(), rep.mcycles_per_s);

  if (traced) {
    // Engine isolation: the fig8 XSPCL points run in full (recording
    // their charges) and then replayed, both as one timed sweep.
    std::vector<SimPoint> rp;
    for (const SimPoint& p : sim_points(false))
      if (p.replayable) rp.push_back(p);
    std::vector<hinch::ChargeTrace> charges(rp.size());
    std::vector<PointOut> full(rp.size()), replay(rp.size());
    uint64_t t0 = now_ns();
    {
      Scope s(run.spans, "sim.full", "bench", phase.id());
      sweep(static_cast<int>(rp.size()), run.opt.threads, [&](int i, int lane) {
        full[static_cast<size_t>(i)] =
            run_point(&run, rp[static_cast<size_t>(i)], lane, s.id(), false,
                      &charges[static_cast<size_t>(i)], nullptr);
      });
    }
    rep.full_s = ns_to_s(now_ns() - t0);
    t0 = now_ns();
    {
      Scope s(run.spans, "sim.replay", "bench", phase.id());
      sweep(static_cast<int>(rp.size()), run.opt.threads, [&](int i, int lane) {
        replay[static_cast<size_t>(i)] =
            run_point(&run, rp[static_cast<size_t>(i)], lane, s.id(), false,
                      nullptr, &charges[static_cast<size_t>(i)]);
      });
    }
    rep.replay_s = ns_to_s(now_ns() - t0);
    for (size_t i = 0; i < rp.size(); ++i)
      run.checks.expect_eq(replay[i].cycles, full[i].cycles,
                           "charge-trace replay of " + rp[i].key);
  }
  return rep;
}

int write_goldens(const std::string& path, int threads) {
  components::register_standard_globally();
  std::vector<SimPoint> pts = sim_points(true);
  std::vector<PointOut> outs(pts.size());
  sweep(static_cast<int>(pts.size()), threads, [&](int i, int lane) {
    (void)lane;
    outs[static_cast<size_t>(i)] = run_point(
        nullptr, pts[static_cast<size_t>(i)], 0, -1, false, nullptr, nullptr);
  });
  std::map<std::string, uint64_t> sorted;
  for (size_t i = 0; i < pts.size(); ++i) sorted[pts[i].key] = outs[i].cycles;
  std::ofstream out(path);
  out << "# Simulated cycles of every paper_sim point (Figures 8, 9, 10).\n"
         "# Regenerate only for an intended modelling change:\n"
         "#   perfbench --write-goldens perfbench/sim_goldens.txt\n";
  for (const auto& [key, cycles] : sorted) out << key << " " << cycles << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu goldens to %s\n", sorted.size(), path.c_str());
  return 0;
}

}  // namespace pb
