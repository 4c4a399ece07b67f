// perfbench — end-to-end and per-layer benchmark of XSPCL/Hinch.
//
//   perfbench --workload <app_streams|tenant_mix|paper_sim> --seed <n>
//             --seconds <s> --trace <0|1> [--goldens <file>]
//             [--trace-out <file>] [--inject <checksum|golden>]
//   perfbench --write-goldens <file>
//
// Every run sets up five times from cold caches (clip synth + encode,
// program compile, spec-cache warm-up; setup_s is the median, and
// untraced runs spread the set-ups over the run), then measures the three
// phases — app streams, tenants, the paper's sim suite — with the named
// workload's phase taking half of --seconds. --trace 0 times the streams
// and the tenant path on one worker and prints the end-to-end metrics;
// --trace 1 runs the 4-worker streams and the open-loop tenants instead,
// repeats the workload's own phase untraced and traced (the gap is the
// tracing overhead), traces the other phases, runs the per-layer probes,
// writes the span timeline as Chrome JSON and prints the per-layer
// metrics. The last stdout line is one JSON object {"correct",
// "attempted", "failed", "metrics"}; any output that differs from its
// reference makes the run exit 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "components/clip_cache.hpp"
#include "phases.hpp"
#include "xspcl/loader.hpp"
#include "xspcl/spec_cache.hpp"

namespace pb {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <app_streams|tenant_mix|paper_sim> "
               "--seed <n> --seconds <s> --trace <0|1> [--goldens <file>] "
               "[--trace-out <file>] [--inject <checksum|golden>]\n"
               "       perfbench --write-goldens <file>\n");
  return 2;
}

struct Setup {
  StreamSet streams;
  TenantSetup tenants;
};

// One full set-up from cold caches. Returns its wall time; `*cold_ms`
// receives the time spent compiling the stream programs (which is where
// clips are synthesized and encoded).
double setup_once(Setup* out, double* cold_ms) {
  uint64_t t0 = now_ns();
  components::clear_clip_caches();
  uint64_t b0 = now_ns();
  build_streams(&out->streams);
  *cold_ms = ns_to_ms(now_ns() - b0);
  out->tenants = setup_tenants();
  return ns_to_s(now_ns() - t0);
}

void set_end_to_end(Run& run, const StreamReport& st, const TenantReport& tn,
                    const SimReport& sim) {
  for (const auto& [name, fps] : st.fps) run.metrics.set(name, fps, "1/s");
  run.metrics.set("tenant.sessions_per_cpu_s", tn.per_cpu_s, "1/s");
  run.metrics.set("sim.mcycles_per_s", sim.mcycles_per_s, "Mcycles/s");
}

int run_main(const Options& opt) {
  Checks checks;
  Run run(opt, checks);
  Setup setup;
  setup.streams = make_streams(opt.seed);  // inputs, not set-up
  std::vector<double> setup_s, cold_ms;
  auto set_up = [&] {
    double cold = 0;
    setup_s.push_back(setup_once(&setup, &cold));
    cold_ms.push_back(cold);
  };
  // Five cold set-ups. Untraced runs make two now and one after each
  // phase: the host's slow spells last seconds, so set-ups spread over
  // the run are disturbed independently and their median holds still.
  const int early_setups = opt.trace ? 5 : 2;
  for (int i = 0; i < early_setups; ++i) set_up();
  // Compiling again with every clip cached isolates clip synth + encode.
  double warm_ms = 0;
  for (const StreamDef& d : setup.streams.defs) {
    uint64_t t0 = now_ns();
    auto prog = xspcl::build_program(d.spec, hinch::ComponentRegistry::global());
    SUP_CHECK_MSG(prog.is_ok(), prog.status().to_string().c_str());
    warm_ms += ns_to_ms(now_ns() - t0);
  }
  std::fprintf(stderr, "perfbench: %s seed %llu, set-up %.3f s\n",
               opt.workload_name.c_str(),
               static_cast<unsigned long long>(opt.seed), median(setup_s));

  const double s_streams = phase_seconds(opt, Workload::kAppStreams);
  const double s_tenants = phase_seconds(opt, Workload::kTenantMix);
  const double s_sim = phase_seconds(opt, Workload::kPaperSim);
  const bool full_sim = opt.workload == Workload::kPaperSim;
  HinchAgg agg;

  if (!opt.trace) {
    StreamReport st =
        run_streams(run, setup.streams, s_streams, Width::kSerial, &agg);
    set_up();
    TenantReport tn = run_tenants_serial(run, setup.tenants, s_tenants);
    set_up();
    SimReport sim = run_papersim(run, s_sim, full_sim);
    set_up();
    set_end_to_end(run, st, tn, sim);
    std::fprintf(stderr, "  set-ups:");
    for (double t : setup_s) std::fprintf(stderr, " %.3f", t);
    std::fprintf(stderr, " s\n");
    run.metrics.set("setup_s", median(setup_s), "s");
    run.metrics.set("rss_peak_mb", rss_peak_mb(), "MiB");
  } else {
    // The workload's own phase: half its time untraced (a reference run
    // with its own span log, which stays off), half traced.
    Options untraced_opt = opt;
    untraced_opt.trace = false;
    Run untraced(untraced_opt, checks);
    HinchAgg unused;
    double overhead_pct = 0;
    StreamReport st;
    TenantReport tn;
    SimReport sim;
    switch (opt.workload) {
      case Workload::kAppStreams: {
        StreamReport ref = run_streams(untraced, setup.streams, s_streams / 2,
                                       Width::kParallel, &unused);
        st = run_streams(run, setup.streams, s_streams / 2, Width::kParallel,
                         &agg);
        // Geometric mean of the untraced / traced frame-rate ratios.
        double log_sum = 0;
        for (size_t i = 0; i < st.fps.size(); ++i)
          log_sum += std::log(ref.fps[i].second / st.fps[i].second);
        overhead_pct =
            100.0 * (std::exp(log_sum / static_cast<double>(st.fps.size())) - 1);
        tn = run_tenants(run, setup.tenants, s_tenants, &agg);
        sim = run_papersim(run, s_sim, full_sim);
        break;
      }
      case Workload::kTenantMix: {
        st = run_streams(run, setup.streams, s_streams, Width::kParallel, &agg);
        TenantReport ref = run_tenants(untraced, setup.tenants, s_tenants / 2,
                                       &unused);
        tn = run_tenants(run, setup.tenants, s_tenants / 2, &agg);
        overhead_pct = 100.0 * (tn.session_p50_ms / ref.session_p50_ms - 1);
        sim = run_papersim(run, s_sim, full_sim);
        break;
      }
      case Workload::kPaperSim: {
        st = run_streams(run, setup.streams, s_streams, Width::kParallel, &agg);
        tn = run_tenants(run, setup.tenants, s_tenants, &agg);
        SimReport ref = run_papersim(untraced, s_sim / 2, full_sim);
        sim = run_papersim(run, s_sim / 2, full_sim);
        overhead_pct = 100.0 * (ref.mcycles_per_s / sim.mcycles_per_s - 1);
        break;
      }
    }
    std::vector<std::string> specs;
    switch (opt.workload) {
      case Workload::kAppStreams:
        for (const StreamDef& d : setup.streams.defs) specs.push_back(d.spec);
        break;
      case Workload::kTenantMix:
        specs = setup.tenants.hit_specs;
        break;
      case Workload::kPaperSim:
        specs = paper_specs();
        break;
    }
    probe_front_end(run, specs);
    probe_kernels(run);
    probe_decode(run);

    Metrics& m = run.metrics;
    m.set("components.sink.ms_per_frame", st.mjpeg_sink_ms, "ms");
    m.set("components.self_serial_ceiling_fps", st.mjpeg_ceiling_fps, "1/s");
    // The 4-worker rates and the tenant knee, as the traced phases
    // measured them: they show scaling, but on a shared host they follow
    // the host's CPU steal too closely to gate.
    for (const auto& [name, fps] : st.fps) m.set(name, fps, "1/s");
    m.set("tenant.sustained_sessions_per_s", tn.sustained_per_s, "1/s");
    std::fprintf(stderr,
                 "  mjpeg 4 workers traced: %.1f f/s, self-serial ceiling "
                 "%.1f f/s (task %s), sink %.2f ms/frame\n",
                 st.fps.front().second, st.mjpeg_ceiling_fps,
                 st.mjpeg_bound_task.c_str(), st.mjpeg_sink_ms);
    const double jobs = static_cast<double>(std::max<uint64_t>(agg.jobs, 1));
    m.set("hinch.overhead_ns_per_job", agg.gap_ns / jobs, "ns");
    m.set("hinch.busy_share",
          agg.capacity_ns > 0 ? agg.busy_ns / agg.capacity_ns : 0, "share");
    m.set("hinch.jobs_per_frame",
          jobs / static_cast<double>(std::max<int64_t>(agg.iterations, 1)),
          "count");
    const double pool_jobs =
        static_cast<double>(std::max<uint64_t>(agg.pools.jobs, 1));
    m.set("hinch.pool.steals_per_kjob",
          1000.0 * static_cast<double>(agg.pools.steals) / pool_jobs, "count");
    m.set("hinch.pool.parks_per_kjob",
          1000.0 * static_cast<double>(agg.pools.parks) / pool_jobs, "count");
    m.set("hinch.pool.worker_imbalance",
          agg.pools.imbalance_weighted / pool_jobs, "x");
    // Tenant latencies swing with the host's CPU steal far beyond any
    // useful bound (sub-millisecond waits on virtual CPUs), so they are
    // reported here, from the traced tenant phase, rather than gated.
    m.set("tenant.first_frame_p50_ms", tn.first_frame_p50_ms, "ms");
    m.set("tenant.first_frame_p99_ms", tn.first_frame_p99_ms, "ms");
    m.set("tenant.session_p50_ms", tn.session_p50_ms, "ms");
    m.set("hinch.submit_us", tn.submit_us, "us");
    m.set("hinch.admission_wait_ms", tn.admission_wait_ms, "ms");
    m.set("xspcl.spec_cache.hit_ratio", tn.spec_hit_ratio, "share");
    m.set("xspcl.spec_cache.hit_build_ms", tn.hit_build_ms, "ms");
    m.set("xspcl.spec_cache.miss_build_ms", tn.miss_build_ms, "ms");
    m.set("components.clip_cache.hit_ratio", tn.clip_hit_ratio, "share");
    m.set("apps.clip_setup_s", std::max(0.0, median(cold_ms) - warm_ms) / 1e3,
          "s");
    m.set("sim.replay_s", sim.replay_s, "s");
    m.set("sim.full_s", sim.full_s, "s");
    m.set("gen.late_p99_ms", tn.late_p99_ms, "ms");
    m.set("obs.trace_overhead_pct", overhead_pct, "%");
    m.set("obs.dropped_events", static_cast<double>(run.trace_dropped), "count");
    for (const char* layer : {"xml", "xspcl", "sp", "hinch", "components",
                              "media", "sim", "apps", "obs"})
      m.set(std::string(layer) + ".self_ms", 0, "ms");
    for (const auto& [layer, ms] : run.spans.self_ms_by_layer())
      if (layer != "bench") m.set(layer + ".self_ms", ms, "ms");

    if (!opt.trace_out.empty() &&
        !run.spans.write_chrome(opt.trace_out, run.trace_dropped))
      run.checks.fail("writing the trace file");
    std::fprintf(stderr, "  trace: %zu spans, %llu executor events (%llu "
                 "dropped) -> %s\n", run.spans.size(),
                 static_cast<unsigned long long>(run.trace_emitted),
                 static_cast<unsigned long long>(run.trace_dropped),
                 opt.trace_out.c_str());
  }
  components::clear_clip_caches();

  const bool correct = run.checks.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(run.checks.attempted()),
              static_cast<long long>(run.checks.failed()),
              run.metrics.to_json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Options opt;
  unsigned hc = std::thread::hardware_concurrency();
  opt.threads = std::clamp(static_cast<int>(hc), 1, 4);
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return pb::usage();
    std::string v = argv[++i];
    if (a == "--write-goldens") return pb::write_goldens(v, opt.threads);
    if (a == "--workload") {
      opt.workload_name = v;
      have_workload = true;
      if (v == "app_streams")
        opt.workload = pb::Workload::kAppStreams;
      else if (v == "tenant_mix")
        opt.workload = pb::Workload::kTenantMix;
      else if (v == "paper_sim")
        opt.workload = pb::Workload::kPaperSim;
      else
        return pb::usage();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--goldens") {
      opt.goldens_path = v;
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else if (a == "--inject") {
      opt.inject = v;
    } else {
      return pb::usage();
    }
  }
  if (!have_workload || !have_seed || opt.seconds <= 0) return pb::usage();
  return pb::run_main(opt);
}
