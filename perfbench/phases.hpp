// The three measured phases (app streams, tenants, paper sim suite) and
// the per-layer probes. Every run executes all three phases; the
// workload named on the command line gets half of the time (see
// phase_seconds), so each run prints every end-to-end metric while the
// workload's own phase dominates its cost.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace xspcl {
class SpecCache;
}

namespace pb {

// Executor statistics summed over every traced thread-backend session.
struct HinchAgg {
  uint64_t jobs = 0;
  int64_t iterations = 0;
  double busy_ns = 0;
  double gap_ns = 0;
  double capacity_ns = 0;  // workers x session wall time
  PoolTotals pools;

  void add(const TaskSpanStats& st, int64_t iters, double wall_s,
           int workers) {
    jobs += st.jobs;
    iterations += iters;
    busy_ns += st.busy_ns;
    gap_ns += st.gap_ns;
    capacity_ns += wall_s * 1e9 * workers;
  }
};

// ---- app streams -----------------------------------------------------------

// The width a stream phase times its streams at. Untraced runs time every
// stream on one worker: those rates are the gated end-to-end metrics,
// because on a shared host a 4-worker pipeline's rate follows the host's
// CPU steal far more than the program. Traced runs time the 4-worker
// pool, for the executor statistics and the scaling figures.
enum class Width { kSerial = 0, kParallel = 1 };

// How one stream runs at one width.
struct StreamLeg {
  int workers = 1;
  int64_t frames = 0;  // iterations per timed session
  int64_t chunk = 0;   // frames per fps sample (the first is warm-up)
  double weight = 0;   // share of the phase's time
};

struct StreamDef {
  std::string name;  // metric prefix: mjpeg, jpip, pip, blur
  std::string spec;  // XSPCL text
  StreamLeg legs[2];  // indexed by Width
  // Hand-written sequential reference checksum for `ref_frames`
  // iterations (null for MJPEG, whose reference is the other width).
  int64_t ref_frames = 0;
  std::function<uint64_t(int64_t frames)> reference;
  std::unique_ptr<hinch::Program> prog;
};

struct StreamSet {
  std::vector<StreamDef> defs;
};

StreamSet make_streams(uint64_t seed);
// Compile every stream's program (clip synth + encode happen here).
void build_streams(StreamSet* set);

struct StreamReport {
  // "<name>.fps_1w" (serial) or "<name>.fps" (parallel) values.
  std::vector<std::pair<std::string, double>> fps;
  double mjpeg_sink_ms = 0;
  double mjpeg_ceiling_fps = 0;
  std::string mjpeg_bound_task;
};

StreamReport run_streams(Run& run, StreamSet& set, double seconds, Width width,
                         HinchAgg* agg);

// ---- tenants ---------------------------------------------------------------

class TenantSource;

struct TenantSetup {
  std::unique_ptr<xspcl::SpecCache> cache;
  std::vector<std::string> hit_specs;  // the recurring tenant specs
  // Tenant draws continue across the run's tenant phases, so a later
  // phase's misses are still first uses.
  std::shared_ptr<TenantSource> source;
};

// Fresh spec cache, warmed with the recurring (hit) tenant specs.
TenantSetup setup_tenants();

struct TenantReport {
  double first_frame_p50_ms = 0;
  double first_frame_p99_ms = 0;
  double session_p50_ms = 0;
  double sustained_per_s = 0;
  double late_p99_ms = 0;
  double submit_us = 0;
  double admission_wait_ms = 0;
  double spec_hit_ratio = 0;
  double hit_build_ms = 0;
  double miss_build_ms = 0;
  double clip_hit_ratio = 0;
  double per_cpu_s = 0;  // run_tenants_serial only
};

// Open loop on the 3-worker pool: a reference rate for the latencies,
// then a capacity staircase for the knee (traced runs).
TenantReport run_tenants(Run& run, TenantSetup& setup, double seconds,
                         HinchAgg* agg);
// Closed loop on a 1-worker pool: tenants the whole path serves per
// CPU-second of the process (untraced runs; fills per_cpu_s only).
TenantReport run_tenants_serial(Run& run, TenantSetup& setup, double seconds);

// ---- paper simulator suite -------------------------------------------------

struct SimReport {
  double mcycles_per_s = 0;
  double replay_s = 0;
  double full_s = 0;
};

// `full_set`: the deduplicated fig8/9/10 point set; otherwise the fig8
// points only (the short companion measurement of the other workloads).
SimReport run_papersim(Run& run, double seconds, bool full_set);

// Specs of the figure series (front-end probe input).
std::vector<std::string> paper_specs();

// Compute every point of the full set and write the golden file.
int write_goldens(const std::string& path, int threads);

// ---- per-layer probes (traced runs) ----------------------------------------

// Front end (xml, xspcl, sp passes, Program::build) over `specs`.
void probe_front_end(Run& run, const std::vector<std::string>& specs);
// Pixel kernels on every dispatch tier, on the workload's own frame
// sizes; restores KernelDispatch::kAuto afterwards.
void probe_kernels(Run& run);
// Entropy decode, IDCT and frame_hash on 1080p MJPEG frames.
void probe_decode(Run& run);

}  // namespace pb
