// Shared plumbing of the perfbench harness: options, the wall clock,
// metric collection, output checks and the benchmark's own span log.
//
// The harness drives the XSPCL/Hinch libraries only through their public
// headers; every layer timing is taken from outside, around a call into
// that layer (see perfbench/README.md for the metric definitions).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace obs {
class TraceSession;
}

namespace hinch {
class Program;
class SessionExecutor;
}

namespace pb {

// Nanoseconds on the steady clock since the harness started.
uint64_t now_ns();

inline double ns_to_ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_s(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// CPU time the calling thread / the whole process has run (ns). With the
// kernel's steal-time accounting (KVM guests) neither counts time the
// host took the virtual CPU away, which the wall clock does.
uint64_t thread_cpu_ns();
uint64_t process_cpu_ns();

// Returns at `t` (ns on the now_ns clock), not before.
void sleep_until_ns(uint64_t t);

// Median / percentile of a sample (nearest-rank on the sorted copy).
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

// ---- metrics ---------------------------------------------------------------

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  // {"name": {"value": v, "unit": u}, ...} in name order.
  std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Shortest round-trip decimal form of `v` (locale independent).
std::string json_number(double v);

// ---- output checks ---------------------------------------------------------

// Every verified operation (a stream session, a tenant, a sim point) is
// one attempt; a mismatch against its reference is one failure and is
// reported on stderr with what was compared.
class Checks {
 public:
  void expect_eq(uint64_t got, uint64_t want, const std::string& what);
  void fail(const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- the benchmark's own spans ---------------------------------------------
//
// Spans are recorded by the harness around each call into a layer, kept
// in memory and exported at the end as Chrome trace-event JSON (the
// format tools/hinchtrace reads). They live in the harness, not in the
// libraries, so they exist in a -DHINCH_TRACING=OFF build too. A
// disabled log (untraced runs) records nothing.
struct Span {
  std::string name;
  std::string layer;  // xml, xspcl, sp, hinch, components, media, sim,
                      // apps, obs, or "bench" for the harness's own scopes
  uint64_t start = 0;
  uint64_t end = 0;
  int parent = -1;
  int lane = 0;
};

// Lanes of the exported timeline.
inline constexpr int kLaneMain = 0;
inline constexpr int kLaneSweep = 1;     // sim sweep threads 1..
inline constexpr int kLaneWorker = 100;  // hinch pool workers 100..

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Open a span now; close(id) stamps its end. Returns -1 when disabled.
  int open(const std::string& name, const std::string& layer,
           int parent = -1, int lane = kLaneMain);
  void close(int id);
  // Stamp an explicit end (spans whose end is derived after the fact).
  void close_at(int id, uint64_t end);
  // Record a finished span (imported executor task spans).
  int add(Span span);

  // Self time per layer: each span's duration minus the part of it its
  // children cover (children may overlap one another, e.g. task spans
  // on parallel workers, so the covered part is their union).
  std::map<std::string, double> self_ms_by_layer() const;

  // Chrome trace-event JSON ("wall_ns" clock, one pid, one tid per lane).
  bool write_chrome(const std::string& path, uint64_t dropped) const;

  size_t size() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII scope around one layer call.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name, const std::string& layer,
        int parent = -1, int lane = kLaneMain)
      : log_(log), id_(log.open(name, layer, parent, lane)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- run context -----------------------------------------------------------

enum class Workload { kAppStreams, kTenantMix, kPaperSim };

struct Options {
  Workload workload = Workload::kAppStreams;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string goldens_path;  // committed simulated-cycle goldens
  std::string trace_out;     // Chrome JSON written by traced runs
  // Self-check: perturb one expected value ("checksum" or "golden") so
  // the run must report a failure and exit nonzero.
  std::string inject;
  int threads = 4;  // host threads the run may keep busy (<= nproc)
};

// Per-run shared state handed to every phase.
struct Run {
  Options opt;
  Metrics metrics;  // end-to-end (untraced) or per-layer (traced)
  Checks& checks;   // shared by every Run of the process
  SpanLog spans;
  // Obs trace accounting over every attached obs::TraceSession.
  uint64_t trace_emitted = 0;
  uint64_t trace_dropped = 0;
  std::mutex trace_mu;

  Run(const Options& o, Checks& c) : opt(o), checks(c), spans(o.trace) {}
  void note_trace(const obs::TraceSession& session);
};

// Seconds of measurement for one phase: the workload's own phase gets
// half the run, the other two phases a quarter each, so every run prints
// every metric.
double phase_seconds(const Options& opt, Workload phase);

// Imports the task spans of a finished thread-backend session into the
// span log under `parent` (wall ns since the session started at
// `t0_abs`), and returns per-session executor statistics computed from
// them. With `emit_spans` false only the statistics are kept.
struct TaskSpanStats {
  uint64_t jobs = 0;
  double busy_ns = 0;       // sum of task span durations
  double gap_ns = 0;        // short (< 50 us) gaps between a worker's jobs
  double max_task_ms_per_iter = 0;  // slowest self-serial task
  std::string max_task;
  double sink_ms_per_iter = 0;
};
TaskSpanStats import_task_spans(Run& run, const obs::TraceSession& trace,
                                const hinch::Program& prog, uint64_t t0_abs,
                                int64_t iterations, int parent,
                                bool emit_spans = true);

// Output checksum of the program's sink (chained frame_hash of every
// frame it consumed), 0 when the program has no sink.
uint64_t sink_checksum(hinch::Program& prog);

// Pool statistics accumulated over the executors a run used.
struct PoolTotals {
  uint64_t jobs = 0;
  uint64_t steals = 0;
  uint64_t parks = 0;
  double imbalance_weighted = 0;  // sum of (max/mean worker jobs) * jobs
  void add(const hinch::SessionExecutor& exec);
};

// Peak resident set size of the process (MiB).
double rss_peak_mb();

}  // namespace pb
