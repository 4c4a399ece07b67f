// Common harness plumbing: clock, statistics, metrics, checks, the span
// log with its self-time analysis and Chrome export, and the conversion
// of executor task spans into the harness timeline.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "components/sinks.hpp"
#include "hinch/program.hpp"
#include "hinch/session.hpp"
#include "obs/trace.hpp"

namespace pb {

namespace {
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();
}  // namespace

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

namespace {
uint64_t clock_ns(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}
}  // namespace

uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

void sleep_until_ns(uint64_t t) {
  // Sleep to within half a millisecond, then spin: a timer wake-up on a
  // virtual CPU can land far later than asked, and the open-loop
  // generator must not add that to every tenant's latency.
  constexpr uint64_t kSpinNs = 500000;
  if (t > now_ns() + kSpinNs)
    std::this_thread::sleep_until(kEpoch + std::chrono::nanoseconds(t - kSpinNs));
  while (now_ns() < t) {
  }
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---- metrics ---------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Metrics::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  return out + "}";
}

// ---- checks ----------------------------------------------------------------

void Checks::expect_eq(uint64_t got, uint64_t want, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (got == want) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: MISMATCH %s: got %llu, expected %llu\n",
               what.c_str(), static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(want));
}

void Checks::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

// ---- span log --------------------------------------------------------------

int SpanLog::open(const std::string& name, const std::string& layer,
                  int parent, int lane) {
  if (!enabled_) return -1;
  Span s{name, layer, now_ns(), 0, parent, lane};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = t;
}

void SpanLog::close_at(int id, uint64_t end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

int SpanLog::add(Span span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    int p = spans_[i].parent;
    if (p >= 0) children[static_cast<size_t>(p)].push_back(static_cast<int>(i));
  }
  std::map<std::string, double> self;
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end <= s.start) continue;
    iv.clear();
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<size_t>(c)];
      uint64_t a = std::max(k.start, s.start), b = std::min(k.end, s.end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[s.layer] += ns_to_ms(s.end - s.start - covered);
  }
  return self;
}

namespace {

void append_escaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      *out += buf;
    } else {
      *out += c;
    }
  }
}

std::string micros(uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

bool SpanLog::write_chrome(const std::string& path, uint64_t dropped) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out =
      "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\"clock\": "
      "\"wall_ns\", \"source\": \"perfbench\", \"emitted\": " +
      std::to_string(spans_.size()) +
      ", \"dropped\": " + std::to_string(dropped) +
      "},\n  \"traceEvents\": [\n";
  std::map<int, std::string> lanes;
  for (const Span& s : spans_) {
    if (lanes.count(s.lane)) continue;
    if (s.lane >= kLaneWorker)
      lanes[s.lane] = "worker " + std::to_string(s.lane - kLaneWorker);
    else if (s.lane >= kLaneSweep)
      lanes[s.lane] = "sweep " + std::to_string(s.lane - kLaneSweep);
    else
      lanes[s.lane] = "main";
  }
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"perfbench\"}}";
  for (const auto& [lane, name] : lanes)
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
           std::to_string(lane) + ",\"args\":{\"name\":\"" + name + "\"}}";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    out += ",\n{\"name\":\"";
    append_escaped(&out, s.name);
    out += "\",\"cat\":\"" + s.layer + "\",\"ph\":\"X\",\"ts\":" +
           micros(s.start) + ",\"dur\":" + micros(s.end - s.start) +
           ",\"pid\":0,\"tid\":" + std::to_string(s.lane) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  out += "\n  ]\n}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace '%s'\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

// ---- run context -----------------------------------------------------------

void Run::note_trace(const obs::TraceSession& session) {
  std::lock_guard<std::mutex> lock(trace_mu);
  trace_emitted += session.emitted();
  trace_dropped += session.dropped();
}

double phase_seconds(const Options& opt, Workload phase) {
  return opt.seconds * (phase == opt.workload ? 0.5 : 0.25);
}

TaskSpanStats import_task_spans(Run& run, const obs::TraceSession& trace,
                                const hinch::Program& prog, uint64_t t0_abs,
                                int64_t iterations, int parent,
                                bool emit_spans) {
  TaskSpanStats st;
  Scope collect(run.spans, "obs.collect", "obs", parent);
  run.note_trace(trace);
  const std::vector<std::string> names = trace.names();
  std::vector<double> task_ns(prog.tasks().size(), 0.0);
  std::vector<std::pair<uint64_t, uint64_t>> lane_spans;
  for (int lane = 0; lane < trace.lanes(); ++lane) {
    lane_spans.clear();
    for (const obs::TraceEvent& ev : trace.recorder(lane)->collect()) {
      if (ev.kind != obs::EventKind::kSpan) continue;
      ++st.jobs;
      st.busy_ns += static_cast<double>(ev.dur);
      if (ev.arg >= 0 && static_cast<size_t>(ev.arg) < task_ns.size())
        task_ns[static_cast<size_t>(ev.arg)] += static_cast<double>(ev.dur);
      lane_spans.emplace_back(ev.ts, ev.ts + ev.dur);
      if (emit_spans && run.spans.enabled()) {
        Span s;
        s.name = ev.name < names.size() ? names[ev.name] : "task";
        s.layer = "components";
        s.start = t0_abs + ev.ts;
        s.end = t0_abs + ev.ts + ev.dur;
        s.parent = parent;
        s.lane = kLaneWorker + lane;
        run.spans.add(std::move(s));
      }
    }
    std::sort(lane_spans.begin(), lane_spans.end());
    for (size_t i = 1; i < lane_spans.size(); ++i) {
      if (lane_spans[i].first < lane_spans[i - 1].second) continue;
      uint64_t gap = lane_spans[i].first - lane_spans[i - 1].second;
      // Longer gaps are a worker with nothing to run (spinning or
      // parked), not per-job scheduling cost.
      if (gap < 50000) st.gap_ns += static_cast<double>(gap);
    }
  }
  double iters = static_cast<double>(std::max<int64_t>(iterations, 1));
  for (size_t t = 0; t < task_ns.size(); ++t) {
    double ms = task_ns[t] / 1e6 / iters;
    const std::string& label = prog.tasks()[t].label;
    if (ms > st.max_task_ms_per_iter) {
      st.max_task_ms_per_iter = ms;
      st.max_task = label;
    }
    if (label.find("sink") != std::string::npos)
      st.sink_ms_per_iter = std::max(st.sink_ms_per_iter, ms);
  }
  return st;
}

uint64_t sink_checksum(hinch::Program& prog) {
  for (int i = 0; i < prog.component_count(); ++i)
    if (const auto* s =
            dynamic_cast<const components::SinkAccess*>(&prog.component(i)))
      return s->sink().checksum();
  return 0;
}

void PoolTotals::add(const hinch::SessionExecutor& exec) {
  hinch::SessionExecutor::PoolStats ps = exec.pool_stats();
  jobs += ps.jobs;
  steals += ps.steals;
  parks += ps.idle_parks;
  if (ps.jobs == 0 || ps.worker_jobs.empty()) return;
  uint64_t mx = *std::max_element(ps.worker_jobs.begin(), ps.worker_jobs.end());
  double mean = static_cast<double>(ps.jobs) /
                static_cast<double>(ps.worker_jobs.size());
  imbalance_weighted += static_cast<double>(mx) / mean *
                        static_cast<double>(ps.jobs);
}

double rss_peak_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace pb
