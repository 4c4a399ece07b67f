// Picture-in-Picture player (the paper's first evaluation application).
//
// Builds the PiP application from its XSPCL specification, verifies it
// against the hand-written sequential version (bit-identical output),
// runs it on the SpaceCAKE simulator for 1..N cores, and writes the
// composed video to pip_out.rawv.
//
// Usage: pip_player [--pips=N] [--frames=N] [--cores=N]
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "apps/apps.hpp"
#include "components/components.hpp"
#include "components/sinks.hpp"
#include "hinch/runtime.hpp"
#include "media/mjpeg.hpp"
#include "media/y4m.hpp"
#include "support/strings.hpp"
#include "xspcl/loader.hpp"

int main(int argc, char** argv) {
  apps::PipConfig config;
  config.width = 360;   // laptop-friendly default; paper used 720x576
  config.height = 288;
  config.frames = 32;
  config.slices = 8;
  config.store_output = true;
  int max_cores = 4;
  // --flag=N with N in [lo, hi]; false on any other flag or value.
  auto int_flag = [](const char* arg, const char* flag, int64_t lo,
                     int64_t hi, int* out) {
    size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0) return false;
    support::Result<int64_t> v = support::parse_int(arg + n);
    if (!v.is_ok() || v.value() < lo || v.value() > hi) return false;
    *out = static_cast<int>(v.value());
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (!int_flag(argv[i], "--pips=", 1, 8, &config.pips) &&
        !int_flag(argv[i], "--frames=", 1, INT_MAX, &config.frames) &&
        !int_flag(argv[i], "--cores=", 1, 256, &max_cores)) {
      std::fprintf(stderr,
                   "usage: %s [--pips=1..8] [--frames=N>=1] "
                   "[--cores=1..256]\n",
                   argv[0]);
      return 2;
    }
  }

  components::register_standard_globally();
  std::string spec = apps::pip_xspcl(config);
  auto prog = xspcl::build_program(spec, hinch::ComponentRegistry::global());
  if (!prog.is_ok()) {
    std::fprintf(stderr, "%s\n", prog.status().to_string().c_str());
    return 1;
  }

  // Hand-written sequential baseline: fused downscale+blend, no runtime.
  apps::SeqResult seq = apps::run_pip_sequential(config);
  std::printf("sequential: %llu cycles (%d frames)\n",
              static_cast<unsigned long long>(seq.cycles), seq.frames);

  hinch::RunConfig run;
  run.iterations = config.frames;
  const components::SinkAccess* sink = nullptr;

  for (int cores = 1; cores <= max_cores; ++cores) {
    hinch::SimParams sim;
    sim.cores = cores;
    sim.sync_costs = cores > 1;  // §4.2: 1-node runs disable sync ops
    hinch::SimResult r = hinch::run_on_sim(*prog.value(), run, sim);
    std::printf("xspcl/sim cores=%d: %llu cycles, speedup %.2f\n", cores,
                static_cast<unsigned long long>(r.total_cycles),
                static_cast<double>(seq.cycles) /
                    static_cast<double>(r.total_cycles));
    for (int i = 0; i < prog.value()->component_count(); ++i) {
      auto* s = dynamic_cast<const components::SinkAccess*>(
          &prog.value()->component(i));
      if (s) sink = s;
    }
    if (sink && sink->sink().checksum() != seq.checksum) {
      std::fprintf(stderr, "OUTPUT MISMATCH vs sequential version!\n");
      return 1;
    }
  }
  std::printf("XSPCL output is bit-identical to the sequential version "
              "(checksum %016llx)\n",
              static_cast<unsigned long long>(seq.checksum));

  if (sink && sink->sink().frames() > 0) {
    media::RawVideo out(media::PixelFormat::kYuv420, config.width,
                        config.height);
    for (int i = 0; i < sink->sink().frames(); ++i)
      out.append(sink->sink().frame(i)->clone());
    support::Status st = out.save("pip_out.rawv");
    if (st.is_ok())
      std::printf("wrote %d composed frames to pip_out.rawv\n",
                  out.frame_count());
    st = media::save_y4m(out, "pip_out.y4m", 25, 1);
    if (st.is_ok())
      std::printf("wrote pip_out.y4m (play with: mpv pip_out.y4m)\n");
  }
  return 0;
}
