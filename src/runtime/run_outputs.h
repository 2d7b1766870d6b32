// The observer front end shared by `compass run` and the bench harness.
//
// Both accept the same nine output flags. This module decides, once, which
// flag builds which file and plane (DESIGN.md §8 has the table), how a
// plane gets its hop model and metrics registry, what happens when a path
// cannot be opened, and which warnings print at the end. RunOutputs lives
// for the process: it opens every file up front and owns the registry and
// the writers. RunPlanes lives for one Compass: it builds the planes, sized
// to that run's rank count, over those writers and attaches them.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "comm/transport.h"
#include "obs/analytics.h"
#include "obs/metrics.h"
#include "obs/spiketrace.h"
#include "obs/trace.h"
#include "obs/wallprof.h"
#include "runtime/compass.h"

namespace compass::runtime {

/// The nine output flags; an empty path leaves its output off.
struct OutputOptions {
  std::string trace_out;
  std::string chrome_out;
  std::string metrics_out;
  std::string profile_out;
  std::string spike_trace_out;
  std::uint64_t spike_sample = 64;
  std::string wallprof_out;
  std::string analytics_out;
  std::uint64_t analytics_window = 64;
};

enum class FlagParse { kNotOurs, kTaken, kBad };

/// Offer argv[i] to the output-flag parser. kNotOurs: argv[i] is not one of
/// the nine flags and nothing changed. kTaken: the flag and its value were
/// stored in `options` and `i` now points at the value. kBad: the value is
/// missing or not a positive integer; the reason was printed to stderr,
/// prefixed by `prog`.
FlagParse parse_output_flag(std::string_view prog, int argc, char** argv,
                            int& i, OutputOptions& options);

class RunOutputs {
 public:
  /// Opens (and truncates) every file `options` names; throws
  /// std::runtime_error("cannot write <path>") for the first that cannot
  /// be opened. `keep_metrics` keeps a live registry without --metrics-out,
  /// for a caller that reads it itself.
  explicit RunOutputs(OutputOptions options, bool keep_metrics = false);
  RunOutputs(const RunOutputs&) = delete;
  RunOutputs& operator=(const RunOutputs&) = delete;

  /// The registry PCC, Compass, the transport and the planes publish into;
  /// nullptr when no metrics output is wanted.
  obs::MetricsRegistry* metrics() {
    return metrics_on_ ? &registry_ : nullptr;
  }

  /// After the last run: close the JSONL writers, write the Chrome trace
  /// and the metrics snapshot, and warn on stderr (prefixed by `prog`) for
  /// every writer that hit its record cap.
  void finish(std::string_view prog);

 private:
  friend class RunPlanes;

  OutputOptions options_;
  bool metrics_on_;
  obs::MetricsRegistry registry_;
  std::ofstream trace_os_, chrome_os_, metrics_os_, spans_os_, wall_os_,
      analytics_os_;
  std::optional<obs::JsonlTraceWriter> trace_;
  std::optional<obs::ChromeTraceWriter> chrome_;
  std::optional<obs::JsonlSpikeSpanWriter> spans_;
  std::optional<obs::JsonlTraceWriter> analytics_;
};

class RunPlanes {
 public:
  /// Build the planes `outputs` asks for and attach them, with the trace
  /// sinks and the registry, to `sim` and to `transport` (the one `sim`
  /// sends through). `hops` supplies the spike tracer's hop distances.
  /// `want_profile` builds the profiler, and writes its profile record to
  /// the trace files, even without --profile-out; `core_region` maps each
  /// core to its analytics region (empty: one region of all cores);
  /// `wallprof` configures the profiler's wall side.
  RunPlanes(RunOutputs& outputs, Compass& sim, comm::Transport& transport,
            const comm::Transport& hops, bool want_profile = false,
            std::vector<std::uint32_t> core_region = {},
            obs::WallprofOptions wallprof = {});
  RunPlanes(const RunPlanes&) = delete;
  RunPlanes& operator=(const RunPlanes&) = delete;

  // The planes built, or nullptr. The profiler is built for --profile-out,
  // --wallprof-out or `want_profile`.
  obs::Profiler* profiler() { return profiler_ ? &*profiler_ : nullptr; }
  const obs::SpikeTracer* spike_tracer() const {
    return tracer_ ? &*tracer_ : nullptr;
  }
  const obs::AnalyticsEngine* analytics() const {
    return analytics_ ? &*analytics_ : nullptr;
  }

  /// After the run: append the wall summary, flush the appending files,
  /// and rewrite --profile-out from the profiler.
  void finish();

 private:
  RunOutputs& outputs_;
  std::optional<obs::SpikeTracer> tracer_;
  std::optional<obs::AnalyticsEngine> analytics_;
  std::optional<obs::Profiler> profiler_;
};

}  // namespace compass::runtime
