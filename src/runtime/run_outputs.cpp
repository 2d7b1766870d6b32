#include "runtime/run_outputs.h"

#include <cstring>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "util/parse.h"

namespace compass::runtime {

namespace {

// Each flag fills a path or, for the two counts, a positive integer.
struct Flag {
  const char* name;
  std::string OutputOptions::*path;
  std::uint64_t OutputOptions::*count;
};
constexpr Flag kFlags[] = {
    {"--trace-out", &OutputOptions::trace_out, nullptr},
    {"--chrome-out", &OutputOptions::chrome_out, nullptr},
    {"--metrics-out", &OutputOptions::metrics_out, nullptr},
    {"--profile-out", &OutputOptions::profile_out, nullptr},
    {"--spike-trace-out", &OutputOptions::spike_trace_out, nullptr},
    {"--spike-sample", nullptr, &OutputOptions::spike_sample},
    {"--wallprof-out", &OutputOptions::wallprof_out, nullptr},
    {"--analytics-out", &OutputOptions::analytics_out, nullptr},
    {"--analytics-window", nullptr, &OutputOptions::analytics_window},
};

void open_or_throw(std::ofstream& os, const std::string& path) {
  if (path.empty()) return;
  os.open(path);
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace

FlagParse parse_output_flag(std::string_view prog, int argc, char** argv,
                            int& i, OutputOptions& options) {
  for (const Flag& f : kFlags) {
    if (std::strcmp(argv[i], f.name) != 0) continue;
    if (i + 1 >= argc) {
      std::cerr << prog << ": " << f.name << " requires a value\n";
      return FlagParse::kBad;
    }
    const char* v = argv[++i];
    if (f.path != nullptr) {
      options.*f.path = v;
      return FlagParse::kTaken;
    }
    const auto n = util::parse_u64_flag(prog, f.name, v, 1, UINT64_MAX);
    if (!n) return FlagParse::kBad;
    options.*f.count = *n;
    return FlagParse::kTaken;
  }
  return FlagParse::kNotOurs;
}

RunOutputs::RunOutputs(OutputOptions options, bool keep_metrics)
    : options_(std::move(options)),
      metrics_on_(keep_metrics || !options_.metrics_out.empty()) {
  open_or_throw(trace_os_, options_.trace_out);
  open_or_throw(chrome_os_, options_.chrome_out);
  open_or_throw(metrics_os_, options_.metrics_out);
  // --profile-out is rewritten after every run; opening it here only
  // proves the path is writable before any compute.
  std::ofstream profile_os;
  open_or_throw(profile_os, options_.profile_out);
  open_or_throw(spans_os_, options_.spike_trace_out);
  open_or_throw(wall_os_, options_.wallprof_out);
  open_or_throw(analytics_os_, options_.analytics_out);
  if (trace_os_.is_open()) trace_.emplace(trace_os_);
  if (chrome_os_.is_open()) chrome_.emplace();
  if (spans_os_.is_open()) spans_.emplace(spans_os_);
  if (analytics_os_.is_open()) analytics_.emplace(analytics_os_);
}

void RunOutputs::finish(std::string_view prog) {
  if (spans_) {
    spans_->finish();
    spans_os_.flush();
    if (spans_->dropped() > 0) {
      std::cerr << prog << ": WARNING: spike-span writer hit its record cap; "
                << spans_->dropped()
                << " span(s) dropped (raise --spike-sample)\n";
    }
  }
  analytics_os_.flush();
  if (trace_) {
    trace_->finish();
    trace_os_.flush();
    if (trace_->dropped() > 0) {
      std::cerr << prog << ": WARNING: JSONL trace writer hit its record cap; "
                << trace_->dropped() << " record(s) dropped\n";
    }
  }
  if (chrome_) {
    chrome_->write(chrome_os_);
    chrome_os_.flush();
    if (chrome_->dropped() > 0) {
      std::cerr << prog << ": WARNING: Chrome trace buffer hit its record cap; "
                << chrome_->dropped()
                << " record(s) dropped (the view is a prefix of the run)\n";
    }
  }
  if (metrics_os_.is_open()) {
    registry_.write_json(metrics_os_);
    metrics_os_.flush();
  }
}

RunPlanes::RunPlanes(RunOutputs& outputs, Compass& sim,
                     comm::Transport& transport, const comm::Transport& hops,
                     bool want_profile, std::vector<std::uint32_t> core_region,
                     obs::WallprofOptions wallprof)
    : outputs_(outputs) {
  const OutputOptions& o = outputs.options_;
  obs::MetricsRegistry* metrics = outputs.metrics();
  const int ranks = sim.partition().ranks();
  transport.set_metrics(metrics);
  sim.set_metrics(metrics);
  if (outputs.trace_) sim.add_trace_sink(&*outputs.trace_);
  if (outputs.chrome_) sim.add_trace_sink(&*outputs.chrome_);
  if (outputs.spans_) {
    obs::SpikeTraceOptions topt;
    topt.sample_every = o.spike_sample;
    tracer_.emplace(ranks, topt);
    tracer_->set_hop_model(hops.hop_matrix(),
                           hops.cost_model().params().hop_latency_s);
    tracer_->set_metrics(metrics);
    tracer_->add_sink(&*outputs.spans_);
    sim.set_spike_tracer(&*tracer_);
  }
  if (outputs.analytics_) {
    obs::AnalyticsOptions aopt;
    aopt.window_ticks = o.analytics_window;
    analytics_.emplace(ranks,
                       static_cast<std::uint32_t>(sim.partition().num_cores()),
                       std::move(core_region), aopt);
    analytics_->set_metrics(metrics);
    analytics_->add_sink(&*outputs.analytics_);
    sim.set_analytics(&*analytics_);
  }
  // The profile record reaches the trace files only when a profile is
  // asked for, so --wallprof-out alone leaves the trace as it was.
  const bool profiled = want_profile || !o.profile_out.empty();
  if (profiled || outputs.wall_os_.is_open()) {
    profiler_.emplace(ranks, wallprof);
    if (profiled && outputs.trace_) profiler_->add_sink(&*outputs.trace_);
    if (outputs.wall_os_.is_open()) {
      profiler_->set_sink(&outputs.wall_os_);
      profiler_->set_metrics(metrics);
    }
    sim.set_wall_profiler(&*profiler_);
  }
}

void RunPlanes::finish() {
  if (profiler_) profiler_->write_summary();  // no-op without --wallprof-out
  outputs_.wall_os_.flush();
  outputs_.trace_os_.flush();
  outputs_.spans_os_.flush();
  outputs_.analytics_os_.flush();
  const std::string& path = outputs_.options_.profile_out;
  if (profiler_ && !path.empty()) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    obs::write_profile_json(os, profiler_->summary(), profiler_->comm_matrix());
  }
}

}  // namespace compass::runtime
