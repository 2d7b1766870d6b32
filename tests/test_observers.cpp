// Every observer plane on one run: the spike tracer, the analytics engine,
// the profiler and the flight recorder, plus a JSONL trace sink and a
// metrics registry. The planes share one hook list in the runtime
// (obs/observer.h), so none may perturb another: each deterministic output
// of the full run must equal the same output of a run with that plane
// alone, in either attach order, on both transports, serial and parallel —
// and the committed golden files must still match.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "io/raster.h"
#include "obs/analytics.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/spiketrace.h"
#include "obs/trace.h"
#include "obs/wallprof.h"
#include "runtime/compass.h"

#ifndef COMPASS_TEST_DATA_DIR
#error "COMPASS_TEST_DATA_DIR must be defined by the build"
#endif

namespace compass {
namespace {

// The goldens' model and settings: 77 cores, 3 ranks x 2 threads, modelled
// times only; the span golden samples 1 in 4 over 12 ticks, the analytics
// golden closes 16-tick windows over 50.
constexpr arch::Tick kTicks = 50;
constexpr arch::Tick kTraceGoldenTicks = 12;

const compiler::PccResult& model() {
  static const compiler::PccResult pcc = [] {
    cocomac::MacaqueSpecOptions mopt;
    mopt.total_cores = 77;
    mopt.seed = 2012;
    compiler::PccOptions popt;
    popt.ranks = 3;
    popt.threads_per_rank = 2;
    return compiler::compile(cocomac::build_macaque_spec(mopt), popt);
  }();
  return pcc;
}

std::vector<std::uint32_t> region_map(const compiler::PccResult& pcc) {
  std::vector<std::uint32_t> core_region(pcc.model.num_cores(), 0);
  for (std::size_t g = 0; g < pcc.regions.size(); ++g) {
    const compiler::RegionInfo& r = pcc.regions[g];
    for (std::int64_t c = 0; c < r.cores; ++c) {
      core_region[static_cast<std::size_t>(r.first_core) +
                  static_cast<std::size_t>(c)] = static_cast<std::uint32_t>(g);
    }
  }
  return core_region;
}

enum class Plane { kFlight, kProfile, kTracer, kAnalytics };

const std::vector<Plane> kAllPlanes = {Plane::kFlight, Plane::kProfile,
                                       Plane::kTracer, Plane::kAnalytics};

struct Outputs {
  std::string trace;      // JSONL trace sink
  std::string analytics;  // analytics records, one per line
  std::string spans;      // spike-span JSONL
  runtime::RunReport report;
  std::uint64_t profile_ticks = 0;
  std::uint64_t wall_ticks = 0;
  std::uint64_t flight_events = 0;
};

/// Run kTicks with `planes` attached in the given order, plus a JSONL trace
/// sink and a metrics registry.
Outputs run(const std::vector<Plane>& planes, bool pgas, bool parallel) {
  const compiler::PccResult& pcc = model();
  const int ranks = pcc.partition.ranks();
  arch::Model m = pcc.model;
  std::unique_ptr<comm::Transport> transport;
  if (pgas) {
    transport =
        std::make_unique<comm::PgasTransport>(ranks, comm::CommCostModel{});
  } else {
    transport =
        std::make_unique<comm::MpiTransport>(ranks, comm::CommCostModel{});
  }
  runtime::Config cfg;
  cfg.parallel_execution = parallel;
  cfg.measure = false;
  runtime::Compass sim(m, pcc.partition, *transport, cfg);

  obs::MetricsRegistry registry;
  sim.set_metrics(&registry);
  transport->set_metrics(&registry);
  std::ostringstream trace_os;
  obs::JsonlTraceWriter trace_writer(
      trace_os, obs::JsonlOptions{.include_measured = false});
  sim.add_trace_sink(&trace_writer);

  obs::FlightRecorder flight(ranks);
  obs::SpikeTracer tracer(ranks, obs::SpikeTraceOptions{.sample_every = 4});
  std::ostringstream spans_os;
  obs::JsonlSpikeSpanWriter span_writer(spans_os);
  tracer.add_sink(&span_writer);
  tracer.set_metrics(&registry);
  obs::AnalyticsOptions aopt;
  aopt.window_ticks = 16;
  obs::AnalyticsEngine analytics(
      ranks, static_cast<std::uint32_t>(pcc.model.num_cores()),
      region_map(pcc), aopt);
  obs::TraceBuffer analytics_buf;
  analytics.add_sink(&analytics_buf);
  analytics.set_metrics(&registry);
  std::ostringstream wall_os;
  obs::Profiler profiler(ranks);
  profiler.add_sink(&trace_writer);
  profiler.set_sink(&wall_os);
  profiler.set_metrics(&registry);

  for (const Plane p : planes) {
    switch (p) {
      case Plane::kFlight: sim.set_flight_recorder(&flight); break;
      case Plane::kProfile: sim.set_wall_profiler(&profiler); break;
      case Plane::kTracer: sim.set_spike_tracer(&tracer); break;
      case Plane::kAnalytics: sim.set_analytics(&analytics); break;
    }
  }

  Outputs out;
  out.report = sim.run(kTicks);
  span_writer.finish();
  out.trace = trace_os.str();
  for (const auto& rec : analytics_buf.analytics()) {
    out.analytics += rec.json;
    out.analytics += '\n';
  }
  out.spans = spans_os.str();
  out.profile_ticks = profiler.summary().ticks;
  out.wall_ticks = profiler.ticks();
  out.flight_events = flight.recorded();
  return out;
}

std::string read_golden(const char* name) {
  const std::string path = std::string(COMPASS_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The first `lines` lines of `text`, newlines included.
std::string first_lines(const std::string& text, std::size_t lines) {
  std::size_t end = 0;
  for (std::size_t i = 0; i < lines && end != std::string::npos; ++i) {
    end = text.find('\n', end);
    if (end != std::string::npos) ++end;
  }
  return end == std::string::npos ? text : text.substr(0, end);
}

TEST(AllObservers, EveryOutputEqualsItsPlaneAloneInEitherAttachOrder) {
  std::vector<Plane> reversed(kAllPlanes.rbegin(), kAllPlanes.rend());
  for (const bool pgas : {false, true}) {
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "pgas=" << pgas << " parallel=" << parallel);
      const Outputs profile_alone = run({Plane::kProfile}, pgas, parallel);
      const Outputs tracer_alone = run({Plane::kTracer}, pgas, parallel);
      const Outputs analytics_alone = run({Plane::kAnalytics}, pgas, parallel);
      ASSERT_FALSE(profile_alone.trace.empty());
      ASSERT_FALSE(tracer_alone.spans.empty());
      ASSERT_FALSE(analytics_alone.analytics.empty());
      for (const std::vector<Plane>& order : {kAllPlanes, reversed}) {
        const Outputs all = run(order, pgas, parallel);
        EXPECT_EQ(all.trace, profile_alone.trace);
        EXPECT_EQ(all.spans, tracer_alone.spans);
        EXPECT_EQ(all.analytics, analytics_alone.analytics);
        EXPECT_EQ(all.report.fired_spikes, profile_alone.report.fired_spikes);
        EXPECT_EQ(all.report.wire_bytes, profile_alone.report.wire_bytes);
        EXPECT_EQ(all.profile_ticks, kTicks);
        EXPECT_FALSE(all.report.metrics.empty());
        // The wall side and the flight recorder, which have no
        // deterministic bytes, still saw every tick.
        EXPECT_EQ(all.wall_ticks, kTicks);
        EXPECT_GE(all.flight_events, 3 * kTicks);
      }
    }
  }
}

TEST(AllObservers, CommittedGoldensStillMatch) {
  const std::string golden_trace = read_golden("golden_trace.jsonl");
  const std::string golden_spans = read_golden("golden_spike_trace.jsonl");
  const std::string golden_analytics = read_golden("golden_analytics.jsonl");
  ASSERT_FALSE(golden_spans.empty());
  std::vector<Plane> reversed(kAllPlanes.rbegin(), kAllPlanes.rend());
  for (const bool pgas : {false, true}) {
    for (const bool parallel : {false, true}) {
      for (const std::vector<Plane>& order : {kAllPlanes, reversed}) {
        SCOPED_TRACE(testing::Message()
                     << "pgas=" << pgas << " parallel=" << parallel);
        const Outputs all = run(order, pgas, parallel);
        // Analytics and spans are transport-independent; the golden trace
        // was recorded on MPI. The span and trace goldens cover the first
        // 12 ticks, so they are prefixes of this 50-tick run.
        EXPECT_EQ(all.analytics, golden_analytics);
        EXPECT_EQ(all.spans.substr(0, golden_spans.size()), golden_spans);
        if (!pgas) {
          // One tick record plus three spans per rank, per tick.
          EXPECT_EQ(first_lines(all.trace, kTraceGoldenTicks * (3 * 3 + 1)),
                    golden_trace);
        }
      }
    }
  }
}

TEST(AllObservers, NullOrMismatchedPlaneIsRejected) {
  const compiler::PccResult& pcc = model();
  arch::Model m = pcc.model;
  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Compass sim(m, pcc.partition, transport);
  EXPECT_THROW(sim.set_spike_tracer(nullptr), std::invalid_argument);
  EXPECT_THROW(sim.set_analytics(nullptr), std::invalid_argument);
  EXPECT_THROW(sim.set_wall_profiler(nullptr), std::invalid_argument);
  EXPECT_THROW(sim.set_flight_recorder(nullptr), std::invalid_argument);
  obs::FlightRecorder wrong_flight(4);
  EXPECT_THROW(sim.set_flight_recorder(&wrong_flight), std::invalid_argument);
  EXPECT_THROW(sim.attach(static_cast<io::RasterRecorder*>(nullptr)),
               std::invalid_argument);
  io::RasterRecorder wrong_recorder(4);
  EXPECT_THROW(sim.attach(&wrong_recorder), std::invalid_argument);
}

// The profiler and the flight recorder each fill the transport's one slot
// of their kind. A second one would take the slot from the first (whose
// comm matrix would then stay empty off the diagonal), so it is rejected
// and the first keeps working.
TEST(AllObservers, SecondPlaneOfATransportSlotIsRejected) {
  const compiler::PccResult& pcc = model();
  arch::Model m = pcc.model;
  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Config cfg;
  cfg.measure = false;
  runtime::Compass sim(m, pcc.partition, transport, cfg);
  obs::Profiler profiler(3), second_profiler(3);
  obs::FlightRecorder flight(3), second_flight(3);
  sim.set_wall_profiler(&profiler);
  sim.set_flight_recorder(&flight);
  EXPECT_THROW(sim.set_wall_profiler(&second_profiler), std::invalid_argument);
  EXPECT_THROW(sim.set_wall_profiler(&profiler), std::invalid_argument);
  EXPECT_THROW(sim.set_flight_recorder(&second_flight), std::invalid_argument);
  // Planes that hold no transport slot may still be attached twice.
  obs::SpikeTracer tracer(3), second_tracer(3);
  sim.set_spike_tracer(&tracer);
  EXPECT_NO_THROW(sim.set_spike_tracer(&second_tracer));

  const runtime::RunReport rep = sim.run(kTicks);
  ASSERT_GT(rep.remote_spikes, 0u);
  EXPECT_EQ(profiler.comm_matrix().off_diagonal_total().spikes,
            rep.remote_spikes);
  EXPECT_EQ(second_profiler.comm_matrix().total().spikes, 0u);
}

}  // namespace
}  // namespace compass
