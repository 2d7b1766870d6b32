// Determinism suite: the functional half of the simulator — and, with host
// timers off, the entire trace — must be a pure function of (model, seed,
// partition, transport), regardless of
//   * parallel_execution on or off,
//   * how many OpenMP threads execute the emulated ranks,
//   * how many times the run is repeated in one process.
//
// Traces are compared as serialized JSONL with host-measured fields excluded
// (JsonlOptions::include_measured = false) and the measure flag off, so
// every compared byte — including the modelled communication times — must
// reproduce exactly.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <sstream>
#include <string>

#include "arch/kernels.h"
#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "obs/trace.h"
#include "obs/wallprof.h"
#include "runtime/compass.h"

namespace compass {
namespace {

compiler::PccResult build_fixed_model() {
  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = 77;
  mopt.seed = 2012;
  compiler::PccOptions popt;
  popt.ranks = 3;
  popt.threads_per_rank = 2;
  return compiler::compile(cocomac::build_macaque_spec(mopt), popt);
}

struct DeterministicRun {
  runtime::RunReport report;
  std::string trace_jsonl;  // fully deterministic serialization
};

DeterministicRun run_once(const compiler::PccResult& pcc, bool parallel,
                          bool use_pgas = false) {
  arch::Model model = pcc.model;
  std::unique_ptr<comm::Transport> transport;
  if (use_pgas) {
    transport = std::make_unique<comm::PgasTransport>(pcc.partition.ranks(),
                                                      comm::CommCostModel{});
  } else {
    transport = std::make_unique<comm::MpiTransport>(pcc.partition.ranks(),
                                                     comm::CommCostModel{});
  }
  runtime::Config cfg;
  cfg.parallel_execution = parallel;
  cfg.measure = false;  // modelled times only: the whole trace is reproducible
  runtime::Compass sim(model, pcc.partition, *transport, cfg);

  // Profiling on: the end-of-run "profile" record (imbalance, critical-rank
  // counts, comm matrix) joins the compared bytes, so the profiler itself is
  // locked down as deterministic too.
  std::ostringstream os;
  obs::JsonlTraceWriter writer(os, obs::JsonlOptions{.include_measured = false});
  sim.add_trace_sink(&writer);
  obs::Profiler profiler(pcc.partition.ranks());
  profiler.add_sink(&writer);
  sim.set_wall_profiler(&profiler);

  DeterministicRun out;
  out.report = sim.run(50);
  out.trace_jsonl = os.str();
  return out;
}

void expect_equivalent(const DeterministicRun& a, const DeterministicRun& b) {
  EXPECT_EQ(a.report.ticks, b.report.ticks);
  EXPECT_EQ(a.report.fired_spikes, b.report.fired_spikes);
  EXPECT_EQ(a.report.routed_spikes, b.report.routed_spikes);
  EXPECT_EQ(a.report.local_spikes, b.report.local_spikes);
  EXPECT_EQ(a.report.remote_spikes, b.report.remote_spikes);
  EXPECT_EQ(a.report.synaptic_events, b.report.synaptic_events);
  EXPECT_EQ(a.report.messages, b.report.messages);
  EXPECT_EQ(a.report.wire_bytes, b.report.wire_bytes);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
}

TEST(Determinism, RepeatedRunsAreByteIdentical) {
  const compiler::PccResult pcc = build_fixed_model();
  const DeterministicRun first = run_once(pcc, /*parallel=*/false);
  const DeterministicRun second = run_once(pcc, /*parallel=*/false);
  ASSERT_FALSE(first.trace_jsonl.empty());
  expect_equivalent(first, second);
}

TEST(Determinism, ParallelExecutionMatchesSerial) {
  const compiler::PccResult pcc = build_fixed_model();
  const DeterministicRun serial = run_once(pcc, /*parallel=*/false);
  const DeterministicRun parallel = run_once(pcc, /*parallel=*/true);
  expect_equivalent(serial, parallel);
}

TEST(Determinism, PgasRepeatedRunsAreByteIdentical) {
  const compiler::PccResult pcc = build_fixed_model();
  const DeterministicRun first = run_once(pcc, /*parallel=*/false, true);
  const DeterministicRun second = run_once(pcc, /*parallel=*/true, true);
  expect_equivalent(first, second);
}

TEST(Determinism, IndependentOfOmpThreadCount) {
#ifdef _OPENMP
  const compiler::PccResult pcc = build_fixed_model();
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const DeterministicRun baseline = run_once(pcc, /*parallel=*/true);
  for (const int threads : {2, 8}) {
    omp_set_num_threads(threads);
    const DeterministicRun run = run_once(pcc, /*parallel=*/true);
    SCOPED_TRACE("OMP threads = " + std::to_string(threads));
    expect_equivalent(baseline, run);
  }
  omp_set_num_threads(saved);
#else
  GTEST_SKIP() << "built without OpenMP; thread-count sweep not applicable";
#endif
}

TEST(Determinism, BitParallelEngineMatchesReferenceEngine) {
  // The hot-loop engine toggle (arch/kernels.h) must be unobservable: a full
  // model run with the bit-parallel kernels produces byte-identical traces —
  // spikes, modelled times, profiler records — to the same run with the
  // original scalar walks forced everywhere.
  const compiler::PccResult pcc = build_fixed_model();
  const arch::kernels::Engine saved = arch::kernels::engine();
  arch::kernels::set_engine(arch::kernels::Engine::kBitParallel);
  const DeterministicRun kernels_run = run_once(pcc, /*parallel=*/false);
  arch::kernels::set_engine(arch::kernels::Engine::kReference);
  const DeterministicRun reference_run = run_once(pcc, /*parallel=*/false);
  arch::kernels::set_engine(saved);
  ASSERT_FALSE(kernels_run.trace_jsonl.empty());
  expect_equivalent(kernels_run, reference_run);
}

TEST(Determinism, MeasuredRunsKeepFunctionalCountersStable) {
  // With host timers ON the time fields wobble, but the functional counters
  // must not.
  const compiler::PccResult pcc = build_fixed_model();
  auto run_measured = [&](bool parallel) {
    arch::Model model = pcc.model;
    comm::MpiTransport transport(3, comm::CommCostModel{});
    runtime::Config cfg;
    cfg.parallel_execution = parallel;
    runtime::Compass sim(model, pcc.partition, transport, cfg);
    return sim.run(30);
  };
  const runtime::RunReport a = run_measured(false);
  const runtime::RunReport b = run_measured(true);
  EXPECT_EQ(a.fired_spikes, b.fired_spikes);
  EXPECT_EQ(a.routed_spikes, b.routed_spikes);
  EXPECT_EQ(a.local_spikes, b.local_spikes);
  EXPECT_EQ(a.remote_spikes, b.remote_spikes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
}

}  // namespace
}  // namespace compass
