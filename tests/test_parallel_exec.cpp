// Tests for the OpenMP parallel-execution mode: functional results must be
// identical to serial execution (per-rank state is disjoint and spike
// delivery is order-independent), and so must the recorded spike raster.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/kernels.h"
#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "io/raster.h"
#include "runtime/compass.h"

namespace compass::runtime {
namespace {

compiler::PccResult build(std::uint64_t cores = 96, int ranks = 4) {
  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = cores;
  compiler::PccOptions popt;
  popt.ranks = ranks;
  popt.threads_per_rank = 2;
  return compiler::compile(cocomac::build_macaque_spec(mopt), popt);
}

RunReport run_mode(const compiler::PccResult& pcc, bool parallel,
                   arch::Model* final_model = nullptr) {
  arch::Model model = pcc.model;
  comm::MpiTransport transport(pcc.partition.ranks(), comm::CommCostModel{});
  Config cfg;
  cfg.parallel_execution = parallel;
  Compass sim(model, pcc.partition, transport, cfg);
  const RunReport rep = sim.run(60);
  if (final_model != nullptr) *final_model = model;
  return rep;
}

TEST(ParallelExecution, FunctionalResultsMatchSerial) {
  const compiler::PccResult pcc = build();
  arch::Model serial_model, parallel_model;
  const RunReport serial = run_mode(pcc, false, &serial_model);
  const RunReport parallel = run_mode(pcc, true, &parallel_model);

  EXPECT_EQ(serial.fired_spikes, parallel.fired_spikes);
  EXPECT_EQ(serial.routed_spikes, parallel.routed_spikes);
  EXPECT_EQ(serial.local_spikes, parallel.local_spikes);
  EXPECT_EQ(serial.remote_spikes, parallel.remote_spikes);
  EXPECT_EQ(serial.synaptic_events, parallel.synaptic_events);
  EXPECT_EQ(serial.messages, parallel.messages);
  // The entire final machine state — membranes, delay buffers, PRNGs —
  // must be bit-identical.
  EXPECT_TRUE(serial_model == parallel_model);
}

// The raster recorder stages each rank's spikes in that rank's own buffer,
// so the ranks keep running concurrently while it records, and the raster
// it writes is the serial run's, byte for byte.
TEST(ParallelExecution, RecorderRasterEqualsSerialOnBothTransports) {
  const compiler::PccResult pcc = build(80, 3);
  auto raster_bytes = [&](bool pgas, bool parallel) {
    arch::Model model = pcc.model;
    std::unique_ptr<comm::Transport> transport;
    if (pgas) {
      transport =
          std::make_unique<comm::PgasTransport>(3, comm::CommCostModel{});
    } else {
      transport =
          std::make_unique<comm::MpiTransport>(3, comm::CommCostModel{});
    }
    Config cfg;
    cfg.measure = false;
    cfg.parallel_execution = parallel;
    Compass sim(model, pcc.partition, *transport, cfg);
    io::RasterRecorder recorder(pcc.partition.ranks());
    sim.attach(&recorder);
    const RunReport rep = sim.run(40);
    EXPECT_EQ(recorder.raster().size(), rep.fired_spikes);
    std::ostringstream os;
    recorder.raster().write_binary(os);
    return os.str();
  };
  const std::string serial = raster_bytes(/*pgas=*/false, /*parallel=*/false);
  ASSERT_GT(serial.size(), 16u) << "the run must fire";
  EXPECT_EQ(raster_bytes(/*pgas=*/false, /*parallel=*/true), serial) << "mpi";
  EXPECT_EQ(raster_bytes(/*pgas=*/true, /*parallel=*/true), serial) << "pgas";
}

// The neuron kernel takes each (rank, thread) slice of cores eight at a
// time, so a slice that is not a multiple of eight ends in a short batch.
// At every width, on both kernel paths, the raster must be the scalar
// reference engine's, byte for byte.
TEST(ParallelExecution, RasterUnchangedWhenSlicesAreNotMultiplesOfTheBatch) {
  const compiler::PccResult pcc = build(100, 3);
  auto raster_bytes = [&](int threads, arch::kernels::Engine engine) {
    Partition partition = pcc.partition;
    partition.rethread(threads);
    arch::Model model = pcc.model;
    comm::MpiTransport transport(3, comm::CommCostModel{});
    Config cfg;
    cfg.measure = false;
    cfg.parallel_execution = true;
    const arch::kernels::Engine saved = arch::kernels::engine();
    arch::kernels::set_engine(engine);
    Compass sim(model, partition, transport, cfg);
    io::RasterRecorder recorder(partition.ranks());
    sim.attach(&recorder);
    sim.run(40);
    arch::kernels::set_engine(saved);
    std::ostringstream os;
    recorder.raster().write_binary(os);
    return os.str();
  };
  const std::string reference =
      raster_bytes(1, arch::kernels::Engine::kReference);
  ASSERT_GT(reference.size(), 16u) << "the run must fire";
  for (const int threads : {1, 3, 5}) {
    Partition partition = pcc.partition;
    partition.rethread(threads);
    bool short_batch = false;
    for (int r = 0; r < partition.ranks(); ++r) {
      for (int t = 0; t < threads; ++t) {
        short_batch |= partition.cores_of(r, t).size() %
                           arch::kernels::kNeuronBatch != 0;
      }
    }
    EXPECT_TRUE(short_batch) << "threads=" << threads;
    EXPECT_EQ(raster_bytes(threads, arch::kernels::Engine::kBitParallel),
              reference)
        << "threads=" << threads;
    EXPECT_EQ(raster_bytes(threads, arch::kernels::Engine::kPortable),
              reference)
        << "threads=" << threads << " (portable)";
  }
}

TEST(ParallelExecution, CountersSurviveManySmallTicks) {
  const compiler::PccResult pcc = build(77, 2);
  arch::Model model = pcc.model;
  comm::MpiTransport transport(2, comm::CommCostModel{});
  Config cfg;
  cfg.parallel_execution = true;
  Compass sim(model, pcc.partition, transport, cfg);
  std::uint64_t stepped = 0;
  for (int i = 0; i < 50; ++i) stepped += sim.step();
  EXPECT_EQ(stepped, sim.report().fired_spikes);
  EXPECT_EQ(sim.report().routed_spikes,
            sim.report().local_spikes + sim.report().remote_spikes);
}

}  // namespace
}  // namespace compass::runtime
