// Macaque demo: the paper's CoCoMac workload end to end, at desktop scale.
//
// Builds the 77-region macaque CoreObject spec (section V), compiles it with
// the Parallel Compass Compiler (section IV), simulates it with Compass
// (section III), and prints per-region activity plus the communication
// profile — a miniature of the runs behind figures 3 and 4.
//
// Usage: macaque_demo [total_cores] [ranks] [ticks]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "compiler/pcc.h"
#include "io/raster.h"
#include "io/spike_stats.h"
#include "runtime/compass.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace compass;

  const std::uint64_t total_cores =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 512;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 8;
  const arch::Tick ticks =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 200;

  // --- 1. Synthesize the CoCoMac spec and compile it ------------------------
  cocomac::MacaqueSpecOptions options;
  options.total_cores = total_cores;
  const compiler::Spec spec = cocomac::build_macaque_spec(options);
  std::cout << "CoreObject spec: " << spec.regions.size() << " regions, "
            << spec.edges.size() << " white-matter edges, "
            << compiler::to_coreobject_string(spec).size() << " bytes\n";

  compiler::PccOptions popt;
  popt.ranks = ranks;
  popt.threads_per_rank = 4;
  compiler::PccResult pcc = compiler::compile(spec, popt);
  const arch::ModelInventory inv = pcc.model.inventory();
  std::cout << "PCC compiled " << inv.cores << " cores / " << inv.neurons
            << " neurons / " << inv.synapses << " synapses in "
            << util::format_double(pcc.stats.compile_s, 3) << " s ("
            << pcc.stats.pcc_messages << " wiring messages, "
            << pcc.stats.white_connections << " white + "
            << pcc.stats.gray_connections << " gray connections)\n\n";

  // --- 2. Simulate with per-region spike accounting -------------------------
  comm::MpiTransport transport(ranks, comm::CommCostModel{});
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  io::RasterRecorder recorder(pcc.partition.ranks());
  sim.attach(&recorder);
  const runtime::RunReport report = sim.run(ticks);
  const io::Raster& raster = recorder.raster();
  std::vector<std::uint64_t> region_spikes(pcc.regions.size(), 0);
  for (const io::RasterEvent& e : raster.events()) {
    ++region_spikes[pcc.model.region(e.core)];
  }

  // --- 3. Per-region report (largest ten regions) ---------------------------
  util::Table table({"region", "class", "cores", "ranks", "rate_hz"});
  std::vector<std::size_t> order(pcc.regions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pcc.regions[a].cores > pcc.regions[b].cores;
  });
  for (std::size_t k = 0; k < std::min<std::size_t>(10, order.size()); ++k) {
    const compiler::RegionInfo& r = pcc.regions[order[k]];
    const double rate =
        static_cast<double>(region_spikes[order[k]]) * 1000.0 /
        (static_cast<double>(r.cores) * 256.0 * static_cast<double>(ticks));
    table.row()
        .add(r.name)
        .add(compiler::to_string(r.cls))
        .add(r.cores)
        .add(std::to_string(r.first_rank) + ".." + std::to_string(r.last_rank))
        .add(rate, 2);
  }
  table.print(std::cout, "Ten largest regions");

  // --- 4. Run summary ---------------------------------------------------------
  std::cout << "\nRun summary (" << ticks << " ticks):\n"
            << "  mean rate:        "
            << util::format_double(report.mean_rate_hz(inv.neurons), 2)
            << " Hz (paper: 8.1 Hz)\n"
            << "  local spikes:     " << report.local_spikes << "\n"
            << "  remote spikes:    " << report.remote_spikes << "\n"
            << "  MPI messages:     " << report.messages << " ("
            << util::format_double(static_cast<double>(report.messages) /
                                       static_cast<double>(ticks), 1)
            << "/tick)\n"
            << "  wire volume:      "
            << util::human_bytes(static_cast<double>(report.wire_bytes)) << "\n"
            << "  virtual time:     "
            << util::format_double(report.virtual_total_s(), 4) << " s ("
            << util::format_double(report.slowdown(), 2) << "x real time)\n"
            << "  host emulation:   "
            << util::format_double(report.host_wall_s, 2) << " s\n";

  const io::TrainStats stats = io::analyze(raster, ticks, inv.neurons);
  std::cout << "\nSpike-train statistics: ISI CV "
            << util::format_double(stats.isi_cv, 3) << ", synchrony (Fano) "
            << util::format_double(stats.synchrony_index, 2)
            << "\nPopulation activity (spikes/tick):\n"
            << io::ascii_activity(io::per_tick_counts(raster, ticks));
  return 0;
}
