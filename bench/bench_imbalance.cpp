// Load imbalance across ranks — section VI-B attributes part of the
// weak-scaling runtime growth to "computation and communication imbalances
// in the functional regions of the CoCoMac model". This bench quantifies
// those imbalances directly: per-rank spike counts (compute proxy) and
// per-rank outgoing remote spikes (communication proxy) as the model scales,
// reporting the max/mean ratio that inflates the per-tick makespan.
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "io/raster.h"

int main(int argc, char** argv) {
  using namespace compass;
  using namespace compass::bench;
  init_obs(argc, argv);

  const arch::Tick ticks = static_cast<arch::Tick>(scaled(100, 10));

  print_header("imbalance", "Section VI-B imbalance attribution",
               "functional-region imbalance inflates the per-tick makespan");

  util::Table table({"nodes", "cores", "spike_max_over_mean",
                     "remote_max_over_mean", "vt_imbal_neu", "vt_imbal_net",
                     "crit_net_rank", "busiest_rank_regions"});

  for (int nodes : {2, 4, 8, 16}) {
    const std::uint64_t cores = scaled(256, 77) * static_cast<std::uint64_t>(nodes);
    compiler::PccResult pcc = compile_macaque(cores, nodes, /*threads=*/4);

    arch::Model model = pcc.model;
    auto transport = make_transport(TransportKind::kMpi, nodes);
    runtime::Compass sim(model, pcc.partition, *transport);
    // Virtual-time profiler: the authoritative max/mean per phase, next to
    // the functional spike-count proxies: spikes fired per rank (from the
    // raster) and spikes sent off-rank (the comm matrix's off-diagonal).
    runtime::RunPlanes planes(outputs(), sim, *transport, *transport,
                              /*want_profile=*/true);
    io::RasterRecorder recorder(nodes);
    sim.attach(&recorder);
    sim.run(ticks);
    planes.finish();
    const obs::ProfileSummary prof = planes.profiler()->summary();
    std::vector<std::uint64_t> fired(static_cast<std::size_t>(nodes), 0);
    for (const io::RasterEvent& e : recorder.raster().events()) {
      ++fired[static_cast<std::size_t>(pcc.partition.rank_of(e.core))];
    }
    const obs::CommMatrix& traffic = planes.profiler()->comm_matrix();
    std::vector<std::uint64_t> remote(static_cast<std::size_t>(nodes), 0);
    for (int r = 0; r < nodes; ++r) {
      remote[static_cast<std::size_t>(r)] =
          traffic.row_total(r).spikes - traffic.at(r, r).spikes;
    }
    const auto [crit_net_rank, crit_net_ticks] =
        prof.most_critical(&obs::RankCriticalCounts::network);

    // Appended, not "r" + std::to_string(...): GCC 12 reports a false
    // -Wrestrict on that operator+ at -O3.
    std::string crit = "r";
    crit += std::to_string(crit_net_rank);
    crit += " (";
    crit += std::to_string(crit_net_ticks);
    crit += ')';

    auto max_over_mean = [&](const std::vector<std::uint64_t>& v) {
      std::uint64_t max = 0, sum = 0;
      for (std::uint64_t x : v) {
        max = std::max(max, x);
        sum += x;
      }
      return sum > 0 ? static_cast<double>(max) * static_cast<double>(nodes) /
                           static_cast<double>(sum)
                     : 0.0;
    };

    // How many regions live (partly) on the spike-busiest rank?
    std::size_t busiest = 0;
    for (std::size_t r = 1; r < fired.size(); ++r) {
      if (fired[r] > fired[busiest]) busiest = r;
    }
    int regions_on_busiest = 0;
    for (const compiler::RegionInfo& info : pcc.regions) {
      if (info.first_rank <= static_cast<int>(busiest) &&
          static_cast<int>(busiest) <= info.last_rank) {
        ++regions_on_busiest;
      }
    }

    table.row()
        .add(nodes)
        .add(cores)
        .add(max_over_mean(fired), 3)
        .add(max_over_mean(remote), 3)
        .add(prof.imbalance[1], 3)
        .add(prof.imbalance[2], 3)
        .add(crit)
        .add(regions_on_busiest);
    std::cout << "  nodes=" << nodes << " done\n";
  }

  print_results(table, "Per-rank load imbalance on the CoCoMac model");

  std::cout << "\nShape checks vs paper:\n"
               "  - vt_imbal_* are the authoritative virtual-time max/mean\n"
               "    factors from the profiler (spike counts are only a\n"
               "    proxy); crit_net_rank is the rank that set the network\n"
               "    makespan most often (ticks in parentheses);\n"
               "  - imbalance grows with node count: as ranks host fewer\n"
               "    regions each, heterogeneous region sizes and rates stop\n"
               "    averaging out — part of why weak scaling is near- rather\n"
               "    than exactly-flat (section VI-B attributes runtime growth\n"
               "    partly to 'computation and communication imbalances in\n"
               "    the functional regions of the CoCoMac model').\n";
  return 0;
}
