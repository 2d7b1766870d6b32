// Figure 3 — macaque brain map: per-region core allocation before/after
// IPFP normalisation, plus the LGN fan-out worked example.
//
// Paper: "The relative number of TrueNorth cores for each area indicated by
// the Paxinos atlas is depicted in green, and the actual number of
// TrueNorth cores allocated to each region following our normalization step
// is depicted in red, both plotted in log space. Outgoing connections and
// neurons allocated in a 4096 TrueNorth cores model are shown for a typical
// region, LGN."
//
// Output: one row per region with atlas-proportional vs realized
// allocation, and the LGN outgoing-connection breakdown.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "common.h"

int main(int argc, char** argv) {
  using namespace compass;
  using namespace compass::bench;
  init_no_obs(argc, argv);

  const std::uint64_t cores = scaled(4096, 77);  // paper's worked size

  print_header("fig3_allocation", "Figure 3, section V",
               "volume-proportional vs IPFP-normalised core allocation per "
               "region; LGN fan-out example");

  compiler::PccResult pcc = compile_macaque(cores, /*ranks=*/8);

  // "Atlas" allocation: proportional to (imputed) volume, the green series.
  double volume_total = 0.0;
  for (const auto& r : pcc.regions) volume_total += r.volume;

  util::Table table({"region", "class", "volume", "imputed", "atlas_cores",
                     "allocated_cores", "log10_atlas", "log10_alloc",
                     "out_degree"});
  for (std::size_t i = 0; i < pcc.regions.size(); ++i) {
    const compiler::RegionInfo& r = pcc.regions[i];
    const double atlas_cores =
        static_cast<double>(cores) * r.volume / volume_total;
    int out_degree = 0;
    for (std::size_t t = 0; t < pcc.regions.size(); ++t) {
      if (t != i && pcc.connections(i, t) > 0) ++out_degree;
    }
    table.row()
        .add(r.name)
        .add(compiler::to_string(r.cls))
        .add(r.volume, 2)
        .add(r.volume_imputed ? "yes" : "no")
        .add(atlas_cores, 2)
        .add(r.cores)
        .add(std::log10(std::max(atlas_cores, 1e-9)), 3)
        .add(std::log10(static_cast<double>(r.cores)), 3)
        .add(out_degree);
  }
  print_results(table, "Per-region allocation, " + std::to_string(cores) +
                           "-core macaque model (fig 3)");

  // LGN worked example.
  int lgn = -1;
  for (std::size_t i = 0; i < pcc.regions.size(); ++i) {
    if (pcc.regions[i].name == "LGN") lgn = static_cast<int>(i);
  }
  if (lgn >= 0) {
    const auto l = static_cast<std::size_t>(lgn);
    util::Table fanout({"target", "connections", "share_pct"});
    const auto row_total = static_cast<double>(pcc.connections.row_sum(l));
    // Top outgoing targets by connection count.
    std::vector<std::pair<std::int64_t, std::size_t>> targets;
    for (std::size_t t = 0; t < pcc.regions.size(); ++t) {
      if (pcc.connections(l, t) > 0) targets.push_back({pcc.connections(l, t), t});
    }
    std::sort(targets.rbegin(), targets.rend());
    for (std::size_t k = 0; k < std::min<std::size_t>(10, targets.size()); ++k) {
      fanout.row()
          .add(pcc.regions[targets[k].second].name +
               (targets[k].second == l ? " (self/gray)" : ""))
          .add(targets[k].first)
          .add(100.0 * static_cast<double>(targets[k].first) / row_total, 1);
    }
    print_results(fanout,
                  "LGN outgoing connections (top targets) — 'the first stage "
                  "in the thalamocortical visual processing stream'");
    std::cout << "\nLGN allocated " << pcc.regions[l].cores << " cores, "
              << pcc.regions[l].cores * 256 << " neurons; ranks "
              << pcc.regions[l].first_rank << ".." << pcc.regions[l].last_rank
              << "\n";
  }

  std::cout << "\nShape checks vs paper:\n"
               "  - allocated cores track atlas volumes in log space, with\n"
               "    deviations introduced by IPFP balancing (red vs green);\n"
               "  - LGN projects to multiple visual-stream targets, V1 "
               "prominent.\n";
  return 0;
}
