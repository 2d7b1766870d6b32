// Topology benchmarking — section I use case (c): "benchmarking inter-core
// communication topologies".
//
// Two questions, both answered with the real macaque traffic matrix:
//   1. What do different torus shapes cost? (diameter / average hops for
//      scaled BG/Q-style allocations.)
//   2. How much does placement matter on a fixed torus? Compare the PCC's
//      region-aligned contiguous placement against a scrambled placement
//      (same load balance, randomised rank order) by the hop-weighted
//      traffic each induces.
#include <iostream>
#include <numeric>
#include <vector>

#include "common.h"
#include "comm/torus.h"
#include "util/prng.h"

int main(int argc, char** argv) {
  using namespace compass;
  using namespace compass::bench;
  init_obs(argc, argv);

  print_header("topology", "Section I use case (c)",
               "torus shape statistics + placement locality on the macaque "
               "traffic matrix");

  // --- 1. Torus shapes -------------------------------------------------------
  util::Table shapes({"nodes", "dims", "diameter", "avg_hops"});
  for (int nodes : {16, 64, 256, 1024}) {
    const comm::TorusTopology t = comm::TorusTopology::blue_gene_q(nodes);
    std::string dims;
    for (std::size_t d = 0; d < 5; ++d) {
      dims += std::to_string(t.dims()[d]);
      if (d + 1 < 5) dims += "x";
    }
    shapes.row().add(nodes).add(dims).add(t.diameter()).add(t.average_hops(), 3);
  }
  print_results(shapes, "BG/Q-style torus shapes");

  // --- 2. Placement locality ---------------------------------------------------
  const std::uint64_t cores = scaled(1024, 77);
  const int nodes = 16;
  const arch::Tick ticks = static_cast<arch::Tick>(scaled(100, 10));
  const comm::TorusTopology topo = comm::TorusTopology::blue_gene_q(nodes);

  compiler::PccResult pcc = compile_macaque(cores, nodes, /*threads=*/4);

  // Measure the inter-rank spike traffic matrix once: the profile
  // collector's off-diagonal cells.
  auto transport = make_transport(TransportKind::kMpi, nodes);
  runtime::Compass sim(pcc.model, pcc.partition, *transport);
  runtime::RunPlanes planes(outputs(), sim, *transport, *transport,
                            /*want_profile=*/true);
  sim.run(ticks);
  planes.finish();
  const obs::CommMatrix& traffic = planes.profiler()->comm_matrix();

  // Hop-weighted cost of a rank->torus-node mapping.
  auto hop_cost = [&](const std::vector<int>& node_of_rank) {
    double weighted = 0.0;
    std::uint64_t spikes = 0;
    for (int s = 0; s < nodes; ++s) {
      for (int d = 0; d < nodes; ++d) {
        const std::uint64_t w = s == d ? 0 : traffic.at(s, d).spikes;
        if (w == 0) continue;
        weighted += static_cast<double>(w) *
                    topo.hops(node_of_rank[static_cast<std::size_t>(s)],
                              node_of_rank[static_cast<std::size_t>(d)]);
        spikes += w;
      }
    }
    return spikes > 0 ? weighted / static_cast<double>(spikes) : 0.0;
  };

  std::vector<int> identity(static_cast<std::size_t>(nodes));
  std::iota(identity.begin(), identity.end(), 0);

  // Scrambled mapping: same machine, randomised rank placement.
  util::CorePrng prng(7);
  std::vector<int> scrambled = identity;
  for (std::size_t i = scrambled.size(); i > 1; --i) {
    std::swap(scrambled[i - 1],
              scrambled[prng.uniform_below(static_cast<std::uint32_t>(i))]);
  }

  // Greedy pairwise-swap descent: how much could a traffic-aware mapper
  // gain at best?
  std::vector<int> optimised = identity;
  double best = hop_cost(optimised);
  bool improved = true;
  while (improved) {
    improved = false;
    for (int a = 0; a < nodes; ++a) {
      for (int b = a + 1; b < nodes; ++b) {
        std::swap(optimised[static_cast<std::size_t>(a)],
                  optimised[static_cast<std::size_t>(b)]);
        const double cost = hop_cost(optimised);
        if (cost + 1e-12 < best) {
          best = cost;
          improved = true;
        } else {
          std::swap(optimised[static_cast<std::size_t>(a)],
                    optimised[static_cast<std::size_t>(b)]);
        }
      }
    }
  }

  util::Table place({"placement", "avg_hops_per_spike", "vs_random_pct"});
  const double contiguous = hop_cost(identity);
  const double random = hop_cost(scrambled);
  place.row().add("contiguous (PCC order)").add(contiguous, 3).add(
      100.0 * contiguous / random, 1);
  place.row().add("scrambled").add(random, 3).add(100.0, 1);
  place.row().add("greedy-optimised").add(best, 3).add(100.0 * best / random, 1);
  print_results(place, "Hop-weighted white-matter traffic, " +
                           std::to_string(nodes) + "-node torus");

  std::cout << "\nShape checks:\n"
               "  - average hops grow slowly with node count (5-D torus);\n"
               "  - the macaque workload's long-range connectivity is\n"
               "    deliberately diffuse (section V-B: it 'places the largest\n"
               "    burden on the communication infrastructure'), so mapping\n"
               "    barely matters: contiguous, scrambled, and even greedy-\n"
               "    optimised placements land within a few percent of each\n"
               "    other in hop cost.\n";
  return 0;
}
