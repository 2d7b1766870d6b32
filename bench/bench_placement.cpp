// Placement policy A/B on the CoCoMac model — the section IV locality lever.
//
// The paper keeps heavily-communicating TrueNorth cores on the same Compass
// process to hold the remote-spike fraction down. This bench quantifies how
// much a communication-aware core->rank partition plus a torus-aware
// rank->node embedding buy over the default contiguous-blocks placement:
// for every policy it reports the predicted objective (hop-weighted cut of
// the rate-weighted core graph), the *measured* off-diagonal and
// hop-weighted wire bytes from the profiler's comm matrix, and the virtual
// parallel time of the run. The model is compiled once — placement only
// permutes the partition and the embedding, never the model — so every row
// simulates bit-identical cores.
#include <iostream>
#include <vector>

#include "common.h"
#include "comm/torus.h"
#include "place/comm_graph.h"
#include "place/placement.h"
#include "place/placer.h"

int main(int argc, char** argv) {
  using namespace compass;
  using namespace compass::bench;
  init_obs(argc, argv);

  const int ranks = 8;
  const arch::Tick ticks = static_cast<arch::Tick>(scaled(60, 10));
  const std::uint64_t cores = scaled(512, 128);

  print_header("placement", "Section IV locality (placement A/B)",
               "communication-aware placement cuts hop-weighted wire bytes "
               "vs the contiguous-blocks default");

  compiler::PccResult pcc = compile_macaque(cores, ranks, /*threads=*/2);
  const comm::TorusTopology topo = comm::TorusTopology::blue_gene_q(ranks);

  // Rate-weighted core graph: the predictor every policy optimises.
  place::ExtractOptions eopt;
  eopt.region_rate_hz.resize(pcc.regions.size());
  for (std::size_t r = 0; r < pcc.regions.size(); ++r) {
    eopt.region_rate_hz[r] = pcc.regions[r].rate_hz;
  }
  const place::CoreGraph graph = place::extract_comm_graph(pcc.model, eopt);

  util::Table table({"policy", "predicted_obj", "remote_spikes",
                     "off_diag_bytes", "hop_weighted_bytes", "virtual_time_s",
                     "gain_pct"});

  double baseline_measured = 0.0;
  for (const std::string& policy : place::placer_names()) {
    place::PlacerOptions popt;
    popt.ranks = ranks;
    popt.threads_per_rank = 2;
    popt.topology = &topo;
    popt.seed = 2012;
    const place::Placement placement =
        place::make_placer(policy)->place(graph, popt);

    arch::Model model = pcc.model;  // bit-identical for every policy
    comm::MpiTransport transport(ranks, comm::CommCostModel{});
    transport.set_hop_model(&topo, placement.node_of_rank);
    runtime::Compass sim(model, placement.partition, transport);
    runtime::RunPlanes planes(outputs(), sim, transport, transport,
                              /*want_profile=*/true);
    const runtime::RunReport rep = sim.run(ticks);
    planes.finish();

    const place::PlacementScore measured = place::evaluate_comm_matrix(
        planes.profiler()->comm_matrix(), placement.node_of_rank, &topo);
    if (policy == "uniform") baseline_measured = measured.objective;
    const double gain =
        baseline_measured > 0.0
            ? 100.0 * (baseline_measured - measured.objective) /
                  baseline_measured
            : 0.0;

    table.row()
        .add(policy)
        .add(placement.predicted_objective, 1)
        .add(rep.remote_spikes)
        .add(measured.off_diag_weight, 0)
        .add(measured.objective, 0)
        .add(rep.virtual_time.total(), 6)
        .add(gain, 2);
    std::cout << "  policy=" << policy << " done\n";
  }

  print_results(table, "Placement policies on CoCoMac (" +
                           std::to_string(cores) + " cores, " +
                           std::to_string(ranks) + " ranks)");

  std::cout
      << "\nShape checks vs paper:\n"
         "  - every row simulates the *same* model (placement runs after\n"
         "    wiring); only the core->rank split and rank->node embedding\n"
         "    differ, so fired-spike counts match across rows;\n"
         "  - greedy-refine and recursive-bisect cut off-diagonal bytes by\n"
         "    lowering the remote-spike fraction (section IV's locality\n"
         "    lever); sfc-torus keeps the uniform partition and only cuts\n"
         "    the hop term; random is the anti-locality control and should\n"
         "    be the worst row;\n"
         "  - gain_pct compares measured hop-weighted bytes against the\n"
         "    uniform baseline — the acceptance metric, taken from the\n"
         "    profiler's comm matrix, not from the predictor.\n";
  return 0;
}
