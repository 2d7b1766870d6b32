// Power estimation — section I use case (e): "estimating power consumption".
//
// Uses the simulation's exact event counts (spikes fired, crossbar bits
// traversed) with the hardware energy budget from the TrueNorth prototype
// papers (45 pJ/spike at 45 nm, Merolla et al. CICC 2011, cited as [3]) to
// report the power the simulated TrueNorth system would draw — across model
// sizes and firing rates, including the paper's chip unit of 4096 cores.
#include <iostream>

#include "common.h"
#include "perf/energy.h"

int main(int argc, char** argv) {
  using namespace compass;
  using namespace compass::bench;
  init_obs(argc, argv);

  const arch::Tick ticks = static_cast<arch::Tick>(scaled(200, 20));

  print_header("power", "Section I use case (e): power estimation",
               "event-driven energy at 45 pJ/spike puts a 4096-core chip in "
               "the mW envelope");

  util::Table table({"cores", "rate_hz", "spikes_per_s", "syn_events_per_s",
                     "avg_mW", "uW_per_core", "spike_mJ_pct", "static_mJ_pct"});

  for (const double rate : {2.0, 8.0, 20.0}) {
    for (const std::uint64_t base : {512ULL, 4096ULL}) {
      const std::uint64_t cores = scaled(base, 77);
      compiler::PccResult pcc = compile_macaque(cores, 4, 8, rate);
      arch::Model model = pcc.model;
      auto transport = make_transport(TransportKind::kMpi, 4);
      runtime::Compass sim(model, pcc.partition, *transport);
      runtime::RunPlanes planes(outputs(), sim, *transport, *transport);
      const runtime::RunReport rep = sim.run(ticks);
      planes.finish();

      const perf::EnergyEstimate e = perf::estimate_energy(
          cores, rep.ticks, rep.fired_spikes, rep.synaptic_events);
      const double seconds = static_cast<double>(rep.ticks) * 1e-3;
      table.row()
          .add(cores)
          .add(rep.mean_rate_hz(cores * 256), 2)
          .add(static_cast<double>(rep.fired_spikes) / seconds, 0)
          .add(static_cast<double>(rep.synaptic_events) / seconds, 0)
          .add(e.avg_watts * 1e3, 3)
          .add(e.watts_per_core * 1e6, 3)
          .add(100.0 * e.spike_j / e.total_j, 1)
          .add(100.0 * e.static_j / e.total_j, 1);
      std::cout << "  cores=" << cores << " rate=" << rate << " done\n";
    }
  }

  print_results(table, "Estimated TrueNorth power by model size and rate");

  std::cout << "\nShape checks:\n"
               "  - power scales with activity (spikes + synaptic events),\n"
               "    with a static floor per core-tick;\n"
               "  - a 4096-core chip at ~10 Hz draws milliwatts — the\n"
               "    ultra-low-power operating point TrueNorth targets.\n";
  return 0;
}
