// Shared harness for the figure benchmarks.
//
// Every bench binary prints (a) a provenance header naming the paper figure
// it regenerates, (b) a human-readable table, and (c) the same table as CSV
// (between BEGIN/END CSV markers) for plotting. Model sizes scale with the
// COMPASS_BENCH_SCALE environment variable (default 1.0) so the same
// binaries drive both quick CI runs and larger reproductions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "arch/model.h"
#include "cocomac/macaque.h"
#include "comm/mpi_transport.h"
#include "comm/pgas_transport.h"
#include "compiler/pcc.h"
#include "runtime/compass.h"
#include "runtime/run_outputs.h"
#include "util/table.h"

namespace compass::bench {

/// COMPASS_BENCH_SCALE (default 1.0): multiplies model sizes. A value that
/// is not one positive number prints an error and exits 1.
double bench_scale();

/// Parse the nine output flags (runtime/run_outputs.h) from a bench's argv
/// and open their files. Strict: an unknown flag or a stray positional
/// argument prints usage and exits 1 (a typo'd flag must not silently run
/// the bench without its outputs); a path that cannot be opened exits 2.
/// The outputs are finished when the process exits. Call once, first.
void init_obs(int argc, char** argv);

/// For a bench that simulates nothing: accepts no argument but --help.
void init_no_obs(int argc, char** argv);

/// The process's outputs, for a bench that builds its own Compass:
/// attach a runtime::RunPlanes over them and finish() it after the run.
runtime::RunOutputs& outputs();

/// Scaled count: max(minimum, round(base * bench_scale())).
std::uint64_t scaled(std::uint64_t base, std::uint64_t minimum = 1);

/// Print the provenance header every bench starts with.
void print_header(const std::string& bench_name, const std::string& figure,
                  const std::string& paper_claim);

/// Print table + CSV block.
void print_results(const util::Table& table, const std::string& title);

/// Compile the CoCoMac macaque model at a given size/rank count.
compiler::PccResult compile_macaque(std::uint64_t total_cores, int ranks,
                                    int threads_per_rank = 1,
                                    double rate_hz = 8.0);

enum class TransportKind { kMpi, kPgas };

std::unique_ptr<comm::Transport> make_transport(TransportKind kind, int ranks);

/// Run `ticks` ticks of `model` (copied) under the given machine shape and
/// transport, with the planes the output flags ask for; returns the report.
/// A non-null `profile` receives the profiler's summary — the imbalance /
/// critical-rank / overlap figures the scaling benches tabulate.
runtime::RunReport run_model(const arch::Model& model,
                             const runtime::Partition& partition,
                             TransportKind kind, arch::Tick ticks,
                             runtime::Config config = {},
                             obs::ProfileSummary* profile = nullptr);

/// Synthetic real-time workload of section VII-B: every core's neurons are
/// Poisson sources at `rate_hz`; 75% of neurons target a core on the same
/// *node* (ranks_per_node consecutive ranks), 25% target a remote node.
arch::Model build_realtime_workload(std::uint64_t cores, int ranks,
                                    int ranks_per_node, double rate_hz,
                                    double node_local_fraction = 0.75,
                                    std::uint64_t seed = 2012);

}  // namespace compass::bench
