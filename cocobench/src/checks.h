// Output checks: every run compares the deterministic simulated statistics
// and an end-state hash against a reference, and counts each comparison as
// one attempted operation (failed when it mismatches).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "arch/model.h"
#include "runtime/compass.h"

namespace cocobench {

/// What a finished simulation must reproduce exactly.
struct Outcome {
  std::uint64_t ticks = 0;
  std::uint64_t fired = 0;
  std::uint64_t routed = 0;
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t synaptic_events = 0;
  std::uint64_t end_hash = 0;  // over every core's membrane potentials

  friend bool operator==(const Outcome&, const Outcome&) = default;
  std::string to_string() const;
};

/// FNV-1a over (core, neuron potential) for every core, read through the
/// public NeurosynapticCore::potential accessor.
std::uint64_t end_state_hash(const compass::arch::Model& model);

Outcome outcome_of(const compass::runtime::RunReport& report,
                   const compass::arch::Model& model);

/// FNV-1a over a file's bytes (0 for a missing file).
std::uint64_t file_hash(const std::string& path);

/// Tallies checks; each failed one is reported on stderr.
class Checker {
 public:
  void expect(bool ok, const std::string& what);
  void expect_equal(const Outcome& got, const Outcome& want,
                    const std::string& what);
  /// Invariants any fault-free outcome satisfies: every routed spike is
  /// delivered locally or remotely, the fired count matches the per-tick
  /// sum the benchmark saw, and the model is active.
  void expect_sane(const Outcome& got, std::uint64_t fired_seen,
                   const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Reference outcomes recorded per (seed, model shape): the first run of a
/// seed in a work dir records its reference outcome, and later runs of any
/// workload there, from any build, must reproduce it.
std::optional<Outcome> load_record(const std::string& path);
void save_record(const std::string& path, const Outcome& outcome);

}  // namespace cocobench
