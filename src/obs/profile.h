// Parallel-profile layer: where does the virtual parallel time go?
//
// The paper's scaling story (figures 4–7) is entirely about which phase
// dominates, which ranks straggle, and how much of the Reduce-Scatter is
// hidden by local delivery. The trace layer (trace.h) *emits* the raw
// per-(tick, rank, phase) spans; this module is the analysis half:
//
//   * CommMatrix        — per (source rank -> destination rank) traffic:
//     messages, wire bytes, and spikes. Off-diagonal cells are fed by the
//     transports' shared send accounting (one pointer test per send when
//     detached, like every obs hook); diagonal cells record the Neuron
//     phase's rank-local spike routing (zero messages/bytes — local spikes
//     never touch the wire), so the matrix's spike total equals
//     RunReport::routed_spikes while its message/byte row, column, and
//     grand totals equal RunReport::messages / wire_bytes exactly.
//   * ProfileSummary    — the profiler plane's (obs/wallprof.h) per-rank,
//     per-phase virtual-time accumulators, with derived diagnostics:
//       - load-imbalance factor per phase: max_r(T_r) / mean_r(T_r), 1.0
//         for a perfectly balanced (or empty) phase;
//       - critical-rank attribution: how often each rank set each slice of
//         the per-tick makespan (perf::TickAttribution's argmax rules);
//       - overlap efficiency: sum_t min(max_sync, max_local) /
//         sum_t max_sync — the fraction of collective time hidden by local
//         delivery, quantifying the paper's key Network-phase optimisation
//         (0 when nothing is hidden or the ablation disables overlap).
//   * analyze_trace     — the offline half: re-derives the same profile
//     from a --trace-out JSONL stream, exactly (tick records sum to
//     RunReport::virtual_time bit-for-bit; the comm matrix and overlap
//     figures come from the trace's end-of-run "profile" record when one
//     was emitted). tools/compass_prof is a thin CLI over it.
//
// Per-rank phase seconds use the same accounting as the trace spans
// (compute_s + comm_s per phase), so online and offline totals agree: the
// network figure includes the rank's collective wait (sync), which is
// uniform across ranks and therefore dampens — never inflates — the
// network imbalance factor.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "perf/ledger.h"

namespace compass::obs {

/// One (source rank, destination rank) traffic cell.
struct CommCell {
  std::uint64_t messages = 0;
  std::uint64_t spikes = 0;
  std::uint64_t bytes = 0;

  CommCell& operator+=(const CommCell& o) {
    messages += o.messages;
    spikes += o.spikes;
    bytes += o.bytes;
    return *this;
  }
  friend bool operator==(const CommCell&, const CommCell&) = default;
};

/// Dense ranks x ranks communication matrix. record() is the transports'
/// per-send hook; record_local() the runtime's diagonal (rank-local spikes).
class CommMatrix {
 public:
  explicit CommMatrix(int ranks = 0)
      : ranks_(ranks),
        cells_(static_cast<std::size_t>(ranks) *
               static_cast<std::size_t>(ranks)) {}

  int ranks() const { return ranks_; }

  /// One message/put of `spikes` spikes, `bytes` wire bytes, src -> dst.
  void record(int src, int dst, std::uint64_t spikes, std::uint64_t bytes) {
    CommCell& c = cells_[index(src, dst)];
    ++c.messages;
    c.spikes += spikes;
    c.bytes += bytes;
  }

  /// Rank-local spike routing (diagonal): spikes only, nothing on the wire.
  void record_local(int rank, std::uint64_t spikes) {
    cells_[index(rank, rank)].spikes += spikes;
  }

  const CommCell& at(int src, int dst) const { return cells_[index(src, dst)]; }
  CommCell& at(int src, int dst) { return cells_[index(src, dst)]; }

  CommCell row_total(int src) const;  // everything `src` sent
  CommCell col_total(int dst) const;  // everything `dst` received
  CommCell total() const;
  /// Wire traffic only (src != dst): the quantity placement optimises. Its
  /// message/byte counts equal total()'s — the diagonal never carries any.
  CommCell off_diagonal_total() const;

  friend bool operator==(const CommMatrix&, const CommMatrix&) = default;

 private:
  std::size_t index(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(ranks_) +
           static_cast<std::size_t>(dst);
  }

  int ranks_;
  std::vector<CommCell> cells_;
};

/// One rank's accumulated virtual seconds per phase (trace-span accounting:
/// compute + modelled communication for the phase's leg).
struct RankPhaseSeconds {
  double synapse = 0.0;
  double neuron = 0.0;   // integrate + aggregate + send
  double network = 0.0;  // local + remote delivery + sync + recv
};

/// How often a rank set each slice of the per-tick makespan.
struct RankCriticalCounts {
  std::uint64_t synapse = 0;
  std::uint64_t neuron = 0;
  std::uint64_t network = 0;
};

/// The profiler's virtual-time profile: what Profiler::summary() returns and
/// the JSONL profile record serializes. Plain values — safe to copy across
/// API boundaries.
struct ProfileSummary {
  std::uint64_t ticks = 0;
  perf::PhaseBreakdown totals;  // == RunReport::virtual_time
  std::vector<RankPhaseSeconds> rank_phase_s;   // indexed by rank
  std::vector<RankCriticalCounts> critical;     // indexed by rank
  std::array<double, 3> imbalance = {1.0, 1.0, 1.0};  // max/mean per phase
  double sync_s = 0.0;    // sum of per-tick collective maxima
  double hidden_s = 0.0;  // sum of per-tick hidden collective time
  int ranks() const { return static_cast<int>(rank_phase_s.size()); }
  /// Fraction of collective time hidden by local delivery, in [0, 1].
  double overlap_efficiency() const {
    return sync_s > 0.0 ? hidden_s / sync_s : 0.0;
  }
  /// The rank that most often set `phase`'s slice of the tick makespan (any
  /// slice when `phase` is null) and how often; ties go to the lower rank.
  std::pair<int, std::uint64_t> most_critical(
      std::uint64_t RankCriticalCounts::*phase = nullptr) const;
};

/// max/mean over per-rank phase seconds; 1.0 when the phase has no time (an
/// empty phase is perfectly balanced, and the factor stays >= 1).
double imbalance_factor(const std::vector<RankPhaseSeconds>& ranks,
                        double RankPhaseSeconds::*phase);

/// Serialize a profile as one JSON object (the --profile-out document and
/// the payload of the JSONL "profile" record — schema in DESIGN.md §8).
void write_profile_json(std::ostream& os, const ProfileSummary& summary,
                        const CommMatrix& matrix);

/// The object's fields without the surrounding braces, shared between
/// write_profile_json and the JSONL writer's {"type":"profile",...} record.
void write_profile_fields(std::ostream& os, const ProfileSummary& summary,
                          const CommMatrix& matrix);

// --- Offline analysis (tools/compass_prof) ---------------------------------

/// Profile re-derived from a --trace-out JSONL stream. The per-rank phase
/// seconds and critical counts come from span records (for synapse/neuron
/// spans the argmax rank is exactly the makespan-setting rank; for network
/// spans the whole-span argmax is the documented approximation — the span
/// does not split sync from local delivery). Totals come from tick records
/// and reproduce RunReport::virtual_time bit-for-bit. The comm matrix and
/// the exact overlap figures are only available when the trace carries an
/// end-of-run "profile" record (has_profile).
struct TraceProfile {
  std::uint64_t ticks = 0;
  int ranks = 0;
  perf::PhaseBreakdown totals;
  std::vector<RankPhaseSeconds> rank_phase_s;
  std::vector<RankCriticalCounts> critical;
  std::array<double, 3> imbalance = {1.0, 1.0, 1.0};
  // Functional totals summed over tick records.
  std::uint64_t fired = 0;
  std::uint64_t routed = 0;
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  // From the trace's "profile" record, when present.
  bool has_profile = false;
  ProfileSummary profile;
  CommMatrix matrix;
  /// Records the capped writer dropped ({"type":"truncated"} markers): when
  /// nonzero the trace is a prefix of the run and every total understates.
  std::uint64_t dropped = 0;
};

/// Parse a JSONL trace and derive its profile. Unknown record types and
/// unknown fields are skipped (schema evolution); malformed JSON or
/// structurally impossible records throw std::runtime_error naming the line.
TraceProfile analyze_trace(std::istream& is);

/// Human-readable report: per-phase totals, imbalance factors, top-K
/// heaviest / most-critical ranks, and a text comm-matrix heatmap.
void write_trace_report(std::ostream& os, const TraceProfile& profile,
                        int top_k = 5);

/// Machine-readable form of the same report (one JSON object).
void write_trace_report_json(std::ostream& os, const TraceProfile& profile);

}  // namespace compass::obs
