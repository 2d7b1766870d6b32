// Per-tick trace substrate: structured records the runtime emits while it
// simulates, and the writers that persist them.
//
// Two record shapes flow through a TraceSink (schema in DESIGN.md
// "Observability"):
//   * SpanRecord  — one per (tick, rank, phase): the rank's measured compute
//     seconds, its modelled communication seconds, and the functional counts
//     (spikes / messages / bytes) the phase handled. Functional counts and
//     modelled times are deterministic for a fixed model + seed; measured
//     compute is host timing and is never stable across runs.
//   * TickRecord  — one per tick: the composed machine makespan slices
//     (synapse / neuron / network, exactly what perf::compose_tick produced
//     for the tick, so their per-run sums equal RunReport::virtual_time) and
//     the tick's machine-wide functional counters.
//
// Writers:
//   * JsonlTraceWriter  — one JSON object per line; the stable interchange
//     format benches and tests consume.
//   * ChromeTraceWriter — buffers records and writes a Chrome-trace
//     ("catapult") JSON of the virtual-time makespan, loadable in
//     chrome://tracing and Perfetto. Track 0 is the composed machine; one
//     track per rank shows that rank's phase spans inside each tick window.
//   * TraceBuffer       — in-memory capture for tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/profile.h"

namespace compass::obs {

enum class Phase : std::uint8_t { kSynapse = 0, kNeuron = 1, kNetwork = 2 };

const char* phase_name(Phase p);

/// One (tick, rank, phase) span. See the header comment for field stability.
struct SpanRecord {
  std::uint64_t tick = 0;
  int rank = 0;
  Phase phase = Phase::kSynapse;
  double compute_s = 0.0;  // measured host compute (scaled); not reproducible
  double comm_s = 0.0;     // modelled communication cost; deterministic
  std::uint64_t spikes = 0;    // phase-specific spike-like count (see DESIGN.md)
  std::uint64_t messages = 0;  // messages sent (neuron) / received (network)
  std::uint64_t bytes = 0;     // wire bytes sent (neuron) / received (network)

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// One composed per-tick machine summary.
struct TickRecord {
  std::uint64_t tick = 0;
  double synapse_s = 0.0;  // composed makespan slices for this tick
  double neuron_s = 0.0;
  double network_s = 0.0;
  std::uint64_t fired = 0;
  std::uint64_t routed = 0;
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  // Fault-injection counters (src/resilience/). Always zero on fault-free
  // runs; the JSONL writer omits them when all three are zero, so traces of
  // fault-free runs are byte-identical to pre-resilience captures.
  std::uint64_t faults = 0;   // faults injected this tick
  std::uint64_t retries = 0;  // resend attempts this tick
  std::uint64_t lost = 0;     // spikes lost to faults this tick

  friend bool operator==(const TickRecord&, const TickRecord&) = default;
};

/// End-of-run profile, emitted at the end of each run() by the profiler
/// plane to its own sinks (obs/wallprof.h). Pointers stay valid only for
/// the duration of the on_profile() call.
struct ProfileRecord {
  const ProfileSummary* summary = nullptr;
  const CommMatrix* matrix = nullptr;
};

/// One completed rank-failure recovery (src/resilience/recovery.h), emitted
/// at the tick boundary where the supervisor repaired the run. Fault-free
/// runs never emit one, so existing golden traces are unaffected.
struct RecoveryRecord {
  std::uint64_t tick = 0;             // boundary the recovery ran at
  int dead_rank = -1;                 // rank that was lost
  const char* policy = "";            // "restart-rank" | "migrate"
  std::uint64_t checkpoint_tick = 0;  // snapshot the state came from
  std::uint64_t ticks_lost = 0;       // tick - checkpoint_tick
  std::uint64_t cores_recovered = 0;  // cores rebuilt from the snapshot
  std::uint64_t cores_migrated = 0;   // cores re-homed (0 for restart-rank)
};

/// One served-session lifecycle event (src/serve/): create, close,
/// snapshot/restore, or a slow-subscriber disconnect. One-shot CLI runs
/// never emit one, so existing golden traces are unaffected. The string
/// pointers stay valid only for the duration of the on_session() call.
struct SessionRecord {
  const char* event = "";      // "create" | "close" | "snapshot" |
                               // "restore" | "disconnect-slow"
  std::uint64_t session_id = 0;
  std::uint64_t tick = 0;      // session tick when the event happened
  const char* scenario = "";   // canonical scenario text ("" when n/a)
};

/// One streaming-analytics record (src/obs/analytics.h): either a closed
/// window ({"type":"analytics",...}) or the one-time config header
/// ({"type":"analytics_config",...}, recognizable by ticks == 0). `json` is
/// the *canonical* serialized line (no trailing newline) — every surface
/// that persists or transmits analytics carries these exact bytes, which is
/// what makes live/served/offline byte-identity trivially checkable. The
/// pointer stays valid only for the duration of the on_analytics() call.
struct AnalyticsRecord {
  std::uint64_t window = 0;
  std::uint64_t first_tick = 0;
  std::uint64_t ticks = 0;  // ticks covered; 0 marks the config header
  const char* json = "";
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_span(const SpanRecord& span) = 0;
  virtual void on_tick(const TickRecord& tick) = 0;
  /// Default no-op so pre-profile sinks (and the golden trace) are
  /// unaffected; traces only gain a profile record when profiling is on.
  virtual void on_profile(const ProfileRecord& profile) { (void)profile; }
  /// Default no-op for the same reason: only runs that actually recover
  /// from a rank failure gain recovery records.
  virtual void on_recovery(const RecoveryRecord& recovery) { (void)recovery; }
  /// Default no-op: only the serve daemon emits session lifecycle records.
  virtual void on_session(const SessionRecord& session) { (void)session; }
  /// Default no-op: only runs with a streaming-analytics engine attached
  /// emit windowed analytics records, so pre-analytics sinks (and the
  /// golden traces) are unaffected.
  virtual void on_analytics(const AnalyticsRecord& analytics) {
    (void)analytics;
  }
};

struct JsonlOptions {
  /// Emit the host-measured `compute_s` field. Golden traces and determinism
  /// comparisons turn this off so every emitted byte is reproducible.
  bool include_measured = true;
  /// Span + tick records written before further ones are dropped
  /// (0 = unlimited, the default — existing captures are unaffected). When
  /// anything was dropped, finish() appends a
  /// {"type":"truncated","dropped":N} marker so the offline analyzer
  /// (compass_prof) reports the clipping instead of a silent prefix. The
  /// end-of-run profile record is exempt from the cap: it is one summary
  /// line, and dropping it would also hide the comm matrix.
  std::size_t max_records = 0;
};

/// One JSON object per line: {"type":"span",...} / {"type":"tick",...}.
class JsonlTraceWriter final : public TraceSink {
 public:
  explicit JsonlTraceWriter(std::ostream& os, JsonlOptions options = {})
      : os_(os), options_(options) {}
  ~JsonlTraceWriter() override { finish(); }
  void on_span(const SpanRecord& span) override;
  void on_tick(const TickRecord& tick) override;
  void on_profile(const ProfileRecord& profile) override;
  void on_recovery(const RecoveryRecord& recovery) override;
  void on_session(const SessionRecord& session) override;
  void on_analytics(const AnalyticsRecord& analytics) override;

  /// Records dropped after the cap was reached.
  std::uint64_t dropped() const { return dropped_; }

  /// Append the truncation marker when records were dropped. Idempotent;
  /// also run by the destructor.
  void finish();

 private:
  bool admit();

  std::ostream& os_;
  JsonlOptions options_;
  std::size_t written_ = 0;
  std::uint64_t dropped_ = 0;
  bool finished_ = false;
};

/// In-memory capture, used by tests and the bench harness.
class TraceBuffer final : public TraceSink {
 public:
  void on_span(const SpanRecord& span) override { spans_.push_back(span); }
  void on_tick(const TickRecord& tick) override { ticks_.push_back(tick); }
  // The policy pointer is retained as-is; emitters pass static strings
  // (resilience::to_string(RecoveryPolicy)), so buffering stays safe.
  void on_recovery(const RecoveryRecord& recovery) override {
    recoveries_.push_back(recovery);
  }
  // Session strings are only valid for the call, so the buffer owns copies.
  struct OwnedSessionRecord {
    std::string event;
    std::uint64_t session_id = 0;
    std::uint64_t tick = 0;
    std::string scenario;
  };
  void on_session(const SessionRecord& session) override {
    sessions_.push_back({session.event, session.session_id, session.tick,
                         session.scenario});
  }
  // The json pointer is only valid for the call, so the buffer owns a copy.
  struct OwnedAnalyticsRecord {
    std::uint64_t window = 0;
    std::uint64_t first_tick = 0;
    std::uint64_t ticks = 0;
    std::string json;
  };
  void on_analytics(const AnalyticsRecord& analytics) override {
    analytics_.push_back({analytics.window, analytics.first_tick,
                          analytics.ticks, analytics.json});
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<TickRecord>& ticks() const { return ticks_; }
  const std::vector<RecoveryRecord>& recoveries() const { return recoveries_; }
  const std::vector<OwnedSessionRecord>& sessions() const { return sessions_; }
  const std::vector<OwnedAnalyticsRecord>& analytics() const {
    return analytics_;
  }
  void clear() {
    spans_.clear();
    ticks_.clear();
    recoveries_.clear();
    sessions_.clear();
    analytics_.clear();
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<TickRecord> ticks_;
  std::vector<RecoveryRecord> recoveries_;
  std::vector<OwnedSessionRecord> sessions_;
  std::vector<OwnedAnalyticsRecord> analytics_;
};

/// Buffers the run and renders the virtual-time makespan as a Chrome-trace
/// JSON object (call write() once after the run).
///
/// Memory safety for long runs: the buffer is capped at `max_records` total
/// records (spans + ticks, default ~1M ≈ 100 MB worst case). Once the cap
/// is hit, *all* further records are dropped — both kinds, so the rendered
/// trace is a coherent prefix of the run rather than ticks without their
/// spans — and counted in dropped(); write() appends an instant event
/// flagging the truncation so a viewer can't mistake the prefix for the
/// whole run.
class ChromeTraceWriter final : public TraceSink {
 public:
  static constexpr std::size_t kDefaultMaxRecords = 1'000'000;

  explicit ChromeTraceWriter(std::size_t max_records = kDefaultMaxRecords)
      : max_records_(max_records) {}

  void on_span(const SpanRecord& span) override {
    if (spans_.size() + ticks_.size() < max_records_) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  void on_tick(const TickRecord& tick) override {
    if (spans_.size() + ticks_.size() < max_records_) {
      ticks_.push_back(tick);
    } else {
      ++dropped_;
    }
  }

  /// Records dropped after the buffer cap was reached.
  std::uint64_t dropped() const { return dropped_; }

  /// {"displayTimeUnit":"ms","traceEvents":[...]}; timestamps are virtual
  /// microseconds since tick 0 of the capture.
  void write(std::ostream& os) const;

 private:
  std::size_t max_records_;
  std::uint64_t dropped_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<TickRecord> ticks_;
};

}  // namespace compass::obs
