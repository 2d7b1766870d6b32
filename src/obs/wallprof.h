// The profiler plane: one per-rank x per-phase table, two clocks.
//
// Each tick the runtime hands the plane every rank's phase times on the
// *virtual* clock (the ledger: what the modelled machine would spend) and
// the *wall* clock (monotonic: what this host spent emulating the same
// region); their ratio per phase is the emulation slowdown. Two views are
// read from the table:
//   * the virtual profile (obs/profile.h) — per-rank phase seconds in
//     trace-span accounting, critical ranks, overlap legs and the comm
//     matrix: a {"type":"profile"} record to the plane's trace sinks
//     (add_sink) at the end of each run, --profile-out, compass_prof;
//   * the wall profile (WallprofSummary) — wall brackets next to virtual
//     seconds, global wall events (exchange, checkpoint, recovery, PCC
//     compile), tick rate, RSS, kernel-dispatch mix and the
//     instrumentation's own cost: JSONL to the wall sink (set_sink),
//     compass_prof --wall.
//
// Contract (as metrics.h): off by default, and the runtime reads the
// monotonic clock only while an observer is attached; wall records never
// ride a trace sink, so traces, goldens and checkpoints stay byte-identical
// with the plane on; race-free, since the runtime brackets each rank's
// phases into its own TickView slot and the plane records them at
// end_tick() on the driver thread (the op counter is a relaxed atomic).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include <atomic>

#include "arch/kernels.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace compass::obs {

// --- Phases -----------------------------------------------------------------

/// Host-time attribution buckets. The first kRankWallPhases are recorded per
/// rank inside the tick loop; the rest are global events recorded by their
/// owning subsystem (transport exchange, checkpoint writer, recovery
/// supervisor, PCC compile).
enum class WallPhase : std::uint8_t {
  kSynapse = 0,   // per-rank: synapse-phase host time
  kNeuron,        // per-rank: neuron phase + send-side aggregation
  kSend,          // per-rank: transport send/put injection
  kExchange,      // global: Reduce-Scatter / barrier completion
  kNetwork,       // per-rank: local + remote spike delivery
  kCheckpoint,    // global: snapshot capture + write + prune
  kRecovery,      // global: rank-failure recovery action
  kPccCompile,    // global: PCC model compilation
};

inline constexpr int kWallPhaseCount = 8;
/// Phases with per-rank wall slots (kSynapse..kNetwork). kExchange is driven
/// from the serial transport call, so its wall time is global, but its
/// *virtual* cost (the modelled sync charge) is still per rank.
inline constexpr int kRankWallPhases = 5;

const char* wall_phase_name(WallPhase phase);

// --- Aggregation ------------------------------------------------------------

/// Min/mean/max plus a power-of-two microsecond histogram for one phase.
/// Bucketing matches metrics.h: an observation of u microseconds lands in
/// bucket bit_width(u) (0 for sub-microsecond), so bucket b>0 covers
/// [2^(b-1), 2^b) us.
struct WallPhaseStats {
  static constexpr int kBuckets = 32;  // 2^31 us ~ 36 minutes, ample

  std::uint64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};

  void observe(double seconds);
  double mean_s() const {
    return count ? total_s / static_cast<double>(count) : 0.0;
  }
  void merge(const WallPhaseStats& other);
};

/// Moving window over (tick, cumulative wall seconds) samples; the live
/// tick-rate estimate the heartbeat and --progress report. Pure data — fed
/// explicitly so tests can drive it with synthetic clocks.
class TickRateWindow {
 public:
  explicit TickRateWindow(std::size_t capacity = 64);

  void add(std::uint64_t tick, double wall_s);
  /// Ticks per second across the window (0 until two samples span it).
  double ticks_per_second() const;
  void clear();
  std::size_t size() const { return size_; }

 private:
  struct Sample {
    std::uint64_t tick = 0;
    double wall_s = 0.0;
  };
  std::vector<Sample> ring_;
  std::size_t head_ = 0;  // index of the oldest sample
  std::size_t size_ = 0;
};

// --- Host resources ---------------------------------------------------------

/// Resident-set sizes from /proc/self/status (zeros on platforms without
/// it — the schema stays stable, the values degrade).
struct HostResources {
  std::uint64_t rss_bytes = 0;       // VmRSS
  std::uint64_t peak_rss_bytes = 0;  // VmHWM
};

HostResources sample_host_resources();

// --- Kernel dispatch attribution --------------------------------------------

/// How many phase executions took each hot-loop path during the profiled
/// runs (deltas of arch::kernels' dispatch counters). Makes the bit-parallel
/// vs reference wall cost attributable: a synapse wall total with
/// synapse_scalar dominant means the dispatcher, not the kernel, owns the
/// time.
using KernelDispatchCounts = arch::kernels::DispatchCounters;

// --- The profiler -----------------------------------------------------------

struct WallprofOptions {
  /// Emit a {"type":"wallheartbeat"} record every N completed ticks (0 = no
  /// heartbeat records; the end-of-run summary is always written).
  std::uint64_t heartbeat_every_ticks = 0;
};

/// One rank's wall + virtual accumulation for one per-rank phase.
struct WallRankPhase {
  WallPhaseStats wall;
  double virtual_s = 0.0;
};

/// End-of-run snapshot; what the {"type":"wallprof"} record serialises.
struct WallprofSummary {
  int ranks = 0;
  std::uint64_t ticks = 0;
  double wall_s = 0.0;             // first begin_tick() to last end_tick()
  double ticks_per_second = 0.0;   // ticks / wall_s (whole run, not window)
  HostResources resources;
  KernelDispatchCounts kernels;
  double overhead_s = 0.0;         // estimated instrumentation cost
  std::uint64_t timer_ops = 0;     // record()/end_tick() operations
  /// rank_phase[rank][p] for p in [0, kRankWallPhases).
  std::vector<std::array<WallRankPhase, kRankWallPhases>> rank_phase;
  /// Global slots for every phase (exchange/checkpoint/recovery/pcc land
  /// here; per-rank phases stay zero).
  std::array<WallPhaseStats, kWallPhaseCount> global_phase{};

  /// Wall seconds attributed to `phase` across ranks + global slots.
  double phase_wall_s(WallPhase phase) const;
  /// Virtual seconds attributed to `phase`, summed across ranks.
  double phase_virtual_s(WallPhase phase) const;
};

/// One {"type":"wallprof","schema":"compass.wallprof.v1"} JSONL line.
void write_wallprof_summary_json(std::ostream& os,
                                 const WallprofSummary& summary);

/// The profiler plane. Attach with runtime::Compass::set_wall_profiler();
/// the runtime feeds it once per tick, and the transport feeds the comm
/// matrix once per send and the exchange bracket once per tick. Accumulates
/// until destroyed: one plane profiles a whole run, or several run() calls
/// over the same simulator.
class Profiler final : public TickObserver {
 public:
  explicit Profiler(int ranks, WallprofOptions options = {});
  /// Restores the dispatch-counting state if destroyed mid-run.
  ~Profiler() override;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  int ranks() const { return ranks_; }

  /// Trace sink that receives the {"type":"profile"} record at the end of
  /// each run. Sinks must outlive the plane.
  void add_sink(TraceSink* sink);

  /// JSONL sink for heartbeat records and the end-of-run wall summary.
  /// Separate from every trace sink by design; pass nullptr to detach. The
  /// stream must outlive the plane.
  void set_sink(std::ostream* os) { sink_ = os; }

  /// Publish live gauges (compass_ticks_per_second, compass_rss_bytes, and
  /// per-phase compass_wall_phase_seconds_<phase> at summary time) into
  /// `metrics`. Pass nullptr to detach.
  void set_metrics(MetricsRegistry* metrics);

  /// Per (src, dst) traffic: the transport fills the off-diagonal, end_tick
  /// the diagonal (spikes routed within a rank never touch the transport).
  CommMatrix& comm_matrix() { return matrix_; }
  const CommMatrix& comm_matrix() const { return matrix_; }

  // --- Recording ----------------------------------------------------------

  /// Record `seconds` of host wall time against (rank, phase). `phase` must
  /// be one of the per-rank phases.
  void record(int rank, WallPhase phase, double seconds);

  /// Record a global (not per-rank) wall measurement — exchange, checkpoint,
  /// recovery, PCC compile. Driver thread only.
  void record_global(WallPhase phase, double seconds);

  // --- TickObserver hooks --------------------------------------------------

  /// The first tick pins the wall epoch; the first tick of each run turns
  /// kernel-dispatch counting on and takes its baseline.
  void begin_tick(arch::Tick tick) override;

  /// One pass over the tick: each rank's wall brackets and virtual phase
  /// seconds, the trace legs, the critical ranks, the overlap legs and the
  /// comm matrix's diagonal; then the tick count, the rate window, the RSS
  /// cadence, and (when due) one heartbeat record to the wall sink.
  void end_tick(const TickView& view) override;

  /// Adds the run's kernel-dispatch counts, restores the counting state the
  /// run found, and writes the profile record to every trace sink.
  void end_run() override;

  /// Overwrite the kernel-dispatch counts reported by wall_summary().
  void note_kernel_counts(const KernelDispatchCounts& counts) {
    kernels_ = counts;
  }

  // --- Reading -------------------------------------------------------------

  std::uint64_t ticks() const { return ticks_; }
  double wall_total_s() const { return wall_total_s_; }
  /// Estimated seconds the instrumentation itself consumed: timer ops times
  /// a per-op cost calibrated at construction (clock read + stat update).
  /// An estimate — the overhead-bound test measures the real thing.
  double overhead_s() const;
  std::uint64_t timer_ops() const {
    return ops_.load(std::memory_order_relaxed);
  }

  /// The virtual profile so far (--profile-out, the profile record).
  ProfileSummary summary() const;
  /// The wall profile so far (--wallprof-out).
  WallprofSummary wall_summary() const;

  /// Emit the {"type":"wallprof"} summary record to the wall sink (no-op
  /// without one) and push the per-phase gauges into the metrics registry
  /// when attached. Call after the run.
  void write_summary();

 private:
  void emit_heartbeat(std::uint64_t tick);

  int ranks_;
  WallprofOptions options_;
  std::ostream* sink_ = nullptr;
  std::vector<TraceSink*> sinks_;

  // The table: per rank, both clocks for each per-rank phase, and (in
  // profile_) the virtual seconds per trace leg and the critical counts.
  std::vector<std::array<WallRankPhase, kRankWallPhases>> rank_;
  ProfileSummary profile_;  // imbalance is derived in summary()
  std::array<WallPhaseStats, kWallPhaseCount> global_{};
  CommMatrix matrix_;

  KernelDispatchCounts kernels_;
  KernelDispatchCounts kernel_base_;  // counters at this run's first tick
  bool counting_ = false;             // dispatch counting armed this run
  bool counting_before_ = false;      // the state the run found

  std::uint64_t ticks_ = 0;
  double epoch_s_ = 0.0;       // monotonic time of the first begin_tick()
  bool epoch_set_ = false;
  double wall_total_s_ = 0.0;  // epoch -> last end_tick()
  TickRateWindow window_;
  HostResources last_resources_;

  std::atomic<std::uint64_t> ops_{0};
  double op_cost_s_ = 0.0;  // calibrated cost of one record() operation

  MetricsRegistry* metrics_ = nullptr;
  MetricsRegistry::Id m_ticks_per_s_ = 0, m_rss_ = 0;
};

/// The plane's earlier name: cocobench/ still spells it.
using WallProfiler = Profiler;

// --- Live progress meter ----------------------------------------------------

/// What one progress line shows; split out so formatting is unit-testable.
struct ProgressSnapshot {
  std::uint64_t tick = 0;
  std::uint64_t total_ticks = 0;  // 0 = unknown (no percent / ETA)
  double ticks_per_second = 0.0;
  double eta_s = 0.0;  // <= 0 = unknown
  std::uint64_t rss_bytes = 0;
};

/// "[compass] tick 120/500 (24.0%)  813.2 ticks/s  ETA 0.5s  RSS 123.4 MB".
std::string format_progress_line(const ProgressSnapshot& snapshot);

/// Single-line live status on a terminal stream: rewrites itself with '\r'
/// at most once per interval, never emits newlines until finish(). Writes to
/// the stream it is given — callers decide the TTY policy (the CLI
/// suppresses it when stderr is not a TTY unless forced) and must not share
/// the stream with a JSONL sink.
class ProgressMeter {
 public:
  explicit ProgressMeter(std::ostream& os, double interval_s = 0.5,
                         std::size_t window = 32);

  static bool stderr_is_tty();

  /// Real-clock update (per tick); throttled to the interval.
  void update(std::uint64_t tick, std::uint64_t total_ticks);

  /// Deterministic core of update(): `wall_now_s` is seconds since an
  /// arbitrary epoch fixed across calls. Tests drive this directly.
  void update_at(std::uint64_t tick, std::uint64_t total_ticks,
                 double wall_now_s);

  /// Erase/terminate the line (newline if anything was shown).
  void finish();

  std::uint64_t lines_emitted() const { return emitted_; }

 private:
  std::ostream& os_;
  double interval_s_;
  double next_due_s_ = 0.0;
  double epoch_s_ = 0.0;  // real-clock epoch for update()
  bool epoch_set_ = false;
  TickRateWindow window_;
  std::uint64_t emitted_ = 0;
  std::size_t last_len_ = 0;
};

// --- Offline analysis (compass_prof --wall) ---------------------------------

/// Parsed wallprof JSONL capture: the summary record plus heartbeat totals.
struct WallReport {
  bool found = false;  // a {"type":"wallprof"} record was present
  WallprofSummary summary;
  std::uint64_t heartbeats = 0;
  double last_heartbeat_ticks_per_s = 0.0;
};

/// Parse a --wallprof-out capture. Throws std::runtime_error on malformed
/// JSON lines; unknown record types are skipped.
WallReport analyze_wallprof(std::istream& is);

/// Human-readable report: run totals, per-phase wall vs virtual table, the
/// per-rank divergence table, kernel-dispatch mix, overhead estimate.
void write_wall_report(std::ostream& os, const WallReport& report);

/// The same analysis as one JSON object.
void write_wall_report_json(std::ostream& os, const WallReport& report);

}  // namespace compass::obs
