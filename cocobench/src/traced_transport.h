// A comm::Transport decorator that times the Network-phase interface.
//
// Built on the same pattern as resilience::FaultInjectingTransport: every
// call is forwarded unchanged to the wrapped transport, which does all the
// work and keeps all the accounting; observer setters are forwarded too.
// The decorator only stamps the wall time of begin_tick / send / exchange /
// received and counts send calls, so a decorated run's simulated output is
// byte-identical to an undecorated one (the benchmark checks this).
//
// received() is const and runs inside the (possibly parallel) network
// phase, one caller per rank, so its intervals go to per-rank buffers that
// drain() merges on the driving thread after the tick.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/transport.h"
#include "spans.h"

namespace cocobench {

class TracedTransport final : public compass::comm::Transport {
 public:
  /// One tick's counts. Call times are in the spans drain() writes.
  struct Counts {
    std::uint64_t send_calls = 0;
    std::uint64_t messages = 0;
    std::uint64_t wire_bytes = 0;

    Counts& operator+=(const Counts& o) {
      send_calls += o.send_calls;
      messages += o.messages;
      wire_bytes += o.wire_bytes;
      return *this;
    }
  };

  /// `inner` and `log` must outlive the decorator.
  TracedTransport(compass::comm::Transport& inner, const SpanLog& log);

  const char* name() const override { return inner_.name(); }
  bool one_sided() const override { return inner_.one_sided(); }

  void begin_tick() override;
  void send(int src, int dst,
            std::span<const compass::arch::WireSpike> spikes) override;
  void exchange() override;
  std::span<const compass::comm::InMessage> received(int rank) const override;

  const compass::comm::TickCommStats& tick_stats() const override {
    return inner_.tick_stats();
  }
  const compass::comm::RankCommStats& rank_stats(int rank) const override {
    return inner_.rank_stats(rank);
  }
  const compass::comm::TickFaultStats* tick_faults() const override {
    return inner_.tick_faults();
  }
  double send_time(int rank) const override { return inner_.send_time(rank); }
  double sync_time(int rank) const override { return inner_.sync_time(rank); }
  double recv_time(int rank) const override { return inner_.recv_time(rank); }

  void set_metrics(compass::obs::MetricsRegistry* metrics) override {
    inner_.set_metrics(metrics);
  }
  void flush_metrics() override { inner_.flush_metrics(); }
  void set_comm_matrix(compass::obs::CommMatrix* matrix) override {
    inner_.set_comm_matrix(matrix);
  }
  void set_flight_recorder(compass::obs::FlightRecorder* flight) override {
    inner_.set_flight_recorder(flight);
  }
  void set_wall_profiler(compass::obs::WallProfiler* wall) override {
    inner_.set_wall_profiler(wall);
  }

  /// Move this tick's intervals into `log` as children of span `parent`
  /// (all tagged `tick_id`) and return the tick's counts. Call on the
  /// driving thread after Compass::step().
  Counts drain(SpanLog& log, std::int32_t parent, std::uint64_t tick_id);

 private:
  enum class Call { kBeginTick, kSend, kExchange, kReceived };
  struct Interval {
    Call call;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  compass::comm::Transport& inner_;
  const SpanLog& clock_;
  std::vector<Interval> serial_;  // begin_tick / send / exchange
  mutable std::vector<std::vector<Interval>> recv_;  // per receiving rank
  std::uint64_t tick_send_calls_ = 0;
};

}  // namespace cocobench
