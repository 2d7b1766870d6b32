#include "traced_transport.h"

namespace cocobench {

TracedTransport::TracedTransport(compass::comm::Transport& inner,
                                 const SpanLog& log)
    : compass::comm::Transport(inner.ranks(), inner.cost_model(),
                               inner.spike_wire_bytes()),
      inner_(inner),
      clock_(log),
      recv_(static_cast<std::size_t>(inner.ranks())) {}

void TracedTransport::begin_tick() {
  const std::int64_t t0 = clock_.now_ns();
  inner_.begin_tick();
  serial_.push_back({Call::kBeginTick, t0, clock_.now_ns()});
}

void TracedTransport::send(int src, int dst,
                           std::span<const compass::arch::WireSpike> spikes) {
  const std::int64_t t0 = clock_.now_ns();
  inner_.send(src, dst, spikes);
  serial_.push_back({Call::kSend, t0, clock_.now_ns()});
  ++tick_send_calls_;
}

void TracedTransport::exchange() {
  const std::int64_t t0 = clock_.now_ns();
  inner_.exchange();
  serial_.push_back({Call::kExchange, t0, clock_.now_ns()});
}

std::span<const compass::comm::InMessage> TracedTransport::received(
    int rank) const {
  const std::int64_t t0 = clock_.now_ns();
  const std::span<const compass::comm::InMessage> in = inner_.received(rank);
  recv_[static_cast<std::size_t>(rank)].push_back(
      {Call::kReceived, t0, clock_.now_ns()});
  return in;
}

TracedTransport::Counts TracedTransport::drain(SpanLog& log,
                                               std::int32_t parent,
                                               std::uint64_t tick_id) {
  Counts tick;
  tick.send_calls = tick_send_calls_;
  tick.messages = inner_.tick_stats().messages;
  tick.wire_bytes = inner_.tick_stats().wire_bytes;
  const auto take = [&](const Interval& iv) {
    static constexpr const char* kNames[] = {"comm.begin_tick", "comm.send",
                                             "comm.exchange", "comm.received"};
    log.add(kNames[static_cast<std::size_t>(iv.call)], iv.start_ns, iv.end_ns,
            parent, tick_id);
  };
  for (const Interval& iv : serial_) take(iv);
  for (std::vector<Interval>& per_rank : recv_) {
    for (const Interval& iv : per_rank) take(iv);
    per_rank.clear();
  }
  serial_.clear();
  tick_send_calls_ = 0;
  return tick;
}

}  // namespace cocobench
