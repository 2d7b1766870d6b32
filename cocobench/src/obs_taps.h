// Counting, timing pass-through sinks for the observer planes.
//
// The traced cocomac_checkpoint run puts these between the simulator's
// observers and their file writers: the analytics engine's TraceSink, the
// spike tracer's SpikeSpanSink and the wall profiler's output stream. Each
// forwards every call unchanged (the benchmark checks that the files come
// out byte-identical to an untapped run) and adds to one shared tally of
// records, bytes and time spent inside the sink.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <streambuf>

#include "obs/spiketrace.h"
#include "obs/trace.h"

namespace cocobench {

struct ObsTally {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::int64_t sink_ns = 0;
};

/// Times a call and adds its duration to `ns`.
template <typename F>
void timed(std::int64_t& ns, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
}

/// Unbuffered streambuf forwarding to `inner`, counting the bytes written.
/// A `direct` stream is itself the sink (the wall profiler writes JSONL
/// lines straight to it): its writes are timed and its lines counted as
/// records. Behind a tapped sink, which already counts and times each
/// record, only bytes are added.
class CountingStreambuf final : public std::streambuf {
 public:
  CountingStreambuf(std::streambuf* inner, ObsTally& tally, bool direct)
      : inner_(inner), tally_(tally), direct_(direct) {}

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    int_type r = 0;
    write([&] { r = inner_->sputc(traits_type::to_char_type(ch)); });
    if (traits_type::eq_int_type(r, traits_type::eof())) return r;
    ++tally_.bytes;
    if (direct_ && traits_type::to_char_type(ch) == '\n') ++tally_.records;
    return r;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::streamsize r = 0;
    write([&] { r = inner_->sputn(s, n); });
    tally_.bytes += static_cast<std::uint64_t>(r);
    if (direct_) {
      tally_.records += static_cast<std::uint64_t>(std::count(s, s + r, '\n'));
    }
    return r;
  }
  int sync() override {
    int r = 0;
    write([&] { r = inner_->pubsync(); });
    return r;
  }

 private:
  template <typename F>
  void write(F&& f) {
    if (direct_) {
      timed(tally_.sink_ns, f);
    } else {
      f();
    }
  }

  std::streambuf* inner_;
  ObsTally& tally_;
  bool direct_;
};

/// TraceSink forwarding to `inner`, counting and timing every record.
class TappedTraceSink final : public compass::obs::TraceSink {
 public:
  TappedTraceSink(compass::obs::TraceSink& inner, ObsTally& tally)
      : inner_(inner), tally_(tally) {}

  void on_span(const compass::obs::SpanRecord& r) override {
    tap([&] { inner_.on_span(r); });
  }
  void on_tick(const compass::obs::TickRecord& r) override {
    tap([&] { inner_.on_tick(r); });
  }
  void on_profile(const compass::obs::ProfileRecord& r) override {
    tap([&] { inner_.on_profile(r); });
  }
  void on_recovery(const compass::obs::RecoveryRecord& r) override {
    tap([&] { inner_.on_recovery(r); });
  }
  void on_session(const compass::obs::SessionRecord& r) override {
    tap([&] { inner_.on_session(r); });
  }
  void on_analytics(const compass::obs::AnalyticsRecord& r) override {
    tap([&] { inner_.on_analytics(r); });
  }

 private:
  template <typename F>
  void tap(F&& f) {
    ++tally_.records;
    timed(tally_.sink_ns, f);
  }

  compass::obs::TraceSink& inner_;
  ObsTally& tally_;
};

/// SpikeSpanSink forwarding to `inner`, counting and timing every span.
class TappedSpikeSpanSink final : public compass::obs::SpikeSpanSink {
 public:
  TappedSpikeSpanSink(compass::obs::SpikeSpanSink& inner, ObsTally& tally)
      : inner_(inner), tally_(tally) {}

  void on_spike_span(const compass::obs::SpikeSpan& span) override {
    ++tally_.records;
    timed(tally_.sink_ns, [&] { inner_.on_spike_span(span); });
  }

 private:
  compass::obs::SpikeSpanSink& inner_;
  ObsTally& tally_;
};

}  // namespace cocobench
