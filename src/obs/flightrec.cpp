#include "obs/flightrec.h"

#include <csignal>
#include <ostream>

#include <fcntl.h>
#include <unistd.h>

namespace compass::obs {

namespace {

// --- Allocation-free JSONL formatting --------------------------------------
// The fatal-signal dump path must not touch iostreams, snprintf, or the
// allocator, so every record is assembled into a caller-provided buffer with
// nothing but pointer bumps and integer division.

char* put_str(char* p, char* end, const char* s) {
  while (*s != '\0' && p < end) *p++ = *s++;
  return p;
}

char* put_u64(char* p, char* end, std::uint64_t v) {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && p < end) *p++ = digits[--n];
  return p;
}

char* put_i32(char* p, char* end, std::int32_t v) {
  if (v < 0) {
    if (p < end) *p++ = '-';
    return put_u64(p, end, static_cast<std::uint64_t>(-static_cast<std::int64_t>(v)));
  }
  return put_u64(p, end, static_cast<std::uint64_t>(v));
}

/// Labels come from string literals in this codebase, but a dump must stay
/// valid JSON whatever ends up in the fixed buffer.
char* put_json_label(char* p, char* end, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\' || c < 0x20) {
      if (p < end) *p++ = '_';
    } else if (p < end) {
      *p++ = static_cast<char>(c);
    }
  }
  return p;
}

std::size_t format_header(char* buf, std::size_t cap, const char* reason,
                          int ranks, std::size_t capacity,
                          std::uint64_t recorded) {
  char* p = buf;
  char* end = buf + cap;
  p = put_str(p, end, "{\"type\":\"flight_dump\",\"reason\":\"");
  p = put_json_label(p, end, reason);
  p = put_str(p, end, "\",\"ranks\":");
  p = put_i32(p, end, ranks);
  p = put_str(p, end, ",\"capacity\":");
  p = put_u64(p, end, capacity);
  p = put_str(p, end, ",\"recorded\":");
  p = put_u64(p, end, recorded);
  p = put_str(p, end, "}\n");
  return static_cast<std::size_t>(p - buf);
}

std::size_t format_event(char* buf, std::size_t cap, const FlightEvent& e) {
  char* p = buf;
  char* end = buf + cap;
  p = put_str(p, end, "{\"type\":\"flight\",\"rank\":");
  p = put_i32(p, end, e.rank);
  p = put_str(p, end, ",\"seq\":");
  p = put_u64(p, end, e.seq);
  p = put_str(p, end, ",\"tick\":");
  p = put_u64(p, end, e.tick);
  p = put_str(p, end, ",\"kind\":\"");
  p = put_str(p, end, flight_event_kind_name(e.kind));
  p = put_str(p, end, "\",\"what\":\"");
  p = put_json_label(p, end, e.what);
  p = put_str(p, end, "\",\"peer\":");
  p = put_i32(p, end, e.peer);
  p = put_str(p, end, ",\"a\":");
  p = put_u64(p, end, e.a);
  p = put_str(p, end, ",\"b\":");
  p = put_u64(p, end, e.b);
  p = put_str(p, end, "}\n");
  return static_cast<std::size_t>(p - buf);
}

bool write_all(int fd, const char* data, std::size_t len) noexcept {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return false;
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

FlightRecorder* g_signal_recorder = nullptr;

void fatal_signal_handler(int sig) {
  if (g_signal_recorder != nullptr) {
    const char* reason = sig == SIGSEGV   ? "signal-SIGSEGV"
                         : sig == SIGABRT ? "signal-SIGABRT"
                         : sig == SIGBUS  ? "signal-SIGBUS"
                         : sig == SIGFPE  ? "signal-SIGFPE"
                                          : "signal-SIGILL";
    g_signal_recorder->dump_now(reason);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kPhase: return "phase";
    case FlightEventKind::kSend: return "send";
    case FlightEventKind::kRecv: return "recv";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kCheckpoint: return "ckpt";
    case FlightEventKind::kNote: return "note";
    case FlightEventKind::kRecovery: return "recovery";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(int ranks, std::size_t capacity_per_rank)
    : ranks_(ranks > 0 ? ranks : 0),
      capacity_(capacity_per_rank > 0 ? capacity_per_rank : 1),
      rings_(static_cast<std::size_t>(ranks_) + 1) {
  for (Ring& ring : rings_) ring.events.resize(capacity_);
}

void FlightRecorder::record(int rank, FlightEventKind kind, const char* what,
                            int peer, std::uint64_t a,
                            std::uint64_t b) noexcept {
  if (rank < -1 || rank >= ranks_) return;
  Ring& ring = rings_[static_cast<std::size_t>(rank + 1)];
  // Single producer per ring: the relaxed load/store pair is a plain
  // increment for the owner; the atomic makes dump-time reads well-defined.
  const std::uint64_t seq = ring.next.load(std::memory_order_relaxed);
  FlightEvent& e = ring.events[seq % capacity_];
  e.seq = seq;
  e.tick = tick_.load(std::memory_order_relaxed);
  e.kind = kind;
  e.rank = rank;
  e.peer = peer;
  e.a = a;
  e.b = b;
  std::size_t i = 0;
  if (what != nullptr) {
    for (; i + 1 < sizeof e.what && what[i] != '\0'; ++i) e.what[i] = what[i];
  }
  e.what[i] = '\0';
  ring.next.store(seq + 1, std::memory_order_release);
}

void FlightRecorder::begin_tick(arch::Tick tick) {
  tick_.store(tick, std::memory_order_relaxed);
  record(-1, FlightEventKind::kPhase, "tick_begin", -1, tick);
}

void FlightRecorder::end_exchange() {
  record(-1, FlightEventKind::kPhase, "exchange", -1,
         tick_.load(std::memory_order_relaxed));
}

void FlightRecorder::end_tick(const TickView& view) {
  record(-1, FlightEventKind::kPhase, "tick_end", -1, view.tick, view.fired);
}

std::uint64_t FlightRecorder::recorded() const {
  std::uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.next.load(std::memory_order_acquire);
  }
  return total;
}

void FlightRecorder::dump(std::ostream& os, std::string_view reason) const {
  char buf[512];
  const std::string reason_s(reason);
  os.write(buf, static_cast<std::streamsize>(format_header(
                    buf, sizeof buf, reason_s.c_str(), ranks_, capacity_,
                    recorded())));
  for (const Ring& ring : rings_) {
    const std::uint64_t next = ring.next.load(std::memory_order_acquire);
    const std::uint64_t first = next > capacity_ ? next - capacity_ : 0;
    for (std::uint64_t seq = first; seq < next; ++seq) {
      const FlightEvent& e = ring.events[seq % capacity_];
      os.write(buf,
               static_cast<std::streamsize>(format_event(buf, sizeof buf, e)));
    }
  }
  os.flush();
}

bool FlightRecorder::dump_now(const char* reason) const noexcept {
  if (dump_path_.empty()) return false;
  const int fd = ::open(dump_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  char buf[512];
  bool ok = write_all(fd, buf,
                      format_header(buf, sizeof buf, reason, ranks_, capacity_,
                                    recorded()));
  for (const Ring& ring : rings_) {
    if (!ok) break;
    const std::uint64_t next = ring.next.load(std::memory_order_acquire);
    const std::uint64_t first = next > capacity_ ? next - capacity_ : 0;
    for (std::uint64_t seq = first; ok && seq < next; ++seq) {
      const FlightEvent& e = ring.events[seq % capacity_];
      ok = write_all(fd, buf, format_event(buf, sizeof buf, e));
    }
  }
  ::close(fd);
  return ok;
}

void FlightRecorder::install_signal_handler(FlightRecorder* recorder) {
  g_signal_recorder = recorder;
  const int signals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
  for (const int sig : signals) {
    ::signal(sig, recorder != nullptr ? fatal_signal_handler : SIG_DFL);
  }
}

}  // namespace compass::obs
