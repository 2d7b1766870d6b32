// In-memory span log for the traced run.
//
// Every span has a name, a start and an end on one steady-clock timeline
// (nanoseconds since the log was created), the index of the span that
// caused it (-1 for a root), and the id of the simulated tick it belongs
// to (every span of one tick shares it). Spans are kept in memory while
// the benchmark runs and written out as JSONL once it ends, so writing
// never lands inside a timed region.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cocobench {

struct Span {
  const char* name = "";  // string literal: names are static
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t tick_id = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Nanoseconds since the log was created.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Append a finished span; returns its index (usable as a parent).
  std::int32_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int32_t parent, std::uint64_t tick_id) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, tick_id});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Open a span now; close() stamps its end.
  std::int32_t open(const char* name, std::int32_t parent,
                    std::uint64_t tick_id) {
    const std::int64_t t = now_ns();
    return add(name, t, t, parent, tick_id);
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  /// Nanoseconds of span `index` that its direct children cover (overlapping
  /// children, as under the parallel rank loop, are counted once).
  std::int64_t child_coverage_ns(std::int32_t index,
                                 const char* child_prefix) const;

  /// One JSON object per line. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace cocobench
