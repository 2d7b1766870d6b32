#include "spans.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

namespace cocobench {

std::int64_t SpanLog::child_coverage_ns(std::int32_t index,
                                        const char* child_prefix) const {
  const Span& parent = spans_[static_cast<std::size_t>(index)];
  const std::size_t prefix_len = std::strlen(child_prefix);
  // Spans of one tick are appended together, so the children of `index`
  // follow it before the next tick's spans begin.
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = static_cast<std::size_t>(index) + 1;
       i < spans_.size() && spans_[i].tick_id == parent.tick_id; ++i) {
    const Span& s = spans_[i];
    if (s.parent != index ||
        std::strncmp(s.name, child_prefix, prefix_len) != 0) {
      continue;
    }
    iv.emplace_back(std::max(s.start_ns, parent.start_ns),
                    std::min(s.end_ns, parent.end_ns));
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = parent.start_ns;
  for (const auto& [a, b] : iv) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"tick\":" << s.tick_id << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace cocobench
