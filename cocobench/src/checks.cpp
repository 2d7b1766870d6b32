#include "checks.h"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>

namespace cocobench {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

std::uint64_t fnv_bytes(const std::string& bytes) {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::string Outcome::to_string() const {
  std::ostringstream os;
  os << "ticks=" << ticks << " fired=" << fired << " routed=" << routed
     << " local=" << local << " remote=" << remote << " messages=" << messages
     << " wire_bytes=" << wire_bytes << " synaptic_events=" << synaptic_events
     << " end_hash=" << end_hash;
  return os.str();
}

std::uint64_t end_state_hash(const compass::arch::Model& model) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t c = 0; c < model.num_cores(); ++c) {
    const compass::arch::NeurosynapticCore& core =
        model.core(static_cast<compass::arch::CoreId>(c));
    fnv_mix(h, c, 4);
    for (unsigned j = 0; j < compass::arch::kNeuronsPerCore; ++j) {
      fnv_mix(h, static_cast<std::uint32_t>(core.potential(j)), 4);
    }
  }
  return h;
}

Outcome outcome_of(const compass::runtime::RunReport& report,
                   const compass::arch::Model& model) {
  Outcome o;
  o.ticks = report.ticks;
  o.fired = report.fired_spikes;
  o.routed = report.routed_spikes;
  o.local = report.local_spikes;
  o.remote = report.remote_spikes;
  o.messages = report.messages;
  o.wire_bytes = report.wire_bytes;
  o.synaptic_events = report.synaptic_events;
  o.end_hash = end_state_hash(model);
  return o;
}

std::uint64_t file_hash(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return 0;
  return fnv_bytes(std::string(std::istreambuf_iterator<char>(is), {}));
}

void Checker::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "cocobench: CHECK FAILED: " << what << "\n";
  }
}

void Checker::expect_equal(const Outcome& got, const Outcome& want,
                           const std::string& what) {
  expect(got == want, what + "\n  got  " + got.to_string() + "\n  want " +
                          want.to_string());
}

void Checker::expect_sane(const Outcome& got, std::uint64_t fired_seen,
                          const std::string& what) {
  expect(got.routed == got.local + got.remote && got.fired == fired_seen &&
             got.fired > 0 && got.messages > 0 && got.synaptic_events > 0,
         what + ": inconsistent statistics " + got.to_string() +
             " (per-tick fired sum " + std::to_string(fired_seen) + ")");
}

std::optional<Outcome> load_record(const std::string& path) {
  std::ifstream is(path);
  Outcome o;
  if (is >> o.ticks >> o.fired >> o.routed >> o.local >> o.remote >>
      o.messages >> o.wire_bytes >> o.synaptic_events >> o.end_hash) {
    return o;
  }
  return std::nullopt;
}

void save_record(const std::string& path, const Outcome& o) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  // Write-then-rename, so a concurrent reader never sees half a record.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    os << o.ticks << ' ' << o.fired << ' ' << o.routed << ' ' << o.local
       << ' ' << o.remote << ' ' << o.messages << ' ' << o.wire_bytes << ' '
       << o.synaptic_events << ' ' << o.end_hash << '\n';
    if (!os) return;  // records are an optimisation; the run stays valid
  }
  fs::rename(tmp, path, ec);
}

}  // namespace cocobench
