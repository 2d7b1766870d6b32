#include "resilience/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/bytes.h"
#include "util/crc32.h"

namespace compass::resilience {

namespace {

constexpr std::uint32_t kMagic = 0x54504B43;  // "CKPT" little-endian
constexpr std::uint32_t kVersion = 1;

// Section ids. Unknown ids are skipped on load (forward compatibility).
constexpr std::uint32_t kSectionModel = 1;
constexpr std::uint32_t kSectionRuntime = 2;
constexpr std::uint32_t kSectionLedger = 3;

constexpr std::size_t kHeaderBytes = 24;         // 20 payload + 4 CRC
constexpr std::size_t kSectionHeaderBytes = 20;  // id + reserved + size + crc
constexpr std::size_t kRuntimeBytes = 14 * 8;
constexpr std::size_t kLedgerBytes = 4 * 8;

using util::append_pod;

/// Append a section header whose size and CRC close_section() fills in once
/// the payload behind it is written; returns the header's offset.
std::size_t open_section(std::string& out, std::uint32_t id) {
  const std::size_t at = out.size();
  append_pod(out, id);
  append_pod(out, std::uint32_t{0});  // reserved
  append_pod(out, std::uint64_t{0});  // payload size
  append_pod(out, std::uint32_t{0});  // payload CRC
  return at;
}

void close_section(std::string& out, std::size_t at) {
  const std::size_t payload = at + kSectionHeaderBytes;
  const std::uint64_t size = out.size() - payload;
  const std::uint32_t crc = util::crc32(out.data() + payload, size);
  std::memcpy(out.data() + at + 8, &size, sizeof size);
  std::memcpy(out.data() + at + 16, &crc, sizeof crc);
}

void encode_runtime(std::string& out, const runtime::RunReport& r) {
  append_pod(out, r.ticks);
  append_pod(out, r.fired_spikes);
  append_pod(out, r.routed_spikes);
  append_pod(out, r.local_spikes);
  append_pod(out, r.remote_spikes);
  append_pod(out, r.synaptic_events);
  append_pod(out, r.messages);
  append_pod(out, r.wire_bytes);
  append_pod(out, r.faults_injected);
  append_pod(out, r.messages_retried);
  append_pod(out, r.spikes_lost);
  append_pod(out, r.host_wall_s);
  append_pod(out, r.recoveries);
  append_pod(out, r.recovery_ticks_lost);
}

/// The one checkpoint encoder. It reads the state by reference and writes
/// the whole file image in one pass into a buffer sized up front.
std::string encode(arch::Tick tick, const arch::Model& model,
                   const runtime::RunReport& report,
                   const perf::PhaseBreakdown& virtual_time,
                   std::uint64_t ledger_ticks) {
  std::string out;
  out.reserve(kHeaderBytes + 3 * kSectionHeaderBytes + model.encoded_size() +
              kRuntimeBytes + kLedgerBytes);
  append_pod(out, kMagic);
  append_pod(out, kVersion);
  append_pod(out, static_cast<std::uint64_t>(tick));
  append_pod(out, std::uint32_t{3});  // section count
  append_pod(out, util::crc32(out.data(), out.size()));

  std::size_t at = open_section(out, kSectionModel);
  model.encode(out);
  close_section(out, at);

  at = open_section(out, kSectionRuntime);
  encode_runtime(out, report);
  close_section(out, at);

  at = open_section(out, kSectionLedger);
  append_pod(out, virtual_time.synapse);
  append_pod(out, virtual_time.neuron);
  append_pod(out, virtual_time.network);
  append_pod(out, ledger_ticks);
  close_section(out, at);
  return out;
}

void decode_runtime(std::string_view payload, runtime::RunReport& r) {
  util::ByteCursor c(payload);
  r.ticks = c.read<std::uint64_t>("runtime.ticks");
  r.fired_spikes = c.read<std::uint64_t>("runtime.fired");
  r.routed_spikes = c.read<std::uint64_t>("runtime.routed");
  r.local_spikes = c.read<std::uint64_t>("runtime.local");
  r.remote_spikes = c.read<std::uint64_t>("runtime.remote");
  r.synaptic_events = c.read<std::uint64_t>("runtime.synaptic");
  r.messages = c.read<std::uint64_t>("runtime.messages");
  r.wire_bytes = c.read<std::uint64_t>("runtime.wire_bytes");
  r.faults_injected = c.read<std::uint64_t>("runtime.faults");
  r.messages_retried = c.read<std::uint64_t>("runtime.retries");
  r.spikes_lost = c.read<std::uint64_t>("runtime.lost");
  r.host_wall_s = c.read<double>("runtime.host_wall_s");
  // Recovery totals were appended after the format shipped; files written
  // before them simply end here (same version — a strict tail extension, so
  // old files load with zero recoveries and new files load everywhere).
  if (c.remaining() >= 2 * sizeof(std::uint64_t)) {
    r.recoveries = c.read<std::uint64_t>("runtime.recoveries");
    r.recovery_ticks_lost = c.read<std::uint64_t>("runtime.recovery_lost");
  }
}

void decode_ledger(std::string_view payload, Checkpoint& cp) {
  util::ByteCursor c(payload);
  cp.virtual_time.synapse = c.read<double>("ledger.synapse");
  cp.virtual_time.neuron = c.read<double>("ledger.neuron");
  cp.virtual_time.network = c.read<double>("ledger.network");
  cp.ledger_ticks = c.read<std::uint64_t>("ledger.ticks");
}

/// parse_checkpoint without the truncation mapping: cursor under-runs
/// surface here as util::DecodeError.
Checkpoint parse_unguarded(std::string_view bytes) {
  util::ByteCursor c(bytes);
  if (bytes.size() < kHeaderBytes) {
    throw CheckpointError(CheckpointErrc::kTruncated,
                          "checkpoint smaller than its header");
  }
  const std::uint32_t magic = c.read<std::uint32_t>("magic");
  if (magic != kMagic) {
    throw CheckpointError(CheckpointErrc::kBadMagic,
                          "not a Compass checkpoint (bad magic)");
  }
  const std::uint32_t version = c.read<std::uint32_t>("version");
  if (version != kVersion) {
    throw CheckpointError(
        CheckpointErrc::kBadVersion,
        "unsupported checkpoint version " + std::to_string(version) +
            " (this build reads version " + std::to_string(kVersion) + ")");
  }
  Checkpoint cp;
  cp.tick = c.read<std::uint64_t>("tick");
  const std::uint32_t section_count = c.read<std::uint32_t>("section count");
  const std::uint32_t header_crc = c.read<std::uint32_t>("header crc");
  if (header_crc != util::crc32(bytes.data(), kHeaderBytes - 4)) {
    throw CheckpointError(CheckpointErrc::kHeaderCorrupt,
                          "checkpoint header CRC mismatch");
  }

  bool have_model = false, have_runtime = false, have_ledger = false;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const std::uint32_t id = c.read<std::uint32_t>("section id");
    (void)c.read<std::uint32_t>("section reserved");
    const std::uint64_t size = c.read<std::uint64_t>("section size");
    const std::uint32_t crc = c.read<std::uint32_t>("section crc");
    // A corrupt size field cannot over-allocate: the payload is a view,
    // bounds-checked against the actual file size.
    const std::string_view payload =
        c.take(static_cast<std::size_t>(size), "section payload");
    if (crc != util::crc32(payload.data(), payload.size())) {
      throw CheckpointError(CheckpointErrc::kSectionCorrupt,
                            "checkpoint section " + std::to_string(id) +
                                " CRC mismatch");
    }
    switch (id) {
      case kSectionModel: {
        try {
          cp.model = arch::Model::decode(payload);
        } catch (const std::exception& e) {
          // CRC-valid but undecodable: produced by a buggy writer, still a
          // typed rejection rather than a crash.
          throw CheckpointError(CheckpointErrc::kSectionCorrupt,
                                std::string("checkpoint model section "
                                            "undecodable: ") +
                                    e.what());
        }
        have_model = true;
        break;
      }
      case kSectionRuntime:
        decode_runtime(payload, cp.report);
        have_runtime = true;
        break;
      case kSectionLedger:
        decode_ledger(payload, cp);
        have_ledger = true;
        break;
      default:
        break;  // unknown section from a newer writer: skip
    }
  }
  if (!have_model || !have_runtime || !have_ledger) {
    throw CheckpointError(CheckpointErrc::kMissingSection,
                          "checkpoint is missing a required section");
  }
  cp.report.virtual_time = cp.virtual_time;
  return cp;
}

[[noreturn]] void throw_io(const std::string& op, const std::string& path) {
  throw CheckpointError(CheckpointErrc::kIo, "checkpoint " + op + " failed: " +
                                                 path + ": " +
                                                 std::strerror(errno));
}

}  // namespace

const char* to_string(CheckpointErrc code) {
  switch (code) {
    case CheckpointErrc::kIo: return "io-error";
    case CheckpointErrc::kBadMagic: return "bad-magic";
    case CheckpointErrc::kBadVersion: return "bad-version";
    case CheckpointErrc::kHeaderCorrupt: return "header-corrupt";
    case CheckpointErrc::kTruncated: return "truncated";
    case CheckpointErrc::kSectionCorrupt: return "section-corrupt";
    case CheckpointErrc::kMissingSection: return "missing-section";
    case CheckpointErrc::kShapeMismatch: return "shape-mismatch";
  }
  return "?";
}

std::string serialize_checkpoint(const Checkpoint& cp) {
  return encode(cp.tick, cp.model, cp.report, cp.virtual_time,
                cp.ledger_ticks);
}

std::string serialize_checkpoint(const runtime::Compass& sim,
                                 const arch::Model& model) {
  return encode(sim.now(), model, sim.report(), sim.ledger().totals(),
                sim.ledger().ticks());
}

Checkpoint parse_checkpoint(std::string_view bytes) {
  try {
    return parse_unguarded(bytes);
  } catch (const util::DecodeError& e) {
    throw CheckpointError(CheckpointErrc::kTruncated,
                          std::string("checkpoint ") + e.what());
  }
}

void write_checkpoint_file(std::string_view bytes, const std::string& path) {
  const std::string tmp = path + ".tmp";

  // POSIX write path: std::ofstream cannot fsync, and without the fsync +
  // atomic-rename pair a crash mid-write could leave a torn file that a
  // later restore would have to reject, losing the job's progress.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("open", tmp);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      errno = saved;
      throw_io("write", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    throw_io("fsync", tmp);
  }
  if (::close(fd) != 0) throw_io("close", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_io("rename", path);
  }
  // Persist the rename itself (best-effort: some filesystems refuse
  // directory fsync, and by this point the data is safe either way).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

void save_checkpoint_file(const Checkpoint& cp, const std::string& path) {
  write_checkpoint_file(serialize_checkpoint(cp), path);
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::string bytes;
  if (!util::read_file(path, bytes)) throw_io("read", path);
  return parse_checkpoint(bytes);
}

Checkpoint capture(const runtime::Compass& sim, const arch::Model& model) {
  Checkpoint cp;
  cp.tick = sim.now();
  cp.model = model;
  cp.report = sim.report();
  cp.report.metrics.clear();  // not serialized; re-snapshotted after resume
  cp.virtual_time = sim.ledger().totals();
  cp.ledger_ticks = sim.ledger().ticks();
  cp.report.virtual_time = cp.virtual_time;
  return cp;
}

void restore(const Checkpoint& cp, runtime::Compass& sim, arch::Model& model) {
  if (cp.model.num_cores() != sim.partition().num_cores()) {
    throw CheckpointError(
        CheckpointErrc::kShapeMismatch,
        "checkpoint has " + std::to_string(cp.model.num_cores()) +
            " cores but the live partition covers " +
            std::to_string(sim.partition().num_cores()));
  }
  model = cp.model;
  sim.set_start_tick(cp.tick);
  sim.restore_report(cp.report);
  sim.restore_virtual_time(cp.virtual_time, cp.ledger_ticks);
}

}  // namespace compass::resilience
