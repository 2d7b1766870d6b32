// compass_served — the Compass serve daemon (DESIGN.md §15).
//
// Hosts many independent simulation sessions over the length-prefixed
// binary protocol in src/serve/, multiplexed by a single-threaded poll
// dispatcher: clients create sessions from named scenarios, inject stimuli,
// subscribe to spike/rate/heartbeat streams, step, and snapshot/restore.
// The same port answers `GET /metrics` with the Prometheus exposition of
// the daemon's registry.
//
// Flags:
//   --port <n>             TCP port (default 0 = ephemeral; see --port-file)
//   --bind <addr>          bind address (default 127.0.0.1)
//   --port-file <path>     write the bound port as one line once listening
//                          (how drills find an ephemeral port)
//   --max-sessions <n>     concurrent session cap (default 64)
//   --tick-budget <n>      ticks one session may run per dispatch round
//                          (default 32)
//   --client-queue-bytes <n>  send-queue level where a spike subscriber is
//                          coalesced to rate summaries (default 1048576)
//   --stall-ticks <n>      coalesced ticks before a saturated subscriber is
//                          disconnected with a slow-consumer error
//                          (default 1024)
//   --rate-window <n>      ticks per kRates summary frame (default 16)
//   --analytics-window <n> ticks per streaming-analytics window; window
//                          records stream to Subscribe(analytics) clients
//                          as kAnalytics frames (default 64, 0 = off)
//   --heartbeat-ticks <n>  heartbeat frame cadence in stepped ticks
//                          (default 64, 0 = off)
//   --trace-out <path>     JSONL trace of session lifecycle events
//   --max-seconds <s>      exit after this much wall time (default 0 = off)
//   --exit-on-idle-ms <n>  exit once >=1 client was served, none remain,
//                          and the daemon idled this long (default 0 = off)
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/parse.h"

namespace {

using compass::util::parse_u64_flag;
constexpr const char* kProg = "compass_served";

compass::serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

void usage(std::ostream& os) {
  os << "usage: compass_served [--port N] [--bind ADDR] [--port-file PATH]\n"
        "                      [--max-sessions N] [--tick-budget N]\n"
        "                      [--client-queue-bytes N] [--stall-ticks N]\n"
        "                      [--rate-window N] [--analytics-window N]\n"
        "                      [--heartbeat-ticks N]\n"
        "                      [--trace-out PATH] [--max-seconds S]\n"
        "                      [--exit-on-idle-ms N]\n";
}

}  // namespace

int main(int argc, char** argv) {
  compass::serve::ServerOptions opts;
  std::string port_file;
  std::string trace_out;

  const auto next = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "compass_served: " << flag << " requires a value\n";
      usage(std::cerr);
      return nullptr;
    }
    return argv[++i];
  };
  // The value of flag argv[i] as a number in [lo, hi]; nullopt (reported)
  // when it is missing or malformed.
  const auto number = [&](int& i, std::uint64_t lo, std::uint64_t hi) {
    const char* flag = argv[i];
    const char* v = next(i, flag);
    return v ? parse_u64_flag(kProg, flag, v, lo, hi) : std::nullopt;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      usage(std::cout);
      return 0;
    } else if (a == "--port") {
      const auto n = number(i, 0, 65535);
      if (!n) return 1;
      opts.port = static_cast<std::uint16_t>(*n);
    } else if (a == "--bind") {
      const char* v = next(i, "--bind");
      if (!v) return 1;
      opts.bind = v;
    } else if (a == "--port-file") {
      const char* v = next(i, "--port-file");
      if (!v) return 1;
      port_file = v;
    } else if (a == "--max-sessions") {
      const auto n = number(i, 1, 4096);
      if (!n) return 1;
      opts.max_sessions = static_cast<std::uint32_t>(*n);
    } else if (a == "--tick-budget") {
      const auto n = number(i, 1, 1u << 20);
      if (!n) return 1;
      opts.tick_budget = *n;
    } else if (a == "--client-queue-bytes") {
      const auto n = number(i, 1024, std::uint64_t{1} << 32);
      if (!n) return 1;
      opts.client_queue_soft_bytes = static_cast<std::size_t>(*n);
    } else if (a == "--stall-ticks") {
      const auto n = number(i, 1, UINT64_MAX);
      if (!n) return 1;
      opts.stall_ticks = *n;
    } else if (a == "--rate-window") {
      const auto n = number(i, 1, 1u << 20);
      if (!n) return 1;
      opts.rate_window_ticks = *n;
    } else if (a == "--analytics-window") {
      const auto n = number(i, 0, 1u << 20);
      if (!n) return 1;
      opts.analytics_window_ticks = *n;
    } else if (a == "--heartbeat-ticks") {
      const auto n = number(i, 0, UINT64_MAX);
      if (!n) return 1;
      opts.heartbeat_every_ticks = *n;
    } else if (a == "--trace-out") {
      const char* v = next(i, "--trace-out");
      if (!v) return 1;
      trace_out = v;
    } else if (a == "--max-seconds") {
      const auto n = number(i, 1, 86400);
      if (!n) return 1;
      opts.max_seconds = static_cast<double>(*n);
    } else if (a == "--exit-on-idle-ms") {
      const auto n = number(i, 1, 86400000);
      if (!n) return 1;
      opts.exit_on_idle_s = static_cast<double>(*n) / 1000.0;
    } else {
      std::cerr << "compass_served: unknown argument '" << a << "'\n";
      usage(std::cerr);
      return 1;
    }
  }

  compass::obs::MetricsRegistry metrics;
  opts.metrics = &metrics;

  std::ofstream trace_stream;
  std::optional<compass::obs::JsonlTraceWriter> trace_writer;
  if (!trace_out.empty()) {
    trace_stream.open(trace_out);
    if (!trace_stream) {
      std::cerr << "compass_served: cannot write " << trace_out << "\n";
      return 2;
    }
    trace_writer.emplace(trace_stream);
    opts.trace = &*trace_writer;
  }

  try {
    compass::serve::Server server(opts);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);

    if (!port_file.empty()) {
      std::ofstream pf(port_file);
      if (!pf) {
        std::cerr << "compass_served: cannot write " << port_file << "\n";
        return 2;
      }
      pf << server.port() << "\n";
    }
    std::cout << "compass_served: listening on " << opts.bind << ":"
              << server.port() << " (max " << opts.max_sessions
              << " sessions)\n"
              << std::flush;

    server.run();
    g_server = nullptr;

    const compass::serve::ServerStats& s = server.stats();
    std::cout << "compass_served: exiting — " << s.accepted << " clients, "
              << s.sessions_created << " sessions, " << s.ticks_stepped
              << " ticks, " << s.spikes_streamed << " spikes streamed, "
              << s.analytics_records << " analytics records, "
              << s.protocol_errors << " protocol errors, "
              << s.slow_disconnects << " slow disconnects\n";
  } catch (const std::exception& e) {
    std::cerr << "compass_served: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
