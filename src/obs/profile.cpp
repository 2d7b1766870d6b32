#include "obs/profile.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "obs/jsonv.h"
#include "obs/metrics.h"

namespace compass::obs {

CommCell CommMatrix::row_total(int src) const {
  CommCell out;
  for (int d = 0; d < ranks_; ++d) out += at(src, d);
  return out;
}

CommCell CommMatrix::col_total(int dst) const {
  CommCell out;
  for (int s = 0; s < ranks_; ++s) out += at(s, dst);
  return out;
}

CommCell CommMatrix::total() const {
  CommCell out;
  for (const CommCell& c : cells_) out += c;
  return out;
}

CommCell CommMatrix::off_diagonal_total() const {
  CommCell out;
  for (int s = 0; s < ranks_; ++s) {
    for (int d = 0; d < ranks_; ++d) {
      if (s != d) out += at(s, d);
    }
  }
  return out;
}

std::pair<int, std::uint64_t> ProfileSummary::most_critical(
    std::uint64_t RankCriticalCounts::*phase) const {
  std::pair<int, std::uint64_t> best{0, 0};
  for (std::size_t r = 0; r < critical.size(); ++r) {
    const RankCriticalCounts& c = critical[r];
    const std::uint64_t n =
        phase != nullptr ? c.*phase : c.synapse + c.neuron + c.network;
    if (n > best.second) best = {static_cast<int>(r), n};
  }
  return best;
}

double imbalance_factor(const std::vector<RankPhaseSeconds>& ranks,
                        double RankPhaseSeconds::*phase) {
  if (ranks.empty()) return 1.0;
  double max = 0.0, sum = 0.0;
  for (const RankPhaseSeconds& r : ranks) {
    max = std::max(max, r.*phase);
    sum += r.*phase;
  }
  const double mean = sum / static_cast<double>(ranks.size());
  return mean > 0.0 ? max / mean : 1.0;
}

namespace {

void write_matrix_field(std::ostream& os, const CommMatrix& m,
                        std::uint64_t CommCell::*field) {
  os << '[';
  for (int s = 0; s < m.ranks(); ++s) {
    if (s) os << ',';
    os << '[';
    for (int d = 0; d < m.ranks(); ++d) {
      if (d) os << ',';
      os << m.at(s, d).*field;
    }
    os << ']';
  }
  os << ']';
}

// The fields the profile record and compass_prof --json share.
void write_head(std::ostream& os, std::uint64_t ticks, int ranks,
                const perf::PhaseBreakdown& totals) {
  os << "\"ticks\":" << ticks << ",\"ranks\":" << ranks
     << ",\"totals\":{\"synapse_s\":";
  write_json_double(os, totals.synapse);
  os << ",\"neuron_s\":";
  write_json_double(os, totals.neuron);
  os << ",\"network_s\":";
  write_json_double(os, totals.network);
  os << '}';
}

void write_ranks(std::ostream& os, const std::vector<RankPhaseSeconds>& rps,
                 const std::vector<RankCriticalCounts>& critical) {
  os << ",\"rank_phase_s\":[";
  for (std::size_t r = 0; r < rps.size(); ++r) {
    if (r) os << ',';
    os << '[';
    write_json_double(os, rps[r].synapse);
    os << ',';
    write_json_double(os, rps[r].neuron);
    os << ',';
    write_json_double(os, rps[r].network);
    os << ']';
  }
  os << "],\"critical\":[";
  for (std::size_t r = 0; r < critical.size(); ++r) {
    if (r) os << ',';
    os << '[' << critical[r].synapse << ',' << critical[r].neuron << ','
       << critical[r].network << ']';
  }
  os << ']';
}

void write_imbalance(std::ostream& os, const std::array<double, 3>& f) {
  os << ",\"imbalance\":[";
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i) os << ',';
    write_json_double(os, f[i]);
  }
  os << ']';
}

}  // namespace

void write_profile_fields(std::ostream& os, const ProfileSummary& p,
                          const CommMatrix& m) {
  write_head(os, p.ticks, p.ranks(), p.totals);
  write_ranks(os, p.rank_phase_s, p.critical);
  write_imbalance(os, p.imbalance);
  os << ",\"sync_s\":";
  write_json_double(os, p.sync_s);
  os << ",\"hidden_s\":";
  write_json_double(os, p.hidden_s);
  os << ",\"overlap_efficiency\":";
  write_json_double(os, p.overlap_efficiency());
  os << ",\"comm\":{\"messages\":";
  write_matrix_field(os, m, &CommCell::messages);
  os << ",\"spikes\":";
  write_matrix_field(os, m, &CommCell::spikes);
  os << ",\"bytes\":";
  write_matrix_field(os, m, &CommCell::bytes);
  os << '}';
}

void write_profile_json(std::ostream& os, const ProfileSummary& summary,
                        const CommMatrix& matrix) {
  os << '{';
  write_profile_fields(os, summary, matrix);
  os << "}\n";
}

// --- Offline analysis -------------------------------------------------------

namespace {

// The JSON reader lives in obs/jsonv.h (shared with spiketrace.cpp's span
// analyzer); these aliases keep the analyzer body reading naturally.
using jsonv::JsonParser;
using jsonv::JsonValue;
using jsonv::get_num;
using jsonv::get_num_or0;
using jsonv::get_u64;
using jsonv::get_u64_or0;
using jsonv::line_fail;

int phase_index(std::string_view name) {
  if (name == "synapse") return 0;
  if (name == "neuron") return 1;
  if (name == "network") return 2;
  return -1;
}

double& phase_ref(RankPhaseSeconds& r, int phase) {
  return phase == 0 ? r.synapse : phase == 1 ? r.neuron : r.network;
}

std::uint64_t& critical_ref(RankCriticalCounts& r, int phase) {
  return phase == 0 ? r.synapse : phase == 1 ? r.neuron : r.network;
}

void parse_matrix_field(const JsonValue& comm, std::string_view key,
                        CommMatrix& matrix, std::uint64_t CommCell::*field,
                        std::uint64_t lineno) {
  const JsonValue* rows = comm.find(key);
  if (rows == nullptr || rows->kind != JsonValue::Kind::kArray ||
      rows->array.size() != static_cast<std::size_t>(matrix.ranks())) {
    line_fail(lineno, "profile comm." + std::string(key) +
                          " is not a ranks x ranks array");
  }
  for (int s = 0; s < matrix.ranks(); ++s) {
    const JsonValue& row = rows->array[static_cast<std::size_t>(s)];
    if (row.kind != JsonValue::Kind::kArray ||
        row.array.size() != static_cast<std::size_t>(matrix.ranks())) {
      line_fail(lineno, "profile comm." + std::string(key) +
                            " is not a ranks x ranks array");
    }
    for (int d = 0; d < matrix.ranks(); ++d) {
      const JsonValue& cell = row.array[static_cast<std::size_t>(d)];
      if (!cell.is_integer) {
        line_fail(lineno, "non-integer comm-matrix cell");
      }
      matrix.at(s, d).*field = cell.integer;
    }
  }
}

void parse_profile_record(const JsonValue& v, TraceProfile& out,
                          std::uint64_t lineno) {
  ProfileSummary& p = out.profile;
  p.ticks = get_u64(v, "ticks", lineno);
  const std::uint64_t ranks = get_u64(v, "ranks", lineno);
  const JsonValue* totals = v.find("totals");
  if (totals == nullptr || totals->kind != JsonValue::Kind::kObject) {
    line_fail(lineno, "profile record without totals object");
  }
  p.totals.synapse = get_num(*totals, "synapse_s", lineno);
  p.totals.neuron = get_num(*totals, "neuron_s", lineno);
  p.totals.network = get_num(*totals, "network_s", lineno);

  const JsonValue* rps = v.find("rank_phase_s");
  const JsonValue* crit = v.find("critical");
  if (rps == nullptr || rps->kind != JsonValue::Kind::kArray ||
      rps->array.size() != ranks || crit == nullptr ||
      crit->kind != JsonValue::Kind::kArray || crit->array.size() != ranks) {
    line_fail(lineno, "profile rank arrays do not match \"ranks\"");
  }
  p.rank_phase_s.assign(ranks, RankPhaseSeconds{});
  p.critical.assign(ranks, RankCriticalCounts{});
  for (std::size_t r = 0; r < ranks; ++r) {
    const JsonValue& row = rps->array[r];
    const JsonValue& crow = crit->array[r];
    if (row.kind != JsonValue::Kind::kArray || row.array.size() != 3 ||
        crow.kind != JsonValue::Kind::kArray || crow.array.size() != 3) {
      line_fail(lineno, "profile rank row is not a 3-element array");
    }
    for (int ph = 0; ph < 3; ++ph) {
      const JsonValue& t = row.array[static_cast<std::size_t>(ph)];
      const JsonValue& c = crow.array[static_cast<std::size_t>(ph)];
      if (t.kind != JsonValue::Kind::kNumber || !c.is_integer) {
        line_fail(lineno, "malformed profile rank row");
      }
      phase_ref(p.rank_phase_s[r], ph) = t.number;
      critical_ref(p.critical[r], ph) = c.integer;
    }
  }
  const JsonValue* imb = v.find("imbalance");
  if (imb == nullptr || imb->kind != JsonValue::Kind::kArray ||
      imb->array.size() != 3) {
    line_fail(lineno, "profile record without imbalance[3]");
  }
  for (int ph = 0; ph < 3; ++ph) {
    p.imbalance[static_cast<std::size_t>(ph)] =
        imb->array[static_cast<std::size_t>(ph)].number;
  }
  p.sync_s = get_num(v, "sync_s", lineno);
  p.hidden_s = get_num(v, "hidden_s", lineno);

  const JsonValue* comm = v.find("comm");
  if (comm == nullptr || comm->kind != JsonValue::Kind::kObject) {
    line_fail(lineno, "profile record without comm object");
  }
  out.matrix = CommMatrix(static_cast<int>(ranks));
  parse_matrix_field(*comm, "messages", out.matrix, &CommCell::messages,
                     lineno);
  parse_matrix_field(*comm, "spikes", out.matrix, &CommCell::spikes, lineno);
  parse_matrix_field(*comm, "bytes", out.matrix, &CommCell::bytes, lineno);
  out.has_profile = true;
}

}  // namespace

TraceProfile analyze_trace(std::istream& is) {
  TraceProfile out;
  // Per-rank leg totals of the tick currently being read; spans precede
  // their tick record, so the argmax at each tick record is the tick's
  // critical rank (exact for synapse/neuron; see header for network).
  std::vector<std::array<double, 3>> cur;
  const auto ensure_rank = [&](int rank, std::uint64_t lineno) {
    if (rank < 0) line_fail(lineno, "negative rank");
    if (rank >= out.ranks) {
      out.ranks = rank + 1;
      out.rank_phase_s.resize(static_cast<std::size_t>(out.ranks));
      out.critical.resize(static_cast<std::size_t>(out.ranks));
      cur.resize(static_cast<std::size_t>(out.ranks), {0.0, 0.0, 0.0});
    }
  };

  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = JsonParser(line).parse();
    } catch (const std::exception& e) {
      line_fail(lineno, e.what());
    }
    if (v.kind != JsonValue::Kind::kObject) {
      line_fail(lineno, "record is not a JSON object");
    }
    const JsonValue* type = v.find("type");
    if (type == nullptr || type->kind != JsonValue::Kind::kString) {
      line_fail(lineno, "record without \"type\"");
    }
    if (type->string == "span") {
      const int rank = static_cast<int>(get_u64(v, "rank", lineno));
      ensure_rank(rank, lineno);
      const JsonValue* phase = v.find("phase");
      if (phase == nullptr || phase->kind != JsonValue::Kind::kString) {
        line_fail(lineno, "span without \"phase\"");
      }
      const int ph = phase_index(phase->string);
      if (ph < 0) line_fail(lineno, "unknown phase \"" + phase->string + "\"");
      const JsonValue* compute = v.find("compute_s");  // absent in
      const double total =  // measured-stripped (deterministic) traces
          (compute != nullptr ? compute->number : 0.0) +
          get_num(v, "comm_s", lineno);
      const std::size_t r = static_cast<std::size_t>(rank);
      phase_ref(out.rank_phase_s[r], ph) += total;
      cur[r][static_cast<std::size_t>(ph)] += total;
    } else if (type->string == "tick") {
      out.totals.synapse += get_num_or0(v, "synapse_s", lineno);
      out.totals.neuron += get_num_or0(v, "neuron_s", lineno);
      out.totals.network += get_num_or0(v, "network_s", lineno);
      out.fired += get_u64_or0(v, "fired", lineno);
      out.routed += get_u64_or0(v, "routed", lineno);
      out.local += get_u64_or0(v, "local", lineno);
      out.remote += get_u64_or0(v, "remote", lineno);
      out.messages += get_u64_or0(v, "messages", lineno);
      out.bytes += get_u64_or0(v, "bytes", lineno);
      ++out.ticks;
      // Same argmax rule as perf::compose_tick: start from (0.0, rank 0),
      // strict '>' so ties go to the lowest rank.
      if (out.ranks > 0) {
        for (int ph = 0; ph < 3; ++ph) {
          double max = 0.0;
          std::size_t arg = 0;
          for (std::size_t r = 0; r < cur.size(); ++r) {
            if (cur[r][static_cast<std::size_t>(ph)] > max) {
              max = cur[r][static_cast<std::size_t>(ph)];
              arg = r;
            }
          }
          ++critical_ref(out.critical[arg], ph);
        }
        for (auto& r : cur) r = {0.0, 0.0, 0.0};
      }
    } else if (type->string == "profile") {
      parse_profile_record(v, out, lineno);
      out.ranks = std::max(out.ranks, out.matrix.ranks());
      out.rank_phase_s.resize(static_cast<std::size_t>(out.ranks));
      out.critical.resize(static_cast<std::size_t>(out.ranks));
    } else if (type->string == "truncated") {
      out.dropped += get_u64_or0(v, "dropped", lineno);
    }
    // Unknown record types: skipped (schema evolution).
  }
  out.imbalance = {
      imbalance_factor(out.rank_phase_s, &RankPhaseSeconds::synapse),
      imbalance_factor(out.rank_phase_s, &RankPhaseSeconds::neuron),
      imbalance_factor(out.rank_phase_s, &RankPhaseSeconds::network)};
  return out;
}

// --- Report rendering -------------------------------------------------------

namespace {

std::string fmt_seconds(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4e", v);
  return buf;
}

std::string fmt_factor(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

double rank_total(const RankPhaseSeconds& r) {
  return r.synapse + r.neuron + r.network;
}

/// Ranks ordered heaviest-first (ties to the lower rank id).
std::vector<int> ranks_by_load(const std::vector<RankPhaseSeconds>& rps) {
  std::vector<int> order(rps.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return rank_total(rps[static_cast<std::size_t>(a)]) >
           rank_total(rps[static_cast<std::size_t>(b)]);
  });
  return order;
}

char heat_glyph(std::uint64_t v, std::uint64_t max) {
  static const char kRamp[] = " .:-=+*#%@";  // 10 levels, linear in v/max
  if (v == 0 || max == 0) return kRamp[0];
  const std::size_t idx =
      1 + static_cast<std::size_t>(
              (static_cast<double>(v) / static_cast<double>(max)) * 8.999);
  return kRamp[std::min<std::size_t>(idx, 9)];
}

void write_heatmap(std::ostream& os, const CommMatrix& m,
                   std::uint64_t CommCell::*field, const char* title) {
  std::uint64_t max = 0;
  for (int s = 0; s < m.ranks(); ++s) {
    for (int d = 0; d < m.ranks(); ++d) {
      max = std::max(max, m.at(s, d).*field);
    }
  }
  os << title << " (rows = source rank, ' '..'@' = 0..max, max = " << max
     << ")\n";
  for (int s = 0; s < m.ranks(); ++s) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "  r%-4d |", s);
    os << buf;
    for (int d = 0; d < m.ranks(); ++d) {
      os << heat_glyph(m.at(s, d).*field, max);
    }
    os << "|\n";
  }
}

}  // namespace

void write_trace_report(std::ostream& os, const TraceProfile& p, int top_k) {
  os << "compass_prof: " << p.ticks << " ticks, " << p.ranks << " ranks"
     << (p.has_profile ? " (trace carries an end-of-run profile record)"
                       : " (no profile record: comm matrix / overlap "
                         "unavailable)")
     << "\n";
  if (p.dropped > 0) {
    os << "WARNING: trace truncated at the writer's record cap — "
       << p.dropped
       << " record(s) dropped; every figure below understates the run\n";
  }
  os << "\n";

  os << "per-phase virtual time (composed makespan, from tick records)\n";
  os << "  phase     total_s       per-tick_s    imbalance(max/mean)\n";
  const double ticks_d = p.ticks > 0 ? static_cast<double>(p.ticks) : 1.0;
  const std::array<std::pair<const char*, double>, 3> phases = {
      {{"synapse", p.totals.synapse},
       {"neuron", p.totals.neuron},
       {"network", p.totals.network}}};
  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "  %-9s %-13s %-13s %s\n",
                  phases[ph].first, fmt_seconds(phases[ph].second).c_str(),
                  fmt_seconds(phases[ph].second / ticks_d).c_str(),
                  fmt_factor(p.imbalance[ph]).c_str());
    os << buf;
  }
  os << "  total     " << fmt_seconds(p.totals.total()) << "\n\n";

  os << "spikes: fired=" << p.fired << " routed=" << p.routed
     << " local=" << p.local << " remote=" << p.remote
     << "  wire: messages=" << p.messages << " bytes=" << p.bytes << "\n\n";

  const int k = std::min<int>(top_k, p.ranks);
  const std::vector<int> order = ranks_by_load(p.rank_phase_s);
  os << "top-" << k
     << " heaviest ranks (per-rank virtual seconds; critical = ticks the "
        "rank set the slice)\n";
  os << "  rank   total_s       synapse_s     neuron_s      network_s     "
        "critical syn/neu/net\n";
  for (int i = 0; i < k; ++i) {
    const std::size_t r =
        static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
    const RankPhaseSeconds& t = p.rank_phase_s[r];
    const RankCriticalCounts& c = p.critical[r];
    char buf[160];
    std::snprintf(
        buf, sizeof buf, "  r%-5zu %-13s %-13s %-13s %-13s %llu/%llu/%llu\n",
        r, fmt_seconds(rank_total(t)).c_str(), fmt_seconds(t.synapse).c_str(),
        fmt_seconds(t.neuron).c_str(), fmt_seconds(t.network).c_str(),
        static_cast<unsigned long long>(c.synapse),
        static_cast<unsigned long long>(c.neuron),
        static_cast<unsigned long long>(c.network));
    os << buf;
  }
  os << '\n';

  if (p.has_profile) {
    os << "overlap (from profile record): sync=" << fmt_seconds(p.profile.sync_s)
       << "s hidden=" << fmt_seconds(p.profile.hidden_s)
       << "s efficiency=" << fmt_factor(p.profile.overlap_efficiency())
       << "\n\n";
    const CommCell total = p.matrix.total();
    os << "comm matrix total: messages=" << total.messages
       << " spikes=" << total.spikes << " bytes=" << total.bytes << "\n";
    write_heatmap(os, p.matrix, &CommCell::bytes, "wire-byte heatmap");
    write_heatmap(os, p.matrix, &CommCell::spikes,
                  "spike heatmap (diagonal = rank-local routing)");
  }
}

void write_trace_report_json(std::ostream& os, const TraceProfile& p) {
  os << '{';
  write_head(os, p.ticks, p.ranks, p.totals);
  write_imbalance(os, p.imbalance);
  write_ranks(os, p.rank_phase_s, p.critical);
  os << ",\"fired\":" << p.fired << ",\"routed\":" << p.routed
     << ",\"local\":" << p.local << ",\"remote\":" << p.remote
     << ",\"messages\":" << p.messages << ",\"bytes\":" << p.bytes;
  if (p.dropped > 0) os << ",\"dropped\":" << p.dropped;
  if (p.has_profile) {
    os << ",\"profile\":{";
    write_profile_fields(os, p.profile, p.matrix);
    os << '}';
  }
  os << "}\n";
}

}  // namespace compass::obs
