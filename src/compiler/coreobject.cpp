#include "compiler/coreobject.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "arch/types.h"
#include "util/parse.h"

namespace compass::compiler {

const char* to_string(RegionClass c) {
  switch (c) {
    case RegionClass::kCortical: return "cortical";
    case RegionClass::kThalamic: return "thalamic";
    case RegionClass::kBasal: return "basal";
    case RegionClass::kGeneric: return "generic";
  }
  return "generic";
}

std::optional<RegionClass> region_class_from_string(const std::string& s) {
  if (s == "cortical") return RegionClass::kCortical;
  if (s == "thalamic") return RegionClass::kThalamic;
  if (s == "basal") return RegionClass::kBasal;
  if (s == "generic") return RegionClass::kGeneric;
  return std::nullopt;
}

const char* to_string(RegionKind k) {
  switch (k) {
    case RegionKind::kBalanced: return "balanced";
    case RegionKind::kSource: return "source";
    case RegionKind::kRelay: return "relay";
  }
  return "balanced";
}

std::optional<RegionKind> region_kind_from_string(const std::string& s) {
  if (s == "balanced") return RegionKind::kBalanced;
  if (s == "source") return RegionKind::kSource;
  if (s == "relay") return RegionKind::kRelay;
  return std::nullopt;
}

int Spec::region_index(const std::string& region_name) const {
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (regions[i].name == region_name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

std::vector<double> Spec::volumes() const {
  std::vector<double> by_class[4];
  std::vector<double> known;
  for (const RegionDecl& r : regions) {
    if (r.volume) {
      by_class[static_cast<int>(r.cls)].push_back(*r.volume);
      known.push_back(*r.volume);
    }
  }
  const double global = known.empty() ? 1.0 : median(known);
  std::vector<double> out;
  out.reserve(regions.size());
  for (const RegionDecl& r : regions) {
    const std::vector<double>& cls = by_class[static_cast<int>(r.cls)];
    out.push_back(r.volume ? *r.volume : cls.empty() ? global : median(cls));
  }
  return out;
}

std::string Spec::validate() const {
  if (regions.empty()) return "spec has no regions";
  if (total_cores < regions.size()) {
    return "total cores (" + std::to_string(total_cores) +
           ") below region count (" + std::to_string(regions.size()) + ")";
  }
  // Core ids are 32-bit, with the top value reserved for "no target".
  if (total_cores >= arch::kInvalidCore) {
    return "total cores (" + std::to_string(total_cores) + ") above " +
           std::to_string(arch::kInvalidCore - 1);
  }
  std::unordered_map<std::string, std::size_t> index;
  for (const RegionDecl& r : regions) {
    if (r.name.empty()) return "region with empty name";
    if (!index.emplace(r.name, index.size()).second) {
      return "duplicate region: " + r.name;
    }
    // Written as "not inside" so that NaN, which fails every comparison,
    // is rejected too.
    if (!(r.self_fraction >= 0.0 && r.self_fraction <= 1.0)) {
      return "region " + r.name + ": self fraction outside [0,1]";
    }
    if (r.volume && !(std::isfinite(*r.volume) && *r.volume > 0.0)) {
      return "region " + r.name + ": volume not a positive finite number";
    }
    if (!(r.rate_hz >= 0.0 && r.rate_hz <= 1000.0)) {
      return "region " + r.name + ": rate outside [0,1000] Hz";
    }
  }
  // PCC's white-matter demand is edge weight x target volume, divided by
  // the source's sum of those products and scaled by up to its neuron
  // count, so that sum times the neuron count must stay finite.
  const std::vector<double> volume = volumes();
  std::vector<double> out_volume(regions.size(), 0.0);
  for (const EdgeDecl& e : edges) {
    const auto src = index.find(e.src);
    const auto dst = index.find(e.dst);
    if (src == index.end()) return "edge references unknown region: " + e.src;
    if (dst == index.end()) return "edge references unknown region: " + e.dst;
    if (!(std::isfinite(e.weight) && e.weight > 0.0)) {
      return "edge " + e.src + " -> " + e.dst +
             ": weight not a positive finite number";
    }
    if (src->second != dst->second) {
      out_volume[src->second] += e.weight * volume[dst->second];
    }
  }
  const double neurons =
      static_cast<double>(total_cores) * arch::kNeuronsPerCore;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (!std::isfinite(out_volume[i] * neurons)) {
      return "region " + regions[i].name +
             ": weighted out-volume sum overflows";
    }
  }
  return {};
}

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("CoreObject parse error at line " +
                           std::to_string(line) + ": " + what);
}

// Numeric fields take a whole token or fail: stream extraction would read
// `42abc` as 42, `1e3` as 1 and `-1` as 2^64-1.
std::string next_token(std::istream& ls, int line, const std::string& what) {
  std::string token;
  if (!(ls >> token)) fail(line, what + " missing value");
  return token;
}

std::uint64_t read_u64(std::istream& ls, int line, const std::string& what) {
  const std::string token = next_token(ls, line, what);
  const std::optional<std::uint64_t> v = util::parse_u64(token);
  if (!v) fail(line, what + " not a non-negative integer: '" + token + "'");
  return *v;
}

double real_of(const std::string& token, int line, const std::string& what) {
  const std::optional<double> v = util::parse_finite_double(token);
  if (!v) fail(line, what + " not a finite number: '" + token + "'");
  return *v;
}

double read_real(std::istream& ls, int line, const std::string& what) {
  return real_of(next_token(ls, line, what), line, what);
}

}  // namespace

Spec parse_coreobject(std::istream& is) {
  Spec spec;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;  // blank line

    if (keyword == "network") {
      if (!(ls >> spec.name)) fail(line_no, "network: missing name");
    } else if (keyword == "seed") {
      spec.seed = read_u64(ls, line_no, "seed:");
    } else if (keyword == "cores") {
      spec.total_cores = read_u64(ls, line_no, "cores:");
    } else if (keyword == "region") {
      RegionDecl r;
      if (!(ls >> r.name)) fail(line_no, "region: missing name");
      std::string field;
      while (ls >> field) {
        if (field == "class") {
          std::string cls;
          if (!(ls >> cls)) fail(line_no, "region: class missing value");
          const auto parsed = region_class_from_string(cls);
          if (!parsed) fail(line_no, "region: unknown class '" + cls + "'");
          r.cls = *parsed;
        } else if (field == "volume") {
          const std::string v = next_token(ls, line_no, "region: volume");
          if (v == "unknown") {
            r.volume = std::nullopt;
          } else {
            r.volume = real_of(v, line_no, "region: volume");
          }
        } else if (field == "self") {
          r.self_fraction = read_real(ls, line_no, "region: self");
        } else if (field == "rate") {
          r.rate_hz = read_real(ls, line_no, "region: rate");
        } else if (field == "kind") {
          std::string kind;
          if (!(ls >> kind)) fail(line_no, "region: kind missing value");
          const auto parsed = region_kind_from_string(kind);
          if (!parsed) fail(line_no, "region: unknown kind '" + kind + "'");
          r.kind = *parsed;
        } else {
          fail(line_no, "region: unknown field '" + field + "'");
        }
      }
      spec.regions.push_back(std::move(r));
    } else if (keyword == "edge") {
      EdgeDecl e;
      if (!(ls >> e.src >> e.dst)) fail(line_no, "edge: missing endpoints");
      std::string w;
      if (ls >> w) e.weight = real_of(w, line_no, "edge: weight");
      spec.edges.push_back(std::move(e));
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  return spec;
}

Spec parse_coreobject_string(const std::string& text) {
  std::istringstream is(text);
  return parse_coreobject(is);
}

Spec load_coreobject_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open CoreObject file: " + path);
  return parse_coreobject(is);
}

void write_coreobject(std::ostream& os, const Spec& spec) {
  os << "# CoreObject network description (Compass PCC input)\n";
  os << "network " << spec.name << '\n';
  os << "seed " << spec.seed << '\n';
  os << "cores " << spec.total_cores << '\n';
  for (const RegionDecl& r : spec.regions) {
    os << "region " << r.name << " class " << to_string(r.cls) << " volume ";
    if (r.volume) {
      os << *r.volume;
    } else {
      os << "unknown";
    }
    os << " self " << r.self_fraction << " rate " << r.rate_hz;
    if (r.kind != RegionKind::kBalanced) os << " kind " << to_string(r.kind);
    os << '\n';
  }
  for (const EdgeDecl& e : spec.edges) {
    os << "edge " << e.src << ' ' << e.dst << ' ' << e.weight << '\n';
  }
}

std::string to_coreobject_string(const Spec& spec) {
  std::ostringstream os;
  write_coreobject(os, spec);
  return os.str();
}

}  // namespace compass::compiler
