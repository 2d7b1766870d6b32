#include "compiler/coreobject.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

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

std::string Spec::validate() const {
  if (regions.empty()) return "spec has no regions";
  if (total_cores < regions.size()) {
    return "total cores (" + std::to_string(total_cores) +
           ") below region count (" + std::to_string(regions.size()) + ")";
  }
  std::unordered_set<std::string> names;
  for (const RegionDecl& r : regions) {
    if (r.name.empty()) return "region with empty name";
    if (!names.insert(r.name).second) return "duplicate region: " + r.name;
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
  for (const EdgeDecl& e : edges) {
    if (!names.contains(e.src)) return "edge references unknown region: " + e.src;
    if (!names.contains(e.dst)) return "edge references unknown region: " + e.dst;
    if (!(std::isfinite(e.weight) && e.weight > 0.0)) {
      return "edge " + e.src + " -> " + e.dst +
             ": weight not a positive finite number";
    }
  }
  return {};
}

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("CoreObject parse error at line " +
                           std::to_string(line) + ": " + what);
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
      if (!(ls >> spec.seed)) fail(line_no, "seed: missing value");
    } else if (keyword == "cores") {
      if (!(ls >> spec.total_cores)) fail(line_no, "cores: missing count");
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
          std::string v;
          if (!(ls >> v)) fail(line_no, "region: volume missing value");
          if (v == "unknown") {
            r.volume = std::nullopt;
          } else {
            try {
              r.volume = std::stod(v);
            } catch (const std::exception&) {
              fail(line_no, "region: bad volume '" + v + "'");
            }
          }
        } else if (field == "self") {
          if (!(ls >> r.self_fraction)) fail(line_no, "region: self missing value");
        } else if (field == "rate") {
          if (!(ls >> r.rate_hz)) fail(line_no, "region: rate missing value");
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
      if (!(ls >> e.weight)) e.weight = 1.0;
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
