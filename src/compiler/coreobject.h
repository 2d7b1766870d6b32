// CoreObject: the compact, high-level network description PCC compiles.
//
// Section IV: "The high-level network description describing the network
// connectivity is expressed in a relatively small and compact CoreObject
// file. For large scale simulation of millions of TrueNorth cores, the
// network model specification for Compass can be on the order of several
// terabytes" — hence in-situ compilation from this description instead of
// explicit model files.
//
// Text grammar (line-oriented; '#' starts a comment):
//   network <name>
//   seed <uint64>
//   cores <total-core-count>
//   region <name> class <cortical|thalamic|basal|generic>
//          volume <double | unknown> self <fraction> rate <hz>
//          [kind <balanced|source|relay>]
//   edge <src-region> <dst-region> <weight>
//
// Semantics:
//   * region volumes set relative core counts (total = `cores`); `unknown`
//     volumes are imputed with the median volume of the region's class
//     (paper section V-A: missing Paxinos volumes "approximated using the
//     median size of the other cortical or thalamic regions");
//   * `self` is the gray-matter fraction: the share of a region's outgoing
//     connections that stay inside the region (0.4 cortical / 0.2
//     non-cortical per section V-C's 60/40 and 80/20 splits);
//   * `rate` is the region's target mean firing rate in Hz, realised with
//     stochastic-leak background drive;
//   * `edge` weights shape the off-diagonal white-matter demand (scaled by
//     target-region volume, then IPFP-balanced).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace compass::compiler {

enum class RegionClass : std::uint8_t { kCortical, kThalamic, kBasal, kGeneric };

/// Functional kind of a region — the "libraries of functional primitives"
/// composition of section IV, expressed at region granularity:
///   balanced — recurrent excitatory/inhibitory population with background
///              drive calibrated to `rate` (the CoCoMac default);
///   source   — pure spike generator at `rate`; incoming synapses are inert;
///   relay    — fires iff an excitatory input spike arrives (no drive),
///              turning the region into a feed-forward stage.
enum class RegionKind : std::uint8_t { kBalanced, kSource, kRelay };

const char* to_string(RegionClass c);
std::optional<RegionClass> region_class_from_string(const std::string& s);
const char* to_string(RegionKind k);
std::optional<RegionKind> region_kind_from_string(const std::string& s);

struct RegionDecl {
  std::string name;
  RegionClass cls = RegionClass::kGeneric;
  std::optional<double> volume;  // nullopt == "unknown"
  double self_fraction = 0.4;    // gray-matter share of outgoing connections
  double rate_hz = 8.0;          // target mean firing rate
  RegionKind kind = RegionKind::kBalanced;
};

struct EdgeDecl {
  std::string src;
  std::string dst;
  double weight = 1.0;
};

struct Spec {
  std::string name = "unnamed";
  std::uint64_t seed = 0;
  std::uint64_t total_cores = 0;
  std::vector<RegionDecl> regions;
  std::vector<EdgeDecl> edges;

  /// Index of a region by name, or -1.
  int region_index(const std::string& name) const;

  /// Each region's volume, an unknown one imputed with the median of its
  /// class's known volumes (of all known volumes when its class has none;
  /// 1.0 when no volume is known).
  std::vector<double> volumes() const;

  /// Structural checks: unique region names, edges reference declared
  /// regions, fractions/rates/volumes/weights finite and in range, at least
  /// one region, number of regions <= cores < arch::kInvalidCore, and every
  /// region's weighted out-volume sum small enough for PCC's demand matrix.
  /// Returns empty string if valid.
  std::string validate() const;
};

/// Parse a CoreObject document. Throws std::runtime_error with a
/// line-numbered message on syntax errors (semantic checks live in
/// Spec::validate()).
Spec parse_coreobject(std::istream& is);
Spec parse_coreobject_string(const std::string& text);
Spec load_coreobject_file(const std::string& path);

/// Serialise a Spec back to the text format (round-trips with the parser).
void write_coreobject(std::ostream& os, const Spec& spec);
std::string to_coreobject_string(const Spec& spec);

}  // namespace compass::compiler
