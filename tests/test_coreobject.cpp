// Unit tests for the CoreObject description format.
#include "compiler/coreobject.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "arch/types.h"
#include "cocomac/macaque.h"
#include "compiler/pcc.h"

namespace compass::compiler {
namespace {

const char* kSample = R"(# test network
network demo
seed 123
cores 64
region V1 class cortical volume 100.5 self 0.4 rate 8
region LGN class thalamic volume unknown self 0.2 rate 10
region CD class basal volume 12 self 0.2 rate 5
edge LGN V1 2.5
edge V1 CD
)";

TEST(CoreObject, ParsesSample) {
  const Spec spec = parse_coreobject_string(kSample);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.seed, 123u);
  EXPECT_EQ(spec.total_cores, 64u);
  ASSERT_EQ(spec.regions.size(), 3u);
  EXPECT_EQ(spec.regions[0].name, "V1");
  EXPECT_EQ(spec.regions[0].cls, RegionClass::kCortical);
  ASSERT_TRUE(spec.regions[0].volume.has_value());
  EXPECT_DOUBLE_EQ(*spec.regions[0].volume, 100.5);
  EXPECT_DOUBLE_EQ(spec.regions[0].self_fraction, 0.4);
  EXPECT_DOUBLE_EQ(spec.regions[0].rate_hz, 8.0);
  EXPECT_FALSE(spec.regions[1].volume.has_value());  // "unknown"
  ASSERT_EQ(spec.edges.size(), 2u);
  EXPECT_EQ(spec.edges[0].src, "LGN");
  EXPECT_DOUBLE_EQ(spec.edges[0].weight, 2.5);
  EXPECT_DOUBLE_EQ(spec.edges[1].weight, 1.0);  // default weight
  EXPECT_EQ(spec.validate(), "");
}

TEST(CoreObject, RoundTripsThroughWriter) {
  const Spec a = parse_coreobject_string(kSample);
  const Spec b = parse_coreobject_string(to_coreobject_string(a));
  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.total_cores, a.total_cores);
  ASSERT_EQ(b.regions.size(), a.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(b.regions[i].name, a.regions[i].name);
    EXPECT_EQ(b.regions[i].cls, a.regions[i].cls);
    EXPECT_EQ(b.regions[i].volume.has_value(), a.regions[i].volume.has_value());
    EXPECT_DOUBLE_EQ(b.regions[i].self_fraction, a.regions[i].self_fraction);
  }
  ASSERT_EQ(b.edges.size(), a.edges.size());
  EXPECT_DOUBLE_EQ(b.edges[0].weight, a.edges[0].weight);
}

TEST(CoreObject, CommentsAndBlankLinesIgnored) {
  const Spec spec = parse_coreobject_string(
      "\n# full comment line\nnetwork x # trailing comment\n\nseed 1\ncores 1\n"
      "region A class generic volume 1 self 0.5 rate 1\n");
  EXPECT_EQ(spec.name, "x");
  EXPECT_EQ(spec.regions.size(), 1u);
}

TEST(CoreObject, UnknownKeywordFailsWithLineNumber) {
  try {
    parse_coreobject_string("network x\nbogus 1\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(CoreObject, BadClassFails) {
  EXPECT_THROW(
      parse_coreobject_string("region A class nonsense volume 1 self 0 rate 1\n"),
      std::runtime_error);
}

TEST(CoreObject, BadVolumeFails) {
  EXPECT_THROW(
      parse_coreobject_string("region A class generic volume abc self 0 rate 1\n"),
      std::runtime_error);
}

TEST(CoreObject, MissingEdgeEndpointFails) {
  EXPECT_THROW(parse_coreobject_string("edge A\n"), std::runtime_error);
}

TEST(CoreObjectValidate, EmptySpecRejected) {
  Spec spec;
  EXPECT_NE(Spec{spec}.validate(), "");
}

TEST(CoreObjectValidate, DuplicateRegionRejected) {
  Spec spec = parse_coreobject_string(kSample);
  spec.regions.push_back(spec.regions[0]);
  EXPECT_NE(spec.validate().find("duplicate"), std::string::npos);
}

TEST(CoreObjectValidate, EdgeToUnknownRegionRejected) {
  Spec spec = parse_coreobject_string(kSample);
  spec.edges.push_back({"V1", "Nowhere", 1.0});
  EXPECT_NE(spec.validate().find("unknown region"), std::string::npos);
}

TEST(CoreObjectValidate, SelfFractionOutOfRangeRejected) {
  Spec spec = parse_coreobject_string(kSample);
  spec.regions[0].self_fraction = 1.5;
  EXPECT_NE(spec.validate().find("self fraction"), std::string::npos);
}

TEST(CoreObjectValidate, TooFewCoresRejected) {
  Spec spec = parse_coreobject_string(kSample);
  spec.total_cores = 2;  // 3 regions
  EXPECT_NE(spec.validate().find("below region count"), std::string::npos);
}

TEST(CoreObjectValidate, NonPositiveEdgeWeightRejected) {
  Spec spec = parse_coreobject_string(kSample);
  spec.edges[0].weight = 0.0;
  EXPECT_NE(spec.validate().find("weight"), std::string::npos);
}

TEST(CoreObjectValidate, NonFiniteVolumeRejected) {
  // PCC's volume split would cast these to integers (undefined behaviour)
  // or never finish, so validation must stop them. The parser rejects them
  // too (CoreObjectStrictNumbers), so a Spec built in code is what can still
  // carry one here.
  for (const std::string v : {"nan", "inf", "-inf", "-nan"}) {
    Spec spec = parse_coreobject_string(
        "cores 8\nregion A class generic volume 1 self 0.2 rate 5\n"
        "region B class generic volume 1 self 0.2 rate 5\nedge A B\n");
    spec.regions[0].volume = std::stod(v);
    ASSERT_TRUE(spec.regions[0].volume.has_value()) << v;
    EXPECT_NE(spec.validate().find("volume"), std::string::npos) << v;
    EXPECT_THROW(compile(spec, PccOptions{}), std::invalid_argument) << v;
  }
}

TEST(CoreObjectValidate, NonFiniteRateFractionAndWeightRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    Spec spec = parse_coreobject_string(kSample);
    spec.regions[1].rate_hz = bad;
    EXPECT_NE(spec.validate().find("rate"), std::string::npos);
    spec = parse_coreobject_string(kSample);
    spec.regions[1].self_fraction = bad;
    EXPECT_NE(spec.validate().find("self fraction"), std::string::npos);
    spec = parse_coreobject_string(kSample);
    spec.edges[1].weight = bad;
    EXPECT_NE(spec.validate().find("weight"), std::string::npos);
  }
}

TEST(CoreObjectValidate, CoreCountBoundedByCoreIdRange) {
  // Checked on the spec alone: compiling these would allocate per core.
  Spec spec = parse_coreobject_string(
      std::string(kSample).replace(std::string(kSample).find("cores 64"), 8,
                                   "cores 99999999999"));
  EXPECT_EQ(spec.total_cores, 99999999999u);
  EXPECT_NE(spec.validate().find("total cores"), std::string::npos);
  spec.total_cores = arch::kInvalidCore;
  EXPECT_NE(spec.validate().find("total cores"), std::string::npos);
  spec.total_cores = arch::kInvalidCore - 1;
  EXPECT_EQ(spec.validate(), "");
}

TEST(CoreObjectValidate, OverflowingOutVolumeRejected) {
  // PCC's demand matrix multiplies edge weight by target volume; at 1e308
  // it overflowed and surfaced as an internal controlled_round error.
  cocomac::MacaqueSpecOptions mopt;
  mopt.total_cores = 256;
  Spec spec = cocomac::build_macaque_spec(mopt);
  ASSERT_EQ(spec.validate(), "");
  spec.regions[0].volume = 1e300;
  EXPECT_EQ(spec.validate(), "");
  spec.regions[0].volume = 1e308;
  const std::string err = spec.validate();
  EXPECT_NE(err.find("out-volume"), std::string::npos) << err;
  EXPECT_EQ(err.rfind("region ", 0), 0u) << err;
  EXPECT_THROW(compile(spec, PccOptions{}), std::invalid_argument);
}

// --- Strict numbers: a number field takes its whole token or fails --------

void expect_parse_error(const std::string& line) {
  const std::string text = "network x\n" + line + "\n";
  try {
    parse_coreobject_string(text);
    FAIL() << "accepted: " << line;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CoreObject parse error at line 2"), std::string::npos)
        << what;
  }
}

TEST(CoreObjectStrictNumbers, SeedWithTrailingGarbageFails) {
  expect_parse_error("seed 42abc");
}

TEST(CoreObjectStrictNumbers, CoresWithTrailingGarbageFails) {
  expect_parse_error("cores 256x");
}

TEST(CoreObjectStrictNumbers, CoresInScientificNotationFails) {
  expect_parse_error("cores 1e3");
}

TEST(CoreObjectStrictNumbers, CoresInHexFails) {
  expect_parse_error("cores 0x40");
}

TEST(CoreObjectStrictNumbers, NegativeSeedFails) {
  expect_parse_error("seed -1");
}

TEST(CoreObjectStrictNumbers, VolumeWithTrailingGarbageFails) {
  expect_parse_error("region A class generic volume 80x self 0.4 rate 8");
}

TEST(CoreObjectStrictNumbers, RealFieldsMustBeFiniteNumbers) {
  for (const std::string bad : {"nan", "inf", "-inf", "1e999", "+1", "0x1p3",
                                "1,5", ""}) {
    SCOPED_TRACE("'" + bad + "'");
    expect_parse_error("region A class generic volume " + bad +
                       " self 0.4 rate 8");
    expect_parse_error("region A class generic volume 1 self " + bad +
                       " rate 8");
    expect_parse_error("region A class generic volume 1 self 0.4 rate " +
                       bad);
    if (!bad.empty()) expect_parse_error("edge A B " + bad);
  }
  // What the writer prints still parses: fixed, scientific and negative.
  const Spec spec = parse_coreobject_string(
      "region A class generic volume 1e+06 self 0.25 rate 1.5e-05\n"
      "edge A B -2\n");
  EXPECT_DOUBLE_EQ(*spec.regions[0].volume, 1e6);
  EXPECT_DOUBLE_EQ(spec.regions[0].rate_hz, 1.5e-5);
  EXPECT_DOUBLE_EQ(spec.edges[0].weight, -2.0);
}

TEST(CoreObject, RegionIndexLookup) {
  const Spec spec = parse_coreobject_string(kSample);
  EXPECT_EQ(spec.region_index("V1"), 0);
  EXPECT_EQ(spec.region_index("CD"), 2);
  EXPECT_EQ(spec.region_index("nope"), -1);
}

TEST(CoreObject, ClassNamesRoundTrip) {
  for (RegionClass c : {RegionClass::kCortical, RegionClass::kThalamic,
                        RegionClass::kBasal, RegionClass::kGeneric}) {
    const auto parsed = region_class_from_string(to_string(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(region_class_from_string("junk").has_value());
}

TEST(CoreObject, LoadMissingFileThrows) {
  EXPECT_THROW(load_coreobject_file("/nonexistent/net.co"), std::runtime_error);
}

}  // namespace
}  // namespace compass::compiler
