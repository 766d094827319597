// The gray-failure spec parser (src/net/gray_failure.h): every malformed or
// out-of-range spec is rejected, the spec the CI liveness sweeps and the
// benchmark's verify workload use parses to the profiles it names, and
// ToString() of every accepted spec parses back to the same spec.

#include "src/net/gray_failure.h"

#include <gtest/gtest.h>

#include <string>

namespace bmx {
namespace {

// The spec of the CI liveness and scale sweeps and perfbench's verify shape.
constexpr const char* kSweepSpec = "0->1:lat=3,loss=0.2;1->0:lat=2;2->0:dup=0.25";

void ExpectSameSpec(const GraySpec& a, const GraySpec& b) {
  ASSERT_EQ(a.links.size(), b.links.size());
  for (size_t i = 0; i < a.links.size(); ++i) {
    const LinkProfile& pa = a.links[i].profile;
    const LinkProfile& pb = b.links[i].profile;
    EXPECT_EQ(a.links[i].src, b.links[i].src) << "link " << i;
    EXPECT_EQ(a.links[i].dst, b.links[i].dst) << "link " << i;
    EXPECT_EQ(pa.latency_ticks, pb.latency_ticks) << "link " << i;
    EXPECT_EQ(pa.loss_rate, pb.loss_rate) << "link " << i;
    EXPECT_EQ(pa.duplication_rate, pb.duplication_rate) << "link " << i;
    EXPECT_EQ(pa.zombie, pb.zombie) << "link " << i;
  }
  EXPECT_EQ(a.zombie_nodes, b.zombie_nodes);
}

// The gray DSL round-trips and rejects malformed specs.
TEST(GraySpecDsl, ParseAndRoundTrip) {
  GraySpec spec;
  std::string error;
  ASSERT_TRUE(GraySpec::Parse("0->1:lat=4,zombie;zombie=2", &spec, &error)) << error;
  ASSERT_EQ(spec.links.size(), 1u);
  EXPECT_EQ(spec.links[0].profile.latency_ticks, 4u);
  EXPECT_TRUE(spec.links[0].profile.zombie);
  ASSERT_EQ(spec.zombie_nodes.size(), 1u);
  EXPECT_EQ(spec.zombie_nodes[0], 2u);
  EXPECT_EQ(spec.ToString(), "0->1:lat=4,zombie;zombie=2");

  EXPECT_FALSE(GraySpec::Parse("0->0:lat=1", &spec, &error));
  EXPECT_FALSE(GraySpec::Parse("0->1:loss=1.5", &spec, &error));
  EXPECT_FALSE(GraySpec::Parse("0->1:warp=9", &spec, &error));
  EXPECT_FALSE(GraySpec::Parse("nonsense", &spec, &error));
}

TEST(GraySpecParse, SweepSpecParsesUnchanged) {
  GraySpec spec;
  std::string error;
  ASSERT_TRUE(GraySpec::Parse(kSweepSpec, &spec, &error)) << error;
  ASSERT_EQ(spec.links.size(), 3u);
  EXPECT_TRUE(spec.zombie_nodes.empty());

  const GrayLinkSpec& a = spec.links[0];
  EXPECT_EQ(a.src, 0u);
  EXPECT_EQ(a.dst, 1u);
  EXPECT_EQ(a.profile.latency_ticks, 3u);
  EXPECT_EQ(a.profile.loss_rate, 0.2);
  EXPECT_LT(a.profile.duplication_rate, 0);  // inherit the global knob
  EXPECT_FALSE(a.profile.zombie);

  const GrayLinkSpec& b = spec.links[1];
  EXPECT_EQ(b.src, 1u);
  EXPECT_EQ(b.dst, 0u);
  EXPECT_EQ(b.profile.latency_ticks, 2u);
  EXPECT_LT(b.profile.loss_rate, 0);
  EXPECT_LT(b.profile.duplication_rate, 0);

  const GrayLinkSpec& c = spec.links[2];
  EXPECT_EQ(c.src, 2u);
  EXPECT_EQ(c.dst, 0u);
  EXPECT_EQ(c.profile.latency_ticks, 0u);
  EXPECT_LT(c.profile.loss_rate, 0);
  EXPECT_EQ(c.profile.duplication_rate, 0.25);

  EXPECT_EQ(spec.ToString(), kSweepSpec);
}

TEST(GraySpecParse, RejectsInvalidSpecs) {
  const char* const kBad[] = {
      // Latency: negative, overflowing, beyond the 2^32 bound, empty, junk.
      "0->1:lat=-5",
      "0->1:lat=99999999999999999999",
      "0->1:lat=4294967296",
      "0->1:lat=",
      "0->1:lat=3x",
      "0->1:lat=+3",
      "0->1:lat= 3",
      // Rates: NaN, out of range, empty.
      "0->1:loss=nan",
      "0->1:dup=nan",
      "0->1:loss=-0.1",
      "0->1:loss=1",
      "0->1:loss=inf",
      "0->1:dup=1.5",
      "0->1:dup=inf",
      "0->1:loss=",
      // Node ids: negative (would wrap to kInvalidNode), kInvalidNode itself,
      // beyond 32 bits, empty.
      "-1->2:lat=1",
      "0->-1:lat=1",
      "4294967295->0:lat=1",
      "0->4294967296:lat=1",
      "->1:lat=1",
      "zombie=-1",
      "zombie=4294967295",
      "zombie=",
      // A link listed twice, an attribute given twice.
      "0->1:lat=1;0->1:loss=0.1",
      "0->1:lat=1,lat=2",
      "0->1:zombie,zombie",
      // A link profile that changes nothing (it would print as "0->1:").
      "0->1:",
      "0->1:lat=0",
      // Structure (ParseAndRoundTrip has the rest).
      "0->1:zombie=1",
      "0->1",
  };
  for (const char* text : kBad) {
    GraySpec spec;
    std::string error;
    EXPECT_FALSE(GraySpec::Parse(text, &spec, &error)) << "accepted '" << text << "'";
    EXPECT_FALSE(error.empty()) << "no diagnostic for '" << text << "'";
  }
}

TEST(GraySpecParse, ToStringOfEveryAcceptedSpecParsesBack) {
  const char* const kGood[] = {
      kSweepSpec,
      "",
      ";0->1:lat=1;",
      "0->1:lat=4,zombie;zombie=2",
      "0->1:lat=4294967295",
      "0->1:lat=0,loss=0",
      "1->2:dup=1",
      "3->5:loss=0.1234567",
      "0->1:loss=1e-7,dup=0.3333333333333333",
      "4294967294->0:zombie",
      "zombie=0;zombie=4294967294",
  };
  for (const char* text : kGood) {
    GraySpec spec;
    std::string error;
    ASSERT_TRUE(GraySpec::Parse(text, &spec, &error)) << "'" << text << "': " << error;
    std::string printed = spec.ToString();
    GraySpec again;
    ASSERT_TRUE(GraySpec::Parse(printed, &again, &error))
        << "'" << text << "' printed as '" << printed << "': " << error;
    ExpectSameSpec(spec, again);
    EXPECT_EQ(again.ToString(), printed);
  }
}

}  // namespace
}  // namespace bmx
