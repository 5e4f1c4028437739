// The distribution-policy family routing: every rank count must map to a
// valid grid under 1D/2D/3D, the square-only 1.5D scheme must reject
// non-squares with a structured error naming the alternatives, and the
// environment knob must parse strictly (a typo throws rather than silently
// selecting a different distribution).
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "dist/dist_policy.hpp"
#include "dist/process_grid.hpp"

namespace agnn::dist {
namespace {

TEST(DistPolicy, ParseAcceptsEveryFamilyMember) {
  EXPECT_EQ(parse_dist_policy("1d"), DistPolicy::k1D);
  EXPECT_EQ(parse_dist_policy("1D"), DistPolicy::k1D);
  EXPECT_EQ(parse_dist_policy("1.5d"), DistPolicy::k1_5D);
  EXPECT_EQ(parse_dist_policy("15d"), DistPolicy::k1_5D);
  EXPECT_EQ(parse_dist_policy("2d"), DistPolicy::k2D);
  EXPECT_EQ(parse_dist_policy("summa"), DistPolicy::k2D);
  EXPECT_EQ(parse_dist_policy("3d"), DistPolicy::k3D);
  EXPECT_EQ(parse_dist_policy("4d"), std::nullopt);
  EXPECT_EQ(parse_dist_policy(""), std::nullopt);
  EXPECT_EQ(parse_dist_policy("auto"), std::nullopt);  // routed upstream
}

TEST(DistPolicy, RoundTripNames) {
  for (const DistPolicy p : {DistPolicy::k1D, DistPolicy::k1_5D,
                             DistPolicy::k2D, DistPolicy::k3D}) {
    EXPECT_EQ(parse_dist_policy(to_string(p)), p);
  }
}

// The rank counts the issue singles out: none square except via 1D/2D/3D.
TEST(DistPolicy, AcceptanceAcrossAwkwardRankCounts) {
  for (const int p : {2, 3, 6, 8, 12}) {
    EXPECT_TRUE(policy_accepts(DistPolicy::k1D, p)) << p;
    EXPECT_TRUE(policy_accepts(DistPolicy::k2D, p)) << p;
    EXPECT_TRUE(policy_accepts(DistPolicy::k3D, p)) << p;
    EXPECT_FALSE(policy_accepts(DistPolicy::k1_5D, p)) << p;
  }
  for (const int p : {1, 4, 9, 16}) {
    EXPECT_TRUE(policy_accepts(DistPolicy::k1_5D, p)) << p;
  }
  EXPECT_FALSE(policy_accepts(DistPolicy::k2D, 0));
}

TEST(DistPolicy, GridForRoutesEveryRankCount) {
  // 1D: p x 1 x 1, always.
  for (const int p : {1, 2, 3, 6, 8, 12}) {
    const GridShape g = grid_for(DistPolicy::k1D, p);
    EXPECT_EQ(g.rows, p);
    EXPECT_EQ(g.cols, 1);
    EXPECT_EQ(g.depth, 1);
    EXPECT_EQ(g.size(), p);
  }
  // 2D: most-balanced r x c with r >= c.
  const auto check_2d = [](int p, int r, int c) {
    const GridShape g = grid_for(DistPolicy::k2D, p);
    EXPECT_EQ(g.rows, r) << "p=" << p;
    EXPECT_EQ(g.cols, c) << "p=" << p;
    EXPECT_EQ(g.depth, 1) << "p=" << p;
  };
  check_2d(2, 2, 1);
  check_2d(3, 3, 1);
  check_2d(6, 3, 2);
  check_2d(8, 4, 2);
  check_2d(12, 4, 3);
  // 3D: depth defaults to the smallest prime factor, remainder balanced.
  const auto check_3d = [](int p, int r, int c, int d) {
    const GridShape g = grid_for(DistPolicy::k3D, p);
    EXPECT_EQ(g.rows, r) << "p=" << p;
    EXPECT_EQ(g.cols, c) << "p=" << p;
    EXPECT_EQ(g.depth, d) << "p=" << p;
    EXPECT_EQ(g.size(), p) << "p=" << p;
  };
  check_3d(2, 1, 1, 2);
  check_3d(3, 1, 1, 3);
  check_3d(6, 3, 1, 2);
  check_3d(8, 2, 2, 2);
  check_3d(12, 3, 2, 2);
  // 1.5D accepts exactly the squares.
  const GridShape sq = grid_for(DistPolicy::k1_5D, 9);
  EXPECT_EQ(sq.rows, 3);
  EXPECT_EQ(sq.cols, 3);
  EXPECT_EQ(sq.depth, 1);
}

TEST(DistPolicy, DepthHintOverridesAndValidates) {
  const GridShape g = grid_for(DistPolicy::k3D, 12, /*depth_hint=*/3);
  EXPECT_EQ(g.depth, 3);
  EXPECT_EQ(g.rows * g.cols, 4);
  EXPECT_THROW(grid_for(DistPolicy::k3D, 12, 5), std::logic_error);
}

TEST(DistPolicy, NonSquare15dErrorNamesAlternatives) {
  for (const int p : {2, 3, 6, 8, 12}) {
    try {
      grid_for(DistPolicy::k1_5D, p);
      FAIL() << "1.5d must reject p=" << p;
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("AGNN_DIST=1d"), std::string::npos) << msg;
      EXPECT_NE(msg.find("AGNN_DIST=2d"), std::string::npos) << msg;
      EXPECT_NE(msg.find("AGNN_DIST=3d"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::to_string(p)), std::string::npos) << msg;
    }
  }
}

TEST(DistPolicy, DefaultPolicyPrefersThePaperSchemeWhenSquare) {
  EXPECT_EQ(default_policy_for(1), DistPolicy::k1_5D);
  EXPECT_EQ(default_policy_for(4), DistPolicy::k1_5D);
  EXPECT_EQ(default_policy_for(9), DistPolicy::k1_5D);
  for (const int p : {2, 3, 6, 8, 12}) {
    EXPECT_EQ(default_policy_for(p), DistPolicy::k2D) << p;
  }
}

TEST(DistPolicy, EnvironmentRoutingIsStrict) {
  ::unsetenv("AGNN_DIST");
  EXPECT_EQ(policy_from_env(4), DistPolicy::k1_5D);
  EXPECT_EQ(policy_from_env(6), DistPolicy::k2D);
  ::setenv("AGNN_DIST", "auto", 1);
  EXPECT_EQ(policy_from_env(9), DistPolicy::k1_5D);
  ::setenv("AGNN_DIST", "3d", 1);
  EXPECT_EQ(policy_from_env(8), DistPolicy::k3D);
  ::setenv("AGNN_DIST", "rowcol", 1);
  EXPECT_THROW(policy_from_env(4), std::logic_error);
  ::unsetenv("AGNN_DIST");

  ::setenv("AGNN_DIST_DEPTH", "4", 1);
  EXPECT_EQ(depth_hint_from_env(), 4);
  ::unsetenv("AGNN_DIST_DEPTH");
  EXPECT_EQ(depth_hint_from_env(), 0);
}

TEST(DistPolicy, DepthEnvironmentParsingIsStrict) {
  ::setenv("AGNN_DIST_DEPTH", "", 1);
  EXPECT_EQ(depth_hint_from_env(), 0);
  ::setenv("AGNN_DIST_DEPTH", "1", 1);
  EXPECT_EQ(depth_hint_from_env(), 1);
  ::setenv("AGNN_DIST_DEPTH", "2147483647", 1);
  EXPECT_EQ(depth_hint_from_env(), 2147483647);
  for (const char* bad : {"2x", "abc", "-1", "0", "99999999999", "2147483648",
                          " 2", "+2", "2.0"}) {
    ::setenv("AGNN_DIST_DEPTH", bad, 1);
    try {
      depth_hint_from_env();
      FAIL() << "AGNN_DIST_DEPTH='" << bad << "' must throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("AGNN_DIST_DEPTH"), std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("AGNN_DIST_DEPTH");
}

TEST(DistPolicy, GridFromEnvComposesPolicyAndDepth) {
  ::setenv("AGNN_DIST", "3d", 1);
  ::setenv("AGNN_DIST_DEPTH", "2", 1);
  const GridShape g = grid_from_env(8);
  EXPECT_EQ(g.policy, DistPolicy::k3D);
  EXPECT_EQ(g.depth, 2);
  EXPECT_EQ(g.size(), 8);
  ::unsetenv("AGNN_DIST");
  ::unsetenv("AGNN_DIST_DEPTH");
}

TEST(DistPolicy, BalancedFactorsPutTheLargerFactorOnRows) {
  for (const int p : {1, 2, 3, 4, 6, 8, 12, 30, 97}) {
    const auto [r, c] = balanced_factors(p);
    EXPECT_EQ(r * c, p) << p;
    EXPECT_GE(r, c) << p;
  }
  EXPECT_EQ(balanced_factors(97).second, 1);  // prime -> p x 1
}

TEST(ProcessGridFamily, TrySideForReportsWithoutThrowing) {
  EXPECT_EQ(ProcessGrid::try_side_for(9), 3);
  EXPECT_EQ(ProcessGrid::try_side_for(16), 4);
  for (const int p : {2, 3, 6, 8, 12}) {
    EXPECT_EQ(ProcessGrid::try_side_for(p), std::nullopt) << p;
  }
}

TEST(ProcessGridFamily, SideForErrorNamesAcceptingDistributions) {
  for (const int p : {2, 3, 6, 8, 12}) {
    try {
      ProcessGrid::side_for(p);
      FAIL() << "side_for must reject p=" << p;
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("AGNN_DIST=1d"), std::string::npos) << msg;
      EXPECT_NE(msg.find("AGNN_DIST=2d"), std::string::npos) << msg;
      EXPECT_NE(msg.find("AGNN_DIST=3d"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(ProcessGrid::side_for(4), 2);
  EXPECT_EQ(ProcessGrid::side_for(1), 1);
}

// block_index_of must be the exact inverse of block_range on every index,
// including the non-divisible splits where leading blocks are one larger.
TEST(ProcessGridFamily, BlockIndexOfInvertsBlockRange) {
  for (const index_t n : {1, 5, 8, 23, 64}) {
    for (const index_t nb : {1, 2, 3, 5, 7}) {
      if (nb > n) continue;
      for (index_t x = 0; x < n; ++x) {
        const index_t b = block_index_of(n, nb, x);
        ASSERT_GE(b, 0);
        ASSERT_LT(b, nb);
        const BlockRange r = block_range(n, nb, b);
        EXPECT_GE(x, r.begin) << "n=" << n << " nb=" << nb << " x=" << x;
        EXPECT_LT(x, r.end) << "n=" << n << " nb=" << nb << " x=" << x;
      }
    }
  }
}

}  // namespace
}  // namespace agnn::dist
