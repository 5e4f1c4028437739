// Tests for the graph build pipeline (dedup, isolated-vertex fix, self
// loops, normalization) and the binary COO file I/O (the MAKG load path).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/kronecker.hpp"
#include "test_utils.hpp"

namespace agnn::graph {
namespace {

EdgeList tiny_edges() {
  EdgeList el;
  el.n = 5;
  el.push_back(0, 1);
  el.push_back(0, 1);  // duplicate
  el.push_back(1, 2);
  el.push_back(3, 3);  // self loop
  // vertex 4 isolated
  return el;
}

TEST(GraphBuild, DeduplicatesAndSymmetrizes) {
  const auto g = build_graph<double>(tiny_edges());
  const auto d = g.adj.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 1.0);  // symmetrized
  EXPECT_DOUBLE_EQ(d(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(d(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(d(3, 3), 0.0);  // self loop removed
}

TEST(GraphBuild, FixesIsolatedVertices) {
  const auto g = build_graph<double>(tiny_edges());
  // Vertices 3 (only had a self loop) and 4 (isolated) must be connected.
  for (index_t v = 0; v < 5; ++v) {
    index_t deg = g.adj.row_nnz(v);
    EXPECT_GE(deg, 1) << "vertex " << v << " still isolated";
  }
}

TEST(GraphBuild, SelfLoopsOption) {
  BuildOptions opt;
  opt.add_self_loops = true;
  const auto g = build_graph<double>(tiny_edges(), opt);
  const auto d = g.adj.to_dense();
  for (index_t v = 0; v < 5; ++v) EXPECT_DOUBLE_EQ(d(v, v), 1.0);
}

TEST(GraphBuild, DirectedOption) {
  BuildOptions opt;
  opt.symmetrize = false;
  opt.fix_isolated = false;
  const auto g = build_graph<double>(tiny_edges(), opt);
  const auto d = g.adj.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 0.0);
}

TEST(GraphBuild, SymmetrizedAdjacencyEqualsItsTranspose) {
  const auto el = generate_kronecker({.scale = 7, .edges = 600, .seed = 5});
  const auto g = build_graph<double>(el);
  const auto t = g.adj.transposed();
  EXPECT_TRUE(g.adj.same_pattern(t));
}

TEST(GraphBuild, SymNormalizeRowColScaling) {
  const auto g = build_graph<double>(tiny_edges());
  const auto norm = sym_normalize(g.adj);
  // Check one entry: Â(i,j) = 1/sqrt(d_i d_j).
  for (index_t i = 0; i < norm.rows(); ++i) {
    const double di = static_cast<double>(g.adj.row_nnz(i));
    for (index_t e = norm.row_begin(i); e < norm.row_end(i); ++e) {
      const double dj = static_cast<double>(g.adj.row_nnz(norm.col_at(e)));
      EXPECT_NEAR(norm.val_at(e), 1.0 / std::sqrt(di * dj), 1e-12);
    }
  }
}

TEST(GraphBuild, RowNormalizeMakesRowsStochastic) {
  const auto g = testing::small_graph<double>(30, 120, 31);
  const auto norm = row_normalize(g.adj);
  for (index_t i = 0; i < norm.rows(); ++i) {
    if (norm.row_nnz(i) == 0) continue;
    double sum = 0;
    for (index_t e = norm.row_begin(i); e < norm.row_end(i); ++e) sum += norm.val_at(e);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

class GraphIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }
  std::string path_;
};

TEST_F(GraphIoTest, RoundTripPreservesEdges) {
  path_ = ::testing::TempDir() + "agnn_io_roundtrip.bin";
  const auto el = generate_kronecker({.scale = 8, .edges = 3000, .seed = 9});
  write_edge_list(path_, el);
  const auto back = read_edge_list(path_);
  EXPECT_EQ(back.n, el.n);
  EXPECT_EQ(back.src, el.src);
  EXPECT_EQ(back.dst, el.dst);
}

TEST_F(GraphIoTest, RoundTripThroughBuildPipeline) {
  path_ = ::testing::TempDir() + "agnn_io_pipeline.bin";
  const auto el = generate_kronecker({.scale = 7, .edges = 800, .seed = 15});
  write_edge_list(path_, el);
  const auto g1 = build_graph<float>(el);
  const auto g2 = build_graph<float>(read_edge_list(path_));
  EXPECT_TRUE(g1.adj.same_pattern(g2.adj));
}

TEST_F(GraphIoTest, MissingFileThrows) {
  EXPECT_THROW(read_edge_list("/nonexistent/path/graph.bin"), std::logic_error);
}

TEST_F(GraphIoTest, BadMagicThrows) {
  path_ = ::testing::TempDir() + "agnn_io_badmagic.bin";
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTAGRAPHFILE___", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_edge_list(path_), std::logic_error);
}

TEST_F(GraphIoTest, TruncatedFileThrows) {
  path_ = ::testing::TempDir() + "agnn_io_trunc.bin";
  const auto el = generate_kronecker({.scale = 7, .edges = 500, .seed = 21});
  write_edge_list(path_, el);
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) / 2);
  EXPECT_THROW(read_edge_list(path_), std::logic_error);
}

// An edge count past vector::max_size() is checked against the file length
// and rejected as truncated before anything is allocated from it.
TEST_F(GraphIoTest, HugeEdgeCountIsRejectedBeforeAllocating) {
  path_ = ::testing::TempDir() + "agnn_io_huge_nnz.bin";
  write_edge_list(path_, tiny_edges());
  const auto huge =
      static_cast<std::int64_t>(std::vector<index_t>().max_size()) + 1;
  testing::patch_i64(path_, 16, huge);  // magic, n, then nnz
  try {
    read_edge_list(path_);
    FAIL() << "expected the truncated-file error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated graph file"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace agnn::graph
