// Tests for the programmable generic layer of Eq. (1): user-supplied Psi,
// semiring aggregation ⊕, update Phi, and the Phi ∘ ⊕ composition order.
#include <gtest/gtest.h>

#include "core/generic_layer.hpp"
#include "core/model.hpp"
#include "graph/graph.hpp"
#include "test_utils.hpp"

namespace agnn {
namespace {

TEST(GenericLayer, IdentityPsiSumAggregationIsGcn) {
  const auto g = testing::small_graph<double>(20, 80, 41);
  const auto adj = graph::sym_normalize(g.adj);
  const auto x = testing::random_dense<double>(20, 5, 43);
  auto w = testing::random_dense<double>(5, 5, 47);

  GenericLayerSpec<double> spec;
  spec.psi = make_psi_identity<double>();
  spec.aggregation = Aggregation::kSum;
  spec.phi = make_phi_linear(w);
  spec.activation = Activation::kRelu;
  const auto out = generic_layer_forward(spec, adj, x);
  const auto ref = activate(Activation::kRelu, matmul(spmm(adj, x), w));
  testing::expect_matrix_near(out, ref, 1e-10, "generic GCN");
}

TEST(GenericLayer, VaPsiReproducesVaModelLayer) {
  const auto g = testing::small_graph<double>(18, 70, 51);
  const auto x = testing::random_dense<double>(18, 6, 53);
  GnnConfig cfg;
  cfg.kind = ModelKind::kVA;
  cfg.in_features = 6;
  cfg.layer_widths = {6};
  cfg.output_activation = Activation::kRelu;
  cfg.seed = 2;
  GnnModel<double> model(cfg);

  GenericLayerSpec<double> spec;
  spec.psi = make_psi_va<double>();
  spec.aggregation = Aggregation::kSum;
  spec.phi = make_phi_linear<double>(model.layer(0).weights());
  spec.activation = Activation::kRelu;
  const auto out = generic_layer_forward(spec, g.adj, x);
  const auto ref = model.infer(g.adj, x);
  testing::expect_matrix_near(out, ref, 1e-9, "generic VA");
}

TEST(GenericLayer, AgnnPsiReproducesAgnnModelLayer) {
  const auto g = testing::small_graph<double>(18, 70, 57);
  const auto x = testing::random_dense<double>(18, 6, 59);
  GnnConfig cfg;
  cfg.kind = ModelKind::kAGNN;
  cfg.in_features = 6;
  cfg.layer_widths = {6};
  cfg.output_activation = Activation::kIdentity;
  cfg.seed = 4;
  GnnModel<double> model(cfg);

  GenericLayerSpec<double> spec;
  spec.psi = make_psi_agnn<double>();
  spec.phi = make_phi_linear<double>(model.layer(0).weights());
  spec.activation = Activation::kIdentity;
  const auto out = generic_layer_forward(spec, g.adj, x);
  testing::expect_matrix_near(out, model.infer(g.adj, x), 1e-9, "generic AGNN");
}

TEST(GenericLayer, PhiFirstCommutesForLinearPhiWithSum) {
  // Section 4.4: for linear Phi and the sum aggregation, (Psi H) W equals
  // Psi (H W) — the programmer may pick either order.
  const auto g = testing::small_graph<double>(16, 60, 61);
  const auto x = testing::random_dense<double>(16, 5, 63);
  auto w = testing::random_dense<double>(5, 7, 67);

  GenericLayerSpec<double> spec;
  spec.psi = make_psi_va<double>();
  spec.phi = make_phi_linear(w);
  spec.activation = Activation::kIdentity;
  spec.phi_first = false;
  const auto out1 = generic_layer_forward(spec, g.adj, x);
  spec.phi_first = true;
  const auto out2 = generic_layer_forward(spec, g.adj, x);
  testing::expect_matrix_near(out1, out2, 1e-9, "Phi ∘ ⊕ order");
}

TEST(GenericLayer, PhiFirstDoesNotCommuteWithMax) {
  // With a non-linear interaction (max aggregation), the order matters —
  // the model designer owns the choice, as Section 4 warns.
  const auto g = testing::small_graph<double>(16, 60, 71);
  const auto x = testing::random_dense<double>(16, 5, 73);
  auto w = testing::random_dense<double>(5, 5, 79);

  GenericLayerSpec<double> spec;
  spec.psi = make_psi_identity<double>();
  spec.aggregation = Aggregation::kMax;
  spec.phi = make_phi_linear(w);
  spec.activation = Activation::kIdentity;
  spec.phi_first = false;
  const auto out1 = generic_layer_forward(spec, g.adj.with_values(0.0), x);
  spec.phi_first = true;
  const auto out2 = generic_layer_forward(spec, g.adj.with_values(0.0), x);
  EXPECT_GT(max_abs_diff(out1, out2), 1e-6);
}

class GenericAggregationSweep : public ::testing::TestWithParam<Aggregation> {};

TEST_P(GenericAggregationSweep, CustomPsiWithEveryAggregation) {
  const auto g = testing::small_graph<double>(14, 50, 83);
  const auto x = testing::random_dense<double>(14, 4, 89);
  GenericLayerSpec<double> spec;
  // A custom user Psi: squared-dot-product attention — the programmability
  // point of the generic formulation.
  spec.psi = [](const CsrMatrix<double>& a, const DenseMatrix<double>& h) {
    auto p = psi_va(a, h);
    return map_values(p, [](double v) { return v * v; });
  };
  spec.aggregation = GetParam();
  spec.activation = Activation::kIdentity;
  CsrMatrix<double> adj = g.adj;
  if (GetParam() == Aggregation::kMin || GetParam() == Aggregation::kMax) {
    // Tropical semirings expect additive edge weights; Psi values act as
    // offsets here.
    adj = g.adj;
  }
  const auto out = generic_layer_forward(spec, adj, x);
  EXPECT_EQ(out.rows(), 14);
  EXPECT_EQ(out.cols(), 4);
  for (index_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Aggregations, GenericAggregationSweep,
                         ::testing::Values(Aggregation::kSum, Aggregation::kMin,
                                           Aggregation::kMax, Aggregation::kMean),
                         [](const auto& tpi) { return to_string(tpi.param); });

TEST(GenericLayer, MissingPsiThrows) {
  const auto g = testing::small_graph<double>(8, 30, 97);
  const auto x = testing::random_dense<double>(8, 3, 101);
  GenericLayerSpec<double> spec;  // psi unset
  EXPECT_THROW(generic_layer_forward(spec, g.adj, x), std::logic_error);
}

}  // namespace
}  // namespace agnn
