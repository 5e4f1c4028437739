// Runtime selection over the distribution-policy family.
//
// One engine class runs every member (the layout is a runtime object), so
// `IDistEngine` is that class and `make_dist_engine` only routes a policy
// and rank count to a grid shape. Benchmarks, the differential harness and
// examples pick the distribution at runtime — in particular from the
// AGNN_DIST environment knob (dist/dist_policy.hpp):
//
//   AGNN_DIST=1d | 1.5d | 2d | 3d | auto     (AGNN_DIST_DEPTH=d for 3d)
//
// `make_dist_engine` is collective: every rank must call it with the same
// policy and arguments, like the engine constructor it wraps.
#pragma once

#include <memory>

#include "dist/dist_engine.hpp"
#include "dist/dist_policy.hpp"

namespace agnn::dist {

template <typename T>
using IDistEngine = DistEngine<T>;

// Construct the engine for `policy` (collective). `depth_hint` is the 3D
// replication depth; 0 derives it (smallest prime factor of p). Throws
// std::logic_error with a policy-naming message when the rank count does not
// fit the requested grid (e.g. 1.5d on a non-square p).
template <typename T>
std::unique_ptr<IDistEngine<T>> make_dist_engine(DistPolicy policy,
                                                 comm::Communicator& world,
                                                 const CsrMatrix<T>& a_global,
                                                 GnnModel<T>& model,
                                                 int depth_hint = 0) {
  return std::make_unique<DistEngine<T>>(world, a_global, model, policy,
                                         depth_hint);
}

// Environment-routed construction: AGNN_DIST picks the policy (default: the
// best fit for p), AGNN_DIST_DEPTH the 3D depth.
template <typename T>
std::unique_ptr<IDistEngine<T>> make_dist_engine_from_env(
    comm::Communicator& world, const CsrMatrix<T>& a_global,
    GnnModel<T>& model) {
  return make_dist_engine(policy_from_env(world.size()), world, a_global,
                          model, depth_hint_from_env());
}

}  // namespace agnn::dist
