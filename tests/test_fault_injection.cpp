// Chaos suite for the simulated cluster: deterministic fault injection,
// structured failure agreement (CommError on every rank, never a deadlock),
// and checkpoint-recovery that reproduces the fault-free training run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fault_injection.hpp"
#include "core/model.hpp"
#include "core/serialization.hpp"
#include "dist/dist_engine.hpp"
#include "dist/recovery.hpp"
#include "obs/trace.hpp"
#include "test_utils.hpp"

namespace agnn::comm {
namespace {

// ---- spec parsing ---------------------------------------------------------

TEST(FaultSpec, ParsesAndRoundTrips) {
  const std::string spec = "delay@r0:s3:500us;abort@r1:s12;timeout@r2:s7";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.event(0).kind, FaultKind::kStragglerDelay);
  EXPECT_EQ(plan.event(0).rank, 0);
  EXPECT_EQ(plan.event(0).superstep, 3u);
  EXPECT_EQ(plan.event(0).delay_us, 500u);
  EXPECT_EQ(plan.event(1).kind, FaultKind::kRankAbort);
  EXPECT_EQ(plan.event(1).rank, 1);
  EXPECT_EQ(plan.event(1).superstep, 12u);
  EXPECT_EQ(plan.event(2).kind, FaultKind::kCollectiveTimeout);
  EXPECT_EQ(plan.spec(), spec);
  // The round trip is a fixpoint: parse(spec()) == spec().
  EXPECT_EQ(FaultPlan::parse(plan.spec()).spec(), spec);
}

TEST(FaultSpec, BareDelayDefaultsToOneMillisecond) {
  const FaultPlan plan = FaultPlan::parse("delay@r2:s5");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.event(0).delay_us, 1000u);
  EXPECT_EQ(plan.spec(), "delay@r2:s5:1000us");
}

TEST(FaultSpec, EmptyAndSeparatorOnlySpecsAreEmptyPlans) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(";;").empty());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("explode@r0:s1"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("abort"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("abort@x0:s1"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("abort@r0"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("abort@r0:s1:100us"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("delay@r0:s1:100"), std::logic_error);
  EXPECT_THROW(FaultPlan::parse("delay@r0:s1:100usx"), std::logic_error);
}

TEST(FaultSpec, RandomPlansAreSeedDeterministic) {
  const FaultPlan a = FaultPlan::random(17, 4, 100);
  const FaultPlan b = FaultPlan::random(17, 4, 100);
  EXPECT_EQ(a.spec(), b.spec());
  ASSERT_GE(a.size(), 1u);
  int hard = 0;
  for (const FaultEvent& ev : a.events()) {
    EXPECT_GE(ev.rank, 0);
    EXPECT_LT(ev.rank, 4);
    EXPECT_GE(ev.superstep, 1 + 100u / 4);
    EXPECT_LE(ev.superstep, 1 + 75u);
    if (ev.kind != FaultKind::kStragglerDelay) ++hard;
  }
  EXPECT_LE(hard, 1);  // bounded-retry recovery must always converge
  // Distinct seeds should (essentially always) give distinct plans.
  bool any_different = false;
  for (std::uint64_t s = 1; s <= 8 && !any_different; ++s) {
    any_different = FaultPlan::random(s, 4, 100).spec() != a.spec();
  }
  EXPECT_TRUE(any_different);
}

// ---- fault firing at collectives ------------------------------------------

// gtest lists a parameter by its raw bytes ("# GetParam() = 12-byte object
// <...>"), so FirePoint has no padding: the three bytes after the one-byte
// `kind` are a zeroed member, keeping the listed test names stable.
struct FirePoint {
  FirePoint(FaultKind k, int r, int n) : kind(k), rank(r), nranks(n) {}
  FaultKind kind;
  std::uint8_t zero[3] = {};
  int rank;    // faulted rank
  int nranks;  // world size
};
static_assert(sizeof(FirePoint) == sizeof(FaultKind) + 3 + 2 * sizeof(int));

class FaultFiring : public ::testing::TestWithParam<FirePoint> {};

// The canonical chaos body: a loop of allreduces. A delay completes the
// run; abort/timeout must surface CommError on EVERY rank — no deadlock,
// bounded by the collective timeout.
TEST_P(FaultFiring, EveryRankObservesTheFault) {
  const FirePoint p = GetParam();
  RunOptions opts;
  FaultEvent ev;
  ev.kind = p.kind;
  ev.rank = p.rank;
  ev.superstep = 6;  // mid-loop; each allreduce charges 2*ceil(log2 g) steps
  ev.delay_us = 300;
  opts.faults.add(ev);
  opts.timeout = std::chrono::milliseconds(250);

  std::atomic<int> comm_errors{0};
  std::atomic<int> completed{0};
  const auto snaps = SpmdRuntime::run(p.nranks, opts, [&](Communicator& world) {
    std::vector<double> buf(8, 1.0);
    try {
      for (int i = 0; i < 12; ++i) world.allreduce_sum(std::span<double>(buf));
      completed.fetch_add(1);
    } catch (const CommError& e) {
      EXPECT_EQ(e.kind(), p.kind) << e.what();
      comm_errors.fetch_add(1);
    }
  });

  if (p.kind == FaultKind::kStragglerDelay) {
    EXPECT_EQ(completed.load(), p.nranks);
    EXPECT_EQ(comm_errors.load(), 0);
    // Peers of the straggler observed the stall as barrier wait time.
    double total_wait = 0;
    for (const auto& s : snaps) total_wait += s.wait_seconds;
    EXPECT_GT(total_wait, 0.0);
  } else {
    EXPECT_EQ(comm_errors.load(), p.nranks) << "fault must surface on all ranks";
    EXPECT_EQ(completed.load(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultFiring,
    ::testing::Values(FirePoint{FaultKind::kStragglerDelay, 0, 2},
                      FirePoint{FaultKind::kStragglerDelay, 3, 4},
                      FirePoint{FaultKind::kRankAbort, 0, 2},
                      FirePoint{FaultKind::kRankAbort, 1, 2},
                      FirePoint{FaultKind::kRankAbort, 2, 4},
                      FirePoint{FaultKind::kRankAbort, 0, 9},
                      FirePoint{FaultKind::kCollectiveTimeout, 0, 2},
                      FirePoint{FaultKind::kCollectiveTimeout, 3, 4},
                      FirePoint{FaultKind::kCollectiveTimeout, 5, 9}),
    [](const ::testing::TestParamInfo<FirePoint>& tpi) {
      return std::string(to_string(tpi.param.kind)) + "_r" +
             std::to_string(tpi.param.rank) + "_p" +
             std::to_string(tpi.param.nranks);
    });

TEST(FaultFiringMore, UnhandledAbortPropagatesOutOfRun) {
  RunOptions opts;
  opts.faults = FaultPlan::parse("abort@r1:s4");
  opts.timeout = std::chrono::milliseconds(250);
  EXPECT_THROW(SpmdRuntime::run(4,
                                opts,
                                [&](Communicator& world) {
                                  std::vector<double> buf(4, 1.0);
                                  for (int i = 0; i < 10; ++i) {
                                    world.allreduce_sum(std::span<double>(buf));
                                  }
                                }),
               CommError);
}

TEST(FaultFiringMore, FaultsInSplitGroupsSurfaceEverywhere) {
  // The failure flag is runtime-wide: a fault fired inside a row
  // sub-communicator must also unwind ranks blocked in world collectives.
  RunOptions opts;
  opts.faults = FaultPlan::parse("abort@r3:s2");
  opts.timeout = std::chrono::milliseconds(250);
  std::atomic<int> comm_errors{0};
  SpmdRuntime::run(4, opts, [&](Communicator& world) {
    auto row = world.split(world.rank() / 2, world.rank() % 2);
    std::vector<double> buf(4, 1.0);
    try {
      for (int i = 0; i < 10; ++i) {
        row.allreduce_sum(std::span<double>(buf));
        world.barrier();
      }
    } catch (const CommError&) {
      comm_errors.fetch_add(1);
    }
  });
  EXPECT_EQ(comm_errors.load(), 4);
}

TEST(FaultFiringMore, DeterministicReplayOfTraceInstants) {
  // Same plan + same program => the same fault instants at the same logical
  // (rank, superstep) coordinates, run after run.
  using Key = std::tuple<std::string, std::int32_t, std::uint64_t>;
  const auto run_once = [&] {
    obs::Tracer::instance().clear();
    obs::Tracer::set_enabled(true);
    RunOptions opts;
    opts.faults = FaultPlan::parse("delay@r0:s4:200us;abort@r2:s8");
    opts.timeout = std::chrono::milliseconds(250);
    std::atomic<int> errors{0};
    SpmdRuntime::run(4, opts, [&](Communicator& world) {
      std::vector<double> buf(4, 1.0);
      try {
        for (int i = 0; i < 10; ++i) world.allreduce_sum(std::span<double>(buf));
      } catch (const CommError&) {
        errors.fetch_add(1);
      }
    });
    obs::Tracer::set_enabled(false);
    EXPECT_EQ(errors.load(), 4);
    std::vector<Key> marks;
    for (const obs::TraceEvent& ev : obs::Tracer::instance().collect()) {
      if (ev.category != obs::SpanCategory::kFault) continue;
      if (std::string(ev.name) == "fault.declared") continue;  // racy origin
      marks.emplace_back(ev.name, ev.rank, ev.superstep);
    }
    std::sort(marks.begin(), marks.end());
    obs::Tracer::instance().clear();
    return marks;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The injected faults are present at their scheduled coordinates.
  EXPECT_TRUE(std::count(first.begin(), first.end(), Key{"fault.delay", 0, 4}) ==
              1)
      << "missing delay instant";
  bool has_abort = false;
  for (const auto& [name, rank, step] : first) {
    if (name == "fault.abort" && rank == 2) has_abort = true;
  }
  EXPECT_TRUE(has_abort);
}

TEST(FaultFiringMore, EnvSpecDrivesTheDefaultRunOverload) {
  ASSERT_EQ(setenv("AGNN_FAULTS", "abort@r0:s3", 1), 0);
  ASSERT_EQ(setenv("AGNN_COMM_TIMEOUT_MS", "250", 1), 0);
  std::atomic<int> errors{0};
  SpmdRuntime::run(2, [&](Communicator& world) {
    std::vector<double> buf(4, 1.0);
    try {
      for (int i = 0; i < 10; ++i) world.allreduce_sum(std::span<double>(buf));
    } catch (const CommError&) {
      errors.fetch_add(1);
    }
  });
  unsetenv("AGNN_FAULTS");
  unsetenv("AGNN_COMM_TIMEOUT_MS");
  EXPECT_EQ(errors.load(), 2);
  // An explicit RunOptions is authoritative: with the env cleared this is
  // plain healthy execution.
  SpmdRuntime::run(2, RunOptions{}, [&](Communicator& world) {
    std::vector<double> buf(4, 1.0);
    world.allreduce_sum(std::span<double>(buf));
  });
}

// AGNN_COMM_TIMEOUT_MS takes AGNN_DIST_DEPTH's rules: a decimal integer in
// [1, INT_MAX], or unset or empty for the default. Anything else throws a
// logic_error naming the variable before any rank runs, where atol used to
// read "250ms" as 250 and "abc" as no deadline.
TEST(FaultFiringMore, TimeoutEnvIsParsedStrictly) {
  std::atomic<int> ran{0};
  const auto body = [&](Communicator& world) {
    ran.fetch_add(1);
    std::vector<double> buf(4, 1.0);
    world.allreduce_sum(std::span<double>(buf));
  };
  for (const char* bad : {"250ms", "abc", "-1", "0", " 250", "+250", "2.5",
                          "99999999999999999999"}) {
    ASSERT_EQ(setenv("AGNN_COMM_TIMEOUT_MS", bad, 1), 0);
    try {
      SpmdRuntime::run(2, body);
      ADD_FAILURE() << "AGNN_COMM_TIMEOUT_MS='" << bad << "' must throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("AGNN_COMM_TIMEOUT_MS"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(ran.load(), 0) << "a rank ran under AGNN_COMM_TIMEOUT_MS='" << bad << "'";
  }
  for (const char* good : {"250", ""}) {
    ASSERT_EQ(setenv("AGNN_COMM_TIMEOUT_MS", good, 1), 0);
    EXPECT_EQ(timeout_from_env().count(), good[0] == '\0' ? 0 : 250);
    SpmdRuntime::run(2, body);
  }
  unsetenv("AGNN_COMM_TIMEOUT_MS");
  EXPECT_EQ(ran.load(), 4);
}

}  // namespace
}  // namespace agnn::comm

// ---- checkpoint recovery ---------------------------------------------------

namespace agnn::dist {
namespace {

GnnConfig gat_config() {
  GnnConfig cfg;
  cfg.kind = ModelKind::kGAT;
  cfg.in_features = 4;
  cfg.layer_widths = {4, 4};
  cfg.hidden_activation = Activation::kTanh;
  cfg.seed = 4242;
  return cfg;
}

struct ChaosTrainResult {
  std::vector<double> losses;
  std::vector<double> params;
  int restores = 0;
  std::uint64_t supersteps = 0;
};

// Trains 4-rank GAT under `plan` with recovery; returns the loss trajectory
// and final parameters (identical on all ranks; rank 0 reports).
ChaosTrainResult chaos_train(const comm::FaultPlan& plan, int epochs,
                             const RecoveryOptions& ropts = {},
                             const GnnConfig& cfg = gat_config()) {
  const auto g = testing::small_graph<double>(24, 120, 17 + 24);
  const auto x = testing::random_dense<double>(24, 4, 19);
  std::vector<index_t> labels(24);
  Rng rng(23);
  for (auto& l : labels) l = static_cast<index_t>(rng.next_bounded(4));

  comm::RunOptions opts;
  opts.faults = plan;
  // Finite deadline only for chaos runs; clean baselines must never trip a
  // spurious timeout under slow (sanitized) builds.
  if (!plan.empty()) opts.timeout = std::chrono::milliseconds(400);
  ChaosTrainResult result;
  std::mutex mu;
  const auto snaps = comm::SpmdRuntime::run(4, opts, [&](comm::Communicator& world) {
    GnnModel<double> model(cfg);
    DistEngine<double> engine(world, g.adj, model, DistPolicy::k1_5D);
    SgdOptimizer<double> opt(0.05, 0.9);  // momentum => optimizer state blob
    const auto report = train_with_recovery<double>(
        world, engine, model, opt, x, labels, epochs, {}, ropts);
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      result.losses = report.losses;
      result.restores = report.restores;
      collect_params(model, result.params);
    }
  });
  result.supersteps = comm::max_supersteps(snaps);
  return result;
}

TEST(ChaosRecovery, AbortMidTrainingRecoversToFaultFreeResult) {
  const int epochs = 8;
  const auto clean = chaos_train(comm::FaultPlan{}, epochs);
  ASSERT_EQ(clean.restores, 0);
  ASSERT_GT(clean.supersteps, 0u);

  // Schedule an abort in the middle of the superstep range, on each rank in
  // turn: recovery must land on the exact fault-free trajectory every time.
  for (int faulted = 0; faulted < 4; ++faulted) {
    comm::FaultPlan plan;
    plan.add({comm::FaultKind::kRankAbort, faulted, clean.supersteps / 2, 0});
    RecoveryOptions ropts;
    ropts.checkpoint_every = 2;
    const auto chaos = chaos_train(plan, epochs, ropts);
    EXPECT_EQ(chaos.restores, 1) << "plan " << plan.spec();
    ASSERT_EQ(chaos.losses.size(), clean.losses.size());
    for (std::size_t e = 0; e < clean.losses.size(); ++e) {
      EXPECT_NEAR(chaos.losses[e], clean.losses[e], 1e-9)
          << "plan " << plan.spec() << " epoch " << e;
    }
    ASSERT_EQ(chaos.params.size(), clean.params.size());
    for (std::size_t i = 0; i < clean.params.size(); ++i) {
      EXPECT_NEAR(chaos.params[i], clean.params[i], 1e-9)
          << "plan " << plan.spec() << " param " << i;
    }
  }
}

TEST(ChaosRecovery, StragglerDoesNotPerturbTraining) {
  const int epochs = 6;
  const auto clean = chaos_train(comm::FaultPlan{}, epochs);
  comm::FaultPlan plan = comm::FaultPlan::parse("delay@r1:s5:400us;delay@r3:s9:400us");
  const auto chaos = chaos_train(plan, epochs);
  EXPECT_EQ(chaos.restores, 0);
  ASSERT_EQ(chaos.losses.size(), clean.losses.size());
  for (std::size_t e = 0; e < clean.losses.size(); ++e) {
    // 1e-12, not bitwise: OpenMP reductions may reassociate run-to-run.
    EXPECT_NEAR(chaos.losses[e], clean.losses[e], 1e-12) << "epoch " << e;
  }
}

TEST(ChaosRecovery, TimeoutFaultAlsoRecovers) {
  const int epochs = 6;
  const auto clean = chaos_train(comm::FaultPlan{}, epochs);
  comm::FaultPlan plan;
  plan.add({comm::FaultKind::kCollectiveTimeout, 2, clean.supersteps / 2, 0});
  const auto chaos = chaos_train(plan, epochs);
  EXPECT_EQ(chaos.restores, 1);
  for (std::size_t e = 0; e < clean.losses.size(); ++e) {
    EXPECT_NEAR(chaos.losses[e], clean.losses[e], 1e-9) << "epoch " << e;
  }
}

TEST(ChaosRecovery, GivesUpPastMaxRestores) {
  comm::FaultPlan plan;
  // More aborts than allowed restores. Both on the same rank: the scan
  // fires (and throws) the first before marking the second, so the second
  // abort is guaranteed to land in the *retried* attempt.
  plan.add({comm::FaultKind::kRankAbort, 0, 4, 0});
  plan.add({comm::FaultKind::kRankAbort, 0, 8, 0});
  RecoveryOptions ropts;
  ropts.max_restores = 1;
  EXPECT_THROW(chaos_train(plan, 8, ropts), comm::CommError);
}

TEST(ChaosRecovery, PersistsCheckpointFileOnRankZero) {
  const std::string path = ::testing::TempDir() + "chaos_ckpt.bin";
  std::remove(path.c_str());
  RecoveryOptions ropts;
  ropts.checkpoint_every = 2;
  ropts.checkpoint_path = path;
  const auto clean = chaos_train(comm::FaultPlan{}, 6, ropts);
  ASSERT_TRUE(checkpoint_exists(path));
  GnnModel<double> model(gat_config());
  std::vector<double> opt_state;
  const CheckpointMeta meta = load_checkpoint(path, model, &opt_state);
  // Last periodic checkpoint before the end of the 6-epoch run.
  EXPECT_EQ(meta.epoch, 4);
  EXPECT_FALSE(opt_state.empty());  // momentum SGD carries state
  std::remove(path.c_str());
  (void)clean;
}

// GAT with attention heads persists like any model: the checkpoint taken
// after epoch 2 of a 3-epoch run reloads to the parameters of a 2-epoch run.
TEST(ChaosRecovery, PersistsMultiHeadCheckpoint) {
  const std::string path = ::testing::TempDir() + "chaos_ckpt_heads.bin";
  std::remove(path.c_str());
  GnnConfig cfg = gat_config();
  cfg.heads = 3;
  cfg.out_heads = 2;
  RecoveryOptions ropts;
  ropts.checkpoint_every = 2;
  ropts.checkpoint_path = path;
  chaos_train(comm::FaultPlan{}, 3, ropts, cfg);
  ASSERT_TRUE(checkpoint_exists(path));
  const auto two_epochs = chaos_train(comm::FaultPlan{}, 2, {}, cfg);

  GnnModel<double> model(cfg);
  std::vector<double> opt_state;
  const CheckpointMeta meta = load_checkpoint(path, model, &opt_state);
  std::remove(path.c_str());
  EXPECT_EQ(meta.epoch, 2);
  EXPECT_FALSE(opt_state.empty());  // momentum SGD carries state
  EXPECT_EQ(model.layer(0).heads(), 3);
  EXPECT_EQ(model.layer(1).heads(), 2);
  std::vector<double> params;
  collect_params(model, params);
  ASSERT_EQ(params.size(), two_epochs.params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(params[i], two_epochs.params[i], 1e-12) << "param " << i;
  }
}

TEST(ChaosRecovery, ParamSnapshotRoundTripsBitwise) {
  GnnModel<double> a(gat_config());
  GnnModel<double> b(gat_config());
  // Perturb b so the restore provably overwrites it.
  b.layer(0).weights().data()[0] += 1.0;
  b.layer(1).attention_params()[1] -= 0.5;
  std::vector<double> blob;
  collect_params(a, blob);
  EXPECT_FALSE(blob.empty());
  restore_params(b, blob);
  std::vector<double> blob_b;
  collect_params(b, blob_b);
  EXPECT_EQ(blob, blob_b);
  std::vector<double> bad(blob.begin(), blob.end() - 1);
  EXPECT_THROW(restore_params(b, bad), std::logic_error);
}

}  // namespace
}  // namespace agnn::dist
