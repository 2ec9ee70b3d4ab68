#include <gtest/gtest.h>

#include "fl_fixtures.hpp"
#include "fl/aggregate.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedprox.hpp"
#include "fl/fedproto.hpp"
#include "fl/ktpfl.hpp"
#include "fl/local_only.hpp"
#include "fl/sampling.hpp"
#include "models/serialize.hpp"
#include "tensor/ops.hpp"

namespace fca::fl {
namespace {

using test::tiny_experiment_config;

core::ExperimentConfig homogeneous_config() {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kHomogeneousResNet;
  return cfg;
}

TEST(Sampling, FullRateSelectsEveryone) {
  Rng rng(1);
  const auto s = sample_clients(10, 1.0, rng);
  EXPECT_EQ(s.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s[static_cast<size_t>(i)], i);
}

TEST(Sampling, PartialRateCountFixed) {
  Rng rng(2);
  for (int round = 0; round < 5; ++round) {
    const auto s = sample_clients(100, 0.1, rng);
    EXPECT_EQ(s.size(), 10u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }
}

TEST(Sampling, AtLeastOneClient) {
  Rng rng(3);
  EXPECT_EQ(sample_clients(10, 0.01, rng).size(), 1u);
}

TEST(Sampling, TruncatingRateStillYieldsOneClient) {
  // Regression: rate * total rounding to zero used to produce an empty
  // cohort, which deadlocks the round (the server gathers from nobody).
  Rng rng(4);
  for (int total : {1, 3, 1000}) {
    const auto s = sample_clients(total, 1e-9, rng);
    ASSERT_EQ(s.size(), 1u) << "total " << total;
    EXPECT_GE(s[0], 0);
    EXPECT_LT(s[0], total);
  }
}

TEST(Sampling, CountNeverExceedsTotal) {
  Rng rng(5);
  // Rates within floating-point rounding error of 1 must clamp at total.
  for (double rate : {1.0, 1.0 - 1e-16, 0.99999999999}) {
    EXPECT_EQ(sample_clients(7, rate, rng).size(), 7u) << "rate " << rate;
  }
}

TEST(LocalOnly, NoTrafficAndLearning) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 4;
  core::Experiment exp(cfg);
  LocalOnly strat;
  const auto done = exp.execute(strat);
  EXPECT_EQ(done.result.total_traffic.payload_bytes, 0u);
  EXPECT_GT(done.result.final_mean_accuracy, 0.15);  // clearly above chance
  EXPECT_EQ(done.result.curve.size(), 4u);
}

TEST(FedAvg, InitializeSynchronizesAllClients) {
  core::Experiment exp(homogeneous_config());
  auto run = std::make_unique<FederatedRun>(exp.build_store(),
                                            exp.fl_config());
  FedAvg strat;
  strat.initialize(*run);
  const auto ref = models::snapshot_values(run->client(0).model().parameters());
  for (int k = 1; k < run->num_clients(); ++k) {
    const auto other =
        models::snapshot_values(run->client(k).model().parameters());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(allclose(ref[i], other[i], 0.0f, 0.0f))
          << "client " << k << " param " << i;
    }
  }
  EXPECT_EQ(run->network().pending_messages(), 0u);
}

TEST(FedAvg, RoundKeepsClientsSynchronizedAtDownload) {
  core::Experiment exp(homogeneous_config());
  FedAvg strat;
  const auto done = exp.execute(strat);
  EXPECT_GT(done.result.final_mean_accuracy, 0.2);
  // Full-model exchange: traffic far exceeds classifier-only methods.
  EXPECT_GT(done.result.total_traffic.payload_bytes, 100000u);
}

TEST(FedProx, RunsAndReportsName) {
  core::Experiment exp(homogeneous_config());
  FedProx strat(0.1f);
  EXPECT_EQ(strat.name(), "FedProx");
  const auto done = exp.execute(strat);
  EXPECT_EQ(done.result.strategy, "FedProx");
  EXPECT_GT(done.result.final_mean_accuracy, 0.2);
}

TEST(FedProx, HeavyMuStaysCloserToGlobalThanFedAvg) {
  core::Experiment exp(homogeneous_config());
  // Run one round each and compare drift of client 0 from the broadcast
  // model. Deterministic construction makes the comparison exact.
  auto measure_drift = [&](RoundStrategy& strat) {
    auto run = std::make_unique<FederatedRun>(exp.build_store(),
                                              exp.fl_config());
    strat.initialize(*run);
    const auto before =
        models::snapshot_values(run->client(0).model().parameters());
    strat.execute_round(*run, 1, {0, 1, 2, 3});
    const auto after =
        models::snapshot_values(run->client(0).model().parameters());
    float drift = 0.0f;
    for (size_t i = 0; i < before.size(); ++i) {
      drift += sum_squares(sub(after[i], before[i]));
    }
    return drift;
  };
  FedAvg fedavg;
  FedProx fedprox(50.0f);
  EXPECT_LT(measure_drift(fedprox), measure_drift(fedavg));
}

TEST(FedProto, PrototypesHaveExpectedShapeAndValidity) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kFedProtoFamily;
  core::Experiment exp(cfg);
  FedProto strat;
  const auto done = exp.execute(strat);
  EXPECT_EQ(strat.prototypes().shape(),
            (Shape{10, cfg.feature_dim}));
  // All classes seen across the federation -> all prototypes valid.
  int valid = 0;
  for (bool v : strat.valid()) valid += v ? 1 : 0;
  EXPECT_EQ(valid, 10);
  EXPECT_GT(done.result.final_mean_accuracy, 0.15);
}

TEST(FedProto, TrafficIsPrototypeSized) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.models = core::ModelScheme::kFedProtoFamily;
  core::Experiment exp(cfg);
  FedProto strat;
  const auto done = exp.execute(strat);
  // Per round-trip a client exchanges ~2 * C * D floats; far less than a
  // full model.
  EXPECT_LT(done.result.client_upload_bytes_per_round, 20000.0);
  EXPECT_GT(done.result.client_upload_bytes_per_round, 100.0);
}

TEST(KTpFL, CoefficientsStayRowStochastic) {
  core::Experiment exp(homogeneous_config());
  KTpFLConfig kcfg;
  KTpFL strat(exp.public_data(), kcfg);
  const auto done = exp.execute(strat);
  const Tensor& c = strat.coefficients();
  const int64_t k = c.dim(0);
  for (int64_t i = 0; i < k; ++i) {
    double row = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      EXPECT_GE(c[i * k + j], 0.0f);
      row += c[i * k + j];
    }
    EXPECT_NEAR(row, 1.0, 1e-4);
  }
  EXPECT_GT(done.result.final_mean_accuracy, 0.15);
}

TEST(KTpFL, WorksWithHeterogeneousModels) {
  core::Experiment exp(tiny_experiment_config());  // 4 different archs
  KTpFL strat(exp.public_data(), {});
  const auto done = exp.execute(strat);
  EXPECT_GT(done.result.final_mean_accuracy, 0.15);
}

TEST(KTpFL, WeightVariantRequiresAndUsesHomogeneousModels) {
  core::ExperimentConfig cfg = homogeneous_config();
  cfg.rounds = 4;
  core::Experiment exp(cfg);
  KTpFLConfig kcfg;
  kcfg.share_weights = true;
  KTpFL strat(exp.public_data(), kcfg);
  EXPECT_EQ(strat.name(), "KT-pFL+weight");
  const auto done = exp.execute(strat);
  // Weight mixing converges slowly at this tiny scale; require a clear
  // training-loss decrease and at-least-chance accuracy.
  EXPECT_LT(done.result.curve.back().mean_train_loss,
            done.result.curve.front().mean_train_loss);
  EXPECT_GT(done.result.final_mean_accuracy, 0.08);
  // Weight exchange dominates traffic.
  EXPECT_GT(done.result.total_traffic.payload_bytes, 100000u);
}

TEST(KTpFL, PublicBroadcastDominatesSoftLabelTraffic) {
  core::Experiment exp(homogeneous_config());
  KTpFL strat(exp.public_data(), {});
  const auto done = exp.execute(strat);
  // Server (rank 0) sends the public set to every client at init; that
  // dwarfs the per-round soft-prediction exchange in this small setup.
  EXPECT_GT(done.result.total_traffic.payload_bytes, 0u);
}

TEST(Server, DataWeightsNormalized) {
  core::Experiment exp(tiny_experiment_config());
  FederatedRun run(exp.build_store(), exp.fl_config());
  const auto w = run.data_weights({0, 1, 2, 3});
  double total = 0.0;
  for (double v : w) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Server, EvaluateAllReturnsPerClientAccuracies) {
  core::Experiment exp(tiny_experiment_config());
  FederatedRun run(exp.build_store(), exp.fl_config());
  const auto acc = run.evaluate_all();
  EXPECT_EQ(acc.size(), 4u);
  for (double a : acc) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Server, CurveRespectsEvalEvery) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = 4;
  cfg.eval_every = 2;
  core::Experiment exp(cfg);
  LocalOnly strat;
  const auto done = exp.execute(strat);
  ASSERT_EQ(done.result.curve.size(), 2u);
  EXPECT_EQ(done.result.curve[0].round, 2);
  EXPECT_EQ(done.result.curve[1].round, 4);
  EXPECT_EQ(done.result.curve[1].cumulative_local_epochs, 4);
}

// -- shared aggregation helpers (fl/aggregate.hpp) --------------------------

TEST(Aggregate, WeightedAverageUsesRenormalizedSurvivorWeights) {
  core::Experiment exp(tiny_experiment_config());
  FederatedRun run(exp.build_store(), exp.fl_config());
  // Clients 0 and 2 dropped out: eq. 1 weights are renormalized over the
  // two survivors, in proportion to their shard sizes.
  const std::vector<int> survivors{1, 3};
  const std::vector<double> w = run.data_weights(survivors);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
  const double n1 = static_cast<double>(run.client(1).train_data().size());
  const double n3 = static_cast<double>(run.client(3).train_data().size());
  EXPECT_NEAR(w[0], n1 / (n1 + n3), 1e-12);
  const std::vector<Tensor> avg =
      weighted_average(w, {{2}, {3}}, [&](size_t i) {
        const float v = survivors[i] == 1 ? 2.0f : 6.0f;
        return std::vector<Tensor>{Tensor({2}, v), Tensor({3}, -v)};
      });
  ASSERT_EQ(avg.size(), 2u);
  const float expect =
      static_cast<float>(w[0]) * 2.0f + static_cast<float>(w[1]) * 6.0f;
  for (int64_t j = 0; j < 2; ++j) EXPECT_FLOAT_EQ(avg[0][j], expect);
  for (int64_t j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(avg[1][j], -expect);
}

TEST(Aggregate, WeightedAverageRejectsMalformedUploads) {
  const std::vector<double> w{0.5, 0.5};
  auto uploads = [](std::vector<std::vector<Tensor>> ups) {
    return [ups](size_t i) { return ups[i]; };
  };
  const std::vector<Tensor> good{Tensor({2}), Tensor({3})};
  // Too few tensors, against an explicit layout and against the layout the
  // first upload set.
  EXPECT_THROW(weighted_average(w, {{2}, {3}}, uploads({good, {Tensor({2})}})),
               Error);
  EXPECT_THROW(weighted_average(w, {}, uploads({good, {Tensor({2})}})),
               Error);
  // Right count, wrong shape.
  EXPECT_THROW(weighted_average(w, {{2}, {3}},
                                uploads({good, {Tensor({2}), Tensor({4})}})),
               Error);
  EXPECT_NO_THROW(weighted_average(w, {{2}, {3}}, uploads({good, good})));
}

TEST(Aggregate, DecodeTensorsRejectsShortPayload) {
  const comm::Bytes one = models::serialize_tensors({Tensor({3, 2})});
  EXPECT_THROW(decode_tensors(one, {{3, 2}, {3}}), Error);
  EXPECT_THROW(decode_tensors(one, {{2, 3}}), Error);
  EXPECT_EQ(decode_tensors(one, {{3, 2}}).size(), 1u);
}

TEST(Aggregate, MergePrototypesRejectsShortUpload) {
  Tensor protos({3, 2});
  std::vector<bool> valid(3, false);
  EXPECT_THROW(merge_prototypes(protos, valid, 1,
                                [](size_t) {
                                  return std::vector<Tensor>{Tensor({3, 2})};
                                }),
               Error);
  EXPECT_THROW(merge_prototypes(protos, valid, 1,
                                [](size_t) {
                                  return std::vector<Tensor>{Tensor({3, 2}),
                                                             Tensor({2})};
                                }),
               Error);
  // A rejected merge leaves the table untouched.
  EXPECT_EQ(valid, std::vector<bool>(3, false));
}

TEST(Aggregate, MergePrototypesCountWeightsAndCarriesAbsentClasses) {
  // Class 2 is counted by no survivor: its row carries over unchanged and
  // it stays invalid. Classes 0 and 1 get count-weighted means.
  Tensor protos({3, 2}, {0.0f, 0.0f, 0.0f, 0.0f, 7.0f, 8.0f});
  std::vector<bool> valid(3, false);
  const std::vector<std::vector<Tensor>> ups{
      {Tensor({3, 2}, {1.0f, 2.0f, 5.0f, 5.0f, 9.0f, 9.0f}),
       Tensor({3}, {2.0f, 1.0f, 0.0f})},
      {Tensor({3, 2}, {4.0f, 8.0f, 9.0f, 9.0f, 9.0f, 9.0f}),
       Tensor({3}, {1.0f, 0.0f, 0.0f})}};
  merge_prototypes(protos, valid, ups.size(), [&](size_t i) { return ups[i]; });
  EXPECT_FLOAT_EQ(protos[0], (2.0f * 1.0f + 4.0f) / 3.0f);
  EXPECT_FLOAT_EQ(protos[1], (2.0f * 2.0f + 8.0f) / 3.0f);
  EXPECT_FLOAT_EQ(protos[2], 5.0f);
  EXPECT_FLOAT_EQ(protos[3], 5.0f);
  EXPECT_EQ(protos[4], 7.0f);
  EXPECT_EQ(protos[5], 8.0f);
  EXPECT_EQ(valid, (std::vector<bool>{true, true, false}));
}

}  // namespace
}  // namespace fca::fl
