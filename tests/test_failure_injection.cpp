// Failure injection: corrupted commons files, poisoned inputs, and
// degenerate histories must produce clear errors or safe no-predictions —
// never silent wrong answers.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "lineage/tracker.hpp"
#include "nas/search_space.hpp"
#include "penguin/engine.hpp"
#include "util/fsutil.hpp"

namespace a4nn {
namespace {

namespace fs = std::filesystem;

struct CommonsFixture : ::testing::Test {
  void SetUp() override {
    root = util::make_temp_dir("a4nn-fail");
    lineage::LineageTracker tracker({root, 0});
    util::Rng rng(1);
    nas::EvaluationRecord r;
    r.genome = nas::random_genome(3, 4, rng);
    r.model_id = 0;
    r.fitness_history = {50.0, 70.0};
    tracker.record_evaluation(r);
  }
  void TearDown() override { fs::remove_all(root); }
  fs::path root;
};

TEST_F(CommonsFixture, CorruptedRecordJsonThrows) {
  util::write_file(root / "models" / "model_00000" / "record.json",
                   "{ not json");
  lineage::DataCommons commons(root);
  EXPECT_THROW(commons.load_records(), util::JsonError);
}

TEST_F(CommonsFixture, RecordMissingFieldsThrows) {
  util::write_file(root / "models" / "model_00000" / "record.json",
                   R"({"model_id": 3})");
  lineage::DataCommons commons(root);
  EXPECT_THROW(commons.load_records(), util::JsonError);
}

TEST_F(CommonsFixture, TruncatedCheckpointThrows) {
  util::write_file(root / "models" / "model_00000" / "epoch_0001.ckpt.json",
                   R"({"input_shape": [1, 8, 8], "spec")");
  lineage::DataCommons commons(root);
  EXPECT_THROW(commons.load_model(0, 1), util::JsonError);
}

TEST_F(CommonsFixture, CheckpointWithWrongWeightsThrows) {
  // A structurally valid checkpoint whose weights do not match its spec.
  util::Rng rng(2);
  nas::SearchSpaceConfig space;
  space.input_shape = {1, 8, 8};
  nn::Model model =
      nas::decode_genome(nas::random_genome(3, 4, rng), space, rng);
  util::Json ckpt = model.checkpoint();
  ckpt["weights"] = util::Json::object();  // drop every layer's weights
  util::write_file(root / "models" / "model_00000" / "epoch_0002.ckpt.json",
                   ckpt.dump());
  lineage::DataCommons commons(root);
  EXPECT_THROW(commons.load_model(0, 2), util::JsonError);
}

TEST_F(CommonsFixture, MissingSearchConfigThrows) {
  lineage::DataCommons commons(root);
  EXPECT_THROW(commons.search_config(), std::runtime_error);
}

TEST(EngineRobustness, NanHistoryYieldsNoPrediction) {
  const penguin::PredictionEngine engine(penguin::default_engine_config());
  const std::vector<double> with_nan{50.0, std::nan(""), 70.0, 80.0};
  EXPECT_FALSE(engine.predict(with_nan).has_value());
}

TEST(EngineRobustness, InfiniteHistoryYieldsNoPrediction) {
  const penguin::PredictionEngine engine(penguin::default_engine_config());
  const std::vector<double> with_inf{
      50.0, std::numeric_limits<double>::infinity(), 70.0, 80.0};
  EXPECT_FALSE(engine.predict(with_inf).has_value());
}

TEST(EngineRobustness, ConstantHistoryStaysSafe) {
  // A perfectly flat curve has no increasing trend to extrapolate; the
  // engine may predict the plateau or abstain, but must never produce an
  // out-of-bounds convergence.
  const penguin::PredictionEngine engine(penguin::default_engine_config());
  const std::vector<double> flat(10, 80.0);
  const auto p = engine.predict(flat);
  if (p) {
    EXPECT_NEAR(*p, 80.0, 5.0);
  }
}

TEST(EngineRobustness, HistoryShorterThanCMinYieldsNoPrediction) {
  penguin::EngineConfig cfg = penguin::default_engine_config();
  ASSERT_GE(cfg.c_min, 1u);
  const penguin::PredictionEngine engine(cfg);
  EXPECT_FALSE(engine.predict(std::vector<double>{}).has_value());
  std::vector<double> history;
  for (std::size_t e = 1; e < cfg.c_min; ++e) {
    history.push_back(45.0 + static_cast<double>(e));
    EXPECT_FALSE(engine.predict(history).has_value())
        << "history of " << history.size() << " < c_min predicted";
  }
}

TEST(EngineRobustness, AllZeroHistoryStaysFinite) {
  // A degenerate flat-zero curve (dead model) must never yield a NaN/inf
  // prediction that could poison the NAS fitness.
  const penguin::PredictionEngine engine(penguin::default_engine_config());
  const std::vector<double> zeros(10, 0.0);
  const auto p = engine.predict(zeros);
  if (p) {
    EXPECT_TRUE(std::isfinite(*p));
  }
}

TEST(EngineRobustness, ConvergenceNeedsFullWindowAndBounds) {
  penguin::EngineConfig cfg = penguin::default_engine_config();
  const penguin::PredictionEngine engine(cfg);
  // Fewer predictions than the window: never converged.
  EXPECT_FALSE(engine.converged(std::vector<double>{}));
  EXPECT_FALSE(engine.converged(std::vector<double>(cfg.window - 1, 80.0)));
  // Out-of-bounds predictions invalidate the window even at variance 0.
  EXPECT_FALSE(engine.converged(std::vector<double>(cfg.window, 150.0)));
  EXPECT_FALSE(engine.converged(std::vector<double>(cfg.window, -3.0)));
  // A stable, in-bounds window converges.
  EXPECT_TRUE(engine.converged(std::vector<double>(cfg.window, 80.0)));
}

TEST(EngineRobustness, SimulateEmptyCurve) {
  const penguin::PredictionEngine engine(penguin::default_engine_config());
  const auto sim =
      penguin::simulate_early_termination(std::vector<double>{}, engine);
  EXPECT_EQ(sim.epochs_trained, 0u);
  EXPECT_FALSE(sim.early_terminated);
  EXPECT_DOUBLE_EQ(sim.reported_fitness, 0.0);
}

TEST(FsRobustness, WriteToUnwritablePathThrows) {
  EXPECT_THROW(util::write_file("/proc/a4nn-cannot-write/here.txt", "x"),
               std::exception);
}

}  // namespace
}  // namespace a4nn
