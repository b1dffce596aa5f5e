// Lineage tracker + data commons: record trails persist and reload, model
// snapshots reproduce predictions from any epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "lineage/tracker.hpp"
#include "nas/search_space.hpp"
#include "orchestrator/training_loop.hpp"
#include "util/fsutil.hpp"
#include "xfel/dataset.hpp"

namespace a4nn::lineage {
namespace {

namespace fs = std::filesystem;

struct CommonsFixture : ::testing::Test {
  void SetUp() override { root = util::make_temp_dir("a4nn-lineage"); }
  void TearDown() override { fs::remove_all(root); }
  fs::path root;
};

TEST_F(CommonsFixture, NamingHelpers) {
  EXPECT_EQ(model_dir_name(7), "model_00007");
  EXPECT_EQ(snapshot_file_name(12), "epoch_0012.ckpt.json");
}

TEST_F(CommonsFixture, TrackerValidatesConfig) {
  EXPECT_THROW(LineageTracker(TrackerConfig{"", 0}), std::invalid_argument);
}

TEST_F(CommonsFixture, SnapshotCadence) {
  LineageTracker every_two({root, 2});
  EXPECT_FALSE(every_two.wants_snapshot(1));
  EXPECT_TRUE(every_two.wants_snapshot(2));
  EXPECT_TRUE(every_two.wants_snapshot(4));
  LineageTracker off({root, 0});
  EXPECT_FALSE(off.wants_snapshot(1));
}

TEST_F(CommonsFixture, RecordsRoundTripThroughCommons) {
  LineageTracker tracker({root, 0});
  util::Json cfg = util::Json::object();
  cfg["experiment"] = "unit-test";
  tracker.record_search_config(cfg);

  util::Rng rng(1);
  for (int id : {0, 1, 5}) {
    nas::EvaluationRecord r;
    r.genome = nas::random_genome(3, 4, rng);
    r.model_id = id;
    r.generation = id / 2;
    r.fitness = 90.0 + id;
    r.measured_fitness = r.fitness;
    r.flops = 1000u * static_cast<unsigned>(id + 1);
    r.epochs_trained = 5;
    r.max_epochs = 25;
    r.fitness_history = {10.0, 50.0, 70.0, 85.0, 90.0 + id};
    tracker.record_evaluation(r);
  }

  DataCommons commons(root);
  EXPECT_EQ(commons.search_config().at("experiment").as_string(), "unit-test");
  EXPECT_EQ(commons.model_ids(), (std::vector<int>{0, 1, 5}));
  const auto records = commons.load_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].model_id, 5);
  EXPECT_DOUBLE_EQ(records[2].fitness, 95.0);
  EXPECT_EQ(records[0].fitness_history.size(), 5u);
}

TEST_F(CommonsFixture, CommonsRejectsNonCommonsDir) {
  const fs::path other = util::make_temp_dir("a4nn-other");
  EXPECT_THROW(DataCommons{other}, std::invalid_argument);
  fs::remove_all(other);
}

TEST_F(CommonsFixture, PerEpochSnapshotsReloadAndReproduce) {
  // Train a real (tiny) model with per-epoch snapshots and verify the
  // reloaded model at each epoch reproduces its recorded fitness — the
  // paper's "load and re-evaluate from any point" claim.
  xfel::XfelDatasetConfig dcfg;
  dcfg.images_per_class = 30;
  dcfg.detector.pixels = 8;
  dcfg.intensity = xfel::BeamIntensity::kHigh;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(dcfg);

  LineageTracker tracker({root, 1});
  orchestrator::TrainerConfig tcfg;
  tcfg.max_epochs = 4;
  tcfg.use_prediction_engine = false;
  orchestrator::TrainingLoop loop(data.train, data.validation, tcfg, &tracker);

  nas::SearchSpaceConfig space;
  space.input_shape = {1, 8, 8};
  space.stem_channels = 4;
  util::Rng rng(2);
  const nas::Genome genome = nas::random_genome(3, 4, rng);
  nas::EvaluationRecord record = loop.train_genome(genome, space, 3, 77);
  record.genome = genome;
  tracker.record_evaluation(record);

  DataCommons commons(root);
  const auto epochs = commons.snapshot_epochs(3);
  EXPECT_EQ(epochs, (std::vector<std::size_t>{1, 2, 3, 4}));
  for (std::size_t e : epochs) {
    nn::Model reloaded = commons.load_model(3, e);
    const nn::EpochMetrics m = reloaded.evaluate(data.validation);
    EXPECT_NEAR(m.accuracy, record.fitness_history[e - 1], 1e-9)
        << "epoch " << e;
  }
}

TEST_F(CommonsFixture, MissingSnapshotThrows) {
  LineageTracker tracker({root, 0});
  DataCommons commons(root);
  EXPECT_THROW(commons.load_model(0, 1), std::runtime_error);
  EXPECT_TRUE(commons.snapshot_epochs(42).empty());
}

nn::Model tiny_model(std::uint64_t seed) {
  util::Rng rng(seed);
  nas::SearchSpaceConfig space;
  space.input_shape = {1, 8, 8};
  space.stem_channels = 4;
  return nas::decode_genome(nas::random_genome(3, 4, rng), space, rng);
}

util::Json state_doc(int model_id, std::size_t epoch) {
  util::Json doc = util::Json::object();
  doc["model_id"] = model_id;
  doc["epoch"] = epoch;
  doc["rng"] = util::Json::object();
  doc["optimizer"] = util::Json::object();
  doc["record"] = util::Json::object();
  return doc;
}

std::size_t journal_lines(const fs::path& root) {
  const std::string text = util::read_file(root / manifest_file_name());
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST_F(CommonsFixture, RecordEpochCommitsSnapshotAndStateTogether) {
  LineageTracker tracker({root, 1});
  const nn::Model model = tiny_model(4);
  const std::vector<float> velocity = {0.5f, -0.25f, 1e-30f};
  const std::size_t before = journal_lines(root);
  tracker.record_epoch(2, 3, model, state_doc(2, 3), {velocity, {}}).get();
  EXPECT_EQ(journal_lines(root), before + 2);

  DataCommons commons(root);
  EXPECT_EQ(commons.load_model(2, 3).trunk().weights().dump(),
            model.trunk().weights().dump());
  const TrainingState state = commons.load_training_state(2, 3);
  EXPECT_EQ(state.doc, state_doc(2, 3));
  ASSERT_EQ(state.velocity.size(), 2u);
  ASSERT_EQ(state.velocity[0].numel(), velocity.size());
  EXPECT_EQ(std::memcmp(state.velocity[0].data(), velocity.data(),
                        4 * velocity.size()),
            0);
  EXPECT_TRUE(commons.fsck(FsckMode::kDeep).clean());
}

TEST_F(CommonsFixture, TrackerWaitsForQueuedEpochsOnDestruction) {
  const nn::Model model = tiny_model(5);
  {
    LineageTracker tracker({root, 1});
    for (std::size_t e = 1; e <= 6; ++e)
      tracker.record_epoch(0, e, model, state_doc(0, e), {});
  }
  DataCommons commons(root);
  EXPECT_EQ(commons.snapshot_epochs(0),
            (std::vector<std::size_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(commons.training_state_epochs(0),
            (std::vector<std::size_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(commons.fsck(FsckMode::kDeep).clean());
}

TEST_F(CommonsFixture, SealedTrackerDropsQueuedEpochs) {
  LineageTracker tracker({root, 1});
  tracker.seal();
  tracker.record_epoch(0, 1, tiny_model(6), state_doc(0, 1), {}).get();
  EXPECT_TRUE(DataCommons(root).snapshot_epochs(0).empty());
}

TEST_F(CommonsFixture, TornJournalTailIsCutOffOnOpen) {
  {
    LineageTracker tracker({root, 0});
    tracker.record_search_config(util::Json::object());
  }
  const fs::path journal = root / manifest_file_name();
  const std::string intact = util::read_file(journal);
  util::write_file(journal, intact + "0badc0de torn");
  LineageTracker tracker({root, 0});
  EXPECT_EQ(util::read_file(journal), intact);
  nas::EvaluationRecord r;
  r.model_id = 1;
  tracker.record_evaluation(r);
  EXPECT_TRUE(DataCommons(root).fsck(FsckMode::kDeep).clean());
}

}  // namespace
}  // namespace a4nn::lineage
