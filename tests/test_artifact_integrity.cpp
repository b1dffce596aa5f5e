// End-to-end artifact integrity: CRC32 + framed file format, manifest
// journal + deep fsck, durable writes, and the crash-point fuzzer — every
// write boundary of a tracked run is killed and restarted, and the final
// Pareto front must be bit-identical to an uninterrupted run.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/a4nn.hpp"
#include "util/checksum.hpp"
#include "util/frame.hpp"
#include "util/fsutil.hpp"

namespace a4nn {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- checksum

TEST(Checksum, Crc32KnownVectors) {
  // The standard CRC-32 check value.
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0x00000000u);
  EXPECT_EQ(util::crc32("a"), 0xE8B7BE43u);
}

TEST(Checksum, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    util::Crc32 crc;
    crc.update(data.substr(0, split));
    crc.update(data.substr(split));
    EXPECT_EQ(crc.value(), util::crc32(data)) << "split at " << split;
  }
}

TEST(Checksum, ResetRestartsTheStream) {
  util::Crc32 crc;
  crc.update("garbage");
  crc.reset();
  crc.update("123456789");
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

// ------------------------------------------------------------------ frame

TEST(Frame, RoundTripsPayload) {
  const std::string payload = R"({"fitness": 97.25, "epochs": 14})";
  const std::string framed = util::frame(payload);
  EXPECT_TRUE(util::is_framed(framed));
  EXPECT_EQ(util::unframe(framed), payload);
  const auto result = util::unframe_or_legacy(framed);
  EXPECT_TRUE(result.was_framed);
  EXPECT_EQ(result.payload, payload);
}

TEST(Frame, EmptyPayloadRoundTrips) {
  EXPECT_EQ(util::unframe(util::frame("")), "");
}

TEST(Frame, LegacyContentPassesThrough) {
  const auto result = util::unframe_or_legacy("{\"legacy\": true}");
  EXPECT_FALSE(result.was_framed);
  EXPECT_EQ(result.payload, "{\"legacy\": true}");
  EXPECT_THROW(util::unframe("{\"legacy\": true}"), util::FrameError);
}

TEST(Frame, EverySingleByteFlipIsDetected) {
  const std::string framed = util::frame(R"({"records": [1, 2, 3]})");
  for (std::size_t i = 0; i < framed.size(); ++i) {
    std::string corrupt = framed;
    // Low-bit flip: always changes the decoded value (unlike e.g. 0x20,
    // which only changes the case of a hex digit in the stored CRC).
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_THROW(util::unframe(corrupt), util::FrameError) << "byte " << i;
  }
}

TEST(Frame, EveryTruncationIsDetected) {
  const std::string framed = util::frame(R"({"weights": [0.5, -1.25]})");
  for (std::size_t len = 0; len < framed.size(); ++len) {
    EXPECT_THROW(util::unframe(framed.substr(0, len)), util::FrameError)
        << "truncated to " << len;
  }
}

TEST(Frame, TrailingGarbageIsDetected) {
  EXPECT_THROW(util::unframe(util::frame("{}") + "x"), util::FrameError);
}

TEST(Frame, UnsupportedVersionRejectedNotLegacy) {
  std::string framed = util::frame("{}");
  // Bump the version digit: A4NNF1 -> A4NNF2.
  framed[5] = '2';
  EXPECT_TRUE(util::is_framed(framed));
  EXPECT_THROW(util::unframe_or_legacy(framed), util::FrameError);
}

// ----------------------------------------------------------------- fsutil

TEST(FsDurability, FsyncModeRoundTrips) {
  const fs::path dir = util::make_temp_dir("a4nn-durable");
  util::write_file(dir / "j.journal", "line\n", util::Durability::kFsync);
  EXPECT_EQ(util::read_file(dir / "j.journal"), "line\n");
  // Overwrite through the same path stays atomic.
  util::write_file(dir / "j.journal", "line\nline2\n",
                   util::Durability::kFsync);
  EXPECT_EQ(util::read_file(dir / "j.journal"), "line\nline2\n");
  fs::remove_all(dir);
}

TEST(FsDurability, ReadFileReportsSizeMismatchOnSpecialFiles) {
  // /proc files stat as 0-byte regular files but stream real content: the
  // size-vs-expected check must refuse to return silently short/long data.
  if (!fs::exists("/proc/self/status")) GTEST_SKIP();
  try {
    util::read_file("/proc/self/status");
    FAIL() << "expected size-mismatch error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos);
  }
}

TEST(FsDurability, CrashAfterWritesTearsTheArmedWrite) {
  const fs::path dir = util::make_temp_dir("a4nn-crashpoint");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    util::set_crash_after_writes(2);
    util::write_file(dir / "first.txt", "committed");
    util::write_file(dir / "second.txt", "torn");
    ::_exit(0);  // must never be reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  // Write 1 survived, write 2 died staged-but-uncommitted.
  EXPECT_EQ(util::read_file(dir / "first.txt"), "committed");
  EXPECT_FALSE(fs::exists(dir / "second.txt"));
  bool staged_tmp_left = false;
  for (const auto& f : util::list_files(dir))
    if (f.filename().string().find(".tmp") != std::string::npos)
      staged_tmp_left = true;
  EXPECT_TRUE(staged_tmp_left);
  fs::remove_all(dir);
}

TEST(FsDurability, WriteFilesCommitsAGroupAcrossDirectories) {
  const fs::path dir = util::make_temp_dir("a4nn-group");
  util::write_files({{dir / "a" / "one", "1"}, {dir / "b" / "two", "22"}},
                    util::Durability::kFsync);
  EXPECT_EQ(util::read_file(dir / "a" / "one"), "1");
  EXPECT_EQ(util::read_file(dir / "b" / "two"), "22");
  EXPECT_EQ(util::list_files(dir / "a").size(), 1u);  // no staging left
  fs::remove_all(dir);
}

TEST(FsDurability, CrashInsideAGroupCommitsNoneOfIt) {
  const fs::path dir = util::make_temp_dir("a4nn-group-crash");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    util::set_crash_after_writes(2);
    util::write_files({{dir / "first", "a"}, {dir / "second", "b"}});
    ::_exit(0);  // must never be reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_FALSE(fs::exists(dir / "first"));
  EXPECT_FALSE(fs::exists(dir / "second"));
  EXPECT_EQ(util::list_files(dir).size(), 2u);  // both staged tmp files
  fs::remove_all(dir);
}

TEST(FsDurability, AppendFileAppendsAndFollowsAReplacedPath) {
  const fs::path dir = util::make_temp_dir("a4nn-append");
  const fs::path log = dir / "log";
  util::AppendFile file(log, util::Durability::kFsync);
  file.append("a\n");
  file.append("b\n");
  EXPECT_EQ(util::read_file(log), "a\nb\n");
  // An atomic rewrite (a repair pass) replaces the inode under the open
  // descriptor; the next append must land in the new file.
  util::write_file(log, "x\n", util::Durability::kFsync);
  file.append("c\n");
  EXPECT_EQ(util::read_file(log), "x\nc\n");
  fs::remove_all(dir);
}

TEST(FsDurability, CrashAtAnAppendKeepsTheWrittenBytes) {
  const fs::path dir = util::make_temp_dir("a4nn-append-crash");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    util::AppendFile file(dir / "log", util::Durability::kFsync);
    util::set_crash_after_writes(1);
    file.append("line\n");
    ::_exit(0);  // must never be reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  // Written, never synced: a process crash keeps it, a power cut may not.
  EXPECT_EQ(util::read_file(dir / "log"), "line\n");
  fs::remove_all(dir);
}

// -------------------------------------------------- framed commons + fsck

orchestrator::TrainerConfig tiny_trainer() {
  orchestrator::TrainerConfig tcfg;
  tcfg.max_epochs = 3;
  tcfg.batch_size = 16;
  tcfg.use_prediction_engine = false;
  return tcfg;
}

/// A small tracked commons with two trained models (snapshots every epoch).
struct FramedCommonsFixture : ::testing::Test {
  void SetUp() override {
    root = util::make_temp_dir("a4nn-integrity");
    xfel::XfelDatasetConfig dcfg;
    dcfg.images_per_class = 24;
    dcfg.detector.pixels = 8;
    dcfg.intensity = xfel::BeamIntensity::kHigh;
    data = xfel::generate_xfel_dataset(dcfg);
    space.input_shape = {1, 8, 8};
    space.stem_channels = 4;

    lineage::LineageTracker tracker({root, 1});
    orchestrator::TrainingLoop loop(data->train, data->validation,
                                    tiny_trainer(), &tracker);
    util::Rng rng(9);
    for (int id = 0; id < 2; ++id) {
      const nas::EvaluationRecord r =
          loop.train_genome(nas::random_genome(3, 4, rng), space, id, 40 + id);
      tracker.record_evaluation(r);
    }
  }
  void TearDown() override { fs::remove_all(root); }

  fs::path record_path(int id) const {
    return root / "models" / lineage::model_dir_name(id) / "record.json";
  }

  fs::path root;
  std::optional<xfel::XfelDataset> data;
  nas::SearchSpaceConfig space;
};

TEST_F(FramedCommonsFixture, TrackerWritesFramedArtifactsAndJournal) {
  const std::string raw = util::read_file(record_path(0));
  EXPECT_TRUE(util::is_framed(raw));
  EXPECT_TRUE(fs::exists(root / lineage::manifest_file_name()));

  lineage::DataCommons commons(root);
  EXPECT_EQ(commons.load_records().size(), 2u);
  EXPECT_EQ(commons.snapshot_epochs(0), (std::vector<std::size_t>{1, 2, 3}));

  lineage::FsckReport report = commons.fsck(lineage::FsckMode::kDeep);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.integrity.files_verified, 0u);
  EXPECT_EQ(report.integrity.files_verified, report.integrity.journal_entries);
  EXPECT_EQ(report.integrity.crc_mismatches, 0u);
  EXPECT_EQ(report.integrity.legacy_unframed, 0u);
}

TEST_F(FramedCommonsFixture, LegacyUnframedArtifactsStillLoad) {
  // A pre-framing commons: every artifact unframed, no manifest journal —
  // exactly the tree the seed tracker would have left behind.
  lineage::DataCommons commons(root);
  const auto records = commons.load_records();
  ASSERT_EQ(records.size(), 2u);
  fs::remove(root / lineage::manifest_file_name());
  std::size_t artifact_count = 0;
  for (int id = 0; id < 2; ++id) {
    const fs::path dir = root / "models" / lineage::model_dir_name(id);
    for (const auto& file : util::list_files(dir, ".json")) {
      const std::string payload = lineage::read_artifact(file);
      std::ofstream(file, std::ios::binary | std::ios::trunc) << payload;
      ++artifact_count;
    }
  }
  ASSERT_GT(artifact_count, 2u);  // records + snapshots + training states

  const auto reloaded = commons.load_records();
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded[1].model_id, records[1].model_id);
  EXPECT_DOUBLE_EQ(reloaded[1].fitness, records[1].fitness);
  EXPECT_EQ(commons.snapshot_epochs(0), (std::vector<std::size_t>{1, 2, 3}));

  // Deep fsck accepts legacy files, journals them, and stays green.
  lineage::FsckReport report = commons.fsck(lineage::FsckMode::kDeep);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.integrity.legacy_unframed, artifact_count);
  EXPECT_TRUE(report.integrity.journal_rewritten);
  // Second pass: everything is journaled and verified now.
  lineage::FsckReport second = commons.fsck(lineage::FsckMode::kDeep);
  EXPECT_TRUE(second.clean());
  EXPECT_EQ(second.integrity.files_verified, artifact_count);
  EXPECT_EQ(second.integrity.legacy_unframed, 0u);
}

TEST_F(FramedCommonsFixture, BitFlipInFramedRecordIsQuarantined) {
  std::string raw = util::read_file(record_path(0));
  raw[raw.size() / 2] = static_cast<char>(raw[raw.size() / 2] ^ 0x01);
  std::ofstream(record_path(0), std::ios::binary | std::ios::trunc) << raw;

  lineage::DataCommons commons(root);
  lineage::FsckReport report = commons.fsck(lineage::FsckMode::kDeep);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.files_quarantined, 1u);
  EXPECT_FALSE(fs::exists(record_path(0)));
  EXPECT_TRUE(fs::exists(root / "quarantine" / "models" /
                         lineage::model_dir_name(0) / "record.json"));
  // The survivor loads; the corrupted record can never be replayed.
  EXPECT_EQ(commons.load_records().size(), 1u);
  EXPECT_TRUE(commons.fsck(lineage::FsckMode::kDeep).clean());
}

TEST_F(FramedCommonsFixture, TamperedButWellFramedRecordFailsDeepFsckOnly) {
  // Re-frame modified content: the frame's own CRC is valid, the JSON
  // parses, but the bytes no longer match the manifest journal — only the
  // deep pass can catch this.
  lineage::DataCommons commons(root);
  auto records = commons.load_records();
  records[0].fitness += 1.0;
  std::ofstream(record_path(0), std::ios::binary | std::ios::trunc)
      << util::frame(records[0].to_json().dump(2));

  EXPECT_TRUE(commons.fsck(lineage::FsckMode::kQuick).clean());
  lineage::FsckReport deep = commons.fsck(lineage::FsckMode::kDeep);
  EXPECT_FALSE(deep.clean());
  EXPECT_EQ(deep.integrity.crc_mismatches, 1u);
  EXPECT_FALSE(fs::exists(record_path(0)));
  EXPECT_TRUE(commons.fsck(lineage::FsckMode::kDeep).clean());
}

TEST_F(FramedCommonsFixture, TruncatedCheckpointMidPayloadIsQuarantined) {
  const fs::path ckpt = root / "models" / lineage::model_dir_name(1) /
                        lineage::snapshot_file_name(2);
  ASSERT_TRUE(fs::exists(ckpt));
  fs::resize_file(ckpt, fs::file_size(ckpt) / 2);

  lineage::DataCommons commons(root);
  lineage::FsckReport report = commons.fsck(lineage::FsckMode::kDeep);
  EXPECT_FALSE(report.clean());
  EXPECT_GE(report.files_quarantined, 1u);
  EXPECT_FALSE(fs::exists(ckpt));
  EXPECT_EQ(commons.snapshot_epochs(1), (std::vector<std::size_t>{1, 3}));
  EXPECT_TRUE(commons.fsck(lineage::FsckMode::kDeep).clean());
}

TEST_F(FramedCommonsFixture, TruncatedJournalMidLineIsRepaired) {
  const fs::path journal = root / lineage::manifest_file_name();
  ASSERT_TRUE(fs::exists(journal));
  fs::resize_file(journal, fs::file_size(journal) - 5);

  lineage::DataCommons commons(root);
  lineage::FsckReport report = commons.fsck(lineage::FsckMode::kDeep);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.integrity.journal_torn_lines, 1u);
  // The artifact whose line was torn is still intact on disk: it must be
  // adopted back, never quarantined.
  EXPECT_EQ(report.files_quarantined, 0u);
  EXPECT_EQ(report.integrity.unjournaled_adopted, 1u);
  EXPECT_TRUE(report.integrity.journal_rewritten);
  EXPECT_TRUE(commons.fsck(lineage::FsckMode::kDeep).clean());
}

TEST_F(FramedCommonsFixture, MissingJournaledArtifactIsReportedAndPruned) {
  fs::remove(record_path(1));
  lineage::DataCommons commons(root);
  lineage::FsckReport report = commons.fsck(lineage::FsckMode::kDeep);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.integrity.missing_files, 1u);
  EXPECT_TRUE(commons.fsck(lineage::FsckMode::kDeep).clean());
}

TEST_F(FramedCommonsFixture, StrayModelDirectoryCannotAliasModelZero) {
  // Regression for the bare-atoi parse: "model_backup" atoi'd to 0 and
  // aliased model 0. It must be skipped instead.
  fs::create_directories(root / "models" / "model_backup");
  fs::create_directories(root / "models" / "gen_backup");
  lineage::DataCommons commons(root);
  EXPECT_EQ(commons.model_ids(), (std::vector<int>{0, 1}));
  EXPECT_EQ(commons.load_records().size(), 2u);
}

TEST_F(FramedCommonsFixture, ResumeFallsBackToNewestIntactState) {
  // Corrupt the newest (epoch 3) training state: resume must fall back to
  // epoch 2 rather than trusting a CRC-failing file or giving up.
  const fs::path dir = root / "models" / lineage::model_dir_name(0);
  const fs::path newest = dir / lineage::training_state_file_name(3);
  ASSERT_TRUE(fs::exists(newest));
  std::string raw = util::read_file(newest);
  raw[raw.size() - 3] = static_cast<char>(raw[raw.size() - 3] ^ 0x04);
  std::ofstream(newest, std::ios::binary | std::ios::trunc) << raw;
  fs::remove(dir / "record.json");

  // Recreate the genome stream used by the fixture: model 0's genome.
  util::Rng rng(9);
  const nas::Genome genome = nas::random_genome(3, 4, rng);

  orchestrator::TrainerConfig tcfg = tiny_trainer();
  tcfg.resume_partial = true;
  lineage::LineageTracker tracker({root, 1});
  orchestrator::TrainingLoop loop(data->train, data->validation, tcfg,
                                  &tracker);
  const nas::EvaluationRecord record =
      loop.train_genome(genome, space, 0, 40);
  EXPECT_EQ(record.resumed_from_epoch, 2u);
  EXPECT_EQ(loop.resumed_epochs(), 2u);
  EXPECT_EQ(record.epochs_trained, 3u);
}

// ------------------------------------------------- crash-point fuzzer sweep

core::WorkflowConfig sweep_config() {
  core::WorkflowConfig cfg;
  cfg.dataset.images_per_class = 24;
  cfg.dataset.detector.pixels = 8;
  cfg.dataset.intensity = xfel::BeamIntensity::kHigh;
  cfg.nas.population_size = 2;
  cfg.nas.offspring_per_generation = 2;
  cfg.nas.generations = 2;
  cfg.nas.max_epochs = 4;
  cfg.nas.space.input_shape = {1, 8, 8};
  cfg.nas.space.stem_channels = 4;
  cfg.trainer.max_epochs = 4;
  // Engine off: every model trains all 4 epochs, so every run writes the
  // full checkpoint/state/record trail the sweep is meant to tear.
  cfg.trainer.use_prediction_engine = false;
  cfg.cluster.num_gpus = 2;
  return cfg;
}

// The acceptance test of the integrity layer: kill the workflow at EVERY
// write boundary k of a tracked fault-free run (each kill leaves writes
// 1..k-1 committed and write k torn), restart from the commons, and demand
// (a) the final Pareto front is bit-identical to an uninterrupted run and
// (b) a deep fsck afterwards finds zero surviving inconsistencies.
// A4NN_CRASH_SWEEP_STRIDE=n bounds the sweep (e.g. for sanitizer CI jobs).
TEST(ArtifactIntegrity, CrashPointSweepReproducesParetoBitExact) {
  const core::WorkflowConfig base = sweep_config();
  core::A4nnWorkflow reference(base);
  const core::WorkflowResult ref = reference.run();
  ASSERT_FALSE(ref.search.pareto.empty());

  // Probe run: same config with lineage enabled, counting write boundaries.
  std::uint64_t total_writes = 0;
  {
    const fs::path probe = util::make_temp_dir("a4nn_crash_probe");
    core::WorkflowConfig cfg = base;
    cfg.lineage = lineage::TrackerConfig{probe, 2};
    const std::uint64_t before = util::write_op_count();
    core::A4nnWorkflow tracked(cfg, reference.dataset());
    const core::WorkflowResult full = tracked.run();
    total_writes = util::write_op_count() - before;
    ASSERT_EQ(full.search.pareto, ref.search.pareto);
    fs::remove_all(probe);
  }
  ASSERT_GT(total_writes, 8u);

  std::uint64_t stride = 1;
  if (const char* env = std::getenv("A4NN_CRASH_SWEEP_STRIDE"))
    stride = std::max<std::uint64_t>(1, std::strtoull(env, nullptr, 10));

  for (std::uint64_t k = 1; k <= total_writes; k += stride) {
    const fs::path commons = util::make_temp_dir("a4nn_crash_sweep");

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      core::WorkflowConfig cfg = base;
      cfg.lineage = lineage::TrackerConfig{commons, 2};
      util::set_crash_after_writes(k);
      try {
        core::A4nnWorkflow doomed(cfg, reference.dataset());
        doomed.run();
      } catch (...) {
      }
      ::_exit(42);  // unreachable: the run crosses >= k write boundaries
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "k=" << k;
    ASSERT_EQ(WEXITSTATUS(status), 1) << "k=" << k;

    // Restart after the kill: resume must reproduce the reference exactly.
    core::WorkflowConfig cfg = base;
    cfg.lineage = lineage::TrackerConfig{commons, 2};
    cfg.resume_from_commons = true;
    core::A4nnWorkflow resumed(cfg, reference.dataset());
    const core::WorkflowResult res = resumed.run();

    ASSERT_EQ(res.search.history.size(), ref.search.history.size())
        << "k=" << k;
    for (std::size_t i = 0; i < ref.search.history.size(); ++i) {
      const auto& a = ref.search.history[i];
      const auto& b = res.search.history[i];
      ASSERT_EQ(a.genome.key(), b.genome.key()) << "k=" << k << " model " << i;
      ASSERT_DOUBLE_EQ(a.fitness, b.fitness) << "k=" << k << " model " << i;
      ASSERT_DOUBLE_EQ(a.measured_fitness, b.measured_fitness)
          << "k=" << k << " model " << i;
      ASSERT_EQ(a.epochs_trained, b.epochs_trained)
          << "k=" << k << " model " << i;
      ASSERT_EQ(a.flops, b.flops) << "k=" << k << " model " << i;
    }
    ASSERT_EQ(ref.search.pareto, res.search.pareto) << "k=" << k;

    // Zero surviving inconsistencies after recovery.
    lineage::DataCommons inspect(commons);
    const lineage::FsckReport post = inspect.fsck(lineage::FsckMode::kDeep);
    EXPECT_TRUE(post.clean())
        << "k=" << k << ": crc_mismatches=" << post.integrity.crc_mismatches
        << " missing=" << post.integrity.missing_files
        << " torn=" << post.integrity.journal_torn_lines
        << " adopted=" << post.integrity.unjournaled_adopted
        << " quarantined=" << post.files_quarantined;

    fs::remove_all(commons);
  }
}

}  // namespace
}  // namespace a4nn
