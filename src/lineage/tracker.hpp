// Lineage tracker: writes complete record trails — search configuration,
// per-network metadata (genome, architecture, fitness and prediction
// histories, timings, FLOPs) and optional per-epoch model snapshots — into
// a file-tree "data commons" that the analyzer loads back. This is the
// paper's Dataverse commons at laptop scale: every model can be reloaded
// and re-evaluated from any training epoch.
//
// Every artifact is committed inside an integrity frame (util/frame.hpp:
// magic + version + length + CRC-32) and logged in an append-only manifest
// journal, so torn writes and bit rot are tamper-evident instead of being
// silently replayed into the search. Legacy unframed trees still load and
// are re-framed the first time they are rewritten.
//
// Layout:
//   <root>/search.json                     search + engine + dataset config
//   <root>/manifest.journal                {line-crc, artifact-crc, size, path}
//   <root>/models/model_00042/record.json  EvaluationRecord
//   <root>/models/model_00042/epoch_0007.ckpt.json   model snapshot (optional)
//   <root>/models/model_00042/epoch_0007.state.json  training state (optional)
// Snapshots and training states are packed payloads (nn/packed.hpp) despite
// the historical .json suffix; JSON ones from older trees still load.
#pragma once

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>

#include "nas/evaluator.hpp"
#include "nn/model.hpp"
#include "util/fsutil.hpp"
#include "util/metrics.hpp"

namespace a4nn::lineage {

struct TrackerConfig {
  std::filesystem::path root;
  /// Snapshot model weights every N epochs (0 disables snapshots; 1
  /// matches the paper's "models after every training epoch").
  std::size_t snapshot_every = 0;
  /// Fsync manifest-journal commits and checkpoint/training-state writes
  /// so they survive a power cut, not just a process crash. Record trails
  /// stay buffered: they are cheap to retrain and always journaled.
  bool durable = true;
};

/// A training-state artifact: the document (model_id, epoch, converged,
/// rng, record histories, optimizer kind) and the optimizer's momentum
/// buffers, one per parameter slot (empty for a slot never stepped).
struct TrainingState {
  util::Json doc;
  std::vector<tensor::Tensor> velocity;
};

/// Packed training-state payload: `doc` is the header and each velocity
/// buffer one float32 section.
std::string encode_training_state(
    const util::Json& doc,
    const std::vector<std::span<const float>>& velocity);

/// Decode a stored training state in either format: packed, or the JSON
/// document holding the buffers under optimizer.velocity. Both yield the
/// same doc (without optimizer.velocity) and buffers. Throws when the
/// payload is malformed or a required field (epoch, rng, optimizer,
/// record) is missing.
TrainingState decode_training_state(std::string_view payload);

class LineageTracker {
 public:
  explicit LineageTracker(TrackerConfig config);
  /// Waits until every epoch this tracker queued is committed (or, once
  /// sealed, dropped).
  ~LineageTracker();
  LineageTracker(const LineageTracker&) = delete;
  LineageTracker& operator=(const LineageTracker&) = delete;

  /// Persist the experiment-level configuration document.
  void record_search_config(const util::Json& config);

  /// Persist an arbitrary run-level JSON artifact at `rel_path` (a plain
  /// file name relative to the commons root, e.g. "memo_index.json" or
  /// "table.json") under the same frame + manifest-journal discipline as
  /// every other artifact. Thread-safe.
  void record_artifact(const std::string& rel_path, const util::Json& doc);

  /// Persist a model snapshot for (model, epoch). Thread-safe.
  void record_model_epoch(int model_id, std::size_t epoch,
                          const nn::Model& model);

  /// Persist one snapshotted epoch: the model snapshot and the full
  /// training state (`state` document plus optimizer `velocity`) captured
  /// after it, enabling bit-exact mid-training resume. Both are encoded
  /// before this returns, so the caller may go on training; they commit
  /// on the process's lineage writer thread, in call order, behind one
  /// durability barrier: the two files are staged and synced, renamed,
  /// their directory synced once, then both journal lines appended in one
  /// write and synced once. The epoch is durable once the returned future
  /// is ready; get() rethrows a failed commit. Thread-safe.
  std::shared_future<void> record_epoch(
      int model_id, std::size_t epoch, const nn::Model& model,
      const util::Json& state,
      const std::vector<std::span<const float>>& velocity);

  /// Persist the final record trail of a trained network. Thread-safe.
  void record_evaluation(const nas::EvaluationRecord& record);

  /// Whether a snapshot should be taken at this epoch.
  bool wants_snapshot(std::size_t epoch) const;

  /// Simulate process death: after sealing, every record_* call becomes a
  /// no-op. Used by the kill-and-resume tests to interrupt a run at job
  /// granularity without tearing down the process.
  void seal() { sealed_.store(true); }
  bool sealed() const { return sealed_.load(); }

  const std::filesystem::path& root() const { return config_.root; }

  /// Attach a metrics registry: journal commits (one per artifact), bytes
  /// written, and journal append time are counted there. Pass nullptr to
  /// detach; the registry must outlive the tracker.
  void set_metrics(util::metrics::Registry* registry) { metrics_ = registry; }

 private:
  /// One artifact of a commit: its path relative to the root, as the
  /// journal names it, and its unframed payload.
  struct Artifact {
    std::string rel;
    std::string payload;
  };

  /// Frame every artifact, commit them as one group, then append their
  /// manifest-journal lines in one write. Takes mutex_.
  void commit(const std::vector<Artifact>& artifacts,
              util::Durability durability);

  TrackerConfig config_;
  std::mutex mutex_;
  std::atomic<bool> sealed_{false};
  util::metrics::Registry* metrics_ = nullptr;
  /// The manifest journal, open for appending.
  std::unique_ptr<util::AppendFile> journal_;

  /// The last epoch commit this tracker queued. The writer runs commits
  /// in order, so it is ready once all of them are.
  std::mutex queued_mutex_;
  std::shared_future<void> last_queued_;
};

/// One problem found (and fixed) by DataCommons::fsck.
struct FsckIssue {
  std::filesystem::path path;
  std::string reason;
};

/// Checksum-level findings of a deep fsck pass.
struct IntegrityReport {
  /// Manifest entries read from the journal (after supersede).
  std::size_t journal_entries = 0;
  /// Malformed or torn journal lines dropped during repair.
  std::size_t journal_torn_lines = 0;
  /// Artifacts whose size and CRC matched their manifest entry.
  std::size_t files_verified = 0;
  /// Artifacts quarantined for a size or CRC mismatch against the manifest.
  std::size_t crc_mismatches = 0;
  /// Journaled artifacts absent on disk (entry dropped).
  std::size_t missing_files = 0;
  /// Valid framed artifacts that were on disk but not journaled (a crash
  /// between an artifact commit and its journal append); re-journaled.
  std::size_t unjournaled_adopted = 0;
  /// Legacy unframed artifacts accepted verbatim and journaled.
  std::size_t legacy_unframed = 0;
  /// Whether the journal was repaired/rewritten on disk.
  bool journal_rewritten = false;

  /// Legacy artifacts and journal creation are accepted states; anything
  /// torn, mismatched, missing, or unjournaled is an inconsistency.
  bool clean() const {
    return journal_torn_lines == 0 && crc_mismatches == 0 &&
           missing_files == 0 && unjournaled_adopted == 0;
  }
};

/// What fsck scanned, kept, and quarantined.
struct FsckReport {
  std::size_t models_scanned = 0;
  std::size_t records_valid = 0;
  std::size_t files_quarantined = 0;
  std::size_t tmp_files_removed = 0;
  std::vector<FsckIssue> issues;
  /// Populated by deep mode (all zeros after a quick pass).
  IntegrityReport integrity;
  /// Whether this report came from a deep pass.
  bool deep = false;

  bool clean() const {
    return issues.empty() && tmp_files_removed == 0 && integrity.clean();
  }
};

/// How thoroughly DataCommons::fsck validates the tree.
enum class FsckMode {
  /// Parse-level validation plus stale-tmp cleanup.
  kQuick,
  /// kQuick plus checksum verification of every manifest-journal entry:
  /// detects missing/extra/torn files, quarantines mismatches, repairs the
  /// journal, and fills FsckReport::integrity.
  kDeep,
};

/// Read-side API over a commons tree.
class DataCommons {
 public:
  explicit DataCommons(std::filesystem::path root);

  util::Json search_config() const;
  /// Every record trail in the commons, sorted by model id.
  std::vector<nas::EvaluationRecord> load_records() const;
  /// Model ids present in the commons.
  std::vector<int> model_ids() const;
  /// Epochs with weight snapshots for a model.
  std::vector<std::size_t> snapshot_epochs(int model_id) const;
  /// Epochs with training-state checkpoints for a model.
  std::vector<std::size_t> training_state_epochs(int model_id) const;
  /// Reload the model state captured after `epoch`.
  nn::Model load_model(int model_id, std::size_t epoch) const;
  /// Reload the training state captured after `epoch`.
  TrainingState load_training_state(int model_id, std::size_t epoch) const;

  /// Reload a run-level artifact persisted via record_artifact.
  util::Json load_artifact(const std::string& rel_path) const;
  /// Whether a run-level artifact exists.
  bool has_artifact(const std::string& rel_path) const;

  /// Validate the whole commons tree: every record trail, snapshot, and
  /// training-state file must carry a valid frame (or be legacy unframed)
  /// and parse; corrupt files are moved to `<root>/quarantine/` (preserving
  /// their relative layout) and leftover `.tmp` staging files from crashed
  /// writers are deleted, so one truncated JSON can no longer kill a
  /// resume. FsckMode::kDeep additionally cross-checks every artifact
  /// against the manifest journal's size+CRC entries and repairs the
  /// journal. Returns what was dropped.
  FsckReport fsck(FsckMode mode = FsckMode::kQuick);

  const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path root_;
};

/// Zero-padded directory/file naming shared by tracker and commons.
std::string model_dir_name(int model_id);
std::string snapshot_file_name(std::size_t epoch);
std::string training_state_file_name(std::size_t epoch);
/// Name of the manifest journal inside the commons root.
std::string manifest_file_name();

/// Strictly parse `<prefix><digits><suffix>` names (e.g. "model_00042",
/// "epoch_0007.ckpt.json"). Returns nullopt — instead of atoi's silent 0 —
/// when the prefix/suffix do not match or the middle is not all digits, so
/// a stray `model_backup/` directory can never alias model 0.
std::optional<std::size_t> parse_indexed_name(std::string_view name,
                                              std::string_view prefix,
                                              std::string_view suffix);

/// Read an artifact file, verifying and stripping its integrity frame;
/// legacy unframed content is returned verbatim. Throws util::FrameError
/// on corruption and std::runtime_error when missing.
std::string read_artifact(const std::filesystem::path& path);

}  // namespace a4nn::lineage
