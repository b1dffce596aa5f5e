#include "lineage/tracker.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "nn/packed.hpp"
#include "util/checksum.hpp"
#include "util/frame.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace a4nn::lineage {

namespace fs = std::filesystem;

std::string model_dir_name(int model_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "model_%05d", model_id);
  return buf;
}

std::string snapshot_file_name(std::size_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "epoch_%04zu.ckpt.json", epoch);
  return buf;
}

std::string training_state_file_name(std::size_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "epoch_%04zu.state.json", epoch);
  return buf;
}

std::string manifest_file_name() { return "manifest.journal"; }

std::optional<std::size_t> parse_indexed_name(std::string_view name,
                                              std::string_view prefix,
                                              std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (!suffix.empty() && name.substr(name.size() - suffix.size()) != suffix)
    return std::nullopt;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::size_t value = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc{} || end != digits.data() + digits.size())
    return std::nullopt;
  return value;
}

std::string read_artifact(const fs::path& path) {
  return util::unframe_or_legacy(util::read_file(path)).payload;
}

std::string encode_training_state(
    const util::Json& doc,
    const std::vector<std::span<const float>>& velocity) {
  std::vector<nn::PackedSection> sections;
  sections.reserve(velocity.size());
  for (const auto& v : velocity) sections.push_back({{v.size()}, v});
  return nn::encode_packed(doc, sections);
}

TrainingState decode_training_state(std::string_view payload) {
  TrainingState out;
  if (nn::is_packed(payload)) {
    nn::PackedPayload packed = nn::decode_packed(payload);
    out.doc = std::move(packed.header);
    out.velocity = std::move(packed.sections);
  } else {
    out.doc = util::Json::parse(std::string(payload));
    if (out.doc.contains("optimizer") &&
        out.doc.at("optimizer").contains("velocity")) {
      util::Json& optimizer = out.doc["optimizer"];
      for (const auto& buffer : optimizer.at("velocity").as_array()) {
        std::vector<float> v;
        v.reserve(buffer.as_array().size());
        for (const auto& x : buffer.as_array())
          v.push_back(static_cast<float>(x.as_number()));
        const std::size_t n = v.size();
        out.velocity.emplace_back(tensor::Shape{n}, std::move(v));
      }
      optimizer.as_object().erase("velocity");
    }
  }
  for (const char* key : {"epoch", "rng", "optimizer", "record"})
    if (!out.doc.contains(key))
      throw util::JsonError(std::string("training state missing ") + key);
  return out;
}

namespace {

/// One committed artifact as recorded in the manifest journal.
struct ManifestEntry {
  std::string rel;        // path relative to the commons root
  std::uint64_t size = 0; // file size as stored (framed bytes)
  std::uint32_t crc = 0;  // CRC-32 of the file bytes as stored
};

/// Serialized form: `<crc32 of body, 8 hex> <body>` where body is
/// `<artifact crc, 8 hex> <size> <relative path>`. The leading line CRC
/// makes a torn or bit-flipped journal line deterministically detectable.
std::string manifest_line(const ManifestEntry& entry) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%08x %llu ", entry.crc,
                static_cast<unsigned long long>(entry.size));
  const std::string body = buf + entry.rel;
  char line_crc[12];
  std::snprintf(line_crc, sizeof(line_crc), "%08x ", util::crc32(body));
  return line_crc + body;
}

bool parse_manifest_line(std::string_view line, ManifestEntry& out) {
  // <8 hex line-crc> ' ' <8 hex artifact-crc> ' ' <size> ' ' <rel path>
  if (line.size() < 9 || line[8] != ' ') return false;
  std::uint32_t line_crc = 0;
  auto [lp, lec] = std::from_chars(line.data(), line.data() + 8, line_crc, 16);
  if (lec != std::errc{} || lp != line.data() + 8) return false;
  const std::string_view body = line.substr(9);
  if (util::crc32(body) != line_crc) return false;

  if (body.size() < 9 || body[8] != ' ') return false;
  std::uint32_t crc = 0;
  auto [cp, cec] = std::from_chars(body.data(), body.data() + 8, crc, 16);
  if (cec != std::errc{} || cp != body.data() + 8) return false;
  std::string_view rest = body.substr(9);

  std::uint64_t size = 0;
  auto [sp, sec] = std::from_chars(rest.data(), rest.data() + rest.size(), size);
  if (sec != std::errc{} || sp == rest.data() ||
      sp == rest.data() + rest.size() || *sp != ' ')
    return false;
  rest.remove_prefix(static_cast<std::size_t>(sp - rest.data()) + 1);
  if (rest.empty()) return false;

  out.rel = std::string(rest);
  out.size = size;
  out.crc = crc;
  return true;
}

/// Parse a journal image into entries (in append order), returning the
/// number of torn/malformed lines dropped. An unterminated final line is
/// torn by definition — a truncation can cut exactly at a line boundary.
std::size_t parse_manifest(std::string_view text,
                           std::vector<ManifestEntry>& out) {
  std::size_t torn = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool terminated = nl != std::string_view::npos;
    const std::string_view line =
        text.substr(pos, (terminated ? nl : text.size()) - pos);
    pos = terminated ? nl + 1 : text.size();
    if (line.empty()) continue;
    ManifestEntry entry;
    if (terminated && parse_manifest_line(line, entry))
      out.push_back(std::move(entry));
    else
      ++torn;
  }
  return torn;
}

/// Journal path of a file in a model's directory.
std::string model_file(int model_id, const std::string& name) {
  return "models/" + model_dir_name(model_id) + "/" + name;
}

/// The process's one lineage writer thread: every tracker queues its
/// epoch commits here and they run in call order. It starts with the first
/// commit and never stops, so tracker lifetimes do not churn threads (a
/// new thread can take a different allocator arena and grow the resident
/// set). A forked child inherits the object but not the thread, so it
/// builds its own.
class CommitWriter {
 public:
  CommitWriter() = default;
  CommitWriter(const CommitWriter&) = delete;
  CommitWriter& operator=(const CommitWriter&) = delete;

  static CommitWriter& instance() {
    static std::atomic<CommitWriter*> current{nullptr};
    CommitWriter* writer = current.load();
    if (writer == nullptr || writer->pid_ != ::getpid()) {
      auto* fresh = new CommitWriter();
      if (current.compare_exchange_strong(writer, fresh))
        writer = fresh;
      else
        delete fresh;  // another thread installed one first
    }
    return *writer;
  }

  /// Queue `job`; the future carries its completion or its exception.
  std::shared_future<void> submit(std::function<void()> job) {
    std::packaged_task<void()> task(std::move(job));
    std::shared_future<void> done = task.get_future().share();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!thread_.joinable()) thread_ = std::thread([this] { run(); });
      queue_.push_back(std::move(task));
    }
    ready_.notify_one();
    return done;
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      ready_.wait(lock, [this] { return !queue_.empty(); });
      std::packaged_task<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      task();
      lock.lock();
    }
  }

  const pid_t pid_ = ::getpid();
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::packaged_task<void()>> queue_;
  std::thread thread_;
};

}  // namespace

LineageTracker::LineageTracker(TrackerConfig config)
    : config_(std::move(config)) {
  if (config_.root.empty())
    throw std::invalid_argument("LineageTracker: empty root path");
  util::ensure_dir(config_.root);
  util::ensure_dir(config_.root / "models");
  const util::Durability durability = config_.durable
                                          ? util::Durability::kFsync
                                          : util::Durability::kBuffered;
  // Resume on an existing commons: appends supersede the surviving
  // entries. A torn or unterminated tail would swallow the next appended
  // line, so it is cut off once here by an atomic rewrite of the valid
  // lines.
  const fs::path journal = config_.root / manifest_file_name();
  if (fs::exists(journal)) {
    std::string text;
    try {
      text = util::read_file(journal);
    } catch (const std::exception& e) {
      util::log_warn("tracker: unreadable manifest journal (", e.what(), ")");
    }
    std::vector<ManifestEntry> entries;
    const std::size_t torn = parse_manifest(text, entries);
    if (torn > 0) {
      util::log_warn("tracker: dropped ", torn, " torn journal line(s)");
      std::string repaired;
      for (const auto& entry : entries) repaired += manifest_line(entry) + '\n';
      util::write_file(journal, repaired, durability);
    }
  }
  journal_ = std::make_unique<util::AppendFile>(journal, durability);
}

LineageTracker::~LineageTracker() {
  std::shared_future<void> last;
  {
    std::lock_guard<std::mutex> lock(queued_mutex_);
    last = last_queued_;
  }
  if (last.valid()) last.wait();
}

void LineageTracker::commit(const std::vector<Artifact>& artifacts,
                            util::Durability durability) {
  util::trace::Scope span("journal.commit", "lineage");
  if (!config_.durable) durability = util::Durability::kBuffered;
  std::vector<std::string> framed;
  framed.reserve(artifacts.size());
  std::string lines;
  double artifact_bytes = 0.0;
  for (const Artifact& artifact : artifacts) {
    framed.push_back(util::frame(artifact.payload));
    ManifestEntry entry;
    entry.rel = artifact.rel;
    entry.size = framed.back().size();
    entry.crc = util::crc32(framed.back());
    lines += manifest_line(entry) + '\n';
    artifact_bytes += static_cast<double>(entry.size);
  }
  std::vector<util::FileWrite> writes;
  for (std::size_t i = 0; i < artifacts.size(); ++i)
    writes.push_back({config_.root / artifacts[i].rel, framed[i]});

  std::lock_guard<std::mutex> lock(mutex_);
  // Artifacts before their journal lines: a crash in between leaves
  // framed, unjournaled files that fsck adopts.
  util::write_files(writes, durability);
  util::Timer journal_timer;
  journal_->append(lines);
  const double journal_write_seconds = journal_timer.seconds();

  if (metrics_) {
    metrics_->counter("journal.commits")
        .add(static_cast<double>(artifacts.size()));
    metrics_->counter("journal.bytes_written")
        .add(artifact_bytes + static_cast<double>(lines.size()));
    if (config_.durable)
      metrics_->counter("journal.fsync_seconds").add(journal_write_seconds);
  }
  span.arg("artifact_bytes", artifact_bytes);
  span.arg("journal_bytes", static_cast<double>(lines.size()));
  span.arg("journal_write_seconds", journal_write_seconds);
}

void LineageTracker::record_search_config(const util::Json& config) {
  if (sealed_.load()) return;
  commit({{"search.json", config.dump(2)}}, util::Durability::kBuffered);
}

void LineageTracker::record_artifact(const std::string& rel_path,
                                     const util::Json& doc) {
  if (sealed_.load()) return;
  if (rel_path.empty() || rel_path.find('/') != std::string::npos ||
      rel_path.find("..") != std::string::npos)
    throw std::invalid_argument(
        "record_artifact: rel_path must be a plain root-level file name");
  commit({{rel_path, doc.dump(2)}}, util::Durability::kBuffered);
}

bool LineageTracker::wants_snapshot(std::size_t epoch) const {
  return config_.snapshot_every > 0 && epoch % config_.snapshot_every == 0;
}

void LineageTracker::record_model_epoch(int model_id, std::size_t epoch,
                                        const nn::Model& model) {
  if (sealed_.load()) return;
  commit({{model_file(model_id, snapshot_file_name(epoch)),
           model.encode_checkpoint()}},
         util::Durability::kFsync);
}

std::shared_future<void> LineageTracker::record_epoch(
    int model_id, std::size_t epoch, const nn::Model& model,
    const util::Json& state,
    const std::vector<std::span<const float>>& velocity) {
  if (sealed_.load()) {
    std::promise<void> dropped;
    dropped.set_value();
    return dropped.get_future().share();
  }
  std::vector<Artifact> artifacts = {
      {model_file(model_id, snapshot_file_name(epoch)),
       model.encode_checkpoint()},
      {model_file(model_id, training_state_file_name(epoch)),
       encode_training_state(state, velocity)}};
  std::lock_guard<std::mutex> lock(queued_mutex_);
  last_queued_ = CommitWriter::instance().submit(
      [this, artifacts = std::move(artifacts)] {
        // Sealed: the process is "dead", so queued writes vanish too.
        if (!sealed_.load()) commit(artifacts, util::Durability::kFsync);
      });
  return last_queued_;
}

void LineageTracker::record_evaluation(const nas::EvaluationRecord& record) {
  if (sealed_.load()) return;
  commit({{model_file(record.model_id, "record.json"),
           record.to_json().dump(2)}},
         util::Durability::kBuffered);
}

DataCommons::DataCommons(fs::path root) : root_(std::move(root)) {
  if (!fs::exists(root_ / "models"))
    throw std::invalid_argument("DataCommons: " + root_.string() +
                                " is not a commons tree");
}

util::Json DataCommons::search_config() const {
  return util::Json::parse(read_artifact(root_ / "search.json"));
}

std::vector<int> DataCommons::model_ids() const {
  std::vector<int> ids;
  for (const auto& entry : fs::directory_iterator(root_ / "models")) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    const auto id = parse_indexed_name(name, "model_", "");
    if (!id) {
      util::log_warn("commons: ignoring non-model directory models/", name);
      continue;
    }
    ids.push_back(static_cast<int>(*id));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<nas::EvaluationRecord> DataCommons::load_records() const {
  std::vector<nas::EvaluationRecord> records;
  for (int id : model_ids()) {
    const fs::path path = root_ / "models" / model_dir_name(id) / "record.json";
    if (!fs::exists(path)) continue;
    records.push_back(nas::EvaluationRecord::from_json(
        util::Json::parse(read_artifact(path))));
  }
  return records;
}

namespace {

std::vector<std::size_t> epochs_with_suffix(const fs::path& dir,
                                            const std::string& suffix) {
  std::vector<std::size_t> epochs;
  for (const auto& file : util::list_files(dir)) {
    const auto epoch =
        parse_indexed_name(file.filename().string(), "epoch_", suffix);
    if (epoch) epochs.push_back(*epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

}  // namespace

std::vector<std::size_t> DataCommons::snapshot_epochs(int model_id) const {
  return epochs_with_suffix(root_ / "models" / model_dir_name(model_id),
                            ".ckpt.json");
}

std::vector<std::size_t> DataCommons::training_state_epochs(
    int model_id) const {
  return epochs_with_suffix(root_ / "models" / model_dir_name(model_id),
                            ".state.json");
}

nn::Model DataCommons::load_model(int model_id, std::size_t epoch) const {
  const fs::path path =
      root_ / "models" / model_dir_name(model_id) / snapshot_file_name(epoch);
  return nn::Model::decode_checkpoint(read_artifact(path));
}

TrainingState DataCommons::load_training_state(int model_id,
                                               std::size_t epoch) const {
  const fs::path path = root_ / "models" / model_dir_name(model_id) /
                        training_state_file_name(epoch);
  return decode_training_state(read_artifact(path));
}

util::Json DataCommons::load_artifact(const std::string& rel_path) const {
  return util::Json::parse(read_artifact(root_ / rel_path));
}

bool DataCommons::has_artifact(const std::string& rel_path) const {
  return fs::exists(root_ / rel_path);
}

namespace {

/// Move a corrupt file into <root>/quarantine/<relative path>, recording
/// the reason. Never throws: fsck must make progress past any breakage.
void quarantine_file(const fs::path& root, const fs::path& file,
                     const std::string& reason, FsckReport& report) {
  const fs::path rel = fs::relative(file, root);
  const fs::path target = root / "quarantine" / rel;
  std::error_code ec;
  fs::create_directories(target.parent_path(), ec);
  fs::rename(file, target, ec);
  if (ec) fs::remove(file, ec);  // cross-device or racing writer: drop it
  report.issues.push_back({rel, reason});
  ++report.files_quarantined;
  util::log_warn("fsck: quarantined ", rel.string(), " (", reason, ")");
}

}  // namespace

FsckReport DataCommons::fsck(FsckMode mode) {
  FsckReport report;
  report.deep = mode == FsckMode::kDeep;

  // Leftover staging files from crashed writers anywhere in the tree.
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root_, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file()) continue;
    const std::string name = it->path().filename().string();
    if (name.find(".tmp") != std::string::npos) {
      std::error_code rm;
      fs::remove(it->path(), rm);
      if (!rm) ++report.tmp_files_removed;
    }
  }

  const fs::path search = root_ / "search.json";
  if (fs::exists(search)) {
    try {
      util::Json::parse(read_artifact(search));
    } catch (const std::exception& e) {
      quarantine_file(root_, search, e.what(), report);
    }
  }

  for (int id : model_ids()) {
    ++report.models_scanned;
    const fs::path dir = root_ / "models" / model_dir_name(id);

    const fs::path record = dir / "record.json";
    if (fs::exists(record)) {
      try {
        nas::EvaluationRecord::from_json(
            util::Json::parse(read_artifact(record)));
        ++report.records_valid;
      } catch (const std::exception& e) {
        quarantine_file(root_, record, e.what(), report);
      }
    }

    for (const auto& file : util::list_files(dir, ".json")) {
      const std::string name = file.filename().string();
      if (name.rfind("epoch_", 0) != 0) continue;
      try {
        // The same decoders every reader uses, so a file fsck keeps is a
        // file resume, serve and stream can load, in either format.
        const std::string payload = read_artifact(file);
        if (name.ends_with(".ckpt.json"))
          nn::Model::decode_checkpoint(payload);
        else if (name.ends_with(".state.json"))
          decode_training_state(payload);
        else
          util::Json::parse(payload);
      } catch (const std::exception& e) {
        quarantine_file(root_, file, e.what(), report);
      }
    }
  }

  if (mode == FsckMode::kDeep) {
    IntegrityReport& integrity = report.integrity;

    // Relative paths already dealt with by the parse-level pass above —
    // their journal entries are dropped silently, not re-reported.
    std::set<std::string> handled;
    for (const auto& issue : report.issues)
      handled.insert(issue.path.generic_string());

    // Every artifact surviving on disk, keyed by its journal-relative path.
    // Root-level .json files cover search.json plus run-level artifacts
    // committed via record_artifact (memo_index.json, table.json, ...).
    std::map<std::string, fs::path> disk;
    for (const auto& file : util::list_files(root_, ".json"))
      disk[file.filename().string()] = file;
    for (int id : model_ids()) {
      const fs::path dir = root_ / "models" / model_dir_name(id);
      for (const auto& file : util::list_files(dir, ".json")) {
        const std::string name = file.filename().string();
        if (name != "record.json" &&
            !parse_indexed_name(name, "epoch_", ".ckpt.json") &&
            !parse_indexed_name(name, "epoch_", ".state.json"))
          continue;
        disk[fs::relative(file, root_).generic_string()] = file;
      }
    }

    // Load the journal; torn lines are dropped and counted.
    const fs::path journal_path = root_ / manifest_file_name();
    const bool have_journal = fs::exists(journal_path);
    std::vector<ManifestEntry> entries;
    if (have_journal) {
      std::string text;
      try {
        text = util::read_file(journal_path);
      } catch (const std::exception& e) {
        util::log_warn("fsck: unreadable manifest journal (", e.what(), ")");
      }
      integrity.journal_torn_lines = parse_manifest(text, entries);
      if (integrity.journal_torn_lines > 0)
        report.issues.push_back({manifest_file_name(),
                                 std::to_string(integrity.journal_torn_lines) +
                                     " torn journal line(s) repaired"});
    }
    std::map<std::string, ManifestEntry> manifest;
    for (auto& entry : entries) manifest[entry.rel] = std::move(entry);
    integrity.journal_entries = manifest.size();

    bool changed = integrity.journal_torn_lines > 0;
    for (auto it = manifest.begin(); it != manifest.end();) {
      const auto found = disk.find(it->first);
      if (found == disk.end()) {
        if (!handled.count(it->first)) {
          ++integrity.missing_files;
          report.issues.push_back(
              {it->first, "journaled artifact missing on disk"});
          util::log_warn("fsck: journaled artifact missing: ", it->first);
        }
        it = manifest.erase(it);
        changed = true;
        continue;
      }
      std::string bytes;
      try {
        bytes = util::read_file(found->second);
      } catch (const std::exception&) {
        bytes.clear();
      }
      if (bytes.size() != it->second.size ||
          util::crc32(bytes) != it->second.crc) {
        quarantine_file(root_, found->second,
                        "size/crc mismatch against manifest journal", report);
        ++integrity.crc_mismatches;
        disk.erase(found);
        it = manifest.erase(it);
        changed = true;
        continue;
      }
      ++integrity.files_verified;
      disk.erase(found);
      ++it;
    }

    // Artifacts on disk the journal does not know: a crash between an
    // artifact commit and its journal append (framed — adopt and report),
    // or a legacy pre-framing tree (unframed — adopt silently).
    for (const auto& [rel, path] : disk) {
      std::string bytes;
      try {
        bytes = util::read_file(path);
      } catch (const std::exception&) {
        continue;
      }
      if (util::is_framed(bytes)) {
        ++integrity.unjournaled_adopted;
        report.issues.push_back({rel, "artifact missing from journal; adopted"});
        util::log_warn("fsck: adopted unjournaled artifact ", rel);
      } else {
        ++integrity.legacy_unframed;
      }
      ManifestEntry entry;
      entry.rel = rel;
      entry.size = bytes.size();
      entry.crc = util::crc32(bytes);
      manifest[rel] = std::move(entry);
      changed = true;
    }

    if (changed && (!manifest.empty() || have_journal)) {
      std::string text;
      for (const auto& [rel, entry] : manifest) {
        text += manifest_line(entry);
        text += '\n';
      }
      util::write_file(journal_path, text, util::Durability::kFsync);
      integrity.journal_rewritten = true;
    }
  }
  return report;
}

}  // namespace a4nn::lineage
