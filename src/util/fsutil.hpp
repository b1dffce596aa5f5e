// Thin filesystem helpers for the data commons (directory trees of JSON
// record trails and model snapshots).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace a4nn::util {

/// How hard write_file pushes a committed file toward stable storage.
enum class Durability {
  /// Flush to the OS page cache (default). The rename is atomic, so a
  /// process crash never tears the file — but a power cut after the
  /// rename can still lose or corrupt it.
  kBuffered,
  /// fdatasync the staged file before the rename and fsync the parent
  /// directory after it, so the committed file survives a power cut.
  /// Used for manifest-journal commits and training checkpoints.
  kFsync,
};

/// Create `dir` and all parents; no-op if it already exists.
void ensure_dir(const std::filesystem::path& dir);

/// Write `content` atomically (unique tmp file + rename) so a crashed run
/// never leaves a truncated record trail in the commons. The one-file case
/// of write_files.
void write_file(const std::filesystem::path& path, std::string_view content,
                Durability durability = Durability::kBuffered);

/// One file of a group commit.
struct FileWrite {
  std::filesystem::path path;
  std::string_view content;
};

/// Commit `files` behind one barrier: stage every file (unique tmp write,
/// fdatasync under kFsync), rename them all, then fsync each distinct
/// parent directory once. A crash before the renames leaves the whole
/// group uncommitted; a crash between renames leaves a prefix of it.
void write_files(const std::vector<FileWrite>& files,
                 Durability durability = Durability::kBuffered);

/// An append-only log, opened once with O_APPEND. Each append() issues
/// its bytes as one write and, under kFsync, fdatasyncs only this
/// descriptor; creating the file fsyncs its parent directory once. When
/// the path is atomically replaced under the open descriptor (a repair
/// pass rewrites the log), the next append reopens the path rather than
/// writing to the orphaned inode.
class AppendFile {
 public:
  AppendFile(std::filesystem::path path, Durability durability);
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Append `bytes` and make them durable. Throws std::runtime_error on a
  /// failed write or sync.
  void append(std::string_view bytes);

 private:
  void open();

  std::filesystem::path path_;
  Durability durability_;
  int fd_ = -1;
};

/// Read an entire file; throws std::runtime_error if missing, or if a
/// regular file yields fewer/more bytes than its stat size reports (short
/// reads on special or concurrently-truncated files).
std::string read_file(const std::filesystem::path& path);

/// Sorted list of regular files directly inside `dir` matching `extension`
/// (e.g. ".json"); empty extension matches everything. Sorting removes any
/// directory-iteration-order dependence from fsck reports and tests.
std::vector<std::filesystem::path> list_files(
    const std::filesystem::path& dir, const std::string& extension = "");

/// A unique, empty scratch directory under the system temp dir. The caller
/// owns cleanup (tests remove it; benches leave artifacts for inspection).
std::filesystem::path make_temp_dir(const std::string& prefix);

/// Crash-point fuzzing. Every staged file (write_file/write_files) and
/// every AppendFile::append crosses one numbered write boundary (a
/// process-global 1-based counter). When a crash point `k` is armed — via
/// set_crash_after_writes(k) or the A4NN_CRASH_AFTER_WRITES environment
/// variable — the process _exit(1)s at the k-th boundary: a staged file
/// dies before its group's renames (so writes 1..k-1 outside that group
/// survive intact and the group is torn: staged, never committed), an
/// append dies after its bytes are written and before they are synced.
/// Nothing later happens. This is exactly the on-disk state an OS crash
/// can leave, made deterministic so an acceptance test can sweep every k.
/// 0 disables. The programmatic setter counts k from the boundaries
/// already crossed at the call, so a forked child can arm its own crash
/// point.
void set_crash_after_writes(std::uint64_t k);

/// Write boundaries crossed so far in this process (counts attempts,
/// committed or not). Used by the fuzzer sweep to size its k range.
std::uint64_t write_op_count();

}  // namespace a4nn::util
