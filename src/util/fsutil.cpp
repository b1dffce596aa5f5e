#include "util/fsutil.hpp"

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace a4nn::util {

namespace fs = std::filesystem;

void ensure_dir(const fs::path& dir) { fs::create_directories(dir); }

namespace {

std::uint64_t crash_after_from_env() {
  const char* value = std::getenv("A4NN_CRASH_AFTER_WRITES");
  if (!value) return 0;
  std::uint64_t k = 0;
  std::from_chars(value, value + std::strlen(value), k);
  return k;
}

std::atomic<std::uint64_t> g_write_ops{0};
std::atomic<std::uint64_t> g_crash_after_writes{crash_after_from_env()};

// All raw I/O below retries on EINTR: the graceful-shutdown handlers
// (util/shutdown) are installed without SA_RESTART so blocking loops can
// observe the stop flag, which means any read/write/open/fsync here can
// return early when a signal lands. Without the retry, a short write of a
// framed artifact would later be reported by the CRC layer as corruption —
// a signal must never be able to manufacture a torn file.

int open_retry(const char* path, int flags, mode_t mode = 0) {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// Write all `size` bytes, resuming partial and EINTR-interrupted writes.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync (directories) or fdatasync (files) an open descriptor, retrying
/// EINTR; returns errno, 0 on success.
int sync_fd(int fd, bool directory) {
  int rc;
  do {
    rc = directory ? ::fsync(fd) : ::fdatasync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc == 0 ? 0 : errno;
}

/// Sync failures are real data-loss risks, so they throw instead of being
/// swallowed.
void throw_sync_error(const fs::path& path, int err) {
  throw std::runtime_error("write_file: sync failed for " + path.string() +
                           ": " + std::strerror(err));
}

/// fsync a directory (O_RDONLY is enough on Linux, and is the only way to
/// open one).
void sync_dir(const fs::path& path) {
  const int fd = open_retry(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0)
    throw std::runtime_error("write_file: cannot open for sync: " +
                             path.string());
  const int err = sync_fd(fd, /*directory=*/true);
  ::close(fd);
  if (err != 0) throw_sync_error(path, err);
}

}  // namespace

void set_crash_after_writes(std::uint64_t k) {
  // Relative to the boundaries already crossed: a test (or forked child
  // inheriting the parent's counter) arms "k more writes from now", which
  // matches the env var's meaning at process start when the counter is 0.
  g_crash_after_writes.store(k == 0 ? 0 : g_write_ops.load() + k);
}

std::uint64_t write_op_count() { return g_write_ops.load(); }

namespace {

/// Cross one write boundary; dies there when the armed crash point is
/// reached. >= (not ==) so that any write racing past the armed boundary
/// dies too; the process is already "dead".
void write_boundary() {
  const std::uint64_t boundary = g_write_ops.fetch_add(1) + 1;
  const std::uint64_t crash_k = g_crash_after_writes.load();
  if (crash_k > 0 && boundary >= crash_k) ::_exit(1);
}

}  // namespace

void write_file(const fs::path& path, std::string_view content,
                Durability durability) {
  write_files({{path, content}}, durability);
}

void write_files(const std::vector<FileWrite>& files, Durability durability) {
  // The temp name is unique per process AND per write so concurrent
  // writers to the same path never clobber each other's staging file; the
  // atomic rename then makes last-writer-wins well defined.
  static std::atomic<std::uint64_t> write_counter{0};
  std::vector<fs::path> staged;
  staged.reserve(files.size());
  const auto drop_staged = [&staged] {
    std::error_code rm;
    for (const auto& tmp : staged) fs::remove(tmp, rm);
  };
  for (const FileWrite& file : files) {
    if (file.path.has_parent_path()) ensure_dir(file.path.parent_path());
    const fs::path tmp = file.path.string() + ".tmp." +
                         std::to_string(::getpid()) + "." +
                         std::to_string(write_counter.fetch_add(1));
    const int fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      drop_staged();
      throw std::runtime_error("write_file: cannot open " + tmp.string());
    }
    staged.push_back(tmp);
    const bool ok = write_all(fd, file.content.data(), file.content.size());
    const int sync_err =
        ok && durability == Durability::kFsync ? sync_fd(fd, false) : 0;
    ::close(fd);
    if (!ok) {
      drop_staged();
      throw std::runtime_error("write_file: write failed " + tmp.string());
    }
    if (sync_err != 0) {
      drop_staged();
      throw_sync_error(tmp, sync_err);
    }
    // Crash-point fuzzing: die with the group staged but not committed —
    // the state a real crash leaves behind.
    write_boundary();
  }

  std::vector<fs::path> dirs;
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::error_code ec;
    fs::rename(staged[i], files[i].path, ec);
    if (ec) {
      std::error_code rm;
      for (std::size_t j = i; j < staged.size(); ++j) fs::remove(staged[j], rm);
      throw std::runtime_error("write_file: rename to " +
                               files[i].path.string() +
                               " failed: " + ec.message());
    }
    const fs::path dir = files[i].path.parent_path();
    if (!dir.empty() && std::find(dirs.begin(), dirs.end(), dir) == dirs.end())
      dirs.push_back(dir);
  }
  if (durability == Durability::kFsync)
    for (const auto& dir : dirs) sync_dir(dir);
}

AppendFile::AppendFile(fs::path path, Durability durability)
    : path_(std::move(path)), durability_(durability) {
  open();
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

void AppendFile::open() {
  std::error_code ec;
  const bool created = !fs::exists(path_, ec);
  fd_ = open_retry(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd_ < 0)
    throw std::runtime_error("AppendFile: cannot open " + path_.string());
  if (created && durability_ == Durability::kFsync && path_.has_parent_path())
    sync_dir(path_.parent_path());
}

void AppendFile::append(std::string_view bytes) {
  // A rename over the path leaves this descriptor on an unlinked inode.
  struct stat st {};
  if (::fstat(fd_, &st) == 0 && st.st_nlink == 0) {
    ::close(fd_);
    fd_ = -1;
    open();
  }
  if (!write_all(fd_, bytes.data(), bytes.size()))
    throw std::runtime_error("AppendFile: write failed for " + path_.string() +
                             ": " + std::strerror(errno));
  // Crash-point fuzzing: die with the bytes written but not yet synced.
  write_boundary();
  if (durability_ != Durability::kFsync) return;
  if (const int err = sync_fd(fd_, /*directory=*/false); err != 0)
    throw_sync_error(path_, err);
}

std::string read_file(const fs::path& path) {
  // Stat first: for regular files the byte count is the contract the read
  // must meet — a short read (special files, concurrent truncation) would
  // otherwise be returned as silently-valid shorter content.
  std::error_code stat_ec;
  const bool regular = fs::is_regular_file(path, stat_ec);
  std::uintmax_t expected = 0;
  if (regular) expected = fs::file_size(path, stat_ec);

  const int fd = open_retry(path.c_str(), O_RDONLY);
  if (fd < 0)
    throw std::runtime_error("read_file: cannot open " + path.string());
  std::string content;
  if (regular && !stat_ec) content.reserve(static_cast<std::size_t>(expected));
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved_errno = errno;
      ::close(fd);
      throw std::runtime_error("read_file: read failed for " + path.string() +
                               ": " + std::strerror(saved_errno));
    }
    if (n == 0) break;
    content.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  if (regular && !stat_ec && content.size() != expected)
    throw std::runtime_error(
        "read_file: size mismatch for " + path.string() + ": read " +
        std::to_string(content.size()) + " of " + std::to_string(expected) +
        " byte(s)");
  return content;
}

std::vector<fs::path> list_files(const fs::path& dir,
                                 const std::string& extension) {
  std::vector<fs::path> out;
  if (!fs::exists(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (!extension.empty() && entry.path().extension() != extension) continue;
    out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

fs::path make_temp_dir(const std::string& prefix) {
  static std::atomic<std::uint64_t> counter{0};
  const fs::path base = fs::temp_directory_path();
  for (;;) {
    fs::path candidate =
        base / (prefix + "-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter.fetch_add(1)));
    std::error_code ec;
    if (fs::create_directories(candidate, ec) && !ec) return candidate;
  }
}

}  // namespace a4nn::util
