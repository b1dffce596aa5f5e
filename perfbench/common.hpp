// Shared plumbing of the end-to-end benchmark: the report every workload
// fills in, environment pinning, the seeded inputs and champion, small
// statistics helpers, and the analysis that turns a recorded trace into
// per-layer numbers. Nothing here changes how the program runs; the
// benchmark only calls its public entry points.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "nas/genome.hpp"
#include "nas/search_space.hpp"
#include "nn/model.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "xfel/dataset.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using a4nn::util::Json;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produces. `metrics` holds the end-to-end metrics
/// of an untraced run, or the per-layer metrics of a traced one.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::vector<Metric> metrics;
  /// Printed as one "context" line before the result: environment,
  /// protocol sizes, and tables that are not metrics.
  Json context = Json::object();

  void add(std::string name, double value, std::string unit);
  /// Records a failed correctness check covering `operations` failed
  /// operations; the run then exits nonzero.
  void fail(std::string what, std::uint64_t operations = 1);
  /// Operations that succeeded over operations attempted.
  double ok_frac() const;
  /// fail(what) unless `ok`.
  void check(bool ok, const std::string& what);
};

// ---- environment ----------------------------------------------------------

/// Overrides every A4NN_* variable that changes the measured program, and
/// pins the matching process state: compiled GEMM tile defaults (no tune
/// table), 1 intra-op thread, warn-level logs, tracing off, no injected
/// crash. Returns the resolved values plus nproc and the host fingerprint.
Json pin_environment();

/// CPUs this process may run on.
std::size_t cpu_count();

/// Peak resident set of this process so far (MB).
double peak_rss_mb();

/// A fresh directory under <cwd>/.bench_build/work, removed on destruction.
class WorkDir {
 public:
  explicit WorkDir(const std::string& tag);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const fs::path& path() const { return path_; }
  /// A fresh, empty subdirectory.
  fs::path fresh(const std::string& name) const;

 private:
  fs::path path_;
};

// ---- clocks and statistics ------------------------------------------------

double now_s();  ///< steady-clock seconds
/// How many repetitions of a phase that nominally takes `nominal_s` fill a
/// run of `seconds`: at least one, and the same for the same arguments, so
/// the work done never depends on how fast the host happened to be.
std::size_t repetitions(double seconds, double nominal_s);
/// Times a workload's set-up in kGroups regions of back-to-back set-ups,
/// each a second or more, one at the start of the run, one mid-run and one
/// at the end. One set-up is shorter than a second and reads up to 20%
/// apart from the next in the same process on a shared host, and the host's
/// speed drifts over tens of seconds, so a single region at the start
/// would measure the moment more than the code.
class SetupTimer {
 public:
  static constexpr std::size_t kGroups = 3;
  SetupTimer(std::size_t per_group, std::function<void()> set_up)
      : per_group_(per_group), set_up_(std::move(set_up)) {}
  /// One timed region of `per_group` set-ups.
  void group();
  /// Runs the groups still missing; returns the median over groups of the
  /// mean seconds per set-up.
  double finish();
  std::size_t set_ups() const { return per_set_up_s_.size() * per_group_; }

 private:
  std::size_t per_group_;
  std::function<void()> set_up_;
  std::vector<double> per_set_up_s_;  ///< one entry per group
};
using a4nn::util::median;  // throws on empty input
/// Nearest-rank quantile (q in [0,1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

// ---- seeded inputs --------------------------------------------------------

/// Detector side of every workload (16x16 images, 2 conformations).
inline constexpr std::size_t kPixels = 16;

/// Seed of the benchmark's inputs, derived from --seed and a stream tag so
/// workloads never share a random stream by accident.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream);

a4nn::xfel::XfelDatasetConfig dataset_config(
    std::uint64_t seed, std::size_t images_per_class,
    a4nn::xfel::BeamIntensity intensity);
/// xfel::generate_xfel_dataset under the benchmark span "xfel.generate".
a4nn::xfel::XfelDataset generate_dataset(
    const a4nn::xfel::XfelDatasetConfig& config);

/// Search space at the benchmark geometry (3 phases x 4 nodes, 16x16).
a4nn::nas::SearchSpaceConfig space_config();
/// The benchmark's representative architecture: one fixed genome of the
/// search space, the same for every seed, so per-layer numbers compare.
a4nn::nas::Genome representative_genome();

struct Champion {
  a4nn::nn::Model model;
  std::size_t epoch = 0;        ///< epoch whose weights were kept
  double fitness_pct = 0.0;     ///< validation accuracy at that epoch
};

/// Decode the representative genome and train it on `data` (SGD, batch
/// 32), keeping the weights of the epoch with the best validation accuracy
/// of 10 — training this small net is noisy from epoch to epoch. The
/// champion served by the serve and stream workloads; deterministic in
/// (data, seed), and the same amount of work for every seed.
Champion train_champion(const a4nn::xfel::XfelDataset& data,
                        std::uint64_t seed);

/// Write the champion into a fresh commons at `root` as model 0 with its
/// record, so serve::ModelRegistry can publish it.
void publish_champion(const fs::path& root, Champion& champion);

/// Total bytes of the regular files under `root`.
std::uint64_t tree_bytes(const fs::path& root);

// ---- trace analysis -------------------------------------------------------

struct Span {
  std::string name;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double end_us() const { return ts_us + dur_us; }
};

struct Instant {
  std::string name;
  int pid = 0;
  int tid = 0;
  double ts_us = 0.0;
};

/// Complete spans and instant events of a util::trace::to_json() document.
struct TraceView {
  std::vector<Span> spans;  ///< host pid only
  std::vector<Instant> instants;

  static TraceView from(const Json& trace);
  std::vector<const Span*> named(const std::string& name) const;
  /// Sum and mean duration (ms) of the host spans called `name`.
  double total_ms(const std::string& name) const;
  double mean_ms(const std::string& name) const;
};

/// Blocking-path attribution of [root.ts, root.end): at each instant the
/// time goes to the innermost span of every worker lane that has one open
/// (split evenly when several do), otherwise to the innermost span on the
/// root's own lane. The result sums to the root's duration; the root's
/// own share is time no program span accounts for. Seconds per span name.
std::map<std::string, double> blocking_self_seconds(const TraceView& view,
                                                    const Span& root);

/// The program's metrics-registry counter `name` in a snapshot, or 0.
double counter(const Json& snapshot, const std::string& name);

}  // namespace perfbench
