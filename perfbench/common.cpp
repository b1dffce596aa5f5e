#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "latency/probe.hpp"
#include "lineage/tracker.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "util/fsutil.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace a = a4nn;

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(std::string what, std::uint64_t operations) {
  errors.push_back(std::move(what));
  failed += operations;
}

double Report::ok_frac() const {
  if (attempted == 0) return 0.0;
  const std::uint64_t bad = std::min(failed, attempted);
  return static_cast<double>(attempted - bad) / static_cast<double>(attempted);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

// ---- environment ----------------------------------------------------------

Json pin_environment() {
  // The library reads these lazily (tune table, intra-op pool, log level)
  // or at static initialization (crash-after-writes), so both the
  // variables and the process state they already set are overridden.
  ::unsetenv("A4NN_TUNE");
  ::unsetenv("A4NN_TRACE");
  ::unsetenv("A4NN_CRASH_AFTER_WRITES");
  ::unsetenv("A4NN_SCALE");
  ::setenv("A4NN_INTRA_OP_THREADS", "1", 1);
  ::setenv("A4NN_LOG_LEVEL", "warn", 1);
  a::tensor::clear_tuned_tile_configs();
  a::tensor::set_intra_op_threads(1);
  a::util::set_log_level(a::util::LogLevel::kWarn);
  a::util::set_crash_after_writes(0);
  a::util::trace::stop();
  a::util::trace::clear();

  Json env = Json::object();
  env["A4NN_TUNE"] = "unset (compiled GEMM defaults)";
  env["A4NN_INTRA_OP_THREADS"] =
      static_cast<double>(a::tensor::intra_op_threads());
  env["A4NN_LOG_LEVEL"] = "warn";
  env["A4NN_TRACE"] = "unset";
  env["A4NN_CRASH_AFTER_WRITES"] = "unset (0)";
  env["A4NN_SCALE"] = "unset";
  env["nproc"] = static_cast<double>(cpu_count());
  env["host_fingerprint"] = a::latency::host_fingerprint();
  return env;
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

WorkDir::WorkDir(const std::string& tag)
    : path_(fs::current_path() / ".bench_build" / "work" /
            (tag + "-" + std::to_string(::getpid()))) {
  fs::remove_all(path_);
  fs::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

fs::path WorkDir::fresh(const std::string& name) const {
  const fs::path dir = path_ / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- clocks and statistics ------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t repetitions(double seconds, double nominal_s) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / nominal_s)));
}

void SetupTimer::group() {
  const double t0 = now_s();
  for (std::size_t i = 0; i < per_group_; ++i) set_up_();
  per_set_up_s_.push_back((now_s() - t0) / static_cast<double>(per_group_));
}

double SetupTimer::finish() {
  while (per_set_up_s_.size() < kGroups) group();
  return median(per_set_up_s_);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// ---- seeded inputs --------------------------------------------------------

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) >> 11;  // fits a JSON double exactly
}

a::xfel::XfelDatasetConfig dataset_config(std::uint64_t seed,
                                          std::size_t images_per_class,
                                          a::xfel::BeamIntensity intensity) {
  a::xfel::XfelDatasetConfig cfg;
  cfg.intensity = intensity;
  cfg.images_per_class = images_per_class;
  cfg.detector.pixels = kPixels;
  cfg.seed = seed;
  return cfg;
}

a::xfel::XfelDataset generate_dataset(
    const a::xfel::XfelDatasetConfig& config) {
  a::util::trace::Scope span("xfel.generate", "bench");
  return a::xfel::generate_xfel_dataset(config);
}

a::nas::SearchSpaceConfig space_config() {
  a::nas::SearchSpaceConfig space;
  space.input_shape = {1, kPixels, kPixels};
  return space;
}

a::nas::Genome representative_genome() {
  const a::nas::SearchSpaceConfig space = space_config();
  a::util::Rng rng(20230807);
  return a::nas::random_genome(space.phase_count, space.nodes_per_phase, rng);
}

Champion train_champion(const a::xfel::XfelDataset& data,
                        std::uint64_t seed) {
  constexpr std::size_t kEpochs = 10;
  a::util::Rng init(seed);
  a::nn::Model model =
      a::nas::decode_genome(representative_genome(), space_config(), init);
  a::nn::Sgd opt(0.02, 0.9, 1e-4);
  a::util::Rng order(seed ^ 0x5bd1e995);
  Json best;
  std::size_t best_epoch = 0;
  double best_pct = -1.0;
  for (std::size_t e = 1; e <= kEpochs; ++e) {
    model.train_epoch(data.train, 32, opt, order);
    const double pct = model.evaluate(data.validation).accuracy;
    if (pct > best_pct) {
      best = model.checkpoint();
      best_epoch = e;
      best_pct = pct;
    }
  }
  return {a::nn::Model::from_checkpoint(best), best_epoch, best_pct};
}

void publish_champion(const fs::path& root, Champion& champion) {
  a::lineage::LineageTracker tracker(
      a::lineage::TrackerConfig{root, 1, /*durable=*/false});
  tracker.record_search_config(Json::object());
  tracker.record_model_epoch(0, champion.epoch, champion.model);
  a::nas::EvaluationRecord record;
  record.genome = representative_genome();
  record.model_id = 0;
  record.generation = 0;
  record.fitness = champion.fitness_pct;
  record.measured_fitness = champion.fitness_pct;
  record.flops = champion.model.flops_per_image();
  record.epochs_trained = champion.epoch;
  record.max_epochs = champion.epoch;
  tracker.record_evaluation(record);
}

std::uint64_t tree_bytes(const fs::path& root) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

// ---- trace analysis -------------------------------------------------------

TraceView TraceView::from(const Json& trace) {
  TraceView view;
  for (const Json& e : trace.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    const int pid = static_cast<int>(e.at("pid").as_number());
    const int tid = static_cast<int>(e.at("tid").as_number());
    if (ph == "X" && pid == a::util::trace::kHostPid) {
      view.spans.push_back({e.at("name").as_string(), tid,
                            e.at("ts").as_number(), e.at("dur").as_number()});
    } else if (ph == "i") {
      view.instants.push_back(
          {e.at("name").as_string(), pid, tid, e.at("ts").as_number()});
    }
  }
  return view;
}

std::vector<const Span*> TraceView::named(const std::string& name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(&s);
  return out;
}

double TraceView::total_ms(const std::string& name) const {
  double us = 0.0;
  for (const Span* s : named(name)) us += s->dur_us;
  return us / 1e3;
}

double TraceView::mean_ms(const std::string& name) const {
  const std::size_t n = named(name).size();
  return n ? total_ms(name) / static_cast<double>(n) : 0.0;
}

namespace {

/// One lane's time split into the innermost open span at each instant.
struct Segment {
  double begin = 0.0;
  double end = 0.0;
  const std::string* name = nullptr;
};

/// Spans of one lane nest (util::trace records scopes), so a sweep in
/// start order with a stack of open spans yields the innermost cover.
std::vector<Segment> innermost_segments(std::vector<const Span*> spans,
                                        double lo, double hi) {
  std::sort(spans.begin(), spans.end(), [](const Span* x, const Span* y) {
    return x->ts_us != y->ts_us ? x->ts_us < y->ts_us : x->dur_us > y->dur_us;
  });
  std::vector<Segment> out;
  std::vector<const Span*> stack;
  double cursor = lo;
  auto emit_until = [&](double t) {
    t = std::min(t, hi);
    if (t > cursor && !stack.empty())
      out.push_back({cursor, t, &stack.back()->name});
    cursor = std::max(cursor, t);
  };
  for (const Span* s : spans) {
    while (!stack.empty() && stack.back()->end_us() <= s->ts_us) {
      emit_until(stack.back()->end_us());
      stack.pop_back();
    }
    emit_until(s->ts_us);
    cursor = std::max(cursor, std::max(s->ts_us, lo));
    stack.push_back(s);
  }
  while (!stack.empty()) {
    emit_until(stack.back()->end_us());
    stack.pop_back();
  }
  return out;
}

}  // namespace

std::map<std::string, double> blocking_self_seconds(const TraceView& view,
                                                    const Span& root) {
  const double lo = root.ts_us;
  const double hi = root.end_us();
  std::map<int, std::vector<const Span*>> lanes;
  for (const Span& s : view.spans)
    if (s.end_us() > lo && s.ts_us < hi) lanes[s.tid].push_back(&s);

  std::vector<Segment> main_lane;
  std::vector<std::vector<Segment>> workers;
  std::vector<double> bounds = {lo, hi};
  for (auto& [tid, spans] : lanes) {
    std::vector<Segment> segs = innermost_segments(spans, lo, hi);
    for (const Segment& g : segs) {
      bounds.push_back(g.begin);
      bounds.push_back(g.end);
    }
    if (tid == root.tid) main_lane = std::move(segs);
    else workers.push_back(std::move(segs));
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Every lane's segments are sorted and disjoint, so one cursor per lane
  // finds the segment covering each elementary interval.
  std::map<std::string, double> out;
  std::vector<std::size_t> cursors(workers.size(), 0);
  std::size_t main_cursor = 0;
  auto covering = [](const std::vector<Segment>& segs, std::size_t& cur,
                     double t) -> const std::string* {
    while (cur < segs.size() && segs[cur].end <= t) ++cur;
    if (cur < segs.size() && segs[cur].begin <= t) return segs[cur].name;
    return nullptr;
  };
  std::vector<const std::string*> open;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const double t = bounds[i];
    const double width_s = (bounds[i + 1] - t) / 1e6;
    open.clear();
    for (std::size_t w = 0; w < workers.size(); ++w)
      if (const std::string* name = covering(workers[w], cursors[w], t))
        open.push_back(name);
    if (open.empty()) {
      const std::string* name = covering(main_lane, main_cursor, t);
      out[name ? *name : root.name] += width_s;
    } else {
      for (const std::string* name : open)
        out[*name] += width_s / static_cast<double>(open.size());
    }
  }
  return out;
}

double counter(const Json& snapshot, const std::string& name) {
  if (!snapshot.contains("counters")) return 0.0;
  return snapshot.at("counters").number_or(name, 0.0);
}

}  // namespace perfbench
