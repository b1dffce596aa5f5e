// search-serial and search-parallel: the A4NN search through
// core::A4nnWorkflow::run, with the prediction engine on and the fitness
// memo off. The serial form runs on one simulated device with a durable
// lineage commons that snapshots every epoch; the parallel form runs the
// same family on three simulated devices with lineage off.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "core/a4nn.hpp"
#include "host.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace a = a4nn;

namespace {

struct SearchShape {
  double nominal_s;  ///< one search's wall time on a 4-vCPU host
  std::size_t devices;
  std::size_t population;
  std::size_t offspring;
  std::size_t generations;
  bool lineage;
};

constexpr SearchShape kSerial{9.0, 1, 4, 4, 3, true};
constexpr SearchShape kParallel{5.8, 3, 8, 8, 3, false};
constexpr std::size_t kImagesPerClass = 40;
constexpr std::size_t kMaxEpochs = 25;
/// The search's inputs are one canonical low-intensity dataset: a search's
/// trajectory is chaotic in its data, so seeded datasets would make the
/// quality metrics, and with them the work done, differ from run to run.
constexpr std::uint64_t kDatasetSeed = 3;

a::core::WorkflowConfig workflow_config(const SearchShape& shape) {
  a::core::WorkflowConfig cfg;
  cfg.dataset = dataset_config(input_seed(kDatasetSeed, 1), kImagesPerClass,
                               a::xfel::BeamIntensity::kLow);
  cfg.nas.population_size = shape.population;
  cfg.nas.offspring_per_generation = shape.offspring;
  cfg.nas.generations = shape.generations;
  cfg.nas.max_epochs = kMaxEpochs;
  cfg.nas.space = space_config();
  cfg.trainer.max_epochs = kMaxEpochs;
  cfg.trainer.use_prediction_engine = true;
  cfg.trainer.engine.e_pred = static_cast<double>(kMaxEpochs);
  cfg.cluster.num_gpus = shape.devices;
  cfg.memo = a::nas::MemoMode::kOff;
  cfg.seed = 2023;
  return cfg;
}

struct Quality {
  double best_fitness_pct = 0.0;
  double epochs_saved_pct = 0.0;
  bool operator==(const Quality&) const = default;
};

Quality quality_of(const a::core::WorkflowResult& result) {
  const auto& history = result.search.history;
  return {a::analytics::fitness_summary(history).best,
          100.0 * a::analytics::epoch_savings(history).saved_fraction};
}

struct Rep {
  double wall_s = 0.0;
  a::core::WorkflowResult result;
};

/// One search on `data`; `commons` (when set) is a fresh directory for the
/// durable lineage commons. Checks the run's outputs into `report`.
Rep run_once(const SearchShape& shape, const a::core::WorkflowConfig& base,
             const a::xfel::XfelDataset& data,
             const std::optional<fs::path>& commons, Report& report) {
  a::core::WorkflowConfig cfg = base;
  if (commons)
    cfg.lineage = a::lineage::TrackerConfig{*commons, 1, /*durable=*/true};
  a::core::A4nnWorkflow workflow(cfg, data);
  Rep rep;
  const double t0 = now_s();
  {
    a::util::trace::Scope span("bench.search", "bench");
    rep.result = workflow.run();
  }
  rep.wall_s = now_s() - t0;

  const auto& summary = rep.result.summary;
  const std::size_t evaluations = rep.result.search.history.size();
  report.attempted += evaluations;
  if (summary.failed_evaluations > 0)
    report.fail(std::to_string(summary.failed_evaluations) +
                    " evaluation(s) failed",
                summary.failed_evaluations);
  report.check(evaluations == shape.population +
                                  shape.offspring * (shape.generations - 1),
               "unexpected evaluation count " + std::to_string(evaluations));
  if (commons) {
    a::lineage::DataCommons tree(*commons);
    const a::lineage::FsckReport fsck = tree.fsck(a::lineage::FsckMode::kDeep);
    report.check(fsck.clean(), "deep fsck of the commons is not clean");
    report.check(tree.load_records().size() == evaluations,
                 "commons does not hold every record");
  }
  return rep;
}

/// Device-idle seconds behind each generation barrier: for every
/// generation span, each device's time from its last job to the barrier.
double barrier_idle_s(const TraceView& view, std::size_t devices) {
  std::map<int, std::vector<const Span*>> jobs;  // per worker lane
  for (const Span* s : view.named("job.execute")) jobs[s->tid].push_back(s);
  double idle_us = 0.0;
  for (const Span* g : view.named("generation")) {
    std::size_t lanes_used = 0;
    for (const auto& [tid, spans] : jobs) {
      double last_end = -1.0;
      for (const Span* j : spans)
        if (j->ts_us >= g->ts_us && j->end_us() <= g->end_us() + 1.0)
          last_end = std::max(last_end, j->end_us());
      if (last_end < 0.0) continue;
      ++lanes_used;
      idle_us += std::max(0.0, g->end_us() - last_end);
    }
    if (lanes_used < devices)
      idle_us += static_cast<double>(devices - lanes_used) * g->dur_us;
  }
  return idle_us / 1e6;
}

/// Traced run: per-layer metrics from the program's own spans and
/// counters plus the benchmark's spans around its calls.
void traced(const SearchShape& shape, const a::core::WorkflowConfig& cfg,
            const a::xfel::XfelDataset& data, const WorkDir& work,
            double untraced_wall_s, const Quality& untraced,
            Report& report) {
  a::util::trace::start();
  generate_dataset(cfg.dataset);  // timed by its bench span
  std::optional<fs::path> commons;
  if (shape.lineage) commons = work.fresh("traced-commons");
  const Rep rep = run_once(shape, cfg, data, commons, report);
  a::util::trace::stop();
  const TraceView view = TraceView::from(a::util::trace::to_json());
  a::util::trace::clear();
  const Json& metrics = rep.result.summary.metrics;
  report.check(quality_of(rep.result) == untraced,
               "tracing changed the search's quality");

  const std::vector<const Span*> roots = view.named("bench.search");
  report.check(roots.size() == 1, "traced run lacks its bench.search span");
  if (roots.size() != 1) return;
  const Span& root = *roots.front();
  const double wall_s = root.dur_us / 1e6;
  const std::map<std::string, double> blocking =
      blocking_self_seconds(view, root);
  auto self_s = [&](const std::string& name) {
    const auto it = blocking.find(name);
    return it == blocking.end() ? 0.0 : it->second;
  };

  report.add("xfel.generate_s", view.mean_ms("xfel.generate") / 1e3, "s");
  report.add("trace.overhead_pct",
             100.0 * (rep.wall_s - untraced_wall_s) / untraced_wall_s, "%");
  report.add("orchestrator.epoch_train_ms", view.mean_ms("epoch.train"), "ms");
  report.add("orchestrator.epoch_eval_ms", view.mean_ms("epoch.eval"), "ms");
  report.add("orchestrator.epochs", counter(metrics, "train.epochs"), "count");
  report.add("penguin.fit_ms", view.mean_ms("engine.step"), "ms");
  report.add("penguin.fits", counter(metrics, "penguin.fits"), "count");
  report.add("penguin.lm_iterations", counter(metrics, "penguin.lm_iterations"),
             "count");
  report.add("penguin.early_terminated",
             counter(metrics, "train.early_terminated"), "count");
  report.add("sched.busy_frac",
             view.total_ms("job.execute") / 1e3 /
                 (static_cast<double>(shape.devices) * wall_s),
             "ratio");
  report.add("sched.barrier_idle_s", barrier_idle_s(view, shape.devices), "s");
  report.add("sched.virtual_idle_s",
             counter(metrics, "sched.idle_virtual_seconds"), "s");
  report.add("penguin.epochs_saved_pct", untraced.epochs_saved_pct, "%");
  report.add("nas.evaluations", counter(metrics, "nas.evaluations"), "count");
  report.add("nas.generation_self_ms", 1e3 * self_s("generation"), "ms");

  if (shape.lineage) {
    report.add("lineage.journal_commit_ms", view.mean_ms("journal.commit"),
               "ms");
    report.add("lineage.checkpoint_commit_ms",
               view.mean_ms("checkpoint.commit"), "ms");
    report.add("lineage.wall_share",
               (self_s("journal.commit") + self_s("checkpoint.commit")) /
                   wall_s,
               "ratio");
    report.add("lineage.bytes_written",
               static_cast<double>(tree_bytes(*commons)), "bytes");
  }

  // The checked stage breakdown: self times along the blocking path of the
  // search, which must account for the measured wall time. Where several
  // devices run at once, each instant is split evenly among them. Stages
  // are the program's spans; time under none of them is "unattributed",
  // and spans outside this list are summed as "other".
  static const char* const kStages[] = {
      "workflow.run",   "generation",  "job.execute",      "train.model",
      "train.epoch",    "epoch.train", "epoch.eval",       "engine.step",
      "engine.fit",     "checkpoint.commit", "journal.commit"};
  constexpr double kTolerance = 0.02;
  double stages_s = 0.0, other_s = 0.0;
  Json table = Json::object();
  for (const auto& [name, seconds] : blocking) {
    table[name] = seconds;
    if (name == root.name) continue;
    stages_s += seconds;
    if (std::find(std::begin(kStages), std::end(kStages), name) ==
        std::end(kStages))
      other_s += seconds;
  }
  for (const char* stage : kStages) {
    std::string metric = stage;
    std::replace(metric.begin(), metric.end(), '.', '_');
    report.add("blocking." + metric + "_s", self_s(stage), "s");
  }
  report.add("blocking.other_s", other_s, "s");
  report.add("blocking.unattributed_s", self_s(root.name), "s");
  report.add("blocking.sum_share", stages_s / rep.wall_s, "ratio");
  report.check(std::abs(stages_s - rep.wall_s) <= kTolerance * rep.wall_s,
               "blocking-path self times miss the search's wall time by "
               "over 2%");
  Json breakdown = Json::object();
  breakdown["self_seconds"] = table;
  breakdown["stages_sum_s"] = stages_s;
  breakdown["wall_s"] = rep.wall_s;
  breakdown["tolerance"] = kTolerance;
  report.context["blocking_breakdown"] = breakdown;
}

}  // namespace

Report run_search(const Options& opt, bool parallel) {
  const SearchShape& shape = parallel ? kParallel : kSerial;
  Report report;
  const a::core::WorkflowConfig cfg = workflow_config(shape);
  WorkDir work(parallel ? "search-parallel" : "search-serial");

  // Set-up is the dataset the search trains on, about 0.065 s, so each
  // timed group generates it 20 times.
  std::optional<a::xfel::XfelDataset> data;
  SetupTimer setup(20, [&] { data = generate_dataset(cfg.dataset); });
  setup.group();

  // With tracing on, the untraced searches are the overhead baseline.
  const std::size_t reps = repetitions(opt.seconds, shape.nominal_s);
  std::vector<double> walls;
  std::optional<Quality> quality;
  for (std::size_t i = 0; i < reps; ++i) {
    std::optional<fs::path> commons;
    if (shape.lineage) commons = work.fresh("commons");
    const Rep rep = run_once(shape, cfg, *data, commons, report);
    walls.push_back(rep.wall_s);
    const Quality q = quality_of(rep.result);
    if (quality) report.check(q == *quality, "search repeat changed quality");
    quality = q;
    if (i == (reps - 1) / 2) setup.group();
  }
  const double setup_s = setup.finish();

  Json protocol = Json::object();
  protocol["devices"] = static_cast<double>(shape.devices);
  protocol["networks"] = static_cast<double>(cfg.nas.total_networks());
  protocol["max_epochs"] = static_cast<double>(kMaxEpochs);
  protocol["images_per_class"] = static_cast<double>(kImagesPerClass);
  protocol["lineage"] = shape.lineage ? "durable, snapshot every epoch" : "off";
  protocol["setups"] = static_cast<double>(setup.set_ups());
  protocol["searches"] = static_cast<double>(walls.size());
  protocol["search_wall_s"] = Json(walls);
  report.context["protocol"] = protocol;

  if (opt.trace) {
    const HostPeaks peaks = measure_host_peaks(report);
    add_layer_metrics(peaks, cfg.trainer.batch_size, report);
    traced(shape, cfg, *data, work, median(walls), *quality, report);
    return report;
  }
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("ok_frac", report.ok_frac(), "ratio");
  report.add("throughput",
             static_cast<double>(cfg.nas.total_networks()) / median(walls),
             "1/s");
  report.add("quality_pct", quality->best_fitness_pct, "%");
  return report;
}

}  // namespace perfbench
