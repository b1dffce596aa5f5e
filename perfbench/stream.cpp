// stream: unpaced stream::StreamScenario::run with deterministic swap on a
// trained champion. Half-way through, the beamline's labels rotate; the
// drift monitor fires, recovery fine-tunes and hot-swaps the champion, and
// the pump is held at the trigger's window until the swap lands. Serving
// here is closed-loop under queue backpressure.
#include <malloc.h>

#include <algorithm>
#include <optional>

#include "host.hpp"
#include "lineage/tracker.hpp"
#include "serve/registry.hpp"
#include "stream/journal.hpp"
#include "stream/scenario.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace a = a4nn;

namespace {

constexpr std::size_t kImagesPerClass = 64;
constexpr std::size_t kFrames = 6144;
constexpr std::size_t kWindowFrames = 64;
constexpr std::size_t kDriftAt = kFrames / 2;
constexpr a4nn::xfel::BeamIntensity kIntensity =
    a4nn::xfel::BeamIntensity::kMedium;
/// The stream's inputs (champion data, beamline frames) are canonical, so
/// accuracy and recovery windows read the same in every run.
constexpr std::uint64_t kInputSeed = 7;

/// Dataset, champion training and publish, registry refresh. Returns the
/// champion's validation accuracy.
double set_up(const fs::path& commons) {
  const a::xfel::XfelDataset data = generate_dataset(
      dataset_config(input_seed(kInputSeed, 3), kImagesPerClass, kIntensity));
  Champion champion = train_champion(data, input_seed(kInputSeed, 4));
  publish_champion(commons, champion);
  a::serve::ModelRegistry registry(a::serve::RegistryConfig{commons});
  registry.refresh();
  return champion.fitness_pct;
}

a::stream::StreamConfig stream_config(const fs::path& commons,
                                      a::util::metrics::Registry* metrics) {
  a::stream::StreamConfig cfg;
  cfg.commons_root = commons;
  cfg.seed = input_seed(kInputSeed, 5);
  cfg.metrics = metrics;
  cfg.deterministic_swap = true;
  cfg.producer.total_frames = kFrames;
  cfg.producer.rate_hz = 0.0;  // unpaced: no sleep-based pacing
  // The beamline images the same protein the champion was trained on.
  cfg.producer.dataset =
      dataset_config(input_seed(kInputSeed, 3), 0, kIntensity);
  a::stream::PhaseSpec rotated;
  rotated.start_frame = kDriftAt;
  rotated.label_rotation = 1;
  rotated.intensity = kIntensity;
  a::stream::PhaseSpec steady = rotated;
  steady.start_frame = 0;
  steady.label_rotation = 0;
  cfg.producer.phases = {steady, rotated};
  cfg.drift.window_frames = kWindowFrames;
  cfg.drift.num_classes = cfg.producer.dataset.conformations;
  // 256 histogram bins over 25 ms: per-window p99 resolves ~0.1 ms.
  cfg.drift.latency_hi_ms = 25.0;
  // The fine-tune buffer holds exactly the two drifted windows that fire
  // the trigger (sustain_windows 2), so recovery never trains on pre-
  // rotation labels; with 12 epochs at 0.02 one trigger recovers.
  cfg.recovery.buffer_frames = 2 * kWindowFrames;
  cfg.recovery.finetune_epochs = 12;
  cfg.recovery.learning_rate = 0.02;
  cfg.engine.max_batch = 8;
  cfg.engine.max_delay_ms = 2.0;
  cfg.engine.workers = 2;
  return cfg;
}

struct Rep {
  double wall_s = 0.0;
  a::stream::StreamResult result;
};

Rep run_once(const fs::path& genesis, const fs::path& dir,
             a::util::metrics::Registry* metrics, Report& report) {
  fs::copy(genesis, dir, fs::copy_options::recursive);
  a::stream::StreamScenario scenario(stream_config(dir, metrics));
  Rep rep;
  const double t0 = now_s();
  {
    a::util::trace::Scope span("bench.stream", "bench");
    rep.result = scenario.run();
  }
  rep.wall_s = now_s() - t0;

  const a::stream::StreamResult& r = rep.result;
  report.attempted += r.frames_produced;
  const std::size_t lost = r.frames_produced - std::min(r.frames_produced,
                                                        r.frames_served);
  if (lost > 0)
    report.fail(std::to_string(lost) + " frame(s) produced but not served",
                lost);
  report.check(r.frames_produced == kFrames,
               "producer did not emit every frame");
  report.check(!r.aborted && !r.degraded && !r.interrupted,
               "stream run aborted, degraded or was interrupted");
  report.check(r.triggers_fired > 0, "the label rotation fired no trigger");
  report.check(r.triggers_completed == r.triggers_fired,
               "triggers_completed != triggers_fired");
  a::stream::TriggerJournal journal(dir / "stream.journal", /*durable=*/false);
  report.check(journal.torn_lines() == 0, "trigger journal has torn lines");
  report.check(journal.text() == r.journal_text,
               "trigger journal on disk differs from the run's image");
  for (const auto& [id, action] : journal.actions())
    report.check(action.state == a::stream::ActionState::kCompleted,
                 "journaled action " + std::to_string(id) + " not completed");
  a::lineage::DataCommons commons(dir);
  report.check(commons.fsck(a::lineage::FsckMode::kDeep).clean(),
               "deep fsck of the stream commons is not clean");
  return rep;
}

/// Windows from the one holding the rotation until accuracy is back at or
/// above the re-arm threshold.
std::size_t recovery_windows(const a::stream::StreamResult& r,
                             double rearm_above) {
  const std::size_t onset = kDriftAt / kWindowFrames;
  for (const a::stream::WindowStats& w : r.window_history)
    if (w.index > onset && w.accuracy >= rearm_above) return w.index - onset;
  return r.window_history.size();
}

/// Median per-window p99 over windows outside [onset, recovered).
double steady_p99_ms(const a::stream::StreamResult& r, double rearm_above) {
  const std::size_t onset = kDriftAt / kWindowFrames;
  const std::size_t back = onset + recovery_windows(r, rearm_above);
  std::vector<double> p99;
  for (const a::stream::WindowStats& w : r.window_history)
    if (w.index < onset || w.index >= back) p99.push_back(w.p99_latency_ms);
  return median(p99);
}

}  // namespace

Report run_stream(const Options& opt) {
  Report report;
  WorkDir work("stream");
  const fs::path genesis = work.path() / "genesis";
  // One set-up takes about 0.7 s, so each timed group runs two.
  SetupTimer setup(2, [&] {
    report.context["champion_fitness_pct"] = set_up(work.fresh("genesis"));
  });
  setup.group();
  const double rearm = a::stream::DriftConfig{}.rearm_above;

  double rss_mb = 0.0;
  std::vector<double> fps, p99;
  std::size_t served = 0, produced = 0;
  bool broken = false;  // any run aborted or degraded
  std::optional<double> accuracy;
  std::optional<std::size_t> windows;
  // With tracing on, the untraced runs are the overhead baseline.
  const std::size_t reps = repetitions(opt.seconds, 1.3);
  for (std::size_t i = 0; i < reps; ++i) {
    // Hand freed memory back before each run, so peak RSS is one run's peak
    // rather than what the allocator's arenas kept from set-up and from
    // earlier runs' threads.
    ::malloc_trim(0);
    const fs::path dir = work.path() / ("run-" + std::to_string(i));
    const Rep rep = run_once(genesis, dir, nullptr, report);
    served += rep.result.frames_served;
    produced += rep.result.frames_produced;
    broken = broken || rep.result.aborted || rep.result.degraded;
    fps.push_back(static_cast<double>(rep.result.frames_served) / rep.wall_s);
    p99.push_back(steady_p99_ms(rep.result, rearm));
    const std::size_t w = recovery_windows(rep.result, rearm);
    if (accuracy)
      report.check(*accuracy == rep.result.accuracy_overall && *windows == w,
                   "stream repeat changed accuracy or recovery windows");
    accuracy = rep.result.accuracy_overall;
    windows = w;
    std::vector<double> window_accuracy;
    for (const a::stream::WindowStats& ws : rep.result.window_history)
      window_accuracy.push_back(ws.accuracy);
    report.context["window_accuracy_pct"] = Json(window_accuracy);
    report.context["triggers_fired"] =
        static_cast<double>(rep.result.triggers_fired);
    fs::remove_all(dir);
    if (i == (reps - 1) / 2) {
      // Peak RSS covers set-up and the first half of the runs; later runs
      // repeat them. A set-up that follows stream runs lands on what the
      // allocator kept from their threads, which moved peak RSS between
      // 24 and 33 MB from run to run.
      rss_mb = peak_rss_mb();
      setup.group();
    }
  }
  const double setup_s = setup.finish();

  Json protocol = Json::object();
  protocol["frames"] = static_cast<double>(kFrames);
  protocol["window_frames"] = static_cast<double>(kWindowFrames);
  protocol["drift_at_frame"] = static_cast<double>(kDriftAt);
  protocol["setups"] = static_cast<double>(setup.set_ups());
  protocol["runs"] = static_cast<double>(reps);
  protocol["fps"] = Json(fps);
  report.context["protocol"] = protocol;

  if (opt.trace) {
    a::util::metrics::Registry metrics;
    a::util::trace::start();
    set_up(work.fresh("genesis"));
    const Rep rep = run_once(genesis, work.path() / "run-traced",
                             &metrics, report);
    a::util::trace::stop();
    const TraceView view = TraceView::from(a::util::trace::to_json());
    a::util::trace::clear();
    const HostPeaks peaks = measure_host_peaks(report);
    add_layer_metrics(peaks, 8, report);

    // Recovery time: each trigger.fired instant to the next completion on
    // the stream trace lanes.
    std::vector<double> fired, completed;
    for (const Instant& e : view.instants) {
      if (e.pid != a::util::trace::kStreamPid) continue;
      if (e.name == "trigger.fired") fired.push_back(e.ts_us);
      if (e.name == "trigger.completed") completed.push_back(e.ts_us);
    }
    std::sort(fired.begin(), fired.end());
    std::sort(completed.begin(), completed.end());
    std::vector<double> recovery_ms;
    for (std::size_t i = 0; i < std::min(fired.size(), completed.size()); ++i)
      recovery_ms.push_back((completed[i] - fired[i]) / 1e3);

    report.check(rep.result.accuracy_overall == *accuracy,
                 "tracing changed the stream's accuracy");
    const double traced_fps =
        static_cast<double>(rep.result.frames_served) / rep.wall_s;
    report.add("xfel.generate_s", view.mean_ms("xfel.generate") / 1e3, "s");
    report.add("serve.registry_refresh_ms", view.mean_ms("registry.refresh"),
               "ms");
    report.add("stream.recovery_ms",
               recovery_ms.empty() ? 0.0 : median(recovery_ms), "ms");
    report.add("stream.triggers_fired",
               static_cast<double>(rep.result.triggers_fired), "count");
    report.add("stream.triggers_completed",
               static_cast<double>(rep.result.triggers_completed), "count");
    report.add("stream.windows", static_cast<double>(rep.result.windows),
               "count");
    report.add("stream.window_p99_ms", median(p99), "ms");
    report.add("stream.recovery_windows", static_cast<double>(*windows),
               "windows");
    report.add("trace.overhead_pct",
               100.0 * (median(fps) - traced_fps) / median(fps), "%");
    return report;
  }
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", rss_mb, "MB");
  report.add("ok_frac",
             broken || produced == 0
                 ? 0.0
                 : static_cast<double>(served) / static_cast<double>(produced),
             "ratio");
  report.add("throughput", median(fps), "1/s");
  report.add("quality_pct", *accuracy, "%");
  return report;
}

}  // namespace perfbench
