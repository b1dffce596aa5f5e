// Self-healing in situ streaming driver: point it at a data commons
// written by a4nn_run and it runs the supervised beamline→champion loop —
// a rate-controlled diffraction producer, the micro-batching serving
// engine, a drift monitor that fires fine-tune triggers through a
// crash-consistent journal, and a recovery worker that hot-swaps the
// champion. Faults are injectable and deterministic; a run killed
// anywhere (including `kill -9`) resumes with --resume and converges to
// the exact journal of an undisturbed run.
//
//   ./a4nn_run --commons runs/demo ...                 # train the commons
//   ./a4nn_stream --commons runs/demo --frames 2048 --drift-at 1024
//       --faults --stall-prob 0.01 --corrupt-prob 0.02
//       --stats-out stream_stats.json --trace-out stream_trace.json
//
// Exit codes: 0 = completed or graceful signal stop; 2 = aborted
// (serving pump dead / wall deadline); 3 = interrupted (simulated kill
// via --kill-after-appends — rerun with --resume).
#include <cstdio>

#include "stream/scenario.hpp"
#include "util/args.hpp"
#include "util/fsutil.hpp"
#include "util/log.hpp"
#include "util/shutdown.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

using namespace a4nn;

namespace {

int run(const util::ArgParser& args) {
  // Every flag is bound before any work starts: a util::ArgError reaches
  // main, which prints usage. The geometry comes from the champion below.
  stream::StreamConfig cfg;
  cfg.commons_root = args.get("commons");
  try {
    cfg.policy = serve::champion_policy_from_name(args.get("policy"));
  } catch (const std::invalid_argument& e) {
    throw util::ArgError(e.what());
  }
  cfg.max_flops = args.get_size("max-flops");
  cfg.seed = args.get_size("seed");
  cfg.resume = args.get_flag("resume");
  cfg.durable = !args.get_flag("no-fsync");
  cfg.deterministic_swap = !args.get_flag("concurrent-swap");
  cfg.queue_capacity = args.get_size("queue-capacity");
  cfg.max_wall_seconds = args.get_double("max-wall-seconds");
  cfg.journal_append_limit = args.get_size("kill-after-appends");
  cfg.stop_requested = [] { return util::shutdown_requested(); };

  cfg.producer.total_frames = args.get_size("frames");
  cfg.producer.rate_hz = args.get_double("rate-hz");
  cfg.producer.pool_per_class = args.get_size("pool-per-class");
  cfg.producer.dataset.seed = cfg.seed;
  const std::size_t drift_at = args.get_size("drift-at");
  if (drift_at > 0) {
    stream::PhaseSpec drifted;
    drifted.start_frame = drift_at;
    drifted.label_rotation = 1;
    cfg.producer.phases.push_back(drifted);
  }

  cfg.drift.window_frames = args.get_size("window-frames");
  cfg.drift.fire_below = args.get_double("fire-below");
  cfg.drift.rearm_above = args.get_double("rearm-above");
  cfg.drift.sustain_windows = args.get_size("sustain-windows");
  cfg.drift.cooldown_windows = args.get_size("cooldown-windows");

  cfg.recovery.buffer_frames = args.get_size("buffer-frames");
  cfg.recovery.finetune_epochs = args.get_size("finetune-epochs");
  cfg.recovery.batch_size = args.get_size("finetune-batch");
  cfg.recovery.learning_rate = args.get_double("finetune-lr");

  cfg.engine.max_batch = args.get_size("max-batch");
  cfg.engine.max_delay_ms = args.get_double("max-delay-ms");
  cfg.engine.workers = args.get_size("workers");

  cfg.fault.enabled = args.get_flag("faults");
  cfg.fault.stream_stall_prob = args.get_double("stall-prob");
  cfg.fault.stream_stall_ms = args.get_double("stall-ms");
  cfg.fault.stream_burst_prob = args.get_double("burst-prob");
  cfg.fault.stream_corrupt_prob = args.get_double("corrupt-prob");
  cfg.fault.stream_rate_spike_prob = args.get_double("spike-prob");
  cfg.fault.stream_crash_prob = args.get_double("crash-prob");
  cfg.fault.stream_recovery_crash_prob =
      args.get_double("recovery-crash-prob");

  const double watchdog_ms = args.get_double("watchdog-ms");
  const std::size_t max_restarts = args.get_size("max-restarts");
  for (auto* policy :
       {&cfg.producer_policy, &cfg.server_policy, &cfg.recovery_policy}) {
    policy->watchdog_ms = watchdog_ms;
    policy->max_restarts = max_restarts;
  }
  // The pump legitimately blocks through a deterministic swap; its
  // heartbeat keeps ticking there, but give it headroom anyway.
  cfg.server_policy.watchdog_ms = watchdog_ms * 2;

  util::set_log_level(util::LogLevel::kInfo);
  util::install_shutdown_handlers();
  const std::string trace_out = args.get("trace-out");
  if (!trace_out.empty()) util::trace::start();
  util::metrics::Registry metrics;
  cfg.metrics = &metrics;

  // Geometry comes from the champion so streamed frames match its input.
  {
    serve::RegistryConfig reg_cfg;
    reg_cfg.commons_root = cfg.commons_root;
    reg_cfg.policy = cfg.policy;
    reg_cfg.max_flops = cfg.max_flops;
    serve::ModelRegistry probe(reg_cfg);
    try {
      probe.refresh();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "a4nn_stream: %s\n", e.what());
      return 1;
    }
    const auto champion = probe.active();
    const tensor::Shape& in = champion->input_shape;
    if (in.size() != 3 || in[0] != 1 || in[1] != in[2]) {
      std::fprintf(stderr,
                   "a4nn_stream: champion input %s is not a square "
                   "single-channel detector\n",
                   tensor::shape_to_string(in).c_str());
      return 1;
    }
    cfg.producer.dataset.detector.pixels = in[1];
    cfg.producer.dataset.conformations = champion->num_classes;
    cfg.drift.num_classes = champion->num_classes;
    util::AsciiTable t({"champion", "epoch", "fitness", "classes", "pixels"});
    t.add_row({std::to_string(champion->info.model_id),
               std::to_string(champion->info.epoch),
               util::AsciiTable::num(champion->info.fitness, 2),
               std::to_string(champion->num_classes), std::to_string(in[1])});
    std::printf("%s", t.render().c_str());
  }

  stream::StreamResult result;
  try {
    stream::StreamScenario scenario(cfg);
    result = scenario.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a4nn_stream: %s\n", e.what());
    return 1;
  }

  std::printf(
      "streamed %zu frames: %zu served (%.1f%% accurate), %zu corrupt "
      "dropped, %zu windows\n",
      result.frames_produced, result.frames_served, result.accuracy_overall,
      result.frames_corrupt_dropped, result.windows);
  std::printf(
      "triggers: %zu fired, %zu completed, %zu shed; supervision: %zu "
      "restarts, %zu stalls, %zu crashes%s\n",
      result.triggers_fired, result.triggers_completed, result.triggers_shed,
      result.child_restarts, result.watchdog_stalls, result.child_crashes,
      result.degraded ? " [degraded]" : "");
  std::printf("champion: model %d epoch %zu (generation %llu), p99 outside "
              "faults %.2fms\n",
              result.final_champion_model, result.final_champion_epoch,
              static_cast<unsigned long long>(result.final_generation),
              result.p99_outside_faults_ms);

  if (!args.get("stats-out").empty()) {
    util::Json doc = result.to_json();
    doc["metrics"] = metrics.snapshot();
    util::write_file(args.get("stats-out"), doc.dump(2));
    std::printf("wrote %s\n", args.get("stats-out").c_str());
  }
  if (!trace_out.empty()) {
    util::trace::stop();
    // Nested under "metrics" like a4nn_run's traces, so check_trace.py can
    // hold the pid-4 lanes to the stream.* counters.
    util::Json extra = util::Json::object();
    extra["metrics"] = metrics.snapshot();
    util::trace::write(trace_out, &extra);
    std::printf("wrote %s\n", trace_out.c_str());
  }
  if (result.interrupted) {
    std::printf("interrupted — rerun with --resume to continue\n");
    return 3;
  }
  if (result.aborted) return 2;
  if (result.graceful_stop)
    std::printf("stopped cleanly on signal %d\n", util::shutdown_signal());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("a4nn_stream",
                       "Supervised in situ streaming loop with drift-"
                       "triggered recovery");
  args.add_option("commons", "a4nn_commons", "data commons root to serve");
  args.add_option("policy", "best-fitness",
                  "champion policy: best-fitness | min-flops | balanced");
  args.add_option("max-flops", "0", "FLOPs-per-image budget (0 = unlimited)");
  args.add_option("frames", "1024", "total frames to stream");
  args.add_option("rate-hz", "0", "frame pacing rate (0 = unpaced)");
  args.add_option("pool-per-class", "32", "pre-rendered shots per class");
  args.add_option("drift-at", "0",
                  "frame index where conformational drift begins "
                  "(labels rotate by 1; 0 = no drift)");
  args.add_option("window-frames", "64", "drift window size (frames)");
  args.add_option("fire-below", "70", "accuracy %% that counts a bad window");
  args.add_option("rearm-above", "85", "accuracy %% that clears the streak");
  args.add_option("sustain-windows", "2", "bad windows required to fire");
  args.add_option("cooldown-windows", "3", "post-fire circuit-breaker span");
  args.add_option("buffer-frames", "128", "recovery fine-tune buffer");
  args.add_option("finetune-epochs", "3", "fine-tune epochs per recovery");
  args.add_option("finetune-batch", "16", "fine-tune mini-batch size");
  args.add_option("finetune-lr", "0.05", "fine-tune learning rate");
  args.add_option("max-batch", "8", "serving micro-batch width");
  args.add_option("max-delay-ms", "2", "max batching delay before flush");
  args.add_option("workers", "2", "inference worker threads");
  args.add_option("queue-capacity", "64", "frame queue bound");
  args.add_option("watchdog-ms", "2000", "child heartbeat deadline");
  args.add_option("max-restarts", "3", "restart budget per child");
  args.add_option("max-wall-seconds", "0", "abort after this long (0 = off)");
  args.add_option("seed", "42", "run seed (faults, pools, fine-tune RNG)");
  args.add_flag("faults", "enable deterministic fault injection");
  args.add_option("stall-prob", "0", "producer stall probability per frame");
  args.add_option("stall-ms", "50", "injected stall duration");
  args.add_option("burst-prob", "0", "unpaced burst probability per frame");
  args.add_option("corrupt-prob", "0", "corrupt-frame probability");
  args.add_option("spike-prob", "0", "rate-spike probability per frame");
  args.add_option("crash-prob", "0", "producer crash probability per frame");
  args.add_option("recovery-crash-prob", "0",
                  "recovery-action crash probability per attempt");
  args.add_flag("resume", "fsck and resume from the trigger journal");
  args.add_option("kill-after-appends", "0",
                  "simulate SIGKILL after N journal appends (0 = off)");
  args.add_flag("concurrent-swap",
                "serve through recovery instead of holding the stream at "
                "the trigger boundary (sacrifices byte-exact replay)");
  args.add_flag("no-fsync", "skip fsync on journal/lineage writes");
  args.add_option("stats-out", "", "write the run result JSON here");
  args.add_option("trace-out", "", "write a Chrome trace of the run here");
  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::printf("%s", args.usage().c_str());
      return 0;
    }
    return run(args);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "a4nn_stream: %s\n%s", e.what(), args.usage().c_str());
    return 1;
  }
}
