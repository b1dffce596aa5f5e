// The A4NN search driver: every knob from the paper's user interface
// (§2.6: NAS settings, data path, prediction engine settings, cluster)
// exposed as command-line arguments. One flag -> WorkflowConfig binding
// serves three modes: solo (no address), cluster master (--listen
// host:port) and cluster worker (--connect host:port). Master and workers
// take the same workflow flags; the handshake compares a CRC-32 of the
// configuration JSON, so a worker launched with, say, another --function
// is rejected. Training is deterministic given (genome, model id, seed),
// so cluster and solo runs produce bit-identical Pareto fronts.
//
//   ./a4nn_run --intensity low --population 10 --offspring 10
//              --generations 10 --epochs 25 --gpus 4
//              --function pow_exp --window 3 --tolerance 0.5
//              --commons /tmp/my_commons --snapshot-every 1
//   ./a4nn_run --listen 127.0.0.1:7501 --min-workers 2 --population 4
//   ./a4nn_run --connect 127.0.0.1:7501 --worker-name w0 --population 4
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analytics/dot_export.hpp"
#include "cluster/master.hpp"
#include "cluster/worker.hpp"
#include "core/a4nn.hpp"
#include "orchestrator/workflow_evaluator.hpp"
#include "tensor/autotune.hpp"
#include "tensor/parallel.hpp"
#include "util/args.hpp"
#include "util/checksum.hpp"
#include "util/fsutil.hpp"
#include "util/shutdown.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

using namespace a4nn;

namespace {

/// The one flag -> WorkflowConfig binding. Solo, master and worker runs
/// all build their configuration here, and the handshake CRC is computed
/// over the result before any mode applies local-only adjustments. Throws
/// on a malformed value or an inconsistent combination.
core::WorkflowConfig build_config(const util::ArgParser& args) {
  core::WorkflowConfig cfg;
  cfg.dataset.intensity = xfel::beam_from_name(args.get("intensity"));
  cfg.dataset.images_per_class = args.get_size("images");
  cfg.dataset.detector.pixels = args.get_size("pixels");
  cfg.nas.population_size = args.get_size("population");
  cfg.nas.offspring_per_generation = args.get_size("offspring");
  cfg.nas.generations = args.get_size("generations");
  cfg.nas.max_epochs = args.get_size("epochs");
  cfg.nas.space.nodes_per_phase = args.get_size("nodes");
  cfg.nas.space.phase_count = args.get_size("phases");
  cfg.nas.space.input_shape = {1, cfg.dataset.detector.pixels,
                               cfg.dataset.detector.pixels};
  cfg.nas.space.searchable_ops = args.get_flag("search-ops");
  cfg.trainer.max_epochs = cfg.nas.max_epochs;
  cfg.trainer.use_prediction_engine = !args.get_flag("no-engine");
  cfg.trainer.engine.function = penguin::make_function(args.get("function"));
  if (args.get_flag("ensemble")) {
    for (const auto& name : penguin::function_names())
      cfg.trainer.engine.ensemble.push_back(penguin::make_function(name));
  }
  cfg.trainer.engine.c_min = args.get_size("c-min");
  cfg.trainer.engine.window = args.get_size("window");
  cfg.trainer.engine.tolerance = args.get_double("tolerance");
  cfg.trainer.engine.e_pred = static_cast<double>(cfg.nas.max_epochs);
  cfg.cluster.num_gpus = args.get_size("gpus");
  cfg.cluster.fault.transient_failure_prob = args.get_double("fault-transient");
  cfg.cluster.fault.permanent_failure_prob = args.get_double("fault-permanent");
  cfg.cluster.fault.job_crash_prob = args.get_double("fault-crash");
  cfg.cluster.fault.straggler_prob = args.get_double("fault-straggler");
  cfg.cluster.fault.enabled = cfg.cluster.fault.transient_failure_prob > 0 ||
                              cfg.cluster.fault.permanent_failure_prob > 0 ||
                              cfg.cluster.fault.job_crash_prob > 0 ||
                              cfg.cluster.fault.straggler_prob > 0;
  cfg.memo = nas::memo_mode_from_name(args.get("memo"));
  cfg.nas.allow_duplicates = args.get_flag("allow-duplicates");
  cfg.coalesce_duplicates = args.get_flag("coalesce");
  if (cfg.coalesce_duplicates && cfg.memo == nas::MemoMode::kOff)
    throw util::ArgError(
        "--coalesce requires genome-keyed training seeds: pass --memo cold "
        "or --memo on");
  cfg.nas.objective = nas::objective_mode_from_name(args.get("objective"));
  cfg.probe.batch = args.get_size("probe-batch");
  cfg.probe.repeats = args.get_size("probe-repeats");
  cfg.trainer.inherit_weights = args.get_flag("inherit-weights");
  cfg.trainer.inherit_epoch_fraction = args.get_double("inherit-fraction");
  const std::string commons = args.get("commons");
  const std::size_t snapshot_every = args.get_size("snapshot-every");
  if (cfg.trainer.inherit_weights && (commons.empty() || snapshot_every == 0))
    throw util::ArgError(
        "--inherit-weights requires --commons and --snapshot-every >= 1 "
        "(ancestor checkpoints)");
  if (commons.empty() && (args.get_flag("resume") || args.get_flag("fsck") ||
                          args.get_flag("fsck-deep")))
    throw util::ArgError("--resume and --fsck require --commons");
  // Lineage and resume sit outside to_json(), so they never move the CRC.
  if (!commons.empty())
    cfg.lineage = lineage::TrackerConfig{commons, snapshot_every};
  cfg.resume_from_commons = args.get_flag("resume");
  cfg.seed = args.get_size("seed");
  return cfg;
}

int run_fsck(const std::filesystem::path& root, bool deep) {
  std::optional<lineage::DataCommons> commons;
  try {
    commons.emplace(root);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsck: %s\n", e.what());
    return 1;
  }
  const lineage::FsckReport report = commons->fsck(
      deep ? lineage::FsckMode::kDeep : lineage::FsckMode::kQuick);
  std::printf(
      "fsck%s: %zu model(s) scanned, %zu valid record(s), "
      "%zu file(s) quarantined, %zu tmp file(s) removed\n",
      deep ? " --deep" : "", report.models_scanned, report.records_valid,
      report.files_quarantined, report.tmp_files_removed);
  if (deep) {
    const lineage::IntegrityReport& integrity = report.integrity;
    util::AsciiTable table({"integrity check", "count"});
    for (const auto& [check, count] :
         {std::pair<const char*, std::size_t>{"journal entries",
                                              integrity.journal_entries},
          {"files verified", integrity.files_verified},
          {"crc mismatches", integrity.crc_mismatches},
          {"missing files", integrity.missing_files},
          {"quarantined", report.files_quarantined},
          {"torn journal lines", integrity.journal_torn_lines},
          {"unjournaled adopted", integrity.unjournaled_adopted},
          {"legacy unframed", integrity.legacy_unframed}})
      table.add_row({check, std::to_string(count)});
    table.add_row({"journal rewritten", integrity.journal_rewritten ? "yes" : "no"});
    std::printf("%s", table.render().c_str());
  }
  for (const auto& issue : report.issues)
    std::printf("  issue %s: %s\n", issue.path.c_str(), issue.reason.c_str());
  return report.clean() ? 0 : 2;
}

cluster::MasterOptions master_options(const util::ArgParser& args,
                                      const util::Endpoint& listen,
                                      std::uint64_t seed,
                                      std::uint32_t config_crc) {
  cluster::MasterOptions opts;
  opts.bind = listen.host;
  opts.port = listen.port;
  opts.config_crc = config_crc;
  opts.heartbeat_interval_ms =
      static_cast<int>(args.get_size("heartbeat-interval-ms"));
  opts.heartbeat_timeout_ms =
      static_cast<int>(args.get_size("heartbeat-timeout-ms"));
  opts.max_attempts = args.get_size("max-attempts");
  opts.quarantine_after = args.get_size("quarantine-after");
  opts.seed = seed;
  opts.fault.partition_prob = args.get_double("fault-partition");
  opts.fault.torn_frame_prob = args.get_double("fault-torn");
  opts.fault.backoff_jitter = args.get_double("backoff-jitter");
  opts.fault.enabled =
      opts.fault.partition_prob > 0 || opts.fault.torn_frame_prob > 0;
  return opts;
}

cluster::WorkerOptions worker_options(const util::ArgParser& args,
                                      const util::Endpoint& master,
                                      std::uint64_t seed,
                                      std::uint32_t config_crc) {
  cluster::WorkerOptions opts;
  opts.host = master.host;
  opts.port = master.port;
  opts.name = args.get("worker-name");
  opts.threads = args.get_size("threads");
  opts.config_crc = config_crc;
  opts.max_reconnects = args.get_size("max-reconnects");
  opts.seed = seed;
  opts.fault.worker_crash_prob = args.get_double("fault-worker-crash");
  opts.fault.slow_link_prob = args.get_double("fault-slow-link");
  opts.fault.torn_frame_prob = args.get_double("fault-torn");
  opts.fault.enabled = opts.fault.worker_crash_prob > 0 ||
                       opts.fault.slow_link_prob > 0 ||
                       opts.fault.torn_frame_prob > 0;
  return opts;
}

/// Worker mode: train whatever the master sends until it says Shutdown.
/// Exit 2 when the handshake rejects this worker's configuration.
int run_worker(const cluster::WorkerOptions& opts, core::WorkflowConfig cfg) {
  // Local-only adjustments AFTER the CRC: a worker-side commons gives
  // re-dispatched jobs their epoch checkpoints to resume from, without
  // changing what the worker computes.
  if (cfg.lineage) cfg.trainer.resume_partial = true;
  // Mirror the adjustments A4nnWorkflow::run() applies before training.
  cfg.trainer.cost = cfg.cluster.cost;

  std::printf("worker '%s': generating dataset...\n", opts.name.c_str());
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(cfg.dataset);
  cfg.nas.space.classes = data.train.num_classes();

  std::optional<lineage::LineageTracker> tracker;
  if (cfg.lineage) tracker.emplace(*cfg.lineage);
  orchestrator::TrainingLoop loop(data.train, data.validation, cfg.trainer,
                                  tracker ? &*tracker : nullptr);

  const nas::SearchSpaceConfig space = cfg.nas.space;
  cluster::Worker worker(opts);
  // Relay SIGINT/SIGTERM into the worker's stop flag: run() winds down
  // after the in-flight jobs finish, so nothing is lost mid-training.
  std::atomic<bool> watcher_done{false};
  std::thread watcher([&] {
    while (!watcher_done.load()) {
      if (util::shutdown_requested()) {
        worker.request_stop();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  const std::string objective_name(nas::objective_mode_name(cfg.nas.objective));
  const cluster::WorkerStats stats =
      worker.run([&](const cluster::JobRequest& req) {
        // Belt-and-suspenders beyond the handshake CRC: a request whose
        // objective mode disagrees with this worker's flags is a config
        // drift, not a trainable job.
        if (req.objective != objective_name)
          throw std::runtime_error("job " + std::to_string(req.job) +
                                   " requests objective mode '" +
                                   req.objective + "', worker configured '" +
                                   objective_name + "'");
        const nas::Genome genome = nas::Genome::from_json(req.genome);
        const std::uint64_t model_seed = cluster::hex_to_u64(req.seed_hex);
        // One line when a job starts and one when it ends, flushed, so a
        // watcher (scripts/cluster_smoke.sh) can tell when this worker
        // holds a job.
        std::printf("worker '%s': job %llu (model %d) started\n",
                    opts.name.c_str(), static_cast<unsigned long long>(req.job),
                    req.model_id);
        std::fflush(stdout);
        nas::EvaluationRecord record =
            loop.train_genome(genome, space, req.model_id, model_seed);
        record.generation = req.generation;
        std::printf("worker '%s': job %llu (model %d) finished\n",
                    opts.name.c_str(), static_cast<unsigned long long>(req.job),
                    req.model_id);
        std::fflush(stdout);
        return record.to_json();
      });
  watcher_done.store(true);
  watcher.join();
  if (util::shutdown_requested())
    std::printf("worker '%s': stopped cleanly on signal %d\n",
                opts.name.c_str(), util::shutdown_signal());

  std::printf(
      "worker '%s': %zu job(s) completed, %zu reconnect(s), %s\n",
      opts.name.c_str(), stats.jobs_completed, stats.reconnects,
      stats.clean_shutdown
          ? "clean shutdown"
          : (!stats.reject_reason.empty() ? stats.reject_reason.c_str()
                                          : "connection lost"));
  if (!stats.reject_reason.empty()) return 2;
  return stats.clean_shutdown ? 0 : 1;
}

void print_summary(const core::WorkflowResult& result,
                   const core::WorkflowConfig& config, bool master_mode) {
  const auto& history = result.search.history;
  const auto savings = analytics::epoch_savings(history);
  const auto summary = analytics::fitness_summary(history);
  if (result.resumed_evaluations > 0) {
    std::printf("resumed: %zu of %zu evaluations reused from the commons\n",
                result.resumed_evaluations, history.size());
  }
  // One line per nonzero tally.
  const core::RunSummary& s = result.summary;
  const std::pair<std::size_t, const char*> tallies[] = {
      {s.resumed_epochs, "resumed: %zu training epoch(s) skipped via "
                         "checkpoints\n"},
      {s.genome_mismatches, "resume: %zu stale record(s) rejected (genome "
                            "mismatch)\n"},
      {s.memo_hits, "memo: %zu evaluation(s) replayed from the fitness "
                    "cache\n"},
      {s.inherited_starts, "inherit: %zu child(ren) warm-started from "
                           "ancestor checkpoints\n"},
      {s.coalesced_evaluations, "coalesce: %zu same-generation duplicate(s) "
                                "rode a leader's training\n"},
      {s.latency_probes, "latency: %zu candidate(s) probed at the serving "
                         "batch geometry\n"},
      {s.failed_evaluations, "failed: %zu evaluation(s) exhausted retries "
                             "(excluded from selection, Pareto, and the "
                             "commons)\n"}};
  for (const auto& [count, format] : tallies)
    if (count > 0) std::printf(format, count);
  const auto& faults = s.faults;
  if (config.cluster.fault.enabled) {
    std::printf(
        "faults: %zu retries (%zu transient, %zu crashes, %zu stragglers), "
        "%zu device(s) lost, %zu job(s) failed, %.1f virtual s wasted\n",
        faults.retries, faults.transient_faults, faults.job_crashes,
        faults.straggler_events, faults.permanent_device_failures,
        faults.failed_jobs, faults.wasted_virtual_seconds);
  }
  if (master_mode) {
    const auto& ct = s.cluster;
    std::printf(
        "cluster: %zu remote job(s), %zu local fallback(s), %zu "
        "dispatch(es), %zu re-dispatch(es), %zu worker failure(s), %zu "
        "quarantine(s)\n",
        ct.remote_jobs, ct.remote_fallbacks, ct.dispatches, ct.redispatches,
        ct.worker_failures, ct.worker_quarantines);
    if (ct.stale_results || ct.corrupt_frames || ct.corrupt_results)
      std::printf("cluster: dropped %zu stale / %zu corrupt frame(s) / "
                  "%zu corrupt result(s)\n",
                  ct.stale_results, ct.corrupt_frames, ct.corrupt_results);
  }
  std::printf("epochs: %zu/%zu (%.1f%% saved, %zu early terminations)\n",
              savings.epochs_trained, savings.epochs_budget,
              100.0 * savings.saved_fraction, savings.early_terminated);
  std::printf("best fitness: %.2f%%  virtual wall time: %.2f h  host: %.1f s\n",
              summary.best, result.virtual_wall_seconds / 3600.0,
              result.measured_wall_seconds);
  std::printf("Pareto front:\n");
  for (std::size_t idx : result.search.pareto) {
    const auto& r = history[idx];
    std::printf("  model %3d: %.2f%%  %llu FLOPs  %zu epochs%s\n", r.model_id,
                r.fitness, static_cast<unsigned long long>(r.flops),
                r.epochs_trained, r.early_terminated ? " [early]" : "");
  }
  if (result.commons_root)
    std::printf("commons: %s\n", result.commons_root->c_str());
}

/// Bit-exact Pareto dump (hexfloat), for cluster-vs-solo comparisons.
bool write_pareto(const std::string& path, const nas::SearchResult& search) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t idx : search.pareto) {
    const auto& r = search.history[idx];
    std::fprintf(f, "%d %a %llu %zu %s\n", r.model_id, r.fitness,
                 static_cast<unsigned long long>(r.flops), r.epochs_trained,
                 r.genome.key().c_str());
  }
  return std::fclose(f) == 0;
}

void write_trace(const std::string& path, const util::Json* extra) {
  util::trace::stop();
  // The run's metrics snapshot rides along as an extra top-level key;
  // trace viewers ignore it, scripts/check_trace.py cross-checks it
  // against the span totals.
  if (util::trace::write(path, extra))
    std::printf(
        "trace: %s (open in chrome://tracing or https://ui.perfetto.dev)\n",
        path.c_str());
}

/// Everything after parsing. A util::ArgError from any flag read reaches
/// main, which prints usage; every flag is read before any work starts.
int run(const util::ArgParser& args) {
  // The address flags pick the mode: --listen master, --connect worker.
  const bool is_master = !args.get("listen").empty();
  const bool is_worker = !args.get("connect").empty();
  if (is_master && is_worker)
    throw util::ArgError("--listen and --connect are exclusive");
  const util::Endpoint address = is_master   ? args.get_endpoint("listen")
                                 : is_worker ? args.get_endpoint("connect")
                                             : util::Endpoint{};
  if (is_worker && address.port == 0)
    throw util::ArgError("--connect needs the master's port, not 0");
  core::WorkflowConfig cfg;
  try {
    cfg = build_config(args);
  } catch (const std::invalid_argument& e) {
    // An unknown --intensity/--function/--memo/--objective name.
    throw util::ArgError(e.what());
  }
  // Digest over the canonical configuration JSON: master and workers
  // compute it from the same flags before any local-only adjustment.
  const std::uint32_t config_crc = util::crc32(cfg.to_json().dump());
  const cluster::MasterOptions master_opts =
      master_options(args, address, cfg.seed, config_crc);
  const cluster::WorkerOptions worker_opts =
      worker_options(args, address, cfg.seed, config_crc);
  const std::size_t min_workers = args.get_size("min-workers");
  const int wait_workers_ms = static_cast<int>(args.get_size("wait-workers-ms"));
  if (args.get_size("intra-op-threads") > 0)
    tensor::set_intra_op_threads(args.get_size("intra-op-threads"));
  if (!args.get("tune-config").empty()) {
    try {
      tensor::load_tune_file(args.get("tune-config"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--tune-config: %s\n", e.what());
      return 1;
    }
  }
  if (args.get_flag("fsck") || args.get_flag("fsck-deep"))
    return run_fsck(cfg.lineage->root,
                    args.get_flag("deep") || args.get_flag("fsck-deep"));

  std::string trace_out = args.get("trace-out");
  if (trace_out.empty()) {
    if (const char* env = std::getenv("A4NN_TRACE")) trace_out = env;
  }
  // Before the master starts, so its trace lanes get named.
  if (!trace_out.empty()) util::trace::start();
  util::install_shutdown_handlers();
  if (is_worker) {
    const int rc = run_worker(worker_opts, std::move(cfg));
    if (!trace_out.empty()) write_trace(trace_out, nullptr);
    return rc;
  }

  std::unique_ptr<cluster::Master> master;
  if (is_master) {
    master = std::make_unique<cluster::Master>(master_opts);
    std::printf("master: listening on %s:%u (config crc %08x)\n",
                master_opts.bind.c_str(), master->port(), config_crc);
    if (min_workers > 0) {
      std::printf("master: waiting for %zu worker(s)...\n", min_workers);
      if (!master->wait_for_workers(min_workers, wait_workers_ms))
        std::fprintf(stderr,
                     "master: %zu worker(s) did not connect in time; "
                     "continuing with %zu (local fallback covers the rest)\n",
                     min_workers, master->connected_workers());
    }
    cfg.cluster.remote = master.get();
  }

  std::printf("A4NN run: %zu networks, %s intensity, %zu GPU(s), engine %s\n",
              cfg.nas.total_networks(), args.get("intensity").c_str(),
              cfg.cluster.num_gpus,
              cfg.trainer.use_prediction_engine
                  ? (args.get_flag("ensemble") ? "ensemble"
                                               : args.get("function").c_str())
                  : "off");
  core::A4nnWorkflow workflow(std::move(cfg));
  core::WorkflowResult result;
  try {
    result = workflow.run();
  } catch (const orchestrator::WorkflowInterrupted& e) {
    if (!util::shutdown_requested()) {
      std::fprintf(stderr, "a4nn_run: %s\n", e.what());
      return 1;
    }
    // Graceful SIGINT/SIGTERM: completed records are already flushed to
    // the commons. Flush the trace and exit cleanly (the master's
    // destructor shuts the workers down); --resume continues.
    if (!trace_out.empty()) write_trace(trace_out, nullptr);
    std::printf("a4nn_run: stopped cleanly on signal %d (%s); rerun with "
                "--resume to continue\n",
                util::shutdown_signal(), e.what());
    return 0;
  }
  if (master) master->stop();

  if (!trace_out.empty()) {
    util::Json extra = util::Json::object();
    extra["metrics"] = result.summary.metrics;
    write_trace(trace_out, &extra);
  }
  print_summary(result, workflow.config(), master != nullptr);
  const std::string pareto_out = args.get("pareto-out");
  if (!pareto_out.empty()) {
    if (!write_pareto(pareto_out, result.search)) {
      std::fprintf(stderr, "a4nn_run: cannot write %s\n", pareto_out.c_str());
      return 1;
    }
    std::printf("pareto: %s\n", pareto_out.c_str());
  }
  if (args.get_flag("dot")) {
    const auto& best = result.search.history[result.search.pareto.front()];
    std::printf("\n%s", analytics::to_dot(best.genome,
                                          workflow.config().nas.space)
                            .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("a4nn_run",
                       "Run the A4NN workflow (NSGA-Net + prediction engine "
                       "+ GPU cluster + lineage commons) solo, as a cluster "
                       "master (--listen) or as a worker (--connect)");
  // NAS settings (Table 2).
  args.add_option("population", "10", "size of starting population");
  args.add_option("offspring", "10", "offspring per generation");
  args.add_option("generations", "10",
                  "evaluation rounds incl. the initial population");
  args.add_option("epochs", "25", "max training epochs per network");
  args.add_option("nodes", "4", "nodes per phase in the search space");
  args.add_option("phases", "3", "phases in the search space");
  args.add_flag("search-ops",
                "extended space: nodes also choose their operation "
                "(conv3x3/sepconv3x3/conv1x1/sepconv5x5)");
  // Data path settings.
  args.add_option("intensity", "medium", "beam intensity: low|medium|high");
  args.add_option("images", "150", "simulated images per conformation class");
  args.add_option("pixels", "16", "detector resolution (pixels per side)");
  // Prediction engine settings (Table 1).
  args.add_flag("no-engine", "disable the prediction engine (standalone NAS)");
  args.add_option("function", "pow_exp",
                  "parametric family (pow_exp|inverse_power|logistic|"
                  "vapor_pressure|weibull|ilog|janoschek|mmf)");
  args.add_flag("ensemble", "predict with the full family ensemble");
  args.add_option("c-min", "3", "min epochs before the first prediction");
  args.add_option("window", "3", "N: predictions required to converge");
  args.add_option("tolerance", "0.5", "r: prediction variance tolerance");
  // Evaluation accelerator (fitness memo-cache + weight inheritance).
  args.add_option("memo", "off",
                  "fitness memo-cache: off (legacy model-id seeds) | cold "
                  "(genome-keyed seeds, no reuse) | on (O(1) replay of "
                  "already-evaluated genomes)");
  args.add_flag("allow-duplicates",
                "let crossover/mutation re-produce evaluated genomes "
                "(duplicate-heavy searches; pair with --memo on)");
  args.add_flag("inherit-weights",
                "warm-start each child from its parent's newest epoch "
                "checkpoint (requires --snapshot-every >= 1)");
  args.add_option("inherit-fraction", "0.5",
                  "fraction of --epochs an inherited child fine-tunes for");
  args.add_flag("coalesce",
                "train same-generation duplicate genomes once and copy the "
                "record (requires --memo cold|on; journal bytes unchanged)");
  // Hardware-aware objectives.
  args.add_option("objective", "flops",
                  "hardware objectives beside accuracy/FLOPs: flops "
                  "(analytic, the legacy 2-objective search) | latency "
                  "(+ measured ms/image at serving batch) | both "
                  "(+ latency and roofline bytes moved)");
  args.add_option("probe-batch", "8",
                  "latency-probe micro-batch (match the serving engine)");
  args.add_option("probe-repeats", "9",
                  "timed probe passes (median is the objective)");
  // Resource manager + lineage.
  args.add_option("gpus", "1", "simulated GPU count");
  args.add_option("commons", "",
                  "data-commons directory (empty: disabled); on a worker, "
                  "the epoch checkpoints re-dispatched jobs resume from");
  args.add_option("snapshot-every", "0",
                  "snapshot model weights every N epochs (0: off)");
  args.add_flag("resume",
                "reuse record trails already in the commons (interrupted-run "
                "recovery; requires --commons)");
  args.add_flag("fsck",
                "validate the commons tree (quarantine corrupt files) and "
                "exit; requires --commons");
  args.add_flag("deep",
                "with --fsck: verify every manifest-journal entry's checksum, "
                "repair torn journal lines, and print the integrity report");
  args.add_flag("fsck-deep", "shorthand for --fsck --deep");
  // Fault injection (deterministic, seeded from --seed).
  args.add_option("fault-transient", "0",
                  "per-attempt transient failure probability [0,1]");
  args.add_option("fault-permanent", "0",
                  "per-generation permanent device-failure probability [0,1]");
  args.add_option("fault-crash", "0",
                  "per-attempt job-crash probability [0,1]");
  args.add_option("fault-straggler", "0",
                  "per-attempt straggler probability [0,1]");
  args.add_option("seed", "2023", "experiment seed");
  args.add_option("intra-op-threads", "0",
                  "worker threads per training kernel (0: use "
                  "A4NN_INTRA_OP_THREADS, default 1); results are "
                  "bit-identical at any setting");
  args.add_option("tune-config", "",
                  "tune.json from a4nn_tune: per-shape GEMM blocking "
                  "(empty: use A4NN_TUNE env var, or compiled defaults)");
  args.add_option("trace-out", "",
                  "write a Chrome-trace JSON of the run (host spans + "
                  "simulated device timeline + metrics; cluster lanes on "
                  "pid 3) to this path; empty: use A4NN_TRACE env var, or "
                  "tracing stays off");
  args.add_flag("dot", "print the best architecture as Graphviz DOT");
  args.add_option("pareto-out", "",
                  "write the Pareto front (hexfloat, bit-exact) here");
  // Cluster: the address picks the mode.
  args.add_option("listen", "",
                  "run as cluster master on host:port (port 0: ephemeral, "
                  "printed at startup)");
  args.add_option("connect", "",
                  "run as cluster worker of the master at host:port");
  args.add_option("fault-torn", "0",
                  "master/worker: injected torn-frame probability per send");
  args.add_option("min-workers", "0",
                  "master: wait for this many workers before searching "
                  "(0: start immediately, local fallback covers everything)");
  args.add_option("wait-workers-ms", "10000",
                  "master: how long to wait for --min-workers");
  args.add_option("heartbeat-interval-ms", "200", "master: heartbeat period");
  args.add_option("heartbeat-timeout-ms", "2000",
                  "master: silence before a worker is declared dead");
  args.add_option("max-attempts", "5",
                  "master: dispatch attempts per job before local fallback");
  args.add_option("quarantine-after", "3",
                  "master: worker failures before quarantine");
  args.add_option("backoff-jitter", "0",
                  "master: re-dispatch backoff jitter in [0,1], drawn from "
                  "the run seed");
  args.add_option("fault-partition", "0",
                  "master: injected partition probability per dispatch");
  args.add_option("worker-name", "worker-0",
                  "worker: stable identity (quarantine key)");
  args.add_option("threads", "1", "worker: concurrent jobs (capacity report)");
  args.add_option("max-reconnects", "10",
                  "worker: consecutive connect failures before giving up");
  args.add_option("fault-worker-crash", "0",
                  "worker: injected crash probability after each job");
  args.add_option("fault-slow-link", "0",
                  "worker: injected slow-link probability per result");

  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::printf("%s", args.usage().c_str());
      return 0;
    }
    return run(args);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "a4nn_run: %s\n%s", e.what(), args.usage().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a4nn_run: %s\n", e.what());
    return 1;
  }
}
