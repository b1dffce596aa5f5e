// In situ serving driver: point it at a data commons written by a4nn_run,
// and it publishes the Pareto champion through the model registry, stands
// up the micro-batching inference engine, and drives it with a closed-loop
// synthetic client fleet (XFEL diffraction shots regenerated at the
// champion's detector size, so reported accuracy is meaningful).
//
//   ./a4nn_run --commons runs/demo ...         # train + populate commons
//   ./a4nn_serve --commons runs/demo --clients 8 --max-batch 16
//       --slo-ms 50 --stats-out serve_stats.json
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "latency/probe.hpp"
#include "lineage/tracker.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "tensor/autotune.hpp"
#include "util/args.hpp"
#include "util/fsutil.hpp"
#include "util/log.hpp"
#include "util/shutdown.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "xfel/dataset.hpp"

using namespace a4nn;

namespace {

int run(const util::ArgParser& args) {
  // Every flag is bound before any work starts: a util::ArgError reaches
  // main, which prints usage.
  serve::RegistryConfig reg_cfg;
  reg_cfg.commons_root = args.get("commons");
  reg_cfg.max_flops = args.get_size("max-flops");
  reg_cfg.slo_ms = args.get_double("slo-ms");
  reg_cfg.probe.batch = args.get_size("max-batch");
  serve::EngineConfig cfg;
  cfg.max_batch = args.get_size("max-batch");
  cfg.max_delay_ms = args.get_double("max-delay-ms");
  cfg.queue_capacity = args.get_size("queue-capacity");
  cfg.workers = args.get_size("workers");
  cfg.slo_ms = args.get_double("slo-ms");
  const std::size_t total = args.get_size("requests");
  const std::size_t clients =
      std::max<std::size_t>(args.get_size("clients"), 1);
  if (!args.get("tune-config").empty()) {
    try {
      tensor::load_tune_file(args.get("tune-config"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--tune-config: %s\n", e.what());
      return 1;
    }
  }
  util::set_log_level(util::LogLevel::kInfo);
  util::install_shutdown_handlers();
  const std::string trace_out = args.get("trace-out");
  if (!trace_out.empty()) util::trace::start();

  try {
    reg_cfg.policy = serve::champion_policy_from_name(args.get("policy"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a4nn_serve: %s\n", e.what());
    return 1;
  }
  serve::ModelRegistry registry(reg_cfg);
  try {
    registry.refresh();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a4nn_serve: %s\n", e.what());
    return 1;
  }
  auto champion = registry.active();
  {
    util::AsciiTable t({"champion", "epoch", "fitness", "MFLOPs", "classes",
                        "p99 ms"});
    t.add_row({std::to_string(champion->info.model_id),
               std::to_string(champion->info.epoch),
               util::AsciiTable::num(champion->info.fitness, 2),
               util::AsciiTable::num(
                   static_cast<double>(champion->info.flops) / 1e6, 3),
               std::to_string(champion->num_classes),
               champion->info.p99_ms > 0.0
                   ? util::AsciiTable::num(champion->info.p99_ms, 3)
                   : "-"});
    std::printf("%s", t.render().c_str());
  }

  // Regenerate diffraction shots at the champion's input geometry so the
  // request stream has ground-truth labels.
  const tensor::Shape& in = champion->input_shape;
  if (in.size() != 3 || in[0] != 1 || in[1] != in[2]) {
    std::fprintf(stderr, "a4nn_serve: champion input %s is not a square "
                 "single-channel detector\n",
                 tensor::shape_to_string(in).c_str());
    return 1;
  }
  xfel::XfelDatasetConfig data_cfg;
  data_cfg.detector.pixels = in[1];
  data_cfg.conformations = champion->num_classes;
  data_cfg.images_per_class = 64;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(data_cfg);
  const nn::Dataset& pool = data.validation;


  if (args.get_flag("auto-batch")) {
    // One-shot sweep before serving: probe the published champion at each
    // candidate micro-batch width, combine each width with each flush delay
    // arithmetically (the delay only shifts the request deadline, it never
    // changes the forward pass), and serve the highest-throughput pair
    // whose estimated worst-case request p99 meets the SLO. The sweep is
    // journaled to the commons like tune.json so the choice is auditable.
    const std::vector<std::size_t> widths = {1, 2, 4, 8, 16, 32};
    const std::vector<double> delays = {0.5, 1.0, 2.0, 4.0};
    const double slo = cfg.slo_ms;
    util::Json cands = util::Json::array();
    std::size_t best_b = cfg.max_batch;
    double best_d = cfg.max_delay_ms;
    double best_tput = 0.0, best_p99 = 0.0;
    bool best_ok = false, have = false;
    for (std::size_t b : widths) {
      latency::ProbeConfig pc;
      pc.batch = b;
      const latency::LatencyProbe prober(pc);
      const latency::ProbeResult r = prober.probe(champion->model);
      for (double d : delays) {
        // Worst case for an admitted request: it waits out the full flush
        // delay, then a whole batch runs at the probed per-image p99.
        const double est_p99 = d + static_cast<double>(b) * r.p99_ms;
        const double tput = r.median_ms > 0.0 ? 1000.0 / r.median_ms : 0.0;
        const bool ok = slo <= 0.0 || est_p99 <= slo;
        util::Json c = util::Json::object();
        c["max_batch"] = b;
        c["max_delay_ms"] = d;
        c["per_image_median_ms"] = r.median_ms;
        c["per_image_p99_ms"] = r.p99_ms;
        c["est_request_p99_ms"] = est_p99;
        c["throughput_ips"] = tput;
        c["meets_slo"] = ok;
        cands.push_back(std::move(c));
        const bool better =
            !have ||
            (ok != best_ok
                 ? ok
                 : (ok ? (tput != best_tput ? tput > best_tput
                                            : est_p99 < best_p99)
                       : est_p99 < best_p99));
        if (better) {
          have = true;
          best_ok = ok;
          best_tput = tput;
          best_p99 = est_p99;
          best_b = b;
          best_d = d;
        }
      }
    }
    cfg.max_batch = best_b;
    cfg.max_delay_ms = best_d;
    util::Json doc = util::Json::object();
    doc["host"] = latency::host_fingerprint();
    util::Json id = util::Json::object();
    id["model_id"] = static_cast<double>(champion->info.model_id);
    id["epoch"] = static_cast<double>(champion->info.epoch);
    doc["champion"] = std::move(id);
    doc["slo_ms"] = slo;
    doc["candidates"] = std::move(cands);
    util::Json chosen = util::Json::object();
    chosen["max_batch"] = best_b;
    chosen["max_delay_ms"] = best_d;
    doc["chosen"] = std::move(chosen);
    lineage::LineageTracker tracker({args.get("commons")});
    tracker.record_artifact("serve_tune.json", doc);
    std::printf(
        "auto-batch: max_batch %zu, max_delay %.1fms (est request p99 "
        "%.2fms%s) -> %s/serve_tune.json\n",
        best_b, best_d, best_p99, best_ok ? "" : ", SLO missed",
        args.get("commons").c_str());
  }

  serve::InferenceEngine engine(registry, cfg);

  std::atomic<std::size_t> correct{0}, answered{0}, dropped{0};
  util::Timer wall;
  {
    std::vector<std::thread> fleet;
    for (std::size_t c = 0; c < clients; ++c) {
      fleet.emplace_back([&, c] {
        // Closed loop: one outstanding request per client.
        for (std::size_t i = c; i < total; i += clients) {
          if (util::shutdown_requested()) break;
          const std::size_t sample = i % pool.size();
          auto image = pool.image(sample);
          auto res = engine.submit({image.begin(), image.end()});
          if (res.admission != serve::Admission::kAccepted) {
            dropped.fetch_add(1);
            continue;
          }
          const serve::Prediction p = res.prediction.get();
          answered.fetch_add(1);
          if (static_cast<std::int64_t>(p.label) == pool.label(sample))
            correct.fetch_add(1);
        }
      });
    }
    for (auto& t : fleet) t.join();
  }
  engine.drain();
  const double seconds = wall.seconds();

  const util::Json stats = engine.stats();
  const double rps = seconds > 0.0
                         ? static_cast<double>(answered.load()) / seconds
                         : 0.0;
  std::printf(
      "served %zu/%zu requests (%zu shed/rejected) in %.2fs — %.0f req/s, "
      "accuracy %.1f%%\n",
      answered.load(), total, dropped.load(), seconds, rps,
      answered.load() > 0
          ? 100.0 * static_cast<double>(correct.load()) /
                static_cast<double>(answered.load())
          : 0.0);
  std::printf("latency p50 %.2fms  p95 %.2fms  p99 %.2fms  mean batch %.2f\n",
              stats.at("latency_ms").at("p50").as_number(),
              stats.at("latency_ms").at("p95").as_number(),
              stats.at("latency_ms").at("p99").as_number(),
              stats.at("batches").at("mean_size").as_number());

  if (!args.get("stats-out").empty()) {
    util::Json doc = stats;
    doc["wall_seconds"] = seconds;
    doc["throughput_rps"] = rps;
    util::write_file(args.get("stats-out"), doc.dump(2));
    std::printf("wrote %s\n", args.get("stats-out").c_str());
  }
  if (!trace_out.empty()) {
    util::trace::stop();
    util::trace::write(trace_out);
    std::printf("wrote %s\n", trace_out.c_str());
  }
  if (util::shutdown_requested())
    std::printf("stopped cleanly on signal %d (in-flight requests drained)\n",
                util::shutdown_signal());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("a4nn_serve",
                       "Serve the commons champion with micro-batching");
  args.add_option("commons", "a4nn_commons", "data commons root to serve");
  args.add_option("policy", "best-fitness",
                  "champion policy: best-fitness | min-flops | balanced | "
                  "measured-p99");
  args.add_option("max-flops", "0", "FLOPs-per-image budget (0 = unlimited)");
  args.add_option("max-batch", "8", "micro-batch width");
  args.add_option("max-delay-ms", "2", "max batching delay before flush");
  args.add_option("queue-capacity", "256", "request queue bound");
  args.add_option("workers", "2", "inference worker threads");
  args.add_option("slo-ms", "0", "latency SLO for shedding (0 = off); "
                  "measured-p99 also holds probed candidates against it");
  args.add_flag("auto-batch",
                "sweep (max-batch, max-delay-ms) pairs against the measured "
                "champion latency before serving; journals serve_tune.json "
                "to the commons and serves the winner");
  args.add_option("requests", "2000", "total requests to drive");
  args.add_option("clients", "8", "closed-loop client threads");
  args.add_option("stats-out", "", "write engine stats JSON here");
  args.add_option("trace-out", "", "write a Chrome trace of the run here");
  args.add_option("tune-config", "",
                  "tune.json from a4nn_tune: per-shape GEMM blocking "
                  "(empty: use A4NN_TUNE env var, or compiled defaults)");
  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::printf("%s", args.usage().c_str());
      return 0;
    }
    return run(args);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "a4nn_serve: %s\n%s", e.what(), args.usage().c_str());
    return 1;
  }
}
