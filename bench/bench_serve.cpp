// Serving benchmark: closed-loop load against the micro-batching engine,
// batch-1 baseline vs micro-batched, on a self-contained temp commons.
// Emits BENCH_serve.json (throughput, p50/p95/p99 latency, speedup) and —
// with --floor — enforces the shared floor gate (floor_gate.hpp).
//
//   ./bench_serve                            # print table + write JSON
//   ./bench_serve --floor ../bench/serve_floor.json
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "floor_gate.hpp"
#include "lineage/tracker.hpp"
#include "nn/layers.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "util/args.hpp"
#include "util/fsutil.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace a4nn;

namespace {

constexpr std::size_t kSide = 16;  // {1,16,16} detector input
constexpr std::size_t kClasses = 2;

/// Conv stem + wide MLP head. The head is where micro-batching pays even
/// on one core: a batch-1 Linear is a GEMM with m=1 that re-streams the
/// whole weight matrix per request, while m=32 reuses every weight tile
/// across the batch. The conv stem's per-image GEMMs cost the same either
/// way, so the measured speedup is the genuine batching win, not a
/// parallelism artifact.
nn::Model bench_model(std::uint64_t seed) {
  util::Rng rng(seed);
  auto trunk = std::make_unique<nn::Sequential>();
  trunk->append(std::make_unique<nn::Conv2d>(1, 8, 3, 1, 1, rng));
  trunk->append(std::make_unique<nn::ReLU>());
  trunk->append(std::make_unique<nn::MaxPool2d>(2));
  trunk->append(std::make_unique<nn::Flatten>());
  trunk->append(std::make_unique<nn::Linear>(8 * 8 * 8, 512, rng));
  trunk->append(std::make_unique<nn::ReLU>());
  trunk->append(std::make_unique<nn::Linear>(512, 512, rng));
  trunk->append(std::make_unique<nn::ReLU>());
  trunk->append(std::make_unique<nn::Linear>(512, kClasses, rng));
  return nn::Model(std::move(trunk), {1, kSide, kSide});
}

struct LoadResult {
  double rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
};

/// Drive `total` requests from `clients` closed-loop threads (one
/// outstanding request each) and read the tail off the engine stats.
LoadResult drive(serve::ModelRegistry& registry, serve::EngineConfig cfg,
                 std::size_t clients, std::size_t total,
                 const std::vector<std::vector<float>>& images) {
  serve::InferenceEngine engine(registry, cfg);
  std::atomic<std::size_t> answered{0};
  util::Timer wall;
  {
    std::vector<std::thread> fleet;
    for (std::size_t c = 0; c < clients; ++c) {
      fleet.emplace_back([&, c] {
        for (std::size_t i = c; i < total; i += clients) {
          auto res = engine.submit(images[i % images.size()]);
          if (res.admission != serve::Admission::kAccepted) continue;
          res.prediction.get();
          answered.fetch_add(1);
        }
      });
    }
    for (auto& t : fleet) t.join();
  }
  engine.drain();
  const double seconds = wall.seconds();
  const util::Json stats = engine.stats();
  LoadResult r;
  r.rps = seconds > 0.0 ? static_cast<double>(answered.load()) / seconds : 0.0;
  r.p50_ms = stats.at("latency_ms").at("p50").as_number();
  r.p95_ms = stats.at("latency_ms").at("p95").as_number();
  r.p99_ms = stats.at("latency_ms").at("p99").as_number();
  r.mean_batch = stats.at("batches").at("mean_size").as_number();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_serve",
                       "Serving throughput benchmark (BENCH_serve.json)");
  args.add_option("out", "BENCH_serve.json", "output JSON path");
  args.add_option("requests", "3000", "requests per configuration");
  args.add_option("workers", "4", "workers for the micro-batched config");
  args.add_option("floor", "",
                  "serve_floor.json with minimum values; exit nonzero if "
                  "any metric measures below half its floor or has no entry");
  try {
    args.parse(argc, argv);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), args.usage().c_str());
    return 1;
  }
  if (args.help_requested()) {
    std::printf("%s", args.usage().c_str());
    return 0;
  }

  // Self-contained commons: publish one champion into a temp tree.
  const std::filesystem::path root = util::make_temp_dir("a4nn-bench-serve");
  {
    lineage::LineageTracker tracker({root, 1, /*durable=*/false});
    tracker.record_search_config(util::Json::object());
    nn::Model model = bench_model(42);
    tracker.record_model_epoch(0, 1, model);
    util::Rng rng(42);
    nas::EvaluationRecord record;
    record.genome = nas::random_genome(3, 4, rng);
    record.model_id = 0;
    record.fitness = 90.0;
    record.flops = model.flops_per_image();
    tracker.record_evaluation(record);
  }
  serve::ModelRegistry registry({root});
  registry.refresh();

  util::Rng rng(7);
  std::vector<std::vector<float>> images(64);
  for (auto& img : images) {
    img.resize(kSide * kSide);
    for (auto& v : img) v = static_cast<float>(rng.uniform());
  }

  const std::size_t total = args.get_size("requests");

  // Baseline: strictly one request per forward pass, serially.
  serve::EngineConfig base_cfg;
  base_cfg.max_batch = 1;
  base_cfg.max_delay_ms = 0.0;
  base_cfg.queue_capacity = 8192;
  base_cfg.workers = 1;
  const LoadResult baseline = drive(registry, base_cfg, 1, total, images);

  // Micro-batched: wide batches, multiple workers, a saturating fleet.
  serve::EngineConfig micro_cfg;
  micro_cfg.max_batch = 32;
  micro_cfg.max_delay_ms = 1.0;
  micro_cfg.queue_capacity = 8192;
  micro_cfg.workers = args.get_size("workers");
  const LoadResult micro = drive(registry, micro_cfg, 32, total, images);
  std::filesystem::remove_all(root);

  util::AsciiTable table(
      {"config", "req/s", "p50 ms", "p95 ms", "p99 ms", "mean batch"});
  auto row = [&table](const char* name, const LoadResult& r) {
    table.add_row({name, util::AsciiTable::num(r.rps, 0),
                   util::AsciiTable::num(r.p50_ms, 2),
                   util::AsciiTable::num(r.p95_ms, 2),
                   util::AsciiTable::num(r.p99_ms, 2),
                   util::AsciiTable::num(r.mean_batch, 2)});
  };
  row("batch-1", baseline);
  row("micro-batched", micro);
  std::printf("%s", table.render().c_str());
  const double speedup = baseline.rps > 0.0 ? micro.rps / baseline.rps : 0.0;
  std::printf("micro-batched vs batch-1 throughput: %.2fx\n", speedup);

  util::Json json = util::Json::object();
  auto dump = [](const LoadResult& r) {
    util::Json j = util::Json::object();
    j["throughput_rps"] = r.rps;
    j["p50_ms"] = r.p50_ms;
    j["p95_ms"] = r.p95_ms;
    j["p99_ms"] = r.p99_ms;
    j["mean_batch"] = r.mean_batch;
    return j;
  };
  json["baseline"] = dump(baseline);
  json["micro_batched"] = dump(micro);
  json["speedup"] = speedup;
  json["requests"] = total;
  util::write_file(args.get("out"), json.dump(2));
  std::printf("wrote %s\n", args.get("out").c_str());

  if (!args.get("floor").empty() &&
      bench::floor_violations(args.get("floor"),
                              {{"baseline_rps", baseline.rps},
                               {"micro_rps", micro.rps},
                               {"speedup", speedup}}) > 0)
    return 2;
  return 0;
}
