// Serving layer: champion selection (analytic policies and measured p99),
// bit-identical micro-batching, hot-swap without request loss, SLO
// shedding, queue backpressure, and corrupt-artifact fallback.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "lineage/tracker.hpp"
#include "nn/layers.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "tensor/ops.hpp"
#include "util/fsutil.hpp"

namespace a4nn::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kInputNumel = 1 * 8 * 8;  // one {1,8,8} image
constexpr std::size_t kClasses = 3;

nn::Model tiny_model(std::uint64_t seed) {
  util::Rng rng(seed);
  auto trunk = std::make_unique<nn::Sequential>();
  trunk->append(std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, rng));
  trunk->append(std::make_unique<nn::ReLU>());
  trunk->append(std::make_unique<nn::MaxPool2d>(2));
  trunk->append(std::make_unique<nn::Flatten>());
  trunk->append(std::make_unique<nn::Linear>(4 * 4 * 4, kClasses, rng));
  return nn::Model(std::move(trunk), {1, 8, 8});
}

/// Model exercising the layers with training/eval mode splits, so the
/// batch-size-invariance runs cover running-stat and mask handling too.
nn::Model normed_model(std::uint64_t seed) {
  util::Rng rng(seed);
  auto trunk = std::make_unique<nn::Sequential>();
  trunk->append(std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, rng));
  trunk->append(std::make_unique<nn::BatchNorm2d>(4));
  trunk->append(std::make_unique<nn::ReLU>());
  trunk->append(std::make_unique<nn::Dropout>(0.5, seed + 1));
  trunk->append(std::make_unique<nn::GlobalAvgPool>());
  trunk->append(std::make_unique<nn::Linear>(4, kClasses, rng));
  return nn::Model(std::move(trunk), {1, 8, 8});
}

std::vector<float> random_image(util::Rng& rng) {
  std::vector<float> img(kInputNumel);
  for (auto& v : img) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return img;
}

struct ServeFixture : ::testing::Test {
  void SetUp() override {
    root = util::make_temp_dir("a4nn-serve");
    tracker = std::make_unique<lineage::LineageTracker>(
        lineage::TrackerConfig{root, 1, /*durable=*/false});
    util::Json cfg = util::Json::object();
    cfg["experiment"] = "serve-test";
    tracker->record_search_config(cfg);
  }
  void TearDown() override { fs::remove_all(root); }

  /// Publish a trained-model stand-in: snapshots at `epochs` plus a record
  /// trail carrying the fitness/FLOPs the champion policy reads.
  void publish(int id, double fitness, std::uint64_t flops,
               std::uint64_t seed, std::vector<std::size_t> epochs = {1},
               bool normed = false) {
    nn::Model model = normed ? normed_model(seed) : tiny_model(seed);
    for (std::size_t e : epochs) tracker->record_model_epoch(id, e, model);
    util::Rng rng(seed);
    nas::EvaluationRecord r;
    r.genome = nas::random_genome(3, 4, rng);
    r.model_id = id;
    r.generation = 0;
    r.fitness = fitness;
    r.measured_fitness = fitness;
    r.flops = flops;
    r.epochs_trained = epochs.empty() ? 0 : epochs.back();
    r.max_epochs = 25;
    tracker->record_evaluation(r);
  }

  /// measured-p99 config whose probe "measures" the scripted milliseconds
  /// in hook-call order (candidates probe in model-id order).
  RegistryConfig measured_config(std::vector<double> script) const {
    RegistryConfig cfg;
    cfg.commons_root = root;
    cfg.policy = ChampionPolicy::kMeasuredP99;
    cfg.probe.batch = 1;
    cfg.probe.warmup = 0;
    cfg.probe.repeats = 1;
    auto plan = std::make_shared<std::vector<double>>(std::move(script));
    auto cursor = std::make_shared<std::size_t>(0);
    cfg.probe_hook = [plan, cursor](const std::function<void()>& pass) {
      pass();  // still run the forward: shapes and kernels stay exercised
      return plan->at((*cursor)++);
    };
    return cfg;
  }

  fs::path snapshot_path(int id, std::size_t epoch) const {
    return root / "models" / lineage::model_dir_name(id) /
           lineage::snapshot_file_name(epoch);
  }

  fs::path root;
  std::unique_ptr<lineage::LineageTracker> tracker;
};

/// Flip one bit of the file at a relative offset in (0, 1).
void flip_bit(const fs::path& path, double where) {
  std::string bytes = util::read_file(path);
  ASSERT_FALSE(bytes.empty());
  auto pos = static_cast<std::size_t>(where * static_cast<double>(bytes.size()));
  if (pos >= bytes.size()) pos = bytes.size() - 1;
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Truncate the file to a fraction of its size (0 empties it).
void truncate_file(const fs::path& path, double keep) {
  std::string bytes = util::read_file(path);
  bytes.resize(static_cast<std::size_t>(keep * static_cast<double>(bytes.size())));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ServeFixture, ChampionPolicyNamesRoundTrip) {
  for (ChampionPolicy p : {ChampionPolicy::kBestFitness,
                           ChampionPolicy::kMinFlops,
                           ChampionPolicy::kBalanced,
                           ChampionPolicy::kMeasuredP99})
    EXPECT_EQ(champion_policy_from_name(champion_policy_name(p)), p);
  EXPECT_STREQ(champion_policy_name(ChampionPolicy::kMeasuredP99),
               "measured-p99");
  EXPECT_THROW(champion_policy_from_name("bogus"), std::invalid_argument);
}

TEST_F(ServeFixture, SloSatisfiersOutrankFasterButLessFitModels) {
  // All three are Pareto-front members (fitness and FLOPs both increase).
  publish(0, 90.0, 2000, 11);
  publish(1, 95.0, 8000, 12);
  publish(2, 85.0, 1000, 13);

  // Probed in model-id order: 0 -> 5ms, 1 -> 12ms, 2 -> 3ms. Under a 6ms
  // SLO the most accurate *compliant* model wins — model 0, not the
  // higher-fitness SLO violator 1, and not the fastest model 2.
  // A second refresh measures the same champion and does not republish.
  RegistryConfig cfg = measured_config({5.0, 12.0, 3.0, 5.0, 12.0, 3.0});
  cfg.slo_ms = 6.0;
  ModelRegistry registry(cfg);
  EXPECT_TRUE(registry.refresh());
  EXPECT_EQ(registry.active()->info.model_id, 0);
  EXPECT_DOUBLE_EQ(registry.active()->info.p99_ms, 5.0);
  EXPECT_FALSE(registry.refresh());
  EXPECT_EQ(registry.active()->info.generation, 1u);

  // When every candidate misses the SLO, least-bad latency wins.
  RegistryConfig strict = measured_config({5.0, 12.0, 3.0});
  strict.slo_ms = 1.0;
  ModelRegistry least_bad(strict);
  EXPECT_TRUE(least_bad.refresh());
  EXPECT_EQ(least_bad.active()->info.model_id, 2);
  EXPECT_DOUBLE_EQ(least_bad.active()->info.p99_ms, 3.0);
}

TEST_F(ServeFixture, ChampionSelectionFollowsPolicy) {
  // All three sit on the Pareto front (fitness and FLOPs both increase).
  publish(0, 90.0, 2000, 11);
  publish(1, 95.0, 8000, 12);
  publish(2, 85.0, 1000, 13);

  ModelRegistry best({root, ChampionPolicy::kBestFitness});
  EXPECT_TRUE(best.refresh());
  EXPECT_EQ(best.active()->info.model_id, 1);
  EXPECT_EQ(best.active()->info.generation, 1u);
  EXPECT_FALSE(best.refresh());  // unchanged champion: no republish

  ModelRegistry cheap({root, ChampionPolicy::kMinFlops});
  EXPECT_TRUE(cheap.refresh());
  EXPECT_EQ(cheap.active()->info.model_id, 2);

  // Balanced: 85 / log2(1002) beats 90 / log2(2002) and 95 / log2(8002).
  ModelRegistry balanced({root, ChampionPolicy::kBalanced});
  EXPECT_TRUE(balanced.refresh());
  EXPECT_EQ(balanced.active()->info.model_id, 2);

  // A FLOPs budget narrows the candidate set before the front is taken.
  ModelRegistry budget({root, ChampionPolicy::kBestFitness, 3000});
  EXPECT_TRUE(budget.refresh());
  EXPECT_EQ(budget.active()->info.model_id, 0);
}

TEST_F(ServeFixture, RegistryPrefersNewestSnapshotAndFailedRecordsAreSkipped) {
  publish(0, 90.0, 2000, 21, {1, 3, 7});
  publish(1, 99.0, 1000, 22);
  {
    // Mark model 1 failed after the fact: highest fitness, but no
    // trustworthy record — the registry must not serve it.
    lineage::DataCommons commons(root);
    auto records = commons.load_records();
    for (auto& r : records)
      if (r.model_id == 1) {
        r.failed = true;
        tracker->record_evaluation(r);
      }
  }
  ModelRegistry registry({root});
  EXPECT_TRUE(registry.refresh());
  EXPECT_EQ(registry.active()->info.model_id, 0);
  EXPECT_EQ(registry.active()->info.epoch, 7u);
}

TEST_F(ServeFixture, PredictionsBitIdenticalAcrossBatchingAndWorkers) {
  // The serving determinism guarantee: a request's scores do not depend on
  // how it was batched or which worker ran it. Exercised on a model with
  // BatchNorm + Dropout, the layers with real train/eval mode splits.
  publish(0, 90.0, 2000, 31, {1}, /*normed=*/true);
  ModelRegistry registry({root});
  registry.refresh();

  util::Rng rng(77);
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 48; ++i) images.push_back(random_image(rng));

  // Reference: strict batch-1 forward, straight through the model.
  std::vector<std::vector<float>> reference;
  {
    auto generation = registry.active();
    for (const auto& img : images) {
      tensor::Tensor one({1, 1, 8, 8}, img);
      tensor::Tensor out = generation->model.predict(one);
      reference.emplace_back(out.data(), out.data() + kClasses);
    }
  }

  for (std::size_t max_batch : {1u, 8u, 32u}) {
    for (std::size_t workers : {1u, 2u, 8u}) {
      EngineConfig cfg;
      cfg.max_batch = max_batch;
      cfg.max_delay_ms = 0.5;
      cfg.queue_capacity = 1024;
      cfg.workers = workers;
      InferenceEngine engine(registry, cfg);
      std::vector<std::future<Prediction>> futures;
      for (const auto& img : images) {
        auto res = engine.submit(img);
        ASSERT_EQ(res.admission, Admission::kAccepted);
        futures.push_back(std::move(res.prediction));
      }
      for (std::size_t i = 0; i < images.size(); ++i) {
        Prediction p = futures[i].get();
        ASSERT_EQ(p.scores.size(), kClasses);
        EXPECT_EQ(std::memcmp(p.scores.data(), reference[i].data(),
                              kClasses * sizeof(float)),
                  0)
            << "image " << i << " max_batch " << max_batch << " workers "
            << workers;
      }
    }
  }
}

TEST_F(ServeFixture, BatchInvarianceSurvivesTunedBlocking) {
  // Same guarantee as above, but with an autotuned blocking table installed
  // for the exact (k, n) shapes this champion's layers emit. A tuned config
  // may change the summation order, but never per-m: row i of a batched
  // GEMM must still be the bytes batch-1 would produce.
  struct TableGuard {
    ~TableGuard() { tensor::clear_tuned_tile_configs(); }
  } table_guard;
  tensor::TileConfig forced;
  forced.mc = 36;
  forced.kc = 4;  // k=9 conv GEMM now spans three k-panels
  forced.nc = 64;
  forced.small_row_flops = 0;  // force the blocked path even at these sizes
  // Conv2d(1->4, 3x3) on 8x8: k = 9, n = 64. Linear(4 -> 3): k = 4, n = 3.
  tensor::set_tuned_tile_configs({{9, 64, forced}, {4, 3, forced}});

  publish(0, 90.0, 2000, 51, {1}, /*normed=*/true);
  ModelRegistry registry({root});
  registry.refresh();

  util::Rng rng(79);
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 48; ++i) images.push_back(random_image(rng));

  std::vector<std::vector<float>> reference;
  {
    auto generation = registry.active();
    for (const auto& img : images) {
      tensor::Tensor one({1, 1, 8, 8}, img);
      tensor::Tensor out = generation->model.predict(one);
      reference.emplace_back(out.data(), out.data() + kClasses);
    }
  }

  for (std::size_t max_batch : {1u, 8u, 32u}) {
    EngineConfig cfg;
    cfg.max_batch = max_batch;
    cfg.max_delay_ms = 0.5;
    cfg.queue_capacity = 1024;
    cfg.workers = 2;
    InferenceEngine engine(registry, cfg);
    std::vector<std::future<Prediction>> futures;
    for (const auto& img : images) {
      auto res = engine.submit(img);
      ASSERT_EQ(res.admission, Admission::kAccepted);
      futures.push_back(std::move(res.prediction));
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      Prediction p = futures[i].get();
      ASSERT_EQ(p.scores.size(), kClasses);
      EXPECT_EQ(std::memcmp(p.scores.data(), reference[i].data(),
                            kClasses * sizeof(float)),
                0)
          << "image " << i << " max_batch " << max_batch;
    }
  }
}

TEST_F(ServeFixture, HotSwapMidStreamLosesNoRequests) {
  publish(0, 90.0, 2000, 41);
  ModelRegistry registry({root});
  registry.refresh();

  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 0.2;
  cfg.queue_capacity = 4096;
  cfg.workers = 2;
  InferenceEngine engine(registry, cfg);

  util::Rng rng(88);
  constexpr int kRequests = 300;
  std::vector<std::future<Prediction>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    // Publish a better champion mid-stream; in-flight work must survive.
    if (i == kRequests / 2) {
      publish(1, 99.0, 1500, 42);
      EXPECT_TRUE(registry.refresh());
    }
    auto res = engine.submit(random_image(rng));
    ASSERT_EQ(res.admission, Admission::kAccepted);
    futures.push_back(std::move(res.prediction));
  }
  engine.drain();

  std::size_t swapped = 0;
  for (auto& f : futures) {
    const Prediction p = f.get();  // no request lost, no exception
    EXPECT_TRUE(p.generation == 1 || p.generation == 2);
    if (p.generation == 2) ++swapped;
  }
  // Batches are bound to a generation at dispatch, after they leave the
  // queue — so everything submitted after the swap ran on generation 2.
  EXPECT_GE(swapped, static_cast<std::size_t>(kRequests / 2));
  // And the post-drain engine serves the new champion.
  auto res = engine.submit(random_image(rng));
  ASSERT_EQ(res.admission, Admission::kAccepted);
  EXPECT_EQ(res.prediction.get().generation, 2u);
}

TEST_F(ServeFixture, SheddingActivatesAboveSloAndShowsInMetrics) {
  publish(0, 90.0, 2000, 51);
  ModelRegistry registry({root});
  registry.refresh();

  util::metrics::Registry metrics;
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_ms = 1.0;
  cfg.queue_capacity = 64;
  cfg.workers = 1;
  cfg.slo_ms = 10.0;
  cfg.metrics = &metrics;
  InferenceEngine engine(registry, cfg);
  // Deterministic shed decisions: pin the per-item estimate instead of
  // racing the first measured batch.
  engine.hint_service_time_ms(5.0);
  engine.pause();

  util::Rng rng(99);
  // First request estimates 1*5 + 1 = 6ms <= SLO: accepted.
  auto first = engine.submit(random_image(rng));
  EXPECT_EQ(first.admission, Admission::kAccepted);
  // Next one estimates 2*5 + 1 = 11ms > 10ms SLO: shed at admission.
  auto second = engine.submit(random_image(rng));
  EXPECT_EQ(second.admission, Admission::kShed);
  auto third = engine.submit(random_image(rng));
  EXPECT_EQ(third.admission, Admission::kShed);

  engine.resume();
  engine.drain();
  EXPECT_EQ(first.prediction.get().scores.size(), kClasses);

  const util::Json snap = metrics.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("counters").at("serve.requests_shed").as_number(),
                   2.0);
  EXPECT_DOUBLE_EQ(snap.at("counters").at("serve.requests_ok").as_number(),
                   1.0);
  const util::Json stats = engine.stats();
  EXPECT_DOUBLE_EQ(stats.at("requests").at("shed").as_number(), 2.0);
  EXPECT_LE(stats.at("latency_ms").at("p50").as_number(),
            stats.at("latency_ms").at("p99").as_number());
  EXPECT_EQ(stats.at("champion").at("model_id").as_number(), 0.0);
}

TEST_F(ServeFixture, FullQueueRejectsWithBackpressure) {
  publish(0, 90.0, 2000, 61);
  ModelRegistry registry({root});
  registry.refresh();

  EngineConfig cfg;
  cfg.max_batch = 2;
  cfg.max_delay_ms = 1.0;
  cfg.queue_capacity = 4;
  cfg.workers = 1;
  InferenceEngine engine(registry, cfg);
  engine.pause();

  util::Rng rng(111);
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 4; ++i) {
    auto res = engine.submit(random_image(rng));
    ASSERT_EQ(res.admission, Admission::kAccepted);
    futures.push_back(std::move(res.prediction));
  }
  EXPECT_EQ(engine.queue_depth(), 4u);
  auto overflow = engine.submit(random_image(rng));
  EXPECT_EQ(overflow.admission, Admission::kRejected);

  engine.resume();
  engine.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().scores.size(), kClasses);
  EXPECT_DOUBLE_EQ(engine.stats().at("requests").at("rejected").as_number(),
                   1.0);
}

TEST_F(ServeFixture, CorruptionSweepFallsBackToIntactGeneration) {
  // Baseline champion that stays intact throughout.
  publish(10, 95.0, 2000, 71);
  ModelRegistry registry({root});
  EXPECT_TRUE(registry.refresh());
  EXPECT_EQ(registry.active()->info.model_id, 10);

  // Sweep: each round publishes a better champion, damages its only
  // snapshot a different way, and refreshes. The registry must quarantine
  // the damage and keep serving the intact baseline — never crash.
  struct Damage {
    const char* name;
    void (*apply)(const fs::path&);
  };
  const Damage kDamage[] = {
      {"bit flip in header", [](const fs::path& p) { flip_bit(p, 0.001); }},
      {"bit flip mid payload", [](const fs::path& p) { flip_bit(p, 0.5); }},
      {"bit flip near end", [](const fs::path& p) { flip_bit(p, 0.97); }},
      {"truncated to half", [](const fs::path& p) { truncate_file(p, 0.5); }},
      {"truncated to empty", [](const fs::path& p) { truncate_file(p, 0.0); }},
  };
  int id = 20;
  double fitness = 96.0;
  std::size_t expect_quarantined = 0;
  for (const Damage& damage : kDamage) {
    publish(id, fitness, 1000, 80 + static_cast<std::uint64_t>(id));
    damage.apply(snapshot_path(id, 1));
    EXPECT_FALSE(registry.refresh()) << damage.name;
    EXPECT_EQ(registry.active()->info.model_id, 10) << damage.name;
    ++expect_quarantined;
    EXPECT_EQ(registry.quarantined_count(), expect_quarantined) << damage.name;
    EXPECT_TRUE(fs::exists(root / "quarantine" / "models" /
                           lineage::model_dir_name(id) /
                           lineage::snapshot_file_name(1)))
        << damage.name;
    ++id;
    fitness += 1.0;
  }

  // A corrupt record trail costs only that candidate, not the scan.
  publish(50, 99.5, 900, 200);
  flip_bit(root / "models" / lineage::model_dir_name(50) / "record.json", 0.5);
  EXPECT_FALSE(registry.refresh());
  EXPECT_EQ(registry.active()->info.model_id, 10);

  // The intact champion still serves after the whole sweep.
  ModelRegistry fresh({root});
  EXPECT_TRUE(fresh.refresh());
  EXPECT_EQ(fresh.active()->info.model_id, 10);
}

TEST_F(ServeFixture, DamagedChampionMidServeKeepsOldGenerationAlive) {
  publish(0, 90.0, 2000, 91);
  ModelRegistry registry({root});
  registry.refresh();
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.workers = 1;
  InferenceEngine engine(registry, cfg);

  // A better champion lands, but its snapshot is torn. refresh() must keep
  // the live generation and the engine keeps answering.
  publish(1, 99.0, 1500, 92);
  truncate_file(snapshot_path(1, 1), 0.3);
  EXPECT_FALSE(registry.refresh());
  EXPECT_EQ(registry.active()->info.model_id, 0);

  util::Rng rng(123);
  auto res = engine.submit(random_image(rng));
  ASSERT_EQ(res.admission, Admission::kAccepted);
  EXPECT_EQ(res.prediction.get().generation, 1u);
}

TEST_F(ServeFixture, EmptyCommonsThrowsOnlyWithNothingToServe) {
  // A record without snapshots is not servable.
  util::Rng rng(7);
  nas::EvaluationRecord r;
  r.genome = nas::random_genome(3, 4, rng);
  r.model_id = 0;
  r.fitness = 90.0;
  r.flops = 1000;
  tracker->record_evaluation(r);
  ModelRegistry registry({root});
  EXPECT_THROW(registry.refresh(), std::runtime_error);
  EXPECT_EQ(registry.active(), nullptr);
}

TEST_F(ServeFixture, SubmitValidatesImageSize) {
  publish(0, 90.0, 2000, 101);
  ModelRegistry registry({root});
  registry.refresh();
  InferenceEngine engine(registry, {});
  EXPECT_THROW(engine.submit(std::vector<float>(3)), std::invalid_argument);
}

}  // namespace
}  // namespace a4nn::serve
