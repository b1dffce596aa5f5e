// Model registry for in situ serving: scans a lineage DataCommons for
// trained networks, picks a champion off the Pareto front (max fitness,
// min FLOPs) under a configurable policy, loads its newest framed weight
// snapshot, and publishes it as an immutable generation. refresh() can run
// while traffic flows: generations are handed out as shared_ptr, so a
// hot-swap retires the old model only after the last in-flight batch
// releases it — no request is ever dropped by an upgrade.
//
// Corruption is survived, not propagated: a snapshot or record whose
// integrity frame fails (util::FrameError) or no longer parses is moved to
// <root>/quarantine/<relative path> — the same convention as
// DataCommons::fsck — and the registry falls back to an older epoch, then
// to the next policy candidate, and finally keeps the previously published
// generation rather than serve a damaged model.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>

#include "latency/probe.hpp"
#include "lineage/tracker.hpp"
#include "nn/model.hpp"
#include "util/metrics.hpp"

namespace a4nn::serve {

/// How to order the Pareto-front candidates when picking the champion.
enum class ChampionPolicy {
  kBestFitness,  ///< highest fitness; FLOPs break ties
  kMinFlops,     ///< cheapest forward pass; fitness breaks ties
  kBalanced,     ///< fitness per FLOPs doubling: fitness / log2(2 + flops)
  /// Probe every front candidate on THIS host at the serving micro-batch
  /// geometry and pick by the measured p99 under the SLO — no analytic
  /// proxy.
  kMeasuredP99,
};

const char* champion_policy_name(ChampionPolicy policy);
/// Parse "best-fitness" | "min-flops" | "balanced" | "measured-p99";
/// throws on anything else.
ChampionPolicy champion_policy_from_name(const std::string& name);

struct RegistryConfig {
  std::filesystem::path commons_root;
  ChampionPolicy policy = ChampionPolicy::kBestFitness;
  /// When nonzero, only candidates whose forward FLOPs-per-image fit the
  /// budget are considered (deployment-side constraint; the Pareto front
  /// is recomputed over the eligible set).
  std::uint64_t max_flops = 0;
  /// Counters/gauges land here when set (serve.registry.*). Must outlive
  /// the registry. Nullable.
  util::metrics::Registry* metrics = nullptr;

  // --- measured-p99 policy knobs (ignored by the analytic policies) ----
  /// Latency SLO (ms per image) the measured p99 is held against; 0 means
  /// no SLO filter — the lowest-p99 candidate simply wins ties later.
  double slo_ms = 0.0;
  /// Probe geometry; defaults mirror the serving engine's micro-batch.
  latency::ProbeConfig probe = {};
  /// Timing hook forwarded to the probe (LatencyProbe::set_measure_hook):
  /// lets tests pin the measured milliseconds instead of reading a clock.
  latency::LatencyProbe::MeasureHook probe_hook = {};
};

/// Identity of a published champion.
struct ChampionInfo {
  int model_id = -1;
  std::size_t epoch = 0;     ///< snapshot epoch the weights came from
  double fitness = 0.0;      ///< fitness recorded by the NAS (%)
  std::uint64_t flops = 0;   ///< forward FLOPs per image
  std::uint64_t generation = 0;  ///< 1-based publish counter
  double p99_ms = 0.0;  ///< measured-p99 only: probed p99 (ms/image)
};

/// One immutable published generation. Eval-mode forward is pure (see
/// Layer::forward), so a single instance is shared by every worker thread.
struct ServableGeneration {
  ChampionInfo info;
  nn::Model model;
  tensor::Shape input_shape;   ///< one image (C,H,W)
  std::size_t input_numel = 0;
  std::size_t num_classes = 0;

  ServableGeneration(ChampionInfo champion, nn::Model loaded);

  /// Same as model.predict; perfbench's serve setup calls it.
  tensor::Tensor predict(const tensor::Tensor& images) {
    return model.predict(images);
  }
};

class ModelRegistry {
 public:
  /// Does not touch the filesystem; call refresh() to load a champion.
  explicit ModelRegistry(RegistryConfig config);

  /// Re-scan the commons and publish the current champion. Returns true
  /// when a new generation was published (first load, or the champion
  /// identity changed), false when the active generation already matches.
  /// Corrupt artifacts are quarantined and skipped; if every candidate is
  /// damaged the previous generation stays active (false), and if there is
  /// no previous generation either, throws std::runtime_error.
  bool refresh();

  /// The active generation (nullptr before the first successful refresh).
  /// The returned pointer keeps the generation alive across hot-swaps.
  /// Non-const only because Layer::forward is non-const; treat the
  /// generation as immutable — eval-mode forward writes no member state.
  std::shared_ptr<ServableGeneration> active() const;

  /// Artifacts quarantined by this registry since construction.
  std::size_t quarantined_count() const;

  const RegistryConfig& config() const { return config_; }

 private:
  /// measured-p99 refresh: probe the front candidates (falling back to the
  /// best dominated record when the whole front is damaged) and publish by
  /// measured latency. `order` is front members first, fallbacks after;
  /// `front_size` is where the front ends.
  bool refresh_measured(lineage::DataCommons& commons,
                        std::vector<nas::EvaluationRecord>& eligible,
                        const std::vector<std::size_t>& order,
                        std::size_t front_size,
                        std::size_t& newly_quarantined);
  /// Publish `generation` under the lock, bump counters, emit traces.
  bool publish(std::shared_ptr<ServableGeneration> generation,
               std::size_t newly_quarantined);
  /// No candidate loaded: keep the active generation (false), or throw
  /// std::runtime_error when there is none yet.
  bool keep_previous(std::size_t newly_quarantined);
  /// Fold this refresh's quarantines into quarantined_ and the
  /// serve.registry.quarantined counter. Caller holds mutex_.
  void add_quarantined(std::size_t newly_quarantined);

  RegistryConfig config_;
  mutable std::mutex mutex_;
  std::shared_ptr<ServableGeneration> active_;
  std::uint64_t next_generation_ = 1;
  std::size_t quarantined_ = 0;
};

}  // namespace a4nn::serve
