#include "serve/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "analytics/analyzer.hpp"
#include "util/frame.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace a4nn::serve {

namespace fs = std::filesystem;

const char* champion_policy_name(ChampionPolicy policy) {
  switch (policy) {
    case ChampionPolicy::kBestFitness:
      return "best-fitness";
    case ChampionPolicy::kMinFlops:
      return "min-flops";
    case ChampionPolicy::kBalanced:
      return "balanced";
    case ChampionPolicy::kMeasuredP99:
      return "measured-p99";
  }
  return "unknown";
}

ChampionPolicy champion_policy_from_name(const std::string& name) {
  if (name == "best-fitness") return ChampionPolicy::kBestFitness;
  if (name == "min-flops") return ChampionPolicy::kMinFlops;
  if (name == "balanced") return ChampionPolicy::kBalanced;
  if (name == "measured-p99") return ChampionPolicy::kMeasuredP99;
  throw std::invalid_argument("unknown champion policy: " + name);
}

ServableGeneration::ServableGeneration(ChampionInfo champion, nn::Model loaded)
    : info(champion),
      model(std::move(loaded)),
      input_shape(model.input_shape()),
      input_numel(tensor::shape_numel(model.input_shape())),
      num_classes(tensor::shape_numel(
          model.trunk().output_shape(model.input_shape()))) {}

namespace {

/// Fitness per doubling of compute: rewards accuracy but charges a log
/// price for FLOPs, so a 2x cheaper model wins unless it costs accuracy.
double balanced_score(const nas::EvaluationRecord& r) {
  return r.fitness / std::log2(2.0 + static_cast<double>(r.flops));
}

/// Strict ordering "a is a better champion than b" under `policy`.
/// Model id breaks final ties so the choice is deterministic.
bool better_champion(ChampionPolicy policy, const nas::EvaluationRecord& a,
                     const nas::EvaluationRecord& b) {
  switch (policy) {
    case ChampionPolicy::kBestFitness:
      if (a.fitness != b.fitness) return a.fitness > b.fitness;
      if (a.flops != b.flops) return a.flops < b.flops;
      break;
    case ChampionPolicy::kMinFlops:
      if (a.flops != b.flops) return a.flops < b.flops;
      if (a.fitness != b.fitness) return a.fitness > b.fitness;
      break;
    case ChampionPolicy::kBalanced: {
      const double sa = balanced_score(a);
      const double sb = balanced_score(b);
      if (sa != sb) return sa > sb;
      break;
    }
    case ChampionPolicy::kMeasuredP99:
      // Ranking happens after probing; here the comparator only fixes a
      // deterministic probe order (the model-id tiebreak below).
      break;
  }
  return a.model_id < b.model_id;
}

/// Move a damaged artifact into <root>/quarantine/<relative path> — same
/// convention as DataCommons::fsck, so one later fsck pass sees both.
void quarantine_artifact(const fs::path& root, const fs::path& file,
                         const std::string& reason) {
  const fs::path rel = fs::relative(file, root);
  const fs::path target = root / "quarantine" / rel;
  std::error_code ec;
  fs::create_directories(target.parent_path(), ec);
  fs::rename(file, target, ec);
  if (ec) fs::remove(file, ec);  // cross-device or racing writer: drop it
  util::log_warn("registry: quarantined ", rel.string(), " (", reason, ")");
}

}  // namespace

ModelRegistry::ModelRegistry(RegistryConfig config)
    : config_(std::move(config)) {}

std::shared_ptr<ServableGeneration> ModelRegistry::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

std::size_t ModelRegistry::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_;
}

bool ModelRegistry::refresh() {
  util::trace::Scope span("registry.refresh", "serve");
  if (config_.metrics) config_.metrics->counter("serve.registry.refreshes").add();
  lineage::DataCommons commons(config_.commons_root);

  // Scan record trails one by one (a corrupt record must cost only itself,
  // not the whole scan the way DataCommons::load_records would).
  std::size_t newly_quarantined = 0;
  std::vector<nas::EvaluationRecord> eligible;
  for (int id : commons.model_ids()) {
    const fs::path record_path = config_.commons_root / "models" /
                                 lineage::model_dir_name(id) / "record.json";
    if (!fs::exists(record_path)) continue;
    nas::EvaluationRecord record;
    try {
      record = nas::EvaluationRecord::from_json(
          util::Json::parse(lineage::read_artifact(record_path)));
    } catch (const std::exception& e) {
      quarantine_artifact(config_.commons_root, record_path, e.what());
      ++newly_quarantined;
      continue;
    }
    if (record.failed) continue;  // no trustworthy fitness
    if (config_.max_flops != 0 && record.flops > config_.max_flops) continue;
    if (commons.snapshot_epochs(id).empty()) continue;  // nothing to load
    eligible.push_back(std::move(record));
  }

  // Champion order: Pareto-front members first (policy-sorted), then the
  // dominated records as deeper fallbacks — a fully corrupt front should
  // still leave something servable.
  std::vector<std::size_t> order = analytics::pareto_indices(eligible);
  const std::size_t front_size = order.size();
  {
    std::vector<char> on_front(eligible.size(), 0);
    for (std::size_t i : order) on_front[i] = 1;
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < eligible.size(); ++i)
      if (!on_front[i]) rest.push_back(i);
    auto by_policy = [&](std::size_t a, std::size_t b) {
      return better_champion(config_.policy, eligible[a], eligible[b]);
    };
    std::sort(order.begin(), order.end(), by_policy);
    std::sort(rest.begin(), rest.end(), by_policy);
    order.insert(order.end(), rest.begin(), rest.end());
  }

  if (config_.policy == ChampionPolicy::kMeasuredP99)
    return refresh_measured(commons, eligible, order, front_size,
                            newly_quarantined);

  // Walk candidates best-first, newest snapshot first; quarantine whatever
  // fails its frame or no longer parses and keep walking.
  for (std::size_t idx : order) {
    const nas::EvaluationRecord& record = eligible[idx];
    std::vector<std::size_t> epochs = commons.snapshot_epochs(record.model_id);
    for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (active_ && active_->info.model_id == record.model_id &&
            active_->info.epoch == *it) {
          add_quarantined(newly_quarantined);
          return false;  // champion unchanged; keep the live generation
        }
      }
      try {
        nn::Model model = commons.load_model(record.model_id, *it);
        ChampionInfo info;
        info.model_id = record.model_id;
        info.epoch = *it;
        info.fitness = record.fitness;
        info.flops = record.flops;
        return publish(std::make_shared<ServableGeneration>(
                           info, std::move(model)),
                       newly_quarantined);
      } catch (const std::exception& e) {
        const fs::path snapshot = config_.commons_root / "models" /
                                  lineage::model_dir_name(record.model_id) /
                                  lineage::snapshot_file_name(*it);
        quarantine_artifact(config_.commons_root, snapshot, e.what());
        ++newly_quarantined;
      }
    }
  }

  // Every candidate failed (or the commons is empty): keep serving the
  // previous generation if there is one, never a damaged model.
  return keep_previous(newly_quarantined);
}

bool ModelRegistry::keep_previous(std::size_t newly_quarantined) {
  std::lock_guard<std::mutex> lock(mutex_);
  add_quarantined(newly_quarantined);
  if (active_) {
    util::log_warn("registry: refresh found no loadable champion; keeping "
                   "generation ", active_->info.generation);
    return false;
  }
  throw std::runtime_error("ModelRegistry: no servable model in " +
                           config_.commons_root.string());
}

void ModelRegistry::add_quarantined(std::size_t newly_quarantined) {
  quarantined_ += newly_quarantined;
  if (config_.metrics && newly_quarantined > 0)
    config_.metrics->counter("serve.registry.quarantined")
        .add(static_cast<double>(newly_quarantined));
}

bool ModelRegistry::publish(std::shared_ptr<ServableGeneration> generation,
                            std::size_t newly_quarantined) {
  std::lock_guard<std::mutex> lock(mutex_);
  generation->info.generation = next_generation_++;
  active_ = std::move(generation);
  add_quarantined(newly_quarantined);
  if (config_.metrics) {
    auto& m = *config_.metrics;
    m.counter("serve.registry.publishes").add();
    m.gauge("serve.registry.generation")
        .set(static_cast<double>(active_->info.generation));
    m.gauge("serve.registry.champion_model_id")
        .set(static_cast<double>(active_->info.model_id));
    m.gauge("serve.registry.champion_epoch")
        .set(static_cast<double>(active_->info.epoch));
    m.gauge("serve.registry.champion_fitness").set(active_->info.fitness);
    m.gauge("serve.registry.champion_flops")
        .set(static_cast<double>(active_->info.flops));
    if (config_.policy == ChampionPolicy::kMeasuredP99)
      m.gauge("serve.registry.champion_p99_ms").set(active_->info.p99_ms);
  }
  util::trace::emit_instant(
      "registry.publish", "serve", util::trace::now_us(),
      util::trace::kHostPid, util::trace::current_tid(),
      {{"model_id", static_cast<double>(active_->info.model_id)},
       {"epoch", static_cast<double>(active_->info.epoch)},
       {"generation", static_cast<double>(active_->info.generation)}});
  util::log_info("registry: published model_",
                 active_->info.model_id, " epoch ",
                 active_->info.epoch, " as generation ",
                 active_->info.generation, " (policy ",
                 champion_policy_name(config_.policy), ")");
  return true;
}

bool ModelRegistry::refresh_measured(
    lineage::DataCommons& commons,
    std::vector<nas::EvaluationRecord>& eligible,
    const std::vector<std::size_t>& order, std::size_t front_size,
    std::size_t& newly_quarantined) {
  util::trace::Scope span("registry.refresh_measured", "serve");
  latency::LatencyProbe prober(config_.probe);
  if (config_.probe_hook) prober.set_measure_hook(config_.probe_hook);

  // Probe each front candidate (newest loadable epoch). Dominated records
  // are measured only as a fallback when the entire front failed to load.
  struct Candidate {
    const nas::EvaluationRecord* record = nullptr;
    std::size_t epoch = 0;
    nn::Model model;
    double p99 = 0.0;
    Candidate(nn::Model m) : model(std::move(m)) {}
  };
  std::vector<Candidate> measured;

  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    if (pos >= front_size && !measured.empty()) break;
    const nas::EvaluationRecord& record = eligible[order[pos]];
    std::vector<std::size_t> epochs = commons.snapshot_epochs(record.model_id);
    for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
      try {
        Candidate candidate(commons.load_model(record.model_id, *it));
        candidate.record = &record;
        candidate.epoch = *it;
        candidate.p99 = prober.probe(candidate.model).p99_ms;
        measured.push_back(std::move(candidate));
        break;  // newest loadable epoch measured; older ones are backups
      } catch (const std::exception& e) {
        const fs::path snapshot = config_.commons_root / "models" /
                                  lineage::model_dir_name(record.model_id) /
                                  lineage::snapshot_file_name(*it);
        quarantine_artifact(config_.commons_root, snapshot, e.what());
        ++newly_quarantined;
      }
    }
  }

  if (measured.empty()) return keep_previous(newly_quarantined);

  // Selection: candidates whose measured p99 meets the SLO outrank those
  // that miss it. Under the SLO the search's fitness decides (p99 breaks
  // ties); when everyone misses, least-bad latency wins. Model id makes
  // the final order deterministic.
  auto better = [&](const Candidate& a, const Candidate& b) {
    const bool a_ok = config_.slo_ms <= 0.0 || a.p99 <= config_.slo_ms;
    const bool b_ok = config_.slo_ms <= 0.0 || b.p99 <= config_.slo_ms;
    if (a_ok != b_ok) return a_ok;
    if (a_ok) {
      if (a.record->fitness != b.record->fitness)
        return a.record->fitness > b.record->fitness;
      if (a.p99 != b.p99) return a.p99 < b.p99;
    } else {
      if (a.p99 != b.p99) return a.p99 < b.p99;
      if (a.record->fitness != b.record->fitness)
        return a.record->fitness > b.record->fitness;
    }
    return a.record->model_id < b.record->model_id;
  };
  Candidate& champion =
      *std::min_element(measured.begin(), measured.end(), better);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_ && active_->info.model_id == champion.record->model_id &&
        active_->info.epoch == champion.epoch) {
      add_quarantined(newly_quarantined);
      return false;  // same champion: keep the generation
    }
  }

  ChampionInfo info;
  info.model_id = champion.record->model_id;
  info.epoch = champion.epoch;
  info.fitness = champion.record->fitness;
  info.flops = champion.record->flops;
  info.p99_ms = champion.p99;
  return publish(
      std::make_shared<ServableGeneration>(info, std::move(champion.model)),
      newly_quarantined);
}

}  // namespace a4nn::serve
