#include "orchestrator/training_loop.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "tensor/scratch.hpp"
#include "util/fsutil.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace a4nn::orchestrator {

const char* lr_schedule_name(LrSchedule schedule) {
  switch (schedule) {
    case LrSchedule::kConstant: return "constant";
    case LrSchedule::kCosine: return "cosine";
    case LrSchedule::kStep: return "step";
  }
  return "?";
}

double TrainerConfig::lr_at(std::size_t epoch) const {
  if (epoch == 0) throw std::invalid_argument("lr_at: epochs are 1-based");
  switch (lr_schedule) {
    case LrSchedule::kConstant: return learning_rate;
    case LrSchedule::kCosine: {
      const double progress =
          static_cast<double>(epoch - 1) /
          static_cast<double>(std::max<std::size_t>(1, max_epochs - 1));
      return min_learning_rate +
             0.5 * (learning_rate - min_learning_rate) *
                 (1.0 + std::cos(M_PI * progress));
    }
    case LrSchedule::kStep: {
      double lr = learning_rate;
      for (std::size_t e = step_every; e < epoch; e += step_every) lr *= 0.5;
      return std::max(lr, min_learning_rate);
    }
  }
  return learning_rate;
}

util::Json TrainerConfig::to_json() const {
  util::Json j = util::Json::object();
  j["max_epochs"] = max_epochs;
  j["batch_size"] = batch_size;
  j["learning_rate"] = learning_rate;
  j["momentum"] = momentum;
  j["weight_decay"] = weight_decay;
  j["lr_schedule"] = lr_schedule_name(lr_schedule);
  j["use_prediction_engine"] = use_prediction_engine;
  j["engine"] = engine.to_json();
  j["resume_partial"] = resume_partial;
  j["inherit_weights"] = inherit_weights;
  j["inherit_epoch_fraction"] = inherit_epoch_fraction;
  return j;
}

namespace {

// Rng words are full 64-bit values; JSON numbers (doubles) cannot hold
// them exactly, so the state round-trips through hex strings.
util::Json rng_state_to_json(const util::RngState& st) {
  util::Json j = util::Json::object();
  util::Json words = util::Json::array();
  for (std::uint64_t w : st.s) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, w);
    words.push_back(util::Json(std::string(buf)));
  }
  j["s"] = std::move(words);
  j["has_cached_normal"] = st.has_cached_normal;
  j["cached_normal"] = st.cached_normal;
  return j;
}

util::RngState rng_state_from_json(const util::Json& j) {
  util::RngState st;
  const auto& words = j.at("s").as_array();
  if (words.size() != st.s.size())
    throw util::JsonError("rng state: expected 4 state words");
  for (std::size_t i = 0; i < st.s.size(); ++i)
    st.s[i] = std::strtoull(words[i].as_string().c_str(), nullptr, 16);
  st.has_cached_normal = j.at("has_cached_normal").as_bool();
  st.cached_normal = j.at("cached_normal").as_number();
  return st;
}

util::Json doubles_to_json(const std::vector<double>& v) {
  util::JsonArray arr;
  arr.reserve(v.size());
  for (double d : v) arr.emplace_back(d);
  return util::Json(std::move(arr));
}

}  // namespace

TrainingLoop::TrainingLoop(const nn::Dataset& train,
                           const nn::Dataset& validation, TrainerConfig config,
                           lineage::LineageTracker* lineage)
    : train_(&train),
      validation_(&validation),
      config_(std::move(config)),
      lineage_(lineage) {
  if (train.size() == 0 || validation.size() == 0)
    throw std::invalid_argument("TrainingLoop: empty dataset");
  if (config_.max_epochs == 0)
    throw std::invalid_argument("TrainingLoop: max_epochs must be >= 1");
}

nas::EvaluationRecord TrainingLoop::train_genome(
    const nas::Genome& genome, const nas::SearchSpaceConfig& space,
    int model_id, std::uint64_t seed) const {
  util::Rng init_rng(seed);
  nn::Model model = nas::decode_genome(genome, space, init_rng);
  nas::EvaluationRecord record = train_model(model, model_id, seed ^ 0x5bd1e995);
  record.genome = genome;
  return record;
}

namespace {

/// Deterministic shape-compatible transfer map: for each aligned layer pair
/// of matching kind, copy every parameter tensor whose slot name and shape
/// agree. Slots with no compatible source keep the child's seeded-RNG
/// initialization. Returns (tensors copied, tensors left fresh) over all
/// of the child's parameter slots.
std::pair<std::size_t, std::size_t> transfer_weights(nn::Model& parent,
                                                     nn::Model& child) {
  std::size_t copied = 0;
  std::size_t total = 0;
  const std::size_t layers =
      std::min(parent.trunk().layer_count(), child.trunk().layer_count());
  for (std::size_t i = 0; i < layers; ++i) {
    nn::Layer& src = parent.trunk().layer(i);
    nn::Layer& dst = child.trunk().layer(i);
    if (src.kind() != dst.kind()) continue;
    auto src_slots = src.params();
    for (auto& d : dst.params()) {
      for (auto& s : src_slots) {
        if (s.name == d.name && s.value->shape() == d.value->shape()) {
          *d.value = *s.value;
          ++copied;
          break;
        }
      }
    }
  }
  total = child.trunk().params().size();
  return {copied, total - copied};
}

}  // namespace

nas::EvaluationRecord TrainingLoop::train_genome_inherited(
    const nas::Genome& genome, const nas::SearchSpaceConfig& space,
    int model_id, std::uint64_t seed, int ancestor_model_id) const {
  namespace fs = std::filesystem;
  if (!lineage_ || ancestor_model_id < 0)
    return train_genome(genome, space, model_id, seed);

  const fs::path dir = lineage_->root() / "models" /
                       lineage::model_dir_name(ancestor_model_id);
  // Newest snapshot first; unusable checkpoints fall back to older ones,
  // mirroring try_resume's discipline.
  std::vector<std::size_t> epochs;
  if (fs::exists(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      const auto epoch = lineage::parse_indexed_name(
          entry.path().filename().string(), "epoch_", ".ckpt.json");
      if (epoch) epochs.push_back(*epoch);
    }
  }
  std::sort(epochs.rbegin(), epochs.rend());

  for (std::size_t e : epochs) {
    try {
      // Re-decode the child fresh for every attempt: a fine-tune that
      // throws after transfer_weights leaves the model mutated, and an
      // older checkpoint may not cover every slot the newer one touched —
      // the fallback must stay a pure function of (genome, seed, commons),
      // never of the failed attempt's leftovers.
      util::Rng init_rng(seed);
      nn::Model model = nas::decode_genome(genome, space, init_rng);
      nn::Model parent = nn::Model::decode_checkpoint(
          lineage::read_artifact(dir / lineage::snapshot_file_name(e)));
      const auto [copied, fresh] = transfer_weights(parent, model);
      if (copied == 0)
        break;  // no compatible tensors at all: cold start is honest

      TrainerConfig fine = config_;
      fine.max_epochs = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(config_.inherit_epoch_fraction *
                           static_cast<double>(config_.max_epochs))));
      TrainingLoop fine_loop(*train_, *validation_, fine, lineage_);
      fine_loop.set_metrics(metrics_);
      nas::EvaluationRecord record =
          fine_loop.train_model(model, model_id, seed ^ 0x5bd1e995);
      resumed_epochs_.fetch_add(fine_loop.resumed_epochs());
      record.genome = genome;
      record.inherited_from_model = ancestor_model_id;
      record.inherited_from_epoch = e;
      record.inherited_params_copied = copied;
      record.inherited_params_fresh = fresh;
      if (metrics_) metrics_->counter("train.inherited_starts").add();
      util::log_info("inherit: model ", model_id, " warm-started from model ",
                     ancestor_model_id, " epoch ", e, " (", copied,
                     " tensors copied, ", fresh, " fresh)");
      return record;
    } catch (const std::exception& ex) {
      util::log_warn("inherit: model ", model_id, " cannot use ancestor ",
                     ancestor_model_id, " epoch ", e, " (", ex.what(),
                     "); trying older");
    }
  }
  return train_genome(genome, space, model_id, seed);
}

nas::EvaluationRecord TrainingLoop::train_model(nn::Model& model, int model_id,
                                                std::uint64_t seed) const {
  util::Rng rng(seed);
  nn::Sgd opt(config_.learning_rate, config_.momentum, config_.weight_decay);
  // Engine construction is part of the loop (Algorithm 1 line 1); its cost
  // is measured into the overhead the paper reports in §4.3.1.
  util::Timer wall;
  util::Timer engine_timer;
  double engine_overhead = 0.0;
  std::optional<penguin::PredictionEngine> engine;
  if (config_.use_prediction_engine) {
    engine_timer.reset();
    engine.emplace(config_.engine);
    engine_overhead += engine_timer.seconds();
    if (metrics_) engine->set_metrics(metrics_);
  }

  util::trace::Scope model_span("train.model", "train");
  model_span.arg("model_id", static_cast<double>(model_id));

  nas::EvaluationRecord record;
  record.model_id = model_id;
  record.flops = model.flops_per_image();
  record.parameters = model.parameter_count();
  record.max_epochs = config_.max_epochs;
  const double epoch_virtual = config_.cost.epoch_seconds(record.flops);

  bool converged = false;
  std::size_t start_epoch = 1;
  if (config_.resume_partial && lineage_) {
    start_epoch = try_resume(model, opt, rng, record, converged);
    engine_overhead += record.engine_overhead_seconds;
  }

  // The previous snapshotted epoch's commit, running on the lineage
  // writer thread while this epoch trains. At most one is in flight, and
  // it is durable before train_model returns or unwinds, so neither the
  // record flush nor a retry's resume ever races it.
  struct InFlightCommit {
    std::shared_future<void> done;
    ~InFlightCommit() {
      if (done.valid()) done.wait();
    }
  } in_flight;

  // The loop condition (not an inner break) ends training on convergence
  // so a restored already-converged state trains zero further epochs.
  for (std::size_t epoch = start_epoch;
       !converged && epoch <= config_.max_epochs; ++epoch) {
    util::trace::Scope epoch_span("train.epoch", "train");
    epoch_span.arg("model_id", static_cast<double>(model_id));
    epoch_span.arg("epoch", static_cast<double>(epoch));
    opt.set_learning_rate(config_.lr_at(epoch));
    nn::EpochMetrics train_metrics;
    {
      util::trace::Scope span("epoch.train", "train");
      train_metrics = model.train_epoch(*train_, config_.batch_size, opt, rng);
    }
    nn::EpochMetrics val_metrics;
    {
      util::trace::Scope span("epoch.eval", "train");
      val_metrics = model.evaluate(*validation_);
    }
    if (metrics_) metrics_->counter("train.epochs").add();

    record.train_accuracy_history.push_back(train_metrics.accuracy);
    record.train_loss_history.push_back(train_metrics.loss);
    record.fitness_history.push_back(val_metrics.accuracy);  // H <- h_e
    record.epoch_virtual_seconds.push_back(epoch_virtual);
    record.epochs_trained = epoch;

    if (engine) {
      util::trace::Scope engine_span("engine.step", "penguin");
      engine_span.arg("model_id", static_cast<double>(model_id));
      engine_span.arg("epoch", static_cast<double>(epoch));
      engine_timer.reset();
      // Predictor step: p_e from the fitness history.
      const std::optional<double> p_e =
          engine->predict(record.fitness_history);
      if (p_e) record.prediction_history.push_back(*p_e);  // P <- p_e
      // Analyzer step: has P converged to a stable value?
      converged = engine->converged(record.prediction_history);
      engine_overhead += engine_timer.seconds();
    }

    // The snapshot and training state are captured after the engine step
    // (which leaves the weights alone) so a resume replays the epoch's
    // prediction and convergence outcome exactly; both commit behind one
    // durability barrier, off this thread.
    if (lineage_ && lineage_->wants_snapshot(epoch)) {
      util::trace::Scope ckpt_span("checkpoint.commit", "lineage");
      ckpt_span.arg("model_id", static_cast<double>(model_id));
      ckpt_span.arg("epoch", static_cast<double>(epoch));
      util::Json state = util::Json::object();
      state["model_id"] = model_id;
      state["epoch"] = epoch;
      state["converged"] = converged;
      state["rng"] = rng_state_to_json(rng.state());
      util::Json optimizer = util::Json::object();
      optimizer["kind"] = opt.kind();
      state["optimizer"] = std::move(optimizer);
      util::Json rec = util::Json::object();
      rec["fitness_history"] = doubles_to_json(record.fitness_history);
      rec["train_accuracy_history"] =
          doubles_to_json(record.train_accuracy_history);
      rec["train_loss_history"] = doubles_to_json(record.train_loss_history);
      rec["prediction_history"] = doubles_to_json(record.prediction_history);
      rec["epoch_virtual_seconds"] =
          doubles_to_json(record.epoch_virtual_seconds);
      rec["engine_overhead_seconds"] = engine_overhead;
      state["record"] = std::move(rec);
      if (in_flight.done.valid()) in_flight.done.get();
      in_flight.done = lineage_->record_epoch(
          model_id, epoch, model, state,
          opt.velocities(model.trunk().params()));
    }
  }
  if (in_flight.done.valid()) in_flight.done.get();

  record.early_terminated =
      converged && record.epochs_trained < config_.max_epochs;
  // Algorithm 1 lines 17-21: stopped early -> P[-1], else the last measured
  // fitness h_e. Convergence that only arrives on the final epoch saved no
  // training, so the measured value — not the extrapolation — is reported
  // (simulate_early_termination applies the identical rule).
  record.measured_fitness = record.fitness_history.back();
  record.fitness = record.early_terminated ? record.prediction_history.back()
                                           : record.measured_fitness;
  record.engine_overhead_seconds = engine_overhead;
  record.wall_seconds = wall.seconds();
  record.virtual_seconds =
      epoch_virtual * static_cast<double>(record.epochs_trained);
  if (metrics_) {
    metrics_->counter("train.models").add();
    if (record.early_terminated)
      metrics_->counter("train.early_terminated").add();
  }
  model_span.arg("epochs_trained", static_cast<double>(record.epochs_trained));
  model_span.arg("early_terminated", record.early_terminated ? 1.0 : 0.0);

  // Job boundary: drop this worker's kernel scratch so its footprint is
  // bounded by the current model, not the largest one it ever trained.
  tensor::ScratchArena::tls().release();

  return record;
}

std::size_t TrainingLoop::try_resume(nn::Model& model, nn::Sgd& opt,
                                     util::Rng& rng,
                                     nas::EvaluationRecord& record,
                                     bool& converged) const {
  namespace fs = std::filesystem;
  const fs::path dir =
      lineage_->root() / "models" / lineage::model_dir_name(record.model_id);
  if (!fs::exists(dir)) return 1;

  // Newest state first; a corrupt or mismatched pair falls back to older.
  // Strict name parsing: a stray "epoch_backup.state.json" is skipped, not
  // misread as epoch 0.
  std::vector<std::size_t> epochs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto epoch = lineage::parse_indexed_name(
        entry.path().filename().string(), "epoch_", ".state.json");
    if (epoch) epochs.push_back(*epoch);
  }
  std::sort(epochs.rbegin(), epochs.rend());

  for (std::size_t e : epochs) {
    try {
      // read_artifact verifies the integrity frame: a bit-flipped or torn
      // state/checkpoint throws here and falls back to the next-older one.
      const lineage::TrainingState state = lineage::decode_training_state(
          lineage::read_artifact(dir / lineage::training_state_file_name(e)));
      if (static_cast<int>(state.doc.at("model_id").as_int()) !=
              record.model_id ||
          static_cast<std::size_t>(state.doc.at("epoch").as_int()) != e)
        throw util::JsonError("training state labels the wrong model/epoch");

      nn::Model ckpt = nn::Model::decode_checkpoint(
          lineage::read_artifact(dir / lineage::snapshot_file_name(e)));
      // A stale checkpoint from a different architecture must never be
      // loaded into this model; the decoded genome's spec is the truth.
      if (!(ckpt.trunk().spec() == model.trunk().spec()))
        throw util::JsonError("checkpoint spec differs from decoded genome");

      // Parse and validate everything before mutating model/opt/rng/record:
      // a half-applied restore must not leak into the fallback attempt.
      const util::Json& rec = state.doc.at("record");
      auto fitness = rec.at("fitness_history").as_double_vector();
      auto train_acc = rec.at("train_accuracy_history").as_double_vector();
      auto train_loss = rec.at("train_loss_history").as_double_vector();
      auto predictions = rec.at("prediction_history").as_double_vector();
      auto epoch_virtual = rec.at("epoch_virtual_seconds").as_double_vector();
      const double overhead = rec.at("engine_overhead_seconds").as_number();
      const util::RngState rng_state = rng_state_from_json(state.doc.at("rng"));
      const bool was_converged = state.doc.at("converged").as_bool();
      if (fitness.size() != e)
        throw util::JsonError("training state history shorter than its epoch");

      // The optimizer checks its buffers before taking any; the weights
      // already fit the spec, so nothing below can fail half-way.
      opt.load_velocities(model.trunk().params(), state.velocity);
      std::vector<tensor::Tensor> weights;
      for (const auto& slot : ckpt.trunk().state())
        weights.push_back(std::move(*slot.value));
      nn::load_state(model.trunk(), std::move(weights));
      rng.set_state(rng_state);

      record.fitness_history = std::move(fitness);
      record.train_accuracy_history = std::move(train_acc);
      record.train_loss_history = std::move(train_loss);
      record.prediction_history = std::move(predictions);
      record.epoch_virtual_seconds = std::move(epoch_virtual);
      record.engine_overhead_seconds = overhead;
      record.epochs_trained = e;
      record.resumed_from_epoch = e;
      converged = was_converged;
      resumed_epochs_.fetch_add(e);
      util::log_info("resume: model ", record.model_id,
                     " continues from epoch ", e + 1, " (", e,
                     " epochs restored)");
      return e + 1;
    } catch (const std::exception& ex) {
      util::log_warn("resume: model ", record.model_id, " epoch ", e,
                     " state unusable (", ex.what(), "); trying older");
    }
  }
  return 1;
}

}  // namespace a4nn::orchestrator
