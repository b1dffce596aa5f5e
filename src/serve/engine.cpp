#include "serve/engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "util/trace.hpp"

namespace a4nn::serve {

using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Per-thread scratch kept across batches (floats): 4 MiB covers every
// steady-state micro-batch by a wide margin while bounding long-run RSS.
constexpr std::size_t kScratchTrimFloats = 1u << 20;

}  // namespace

const char* admission_name(Admission admission) {
  switch (admission) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kShed:
      return "shed";
    case Admission::kRejected:
      return "rejected";
  }
  return "unknown";
}

InferenceEngine::InferenceEngine(ModelRegistry& registry, EngineConfig config)
    : registry_(registry), config_(config) {
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (!registry_.active())
    throw std::runtime_error(
        "InferenceEngine: registry has no active generation (refresh first)");
  metrics_ = config_.metrics != nullptr ? config_.metrics : &own_metrics_;
  c_total_ = &metrics_->counter("serve.requests_total");
  c_accepted_ = &metrics_->counter("serve.requests_accepted");
  c_shed_ = &metrics_->counter("serve.requests_shed");
  c_rejected_ = &metrics_->counter("serve.requests_rejected");
  c_ok_ = &metrics_->counter("serve.requests_ok");
  c_batches_ = &metrics_->counter("serve.batches_total");
  c_items_ = &metrics_->counter("serve.batch_items");
  h_latency_ = &metrics_->histogram("serve.latency_ms", 0.0,
                                    config_.latency_hi_ms, 256);
  h_latency_window_ = &metrics_->histogram("serve.latency_window_ms", 0.0,
                                           config_.latency_hi_ms, 256);
  h_queue_ = &metrics_->histogram("serve.queue_ms", 0.0, config_.latency_hi_ms,
                                  256);
  h_batch_ = &metrics_->histogram("serve.batch_size", 0.0,
                                  static_cast<double>(config_.max_batch),
                                  std::max<std::size_t>(config_.max_batch, 1));
  g_depth_ = &metrics_->gauge("serve.queue_depth");
  g_ema_ = &metrics_->gauge("serve.ema_item_ms");
  // A bounded execution queue is the backpressure link: when every worker
  // is busy and the pending slots fill, the batcher blocks, the request
  // queue backs up, and admission starts rejecting/shedding.
  exec_pool_ = std::make_unique<util::ThreadPool>(
      config_.workers, config_.workers == 0 ? 0 : config_.workers * 2);
  batcher_ = std::thread([this] { batcher_loop(); });
}

InferenceEngine::~InferenceEngine() { shutdown(); }

void InferenceEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    paused_ = false;  // a paused engine still drains on shutdown
  }
  cv_.notify_all();
  batcher_.join();
  exec_pool_.reset();  // pool destructor runs every queued batch
}

SubmitResult InferenceEngine::submit(std::vector<float> image) {
  auto generation = registry_.active();
  if (image.size() != generation->input_numel)
    throw std::invalid_argument(
        "InferenceEngine::submit: image has " + std::to_string(image.size()) +
        " floats, champion expects " +
        std::to_string(generation->input_numel));
  SubmitResult result;
  const auto now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
      throw std::runtime_error("InferenceEngine::submit after shutdown");
    c_total_->add();
    if (queue_.size() >= config_.queue_capacity) {
      c_rejected_->add();
      result.admission = Admission::kRejected;
      return result;
    }
    if (config_.slo_ms > 0.0 && ema_item_ms_ > 0.0) {
      // Where would this request land? Everything ahead of it (queued and
      // in flight) plus itself at the EMA per-item cost, plus the worst
      // batching delay. Past the SLO → shed now, cheaply, instead of
      // serving a late answer.
      const double estimate_ms =
          static_cast<double>(queue_.size() + in_flight_ + 1) * ema_item_ms_ +
          config_.max_delay_ms;
      if (estimate_ms > config_.slo_ms) {
        c_shed_->add();
        util::trace::emit_instant(
            "serve.shed", "serve", util::trace::now_us(),
            util::trace::kHostPid, util::trace::current_tid(),
            {{"estimate_ms", estimate_ms}, {"slo_ms", config_.slo_ms}});
        result.admission = Admission::kShed;
        return result;
      }
    }
    Request request;
    request.image = std::move(image);
    request.enqueued = now;
    result.prediction = request.promise.get_future();
    queue_.push_back(std::move(request));
    c_accepted_->add();
    g_depth_->set(static_cast<double>(queue_.size()));
    result.admission = Admission::kAccepted;
  }
  cv_.notify_one();
  return result;
}

void InferenceEngine::batcher_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return stopping_ || (!queue_.empty() && !paused_);
      });
      if (queue_.empty()) return;  // stopping and fully dispatched
      if (!stopping_) {
        // Fill the batch or flush when the oldest request has waited long
        // enough — the classic micro-batching latency/throughput trade.
        const auto deadline =
            queue_.front().enqueued +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    config_.max_delay_ms));
        cv_.wait_until(lock, deadline, [this] {
          return stopping_ || paused_ || queue_.size() >= config_.max_batch;
        });
        if (paused_ && !stopping_) continue;  // hold dispatch, keep queueing
      }
      const std::size_t take = std::min(queue_.size(), config_.max_batch);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ += take;
      g_depth_->set(static_cast<double>(queue_.size()));
    }
    // The batch pins the generation it started on: a concurrent hot-swap
    // retires the old model only after this shared_ptr dies.
    auto generation = registry_.active();
    exec_pool_->submit(
        [this, generation, b = std::move(batch)]() mutable {
          run_batch(std::move(b), std::move(generation));
        });
  }
}

void InferenceEngine::run_batch(std::vector<Request> batch,
                                std::shared_ptr<ServableGeneration> generation) {
  util::trace::Scope span("serve.batch", "serve");
  const auto dispatched = Clock::now();
  const std::size_t count = batch.size();
  span.arg("batch", static_cast<double>(count));
  span.arg("generation", static_cast<double>(generation->info.generation));
  try {
    tensor::Shape shape;
    shape.reserve(1 + generation->input_shape.size());
    shape.push_back(count);
    shape.insert(shape.end(), generation->input_shape.begin(),
                 generation->input_shape.end());
    tensor::Tensor images(std::move(shape));
    for (std::size_t i = 0; i < count; ++i)
      std::memcpy(images.data() + i * generation->input_numel,
                  batch[i].image.data(),
                  generation->input_numel * sizeof(float));
    const tensor::Tensor logits = generation->model.predict(images);
    const auto done = Clock::now();
    const std::size_t classes = generation->num_classes;
    for (std::size_t i = 0; i < count; ++i) {
      Prediction p;
      const float* row = logits.data() + i * classes;
      p.scores.assign(row, row + classes);
      p.label = tensor::argmax(std::span<const float>(row, classes));
      p.generation = generation->info.generation;
      p.queue_ms = ms_between(batch[i].enqueued, dispatched);
      p.latency_ms = ms_between(batch[i].enqueued, done);
      h_queue_->observe(p.queue_ms);
      h_latency_->observe(p.latency_ms);
      h_latency_window_->observe(p.latency_ms);
      batch[i].promise.set_value(std::move(p));
    }
    c_ok_->add(static_cast<double>(count));
    c_batches_->add();
    c_items_->add(static_cast<double>(count));
    h_batch_->observe(static_cast<double>(count));
    const double per_item_ms =
        ms_between(dispatched, done) / static_cast<double>(count);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ema_item_ms_ = ema_item_ms_ == 0.0
                         ? per_item_ms
                         : 0.2 * per_item_ms + 0.8 * ema_item_ms_;
      g_ema_->set(ema_item_ms_);
    }
  } catch (...) {
    for (auto& request : batch)
      request.promise.set_exception(std::current_exception());
  }
  // Batch boundary: cap this exec thread's scratch at a soft watermark so
  // one outlier batch shape cannot pin its peak working set in a process
  // that serves for days. Steady-state batches fit the kept block, so the
  // common case never reallocates.
  tensor::ScratchArena::tls().trim(kScratchTrimFloats);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    in_flight_ -= count;
    if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
  }
}

void InferenceEngine::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void InferenceEngine::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void InferenceEngine::drain() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_cv_.wait(lock,
                     [this] { return queue_.empty() && in_flight_ == 0; });
  }
  exec_pool_->wait_idle();
}

void InferenceEngine::hint_service_time_ms(double per_item_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  ema_item_ms_ = per_item_ms;
  g_ema_->set(ema_item_ms_);
}

std::size_t InferenceEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

util::metrics::Histogram::WindowSnapshot InferenceEngine::latency_window() {
  return h_latency_window_->window_snapshot();
}

util::Json InferenceEngine::stats() const {
  util::Json requests = util::Json::object();
  requests["total"] = c_total_->value();
  requests["accepted"] = c_accepted_->value();
  requests["ok"] = c_ok_->value();
  requests["shed"] = c_shed_->value();
  requests["rejected"] = c_rejected_->value();
  util::Json batches = util::Json::object();
  batches["count"] = c_batches_->value();
  batches["items"] = c_items_->value();
  batches["mean_size"] =
      c_batches_->value() > 0.0 ? c_items_->value() / c_batches_->value() : 0.0;
  util::Json latency = util::Json::object();
  latency["p50"] = h_latency_->quantile(0.50);
  latency["p95"] = h_latency_->quantile(0.95);
  latency["p99"] = h_latency_->quantile(0.99);
  util::Json queue_wait = util::Json::object();
  queue_wait["p50"] = h_queue_->quantile(0.50);
  queue_wait["p95"] = h_queue_->quantile(0.95);
  queue_wait["p99"] = h_queue_->quantile(0.99);
  util::Json j = util::Json::object();
  j["requests"] = std::move(requests);
  j["batches"] = std::move(batches);
  j["latency_ms"] = std::move(latency);
  j["queue_ms"] = std::move(queue_wait);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    j["queue_depth"] = static_cast<double>(queue_.size());
    j["ema_item_ms"] = ema_item_ms_;
  }
  if (auto generation = registry_.active()) {
    util::Json champion = util::Json::object();
    champion["model_id"] = static_cast<double>(generation->info.model_id);
    champion["epoch"] = static_cast<double>(generation->info.epoch);
    champion["generation"] =
        static_cast<double>(generation->info.generation);
    champion["fitness"] = generation->info.fitness;
    champion["flops"] = static_cast<double>(generation->info.flops);
    if (generation->info.p99_ms > 0.0)
      champion["probed_p99_ms"] = generation->info.p99_ms;
    j["champion"] = std::move(champion);
  }
  return j;
}

}  // namespace a4nn::serve
