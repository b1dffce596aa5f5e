// serve: a single-thread open-loop generator sends requests on a fixed
// schedule, at a ladder of arrival rates, to serve::InferenceEngine with
// the a4nn_serve defaults (max_batch 8, max_delay 2 ms, 2 workers). Each
// request is timed from its due time, so a stall also charges the requests
// queued behind it. Closed-loop segments between the ladder steps keep the
// engine saturated, so their throughput measures admission, batching and
// the eval forward rather than the batch timer. The champion is trained and
// published in set-up; --seed sets the order of the request payloads.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>

#include "host.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace a = a4nn;

namespace {

constexpr std::size_t kImagesPerClass = 64;
/// The champion and the payload pool are canonical (the stream workload's
/// champion), so quality_pct reads the same in every run; the seed only
/// shuffles the order in which payloads are sent.
constexpr std::uint64_t kInputSeed = 7;
/// Latency limit on the 99th percentile, timed from each request's due time.
constexpr double kSloMs = 20.0;
/// A rate well below capacity: p50/p99 and ok_frac are read here.
constexpr double kBaseRate = 1000.0;
/// Fixed arrival rates (req/s): coarse up to 8000, then 8% apart up to
/// about three times today's capacity.
constexpr double kLadder[] = {
    2000,  4000,  6000,  8000,  8640,  9330,  10080, 10880, 11750,
    12690, 13710, 14800, 15990, 17270, 18650, 20140, 21750, 23490,
    25370, 27400, 29590, 31960};
/// Closed-loop requests that start every engine before its schedule.
constexpr std::size_t kWarmupRequests = 64;
/// Requests per latency window: p99 needs at least 10 samples beyond it.
constexpr std::size_t kMinRequests = 1000;
/// Closed-loop segments per run, and the requests each keeps in flight:
/// four full batches, so a batch is always waiting for a free worker.
constexpr std::size_t kClosedSegments = 8;
constexpr std::size_t kClosedWindow = 32;

a::serve::EngineConfig engine_config() {
  a::serve::EngineConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_ms = 2.0;
  cfg.queue_capacity = 256;
  cfg.workers = 2;
  return cfg;
}

struct Setup {
  std::vector<std::vector<float>> images;     ///< request payloads
  std::vector<std::vector<float>> reference;  ///< batch-1 eval scores
  double accuracy_pct = 0.0;  ///< top-1 of `reference` over the pool
};

/// Dataset, champion training and publish, registry refresh, and the
/// batch-1 reference scores of every request payload, in a seeded order.
Setup set_up(std::uint64_t seed, const fs::path& commons,
             std::optional<a::serve::ModelRegistry>& registry) {
  const a::xfel::XfelDataset data =
      generate_dataset(dataset_config(input_seed(kInputSeed, 3),
                                      kImagesPerClass,
                                      a::xfel::BeamIntensity::kMedium));
  Champion champion = train_champion(data, input_seed(kInputSeed, 4));
  publish_champion(commons, champion);
  registry.emplace(a::serve::RegistryConfig{commons});
  registry->refresh();

  std::vector<std::pair<const a::nn::Dataset*, std::size_t>> pool;
  for (const a::nn::Dataset* part : {&data.train, &data.validation})
    for (std::size_t i = 0; i < part->size(); ++i) pool.emplace_back(part, i);
  a::util::Rng order(input_seed(seed, 3));
  order.shuffle(pool);

  Setup s;
  const auto generation = registry->active();
  a::tensor::Shape shape = {1};
  for (const std::size_t d : generation->input_shape) shape.push_back(d);
  std::size_t right = 0;
  for (const auto& [part, i] : pool) {
    const auto img = part->image(i);
    s.images.emplace_back(img.begin(), img.end());
    const a::tensor::Tensor out =
        generation->predict(a::tensor::Tensor(shape, s.images.back()));
    s.reference.emplace_back(out.data(), out.data() + out.numel());
    const auto& scores = s.reference.back();
    const auto top = std::max_element(scores.begin(), scores.end());
    if (top - scores.begin() == part->label(i)) ++right;
  }
  s.accuracy_pct = 100.0 * static_cast<double>(right) /
                   static_cast<double>(pool.size());
  return s;
}

/// Starts a fresh engine's threads and scratch with closed-loop requests
/// (these also appear in the engine's stats()).
void warm_up(a::serve::InferenceEngine& engine, const Setup& setup) {
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    a::serve::SubmitResult r =
        engine.submit(setup.images[i % setup.images.size()]);
    if (r.admission == a::serve::Admission::kAccepted) r.prediction.get();
  }
}

/// Whether an answer is bit-equal to the batch-1 eval forward.
bool matches(const a::serve::Prediction& p, const std::vector<float>& want) {
  return p.scores.size() == want.size() &&
         std::memcmp(p.scores.data(), want.data(),
                     want.size() * sizeof(float)) == 0;
}

struct Closed {
  std::size_t sent = 0;
  std::size_t answered_ok = 0;  ///< accepted, answered, scores bit-equal
  std::size_t mismatched = 0;
  std::size_t lost = 0;  ///< shed or rejected
  double wall_s = 0.0;   ///< first submit to last answer
};

/// Sends `requests` requests from this thread, keeping kClosedWindow in
/// flight: the next goes out as soon as the oldest is answered.
Closed run_closed(a::serve::ModelRegistry& registry, const Setup& setup,
                  std::size_t requests, std::size_t offset) {
  a::serve::InferenceEngine engine(registry, engine_config());
  warm_up(engine, setup);
  Closed c;
  c.sent = requests;
  std::deque<std::pair<std::size_t, a::serve::SubmitResult>> in_flight;
  auto settle = [&] {
    auto& [k, r] = in_flight.front();
    if (r.admission != a::serve::Admission::kAccepted) {
      ++c.lost;
    } else if (matches(r.prediction.get(), setup.reference[k])) {
      ++c.answered_ok;
    } else {
      ++c.mismatched;
    }
    in_flight.pop_front();
  };
  const double t0 = now_s();
  for (std::size_t i = 0; i < requests; ++i) {
    if (in_flight.size() == kClosedWindow) settle();
    const std::size_t k = (offset + i) % setup.images.size();
    in_flight.emplace_back(k, engine.submit(setup.images[k]));
  }
  while (!in_flight.empty()) settle();
  c.wall_s = now_s() - t0;
  return c;
}

struct Step {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t answered_ok = 0;  ///< accepted, answered, scores bit-equal
  std::size_t mismatched = 0;
  std::size_t shed = 0;
  std::size_t rejected = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;  ///< median over windows of the window's p99
  std::vector<double> window_p99;
  std::vector<double> latency_ms;  ///< per request, from its due time
  std::vector<double> lag_ms;      ///< generator lateness per request
  double gen_lag_p99_ms = 0.0;
  double queue_p99_ms = 0.0;
  double batch_mean = 0.0;
  double trace_begin_us = 0.0;
  double trace_end_us = 0.0;
  bool meets_slo = false;
};

/// Sends `requests` requests at `rate` on a fixed schedule from this
/// thread, then collects and checks every answer.
Step run_step(a::serve::ModelRegistry& registry, const Setup& setup,
              double rate, std::size_t requests, std::size_t offset) {
  using clock = std::chrono::steady_clock;
  Step step;
  step.rate = rate;
  step.sent = requests;
  a::serve::InferenceEngine engine(registry, engine_config());
  warm_up(engine, setup);
  std::vector<a::serve::SubmitResult> results;
  std::vector<double> lag_ms(requests);
  results.reserve(requests);
  step.trace_begin_us = a::util::trace::now_us();
  const auto t0 = clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < requests; ++i) {
    const auto due = t0 + std::chrono::duration_cast<clock::duration>(
                              std::chrono::duration<double>(i / rate));
    // Spin, never sleep: a sleeping generator wakes late under load, and
    // the schedule, not the wake-up latency, must decide when a request
    // goes out. Lateness that remains is charged to the request.
    while (clock::now() < due) {
    }
    const auto sent = clock::now();
    const std::size_t k = (offset + i) % setup.images.size();
    results.push_back(engine.submit(setup.images[k]));
    lag_ms[i] = std::chrono::duration<double, std::milli>(sent - due).count();
  }
  engine.drain();
  step.trace_end_us = a::util::trace::now_us();

  std::vector<double> latency(requests,
                              std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < requests; ++i) {
    a::serve::SubmitResult& r = results[i];
    if (r.admission == a::serve::Admission::kShed) ++step.shed;
    if (r.admission == a::serve::Admission::kRejected) ++step.rejected;
    if (r.admission != a::serve::Admission::kAccepted) continue;
    const a::serve::Prediction p = r.prediction.get();
    if (!matches(p, setup.reference[(offset + i) % setup.images.size()])) {
      ++step.mismatched;
      continue;
    }
    ++step.answered_ok;
    latency[i] = lag_ms[i] + p.latency_ms;
  }
  step.p50_ms = quantile(latency, 0.50);
  // Tail per window of kMinRequests consecutive requests (10 samples past
  // each p99), then the median window: one host stall moves one window,
  // while a backlog that builds up moves them all.
  for (std::size_t w = 0; w + kMinRequests <= requests; w += kMinRequests)
    step.window_p99.push_back(quantile(
        std::vector<double>(latency.begin() + w,
                            latency.begin() + w + kMinRequests),
        0.99));
  step.p99_ms = median(step.window_p99);
  step.gen_lag_p99_ms = quantile(lag_ms, 0.99);
  step.latency_ms = std::move(latency);
  step.lag_ms = std::move(lag_ms);
  const Json stats = engine.stats();
  step.queue_p99_ms = stats.at("queue_ms").at("p99").as_number();
  step.batch_mean = stats.at("batches").at("mean_size").as_number();
  step.meets_slo = step.answered_ok == requests && step.p99_ms <= kSloMs;
  return step;
}

/// The base rate is measured in segments spread over the run, one before
/// every second ladder step, so a host stall of a few seconds moves a few
/// of its samples rather than all of them.
Step merge_segments(const std::vector<Step>& segments) {
  Step m;
  m.rate = segments.front().rate;
  std::vector<double> queue_p99;
  double batches = 0.0;
  for (const Step& s : segments) {
    m.sent += s.sent;
    m.answered_ok += s.answered_ok;
    m.mismatched += s.mismatched;
    m.shed += s.shed;
    m.rejected += s.rejected;
    m.window_p99.insert(m.window_p99.end(), s.window_p99.begin(),
                        s.window_p99.end());
    m.latency_ms.insert(m.latency_ms.end(), s.latency_ms.begin(),
                        s.latency_ms.end());
    m.lag_ms.insert(m.lag_ms.end(), s.lag_ms.begin(), s.lag_ms.end());
    queue_p99.push_back(s.queue_p99_ms);
    batches += static_cast<double>(s.sent) / s.batch_mean;
  }
  m.p50_ms = quantile(m.latency_ms, 0.50);
  m.p99_ms = median(m.window_p99);
  m.gen_lag_p99_ms = quantile(m.lag_ms, 0.99);
  m.queue_p99_ms = median(queue_p99);
  m.batch_mean = static_cast<double>(m.sent) / batches;
  m.trace_begin_us = segments.front().trace_begin_us;
  m.trace_end_us = segments.back().trace_end_us;
  m.meets_slo = m.answered_ok == m.sent && m.p99_ms <= kSloMs;
  return m;
}

Json step_json(const Step& s) {
  Json j = Json::object();
  j["rate"] = s.rate;
  j["sent"] = static_cast<double>(s.sent);
  j["ok"] = static_cast<double>(s.answered_ok);
  j["shed"] = static_cast<double>(s.shed);
  j["rejected"] = static_cast<double>(s.rejected);
  j["p50_ms"] = std::isfinite(s.p50_ms) ? s.p50_ms : -1.0;
  j["p99_ms"] = std::isfinite(s.p99_ms) ? s.p99_ms : -1.0;
  j["window_p99_ms"] = Json(s.window_p99);
  j["gen_lag_p99_ms"] = s.gen_lag_p99_ms;
  j["batch_mean"] = s.batch_mean;
  j["meets_slo"] = s.meets_slo;
  return j;
}

/// serve.<point>.* for one ladder step, from engine stats, the program's
/// serve.batch spans inside the step, and the generator's lateness.
void add_step_metrics(const std::string& point, const Step& s,
                      const TraceView& view, Report& report) {
  double batch_us = 0.0;
  std::size_t batches = 0;
  for (const Span* b : view.named("serve.batch"))
    if (b->ts_us >= s.trace_begin_us && b->end_us() <= s.trace_end_us) {
      batch_us += b->dur_us;
      ++batches;
    }
  const double sent = static_cast<double>(s.sent);
  const std::string p = "serve." + point + ".";
  report.add(p + "p99_ms", s.p99_ms, "ms");
  report.add(p + "queue_ms_p99", s.queue_p99_ms, "ms");
  report.add(p + "batch_mean", s.batch_mean, "requests");
  report.add(p + "batch_ms", batches ? batch_us / 1e3 / batches : 0.0, "ms");
  report.add(p + "shed_frac", static_cast<double>(s.shed) / sent, "ratio");
  report.add(p + "rejected_frac", static_cast<double>(s.rejected) / sent,
             "ratio");
  report.add(p + "gen_lag_ms_p99", s.gen_lag_p99_ms, "ms");
}

}  // namespace

Report run_serve(const Options& opt) {
  Report report;
  WorkDir work("serve");
  std::optional<a::serve::ModelRegistry> registry;
  std::optional<Setup> setup;
  std::size_t commons_made = 0;
  // One set-up takes about 0.7 s, so each timed group runs two.
  SetupTimer setup_timer(2, [&] {
    registry.reset();
    setup = set_up(opt.seed,
                   work.fresh("commons-" + std::to_string(commons_made++)),
                   registry);
  });
  setup_timer.group();

  const std::size_t segment_requests = std::max<std::size_t>(
      kMinRequests, static_cast<std::size_t>(kBaseRate * opt.seconds / 20));
  const double ladder_step_s = opt.seconds / 40;
  const std::size_t closed_requests = std::max<std::size_t>(
      kMinRequests, static_cast<std::size_t>(400 * opt.seconds));
  std::optional<Step> untraced_base;
  if (opt.trace) {
    // Overhead baseline: base-rate segments untraced, then all traced.
    std::vector<Step> segments;
    for (int i = 0; i < 3; ++i)
      segments.push_back(
          run_step(*registry, *setup, kBaseRate, segment_requests, 0));
    untraced_base = merge_segments(segments);
    a::util::trace::start();
    registry.reset();
    setup = set_up(opt.seed, work.fresh("commons-traced"), registry);
  }

  // Up the ladder until three steps in a row miss, with a base-rate segment
  // before every second step and a closed-loop segment before each of the
  // first kClosedSegments steps.
  std::vector<Step> segments, steps;
  std::vector<Closed> closed;
  std::optional<std::size_t> knee, over;
  std::size_t misses_in_a_row = 0;
  for (const double rate : kLadder) {
    if (steps.size() % 2 == 0)
      segments.push_back(run_step(*registry, *setup, kBaseRate,
                                  segment_requests, segments.size() * 13));
    if (closed.size() < kClosedSegments)
      closed.push_back(run_closed(*registry, *setup, closed_requests,
                                  closed.size() * 11));
    const std::size_t n = std::max<std::size_t>(
        kMinRequests, static_cast<std::size_t>(rate * ladder_step_s));
    steps.push_back(run_step(*registry, *setup, rate, n, steps.size() * 7));
    // Mid-run set-up group, once the closed-loop segments are done.
    if (steps.size() == kClosedSegments) setup_timer.group();
    if (steps.back().meets_slo) {
      knee = steps.size() - 1;
      misses_in_a_row = 0;
    } else {
      if (!over) over = steps.size() - 1;
      if (++misses_in_a_row == 3) break;
    }
  }
  while (closed.size() < kClosedSegments)
    closed.push_back(
        run_closed(*registry, *setup, closed_requests, closed.size() * 11));
  const double setup_s = setup_timer.finish();
  const Step base = merge_segments(segments);

  std::size_t mismatched = 0, closed_lost = 0;
  double closed_sent = 0.0, closed_wall_s = 0.0;
  for (const std::vector<Step>* group : {&segments, &steps})
    for (const Step& s : *group) {
      report.attempted += s.sent;
      mismatched += s.mismatched;
    }
  for (const Closed& c : closed) {
    report.attempted += c.sent;
    mismatched += c.mismatched;
    closed_lost += c.lost;
    closed_sent += static_cast<double>(c.sent);
    closed_wall_s += c.wall_s;
  }
  if (mismatched > 0)
    report.fail(std::to_string(mismatched) +
                    " answer(s) differ from the batch-1 eval forward",
                mismatched);
  const std::size_t base_lost = base.sent - base.answered_ok - base.mismatched;
  if (base_lost > 0)
    report.fail(std::to_string(base_lost) +
                    " request(s) shed or rejected at the base rate",
                base_lost);
  if (closed_lost > 0)
    report.fail(std::to_string(closed_lost) +
                    " closed-loop request(s) shed or rejected",
                closed_lost);
  const bool capped = knee && *knee == steps.size() - 1 &&
                      steps.back().rate == kLadder[std::size(kLadder) - 1];
  // Capacity must fall strictly inside the ladder, or it cannot show a gain
  // (capped) or a loss (no step met the SLO).
  report.check(knee && over && !capped,
               "the rate ladder does not bracket serving capacity");

  Json protocol = Json::object();
  protocol["loop"] = "open, one generator thread, fixed schedule";
  protocol["slo_p99_ms"] = kSloMs;
  protocol["base_rate"] = kBaseRate;
  protocol["ladder"] = Json(std::vector<double>(std::begin(kLadder),
                                                std::end(kLadder)));
  protocol["ladder_capped"] = capped;
  protocol["p99"] = "median over windows of 1000 consecutive requests of "
                    "each window's p99; failed requests count as misses";
  protocol["base_segments"] = static_cast<double>(segments.size());
  protocol["base_requests"] = static_cast<double>(base.sent);
  protocol["base_p99_windows"] = static_cast<double>(base.window_p99.size());
  protocol["base"] = step_json(base);
  protocol["setups"] = static_cast<double>(setup_timer.set_ups());
  protocol["closed_window"] = static_cast<double>(kClosedWindow);
  protocol["closed_segments"] = static_cast<double>(closed.size());
  protocol["closed_requests"] = closed_sent;
  protocol["closed_wall_s"] = closed_wall_s;
  Json table = Json::array();
  for (const Step& s : steps) table.push_back(step_json(s));
  protocol["steps"] = table;
  report.context["protocol"] = protocol;

  if (opt.trace) {
    a::util::trace::stop();
    const TraceView view = TraceView::from(a::util::trace::to_json());
    a::util::trace::clear();
    const HostPeaks peaks = measure_host_peaks(report);
    add_layer_metrics(peaks, engine_config().max_batch, report);
    report.add("xfel.generate_s", view.mean_ms("xfel.generate") / 1e3, "s");
    report.add("serve.registry_refresh_ms", view.mean_ms("registry.refresh"),
               "ms");
    report.add("trace.overhead_pct",
               100.0 * (base.p50_ms - untraced_base->p50_ms) /
                   untraced_base->p50_ms,
               "%");
    report.add("serve.max_rps_at_slo", knee ? steps[*knee].rate : 0.0, "1/s");
    report.add("serve.base.p50_ms", base.p50_ms, "ms");
    add_step_metrics("base", base, view, report);
    if (knee) add_step_metrics("knee", steps[*knee], view, report);
    if (over) add_step_metrics("over", steps[*over], view, report);
    return report;
  }
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("ok_frac",
             static_cast<double>(base.answered_ok) /
                 static_cast<double>(base.sent),
             "ratio");
  report.add("throughput", closed_sent / closed_wall_s, "1/s");
  report.add("quality_pct", setup->accuracy_pct, "%");
  return report;
}

}  // namespace perfbench
