// Quantized-serving benchmark: float32 vs int8 inference at the serving
// micro-batch geometry, measured with the same LatencyProbe the
// measured-p99 registry policy uses. Emits BENCH_quant.json (per-image
// latency, throughput, int8 speedup, accuracy drop) and — with --floor —
// enforces the shared floor gate (floor_gate.hpp), with the accuracy drop
// as an absolute ceiling.
//
//   ./bench_quant                            # print table + write JSON
//   ./bench_quant --floor ../bench/quant_floor.json
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "floor_gate.hpp"
#include "latency/probe.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "quant/quantized_model.hpp"
#include "util/args.hpp"
#include "util/fsutil.hpp"
#include "util/table.hpp"
#include "xfel/dataset.hpp"

using namespace a4nn;

namespace {

constexpr std::size_t kSide = 16;  // {1,16,16} detector input

/// Conv stem + wide MLP head — the same shape family as bench_serve. The
/// wide Linears are memory-bound at micro-batch widths: the float path
/// streams 4 bytes per weight, the int8 path 1, which is exactly where
/// post-training quantization pays at serve time.
nn::Model bench_model(std::uint64_t seed, std::size_t classes) {
  util::Rng rng(seed);
  auto trunk = std::make_unique<nn::Sequential>();
  auto conv = std::make_unique<nn::Conv2d>(1, 8, 3, 1, 1, rng);
  conv->set_activation(nn::Activation::kRelu);
  trunk->append(std::move(conv));
  trunk->append(std::make_unique<nn::MaxPool2d>(2));
  trunk->append(std::make_unique<nn::Flatten>());
  auto fc1 = std::make_unique<nn::Linear>(8 * 8 * 8, 512, rng);
  fc1->set_activation(nn::Activation::kRelu);
  trunk->append(std::move(fc1));
  auto fc2 = std::make_unique<nn::Linear>(512, 512, rng);
  fc2->set_activation(nn::Activation::kRelu);
  trunk->append(std::move(fc2));
  trunk->append(std::make_unique<nn::Linear>(512, classes, rng));
  return nn::Model(std::move(trunk), {1, kSide, kSide});
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_quant",
                       "float vs int8 serving benchmark (BENCH_quant.json)");
  args.add_option("out", "BENCH_quant.json", "output JSON path");
  args.add_option("batch", "8", "micro-batch rows per timed forward");
  args.add_option("repeats", "40", "timed passes per variant");
  args.add_option("epochs", "8", "training epochs before quantization");
  args.add_option("lr", "0.01", "SGD learning rate for the warm-up training");
  args.add_option("floor", "",
                  "quant_floor.json with minimums and the accuracy-drop "
                  "ceiling; exit nonzero if any metric misses its gate or "
                  "has no entry");
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

  // A briefly trained XFEL classifier, so the accuracy-drop number is
  // measured on a model that actually separates the classes.
  xfel::XfelDatasetConfig ds;
  ds.images_per_class = 120;  // 48-image validation split: 2.1pp granularity
  ds.detector.pixels = kSide;
  ds.intensity = xfel::BeamIntensity::kHigh;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(ds);

  nn::Model model = bench_model(42, data.train.num_classes());
  {
    nn::Sgd opt(std::stod(args.get("lr")));
    util::Rng rng(7);
    const std::size_t epochs = args.get_size("epochs");
    for (std::size_t e = 0; e < epochs; ++e)
      model.train_epoch(data.train, 8, opt, rng);
  }

  // Calibration: the first 32 training images, the registry's default.
  std::vector<std::size_t> idx(std::min<std::size_t>(32, data.train.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  quant::QuantizedModel qm =
      quant::QuantizedModel::quantize(model, data.train.gather(idx).images);

  const double float_acc = model.evaluate(data.validation).accuracy;
  std::vector<std::size_t> val_idx(data.validation.size());
  for (std::size_t i = 0; i < val_idx.size(); ++i) val_idx[i] = i;
  const nn::Dataset::Batch val = data.validation.gather(val_idx);
  const double int8_acc = quant::top1_accuracy(
      qm.predict(val.images),
      std::vector<std::size_t>(val.labels.begin(), val.labels.end()));

  latency::ProbeConfig pcfg;
  pcfg.batch = args.get_size("batch");
  pcfg.warmup = 3;
  pcfg.repeats = args.get_size("repeats");
  const latency::LatencyProbe prober(pcfg);
  const latency::ProbeResult fl = prober.probe(model);
  const latency::ProbeResult i8 = prober.probe_fn(
      [&qm](const tensor::Tensor& x) { qm.predict(x); }, model.input_shape());

  const double float_rps = fl.median_ms > 0.0 ? 1000.0 / fl.median_ms : 0.0;
  const double int8_rps = i8.median_ms > 0.0 ? 1000.0 / i8.median_ms : 0.0;
  const double speedup = float_rps > 0.0 ? int8_rps / float_rps : 0.0;
  const double drop_pct = float_acc - int8_acc;

  util::AsciiTable table(
      {"variant", "median ms/img", "p99 ms/img", "img/s", "accuracy %"});
  table.add_row({"float32", util::AsciiTable::num(fl.median_ms, 4),
                 util::AsciiTable::num(fl.p99_ms, 4),
                 util::AsciiTable::num(float_rps, 0),
                 util::AsciiTable::num(float_acc, 2)});
  table.add_row({"int8", util::AsciiTable::num(i8.median_ms, 4),
                 util::AsciiTable::num(i8.p99_ms, 4),
                 util::AsciiTable::num(int8_rps, 0),
                 util::AsciiTable::num(int8_acc, 2)});
  std::printf("%s", table.render().c_str());
  std::printf("int8 vs float throughput: %.2fx, accuracy drop: %.2fpp\n",
              speedup, drop_pct);

  util::Json json = util::Json::object();
  auto dump = [](const latency::ProbeResult& r, double rps, double acc) {
    util::Json j = util::Json::object();
    j["median_ms_per_image"] = r.median_ms;
    j["p99_ms_per_image"] = r.p99_ms;
    j["images_per_second"] = rps;
    j["accuracy_pct"] = acc;
    return j;
  };
  json["float32"] = dump(fl, float_rps, float_acc);
  json["int8"] = dump(i8, int8_rps, int8_acc);
  json["int8_speedup"] = speedup;
  json["accuracy_drop_pct"] = drop_pct;
  json["batch"] = pcfg.batch;
  json["int8_parameters"] = qm.int8_parameters();
  util::write_file(args.get("out"), json.dump(2));
  std::printf("wrote %s\n", args.get("out").c_str());

  // The accuracy drop is an absolute ceiling (the epsilon contract).
  if (!args.get("floor").empty() &&
      bench::floor_violations(
          args.get("floor"),
          {{"float_rps", float_rps},
           {"int8_rps", int8_rps},
           {"int8_speedup", speedup},
           {"max_accuracy_drop_pct", drop_pct,
            bench::GatedMetric::kAtMost}}) > 0)
    return 2;
  return 0;
}
