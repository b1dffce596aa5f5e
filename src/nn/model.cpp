#include "nn/model.hpp"

#include <stdexcept>

#include "nn/factory.hpp"
#include "nn/loss.hpp"
#include "nn/packed.hpp"

namespace a4nn::nn {

Model::Model(std::unique_ptr<Sequential> trunk, Shape input_shape)
    : trunk_(std::move(trunk)), input_shape_(std::move(input_shape)) {
  if (!trunk_) throw std::invalid_argument("Model: null trunk");
  if (input_shape_.size() != 3)
    throw std::invalid_argument("Model: input shape must be CHW");
  // Validate that the trunk produces class scores for this input.
  const Shape out = trunk_->output_shape(input_shape_);
  if (out.size() != 1 || out[0] < 2)
    throw std::invalid_argument(
        "Model: trunk must map CHW input to a class-score vector");
}

EpochMetrics Model::train_epoch(const Dataset& data, std::size_t batch_size,
                                Optimizer& opt, util::Rng& rng) {
  if (data.size() == 0)
    throw std::invalid_argument("Model::train_epoch: empty dataset");
  BatchIterator it(data.size(), batch_size, rng, /*shuffle=*/true);
  double loss_sum = 0.0;
  std::size_t correct = 0, seen = 0;
  auto slots = trunk_->params();
  for (auto indices = it.next(); !indices.empty(); indices = it.next()) {
    const auto batch = data.gather(indices);
    trunk_->zero_grad();
    const Tensor logits = trunk_->forward(batch.images, /*training=*/true);
    LossResult res = softmax_cross_entropy(logits, batch.labels);
    trunk_->backward_params(res.grad);
    opt.step(slots);
    loss_sum += res.loss * static_cast<double>(indices.size());
    correct += res.correct;
    seen += indices.size();
  }
  EpochMetrics m;
  m.loss = loss_sum / static_cast<double>(seen);
  m.accuracy = 100.0 * static_cast<double>(correct) / static_cast<double>(seen);
  return m;
}

EpochMetrics Model::evaluate(const Dataset& data, std::size_t batch_size) {
  if (data.size() == 0)
    throw std::invalid_argument("Model::evaluate: empty dataset");
  util::Rng noshuffle(0);
  BatchIterator it(data.size(), batch_size, noshuffle, /*shuffle=*/false);
  double loss_sum = 0.0;
  std::size_t correct = 0, seen = 0;
  for (auto indices = it.next(); !indices.empty(); indices = it.next()) {
    const auto batch = data.gather(indices);
    const Tensor logits = trunk_->forward(batch.images, /*training=*/false);
    LossResult res = softmax_cross_entropy(logits, batch.labels);
    loss_sum += res.loss * static_cast<double>(indices.size());
    correct += res.correct;
    seen += indices.size();
  }
  EpochMetrics m;
  m.loss = loss_sum / static_cast<double>(seen);
  m.accuracy = 100.0 * static_cast<double>(correct) / static_cast<double>(seen);
  return m;
}

Tensor Model::predict(const Tensor& images) {
  return trunk_->forward(images, /*training=*/false);
}

std::uint64_t Model::flops_per_image() const {
  return trunk_->flops(input_shape_);
}

std::size_t Model::parameter_count() {
  std::size_t n = 0;
  for (const auto& p : trunk_->params()) n += p.value->numel();
  return n;
}

namespace {

/// {"input_shape", "spec"}: everything of a checkpoint but the weights.
util::Json checkpoint_header(const Shape& input_shape,
                             const Sequential& trunk) {
  util::Json j = util::Json::object();
  util::JsonArray shape;
  for (std::size_t d : input_shape) shape.emplace_back(d);
  j["input_shape"] = util::Json(std::move(shape));
  j["spec"] = trunk.spec();
  return j;
}

Shape input_shape_from(const util::Json& header) {
  Shape input_shape;
  for (const auto& d : header.at("input_shape").as_array())
    input_shape.push_back(static_cast<std::size_t>(d.as_int()));
  return input_shape;
}

/// The trunk of `header`'s spec. The RNG only seeds throwaway initial
/// weights; the snapshot overwrites them, so any fixed seed gives
/// identical results.
std::unique_ptr<Sequential> trunk_from(const util::Json& header) {
  util::Rng rng(0);
  return make_sequential(header.at("spec"), rng);
}

}  // namespace

util::Json Model::checkpoint() const {
  util::Json j = checkpoint_header(input_shape_, *trunk_);
  j["weights"] = trunk_->weights();
  return j;
}

Model Model::from_checkpoint(const util::Json& ckpt) {
  auto trunk = trunk_from(ckpt);
  trunk->load_weights(ckpt.at("weights"));
  return Model(std::move(trunk), input_shape_from(ckpt));
}

std::string Model::encode_checkpoint() const {
  std::vector<PackedSection> sections;
  for (const auto& slot : trunk_->state())
    sections.push_back({slot.value->shape(), slot.value->span()});
  return encode_packed(checkpoint_header(input_shape_, *trunk_), sections);
}

Model Model::decode_checkpoint(std::string_view payload) {
  if (!is_packed(payload))
    return from_checkpoint(util::Json::parse(std::string(payload)));
  PackedPayload packed = decode_packed(payload);
  auto trunk = trunk_from(packed.header);
  load_state(*trunk, std::move(packed.sections));
  return Model(std::move(trunk), input_shape_from(packed.header));
}

}  // namespace a4nn::nn
