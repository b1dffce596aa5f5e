// XFEL simulator: geometry, physics sanity, noise scaling, and dataset
// generation invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "xfel/dataset.hpp"
#include "xfel/shapes_dataset.hpp"

namespace a4nn::xfel {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  const Vec3 s = a + b;
  EXPECT_DOUBLE_EQ(s.z, 9.0);
  const Vec3 d = b - a;
  EXPECT_DOUBLE_EQ(d.x, 3.0);
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  const Vec3 scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled.y, 4.0);
}

TEST(Mat3, RotationPreservesLengthAndOrientation) {
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Mat3 r = Mat3::random_rotation(rng);
    const Vec3 v{rng.normal(), rng.normal(), rng.normal()};
    const Vec3 rv = r.apply(v);
    EXPECT_NEAR(dot(rv, rv), dot(v, v), 1e-9);
  }
}

TEST(Mat3, RotationAboutAxisFixesAxis) {
  const Vec3 axis{0, 0, 1};
  const Mat3 r = Mat3::rotation_about(axis, 1.0);
  const Vec3 fixed = r.apply(axis);
  EXPECT_NEAR(fixed.z, 1.0, 1e-12);
  const Vec3 x{1, 0, 0};
  const Vec3 rx = r.apply(x);
  EXPECT_NEAR(rx.x, std::cos(1.0), 1e-12);
  EXPECT_NEAR(rx.y, std::sin(1.0), 1e-12);
}

TEST(Mat3, GeodesicDistance) {
  const Mat3 identity;
  EXPECT_NEAR(rotation_angle_between(identity, identity), 0.0, 1e-12);
  const Mat3 quarter = Mat3::rotation_about({0, 0, 1}, M_PI / 2.0);
  EXPECT_NEAR(rotation_angle_between(identity, quarter), M_PI / 2.0, 1e-12);
  // Symmetric.
  EXPECT_NEAR(rotation_angle_between(quarter, identity), M_PI / 2.0, 1e-12);
  const Mat3 half = Mat3::rotation_about({0, 1, 0}, M_PI);
  EXPECT_NEAR(rotation_angle_between(identity, half), M_PI, 1e-9);
}

TEST(Conformations, ShareCoreDifferInDomain) {
  ProteinConfig cfg;
  const auto [a, b] = make_conformation_pair(cfg);
  ASSERT_EQ(a.atoms.size(), cfg.core_atoms + cfg.domain_atoms);
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  // Core atoms identical.
  for (std::size_t i = 0; i < cfg.core_atoms; ++i) {
    EXPECT_DOUBLE_EQ(a.atoms[i].x, b.atoms[i].x);
    EXPECT_DOUBLE_EQ(a.atoms[i].y, b.atoms[i].y);
  }
  // Domain atoms displaced.
  double max_shift = 0.0;
  for (std::size_t i = cfg.core_atoms; i < a.atoms.size(); ++i) {
    const Vec3 d = a.atoms[i] - b.atoms[i];
    max_shift = std::max(max_shift, std::sqrt(dot(d, d)));
  }
  EXPECT_GT(max_shift, 1.0);
  // Comparable size, different shape.
  EXPECT_GT(a.radius_of_gyration(), 0.0);
  EXPECT_NE(a.radius_of_gyration(), b.radius_of_gyration());
}

TEST(Conformations, DeterministicForSeed) {
  ProteinConfig cfg;
  const auto [a1, b1] = make_conformation_pair(cfg);
  const auto [a2, b2] = make_conformation_pair(cfg);
  EXPECT_DOUBLE_EQ(a1.atoms[10].x, a2.atoms[10].x);
  EXPECT_DOUBLE_EQ(b1.atoms.back().y, b2.atoms.back().y);
}

TEST(Conformations, MultiConformationInterpolatesSwing) {
  ProteinConfig cfg;
  const auto confs = make_conformations(cfg, 4);
  ASSERT_EQ(confs.size(), 4u);
  EXPECT_EQ(confs[0].name, "confA");
  EXPECT_EQ(confs[3].name, "confD");
  // First and last match the pair construction's endpoints.
  const auto [a, b] = make_conformation_pair(cfg);
  EXPECT_DOUBLE_EQ(confs[0].atoms.back().x, a.atoms.back().x);
  EXPECT_DOUBLE_EQ(confs[3].atoms.back().y, b.atoms.back().y);
  // Domain displacement grows monotonically with the conformation index.
  auto shift = [&](const Conformation& c) {
    const Vec3 d = c.atoms.back() - confs[0].atoms.back();
    return std::sqrt(dot(d, d));
  };
  EXPECT_LT(shift(confs[1]), shift(confs[2]));
  EXPECT_LT(shift(confs[2]), shift(confs[3]));
  EXPECT_THROW(make_conformations(cfg, 1), std::invalid_argument);
}

TEST(XfelDataset, MultiClassGeneration) {
  XfelDatasetConfig cfg;
  cfg.images_per_class = 20;
  cfg.conformations = 3;
  cfg.detector.pixels = 8;
  const XfelDataset data = generate_xfel_dataset(cfg);
  EXPECT_EQ(data.train.size() + data.validation.size(), 60u);
  EXPECT_EQ(data.train.num_classes(), 3u);
}

TEST(Beam, NamesFluencesAndPhotons) {
  EXPECT_STREQ(beam_name(BeamIntensity::kLow), "low");
  EXPECT_STREQ(beam_name(BeamIntensity::kHigh), "high");
  EXPECT_DOUBLE_EQ(beam_fluence(BeamIntensity::kLow), 1e14);
  EXPECT_DOUBLE_EQ(beam_fluence(BeamIntensity::kMedium), 1e15);
  EXPECT_DOUBLE_EQ(beam_fluence(BeamIntensity::kHigh), 1e16);
  // Detected photons follow the 10x fluence ladder.
  EXPECT_NEAR(beam_expected_photons(BeamIntensity::kMedium) /
                  beam_expected_photons(BeamIntensity::kLow),
              10.0, 1e-9);
}

TEST(Beam, FromNameInvertsNameAndRejectsTypos) {
  for (const auto b :
       {BeamIntensity::kLow, BeamIntensity::kMedium, BeamIntensity::kHigh})
    EXPECT_EQ(beam_from_name(beam_name(b)), b);
  // A typo must not quietly run the medium-intensity experiment.
  for (const char* bad : {"lo", "Low", "HIGH", "", "medium "})
    EXPECT_THROW(beam_from_name(bad), std::invalid_argument) << bad;
}

TEST(DiffractionSimulator, IdealPatternNormalizedAndPositive) {
  ProteinConfig pcfg;
  const auto [conf, conf_b] = make_conformation_pair(pcfg);
  (void)conf_b;
  DetectorConfig det;
  det.pixels = 8;
  DiffractionSimulator sim(det, BeamIntensity::kHigh);
  util::Rng rng(2);
  const auto pattern = sim.ideal_pattern(conf, Mat3::random_rotation(rng));
  ASSERT_EQ(pattern.size(), 64u);
  double total = 0.0;
  for (double v : pattern) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(DiffractionSimulator, CentralPeakDominates) {
  // Coherent scattering: |F(0)|^2 = atoms^2 is the global maximum; q=0 is
  // the detector center pixel when pixels is odd.
  ProteinConfig pcfg;
  const auto [conf, unused] = make_conformation_pair(pcfg);
  (void)unused;
  DetectorConfig det;
  det.pixels = 9;
  DiffractionSimulator sim(det, BeamIntensity::kHigh);
  util::Rng rng(3);
  const auto pattern = sim.ideal_pattern(conf, Mat3::random_rotation(rng));
  const double center = pattern[4 * 9 + 4];
  for (double v : pattern) EXPECT_LE(v, center + 1e-12);
}

TEST(DiffractionSimulator, ConformationsProduceDifferentPatterns) {
  ProteinConfig pcfg;
  const auto [a, b] = make_conformation_pair(pcfg);
  DetectorConfig det;
  det.pixels = 8;
  DiffractionSimulator sim(det, BeamIntensity::kHigh);
  const Mat3 identity;
  const auto pa = sim.ideal_pattern(a, identity);
  const auto pb = sim.ideal_pattern(b, identity);
  double diff = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) diff += std::fabs(pa[i] - pb[i]);
  EXPECT_GT(diff, 1e-3);
}

TEST(DiffractionSimulator, ShotPhotonCountScalesWithIntensity) {
  ProteinConfig pcfg;
  const auto [conf, unused] = make_conformation_pair(pcfg);
  (void)unused;
  DetectorConfig det;
  det.pixels = 8;
  auto mean_photons = [&](BeamIntensity intensity) {
    DiffractionSimulator sim(det, intensity);
    util::Rng rng(4);
    double total = 0.0;
    for (int i = 0; i < 20; ++i)
      total += sim.simulate_shot(conf, rng).total_photons;
    return total / 20.0;
  };
  const double low = mean_photons(BeamIntensity::kLow);
  const double high = mean_photons(BeamIntensity::kHigh);
  EXPECT_GT(high, low * 50.0);  // ~100x modulo Poisson noise
}

TEST(DiffractionSimulator, ShotImageIsNormalized) {
  ProteinConfig pcfg;
  const auto [conf, unused] = make_conformation_pair(pcfg);
  (void)unused;
  DetectorConfig det;
  det.pixels = 8;
  DiffractionSimulator sim(det, BeamIntensity::kMedium);
  util::Rng rng(5);
  const Shot shot = sim.simulate_shot(conf, rng);
  float max_px = 0.0f;
  for (float v : shot.image) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
    max_px = std::max(max_px, v);
  }
  EXPECT_FLOAT_EQ(max_px, 1.0f);  // log-normalized to the peak
}

TEST(DiffractionSimulator, ConfigValidation) {
  DetectorConfig det;
  det.pixels = 2;
  EXPECT_THROW(DiffractionSimulator(det, BeamIntensity::kLow),
               std::invalid_argument);
  det.pixels = 8;
  det.q_max = 0.0;
  EXPECT_THROW(DiffractionSimulator(det, BeamIntensity::kLow),
               std::invalid_argument);
}

TEST(XfelDataset, BalancedSplitAndMetadata) {
  XfelDatasetConfig cfg;
  cfg.images_per_class = 50;
  cfg.detector.pixels = 8;
  const XfelDataset data = generate_xfel_dataset(cfg);
  EXPECT_EQ(data.train.size(), 80u);
  EXPECT_EQ(data.validation.size(), 20u);
  EXPECT_EQ(data.train_orientations.size(), 80u);
  EXPECT_EQ(data.validation_orientations.size(), 20u);
  // Class balance within 20% on the train split.
  std::size_t class0 = 0;
  for (std::size_t i = 0; i < data.train.size(); ++i)
    class0 += data.train.label(i) == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(class0), 40.0, 12.0);
}

TEST(XfelDataset, DeterministicForSeed) {
  XfelDatasetConfig cfg;
  cfg.images_per_class = 10;
  cfg.detector.pixels = 8;
  const XfelDataset a = generate_xfel_dataset(cfg);
  const XfelDataset b = generate_xfel_dataset(cfg);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train.label(i), b.train.label(i));
    EXPECT_EQ(a.train.image(i)[7], b.train.image(i)[7]);
  }
  cfg.seed += 1;
  const XfelDataset c = generate_xfel_dataset(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.train.size() && !any_diff; ++i)
    any_diff = a.train.image(i)[3] != c.train.image(i)[3];
  EXPECT_TRUE(any_diff);
}

TEST(XfelDataset, Validation) {
  XfelDatasetConfig cfg;
  cfg.images_per_class = 0;
  EXPECT_THROW(generate_xfel_dataset(cfg), std::invalid_argument);
  cfg.images_per_class = 10;
  cfg.train_fraction = 1.5;
  EXPECT_THROW(generate_xfel_dataset(cfg), std::invalid_argument);
}

TEST(ShapesDataset, RenderedShapesAreDistinct) {
  util::Rng rng(1);
  const auto disc = render_shape(ShapeClass::kDisc, 16, 0.0, 0.0, rng);
  const auto ring = render_shape(ShapeClass::kRing, 16, 0.0, 0.0, rng);
  ASSERT_EQ(disc.size(), 256u);
  // A noise-free disc has a lit center; a ring does not.
  EXPECT_GT(disc[8 * 16 + 8], 0.5f);
  EXPECT_LT(ring[8 * 16 + 8], 0.5f);
  // Both have lit pixels.
  double disc_sum = 0.0, ring_sum = 0.0;
  for (std::size_t i = 0; i < 256; ++i) {
    disc_sum += disc[i];
    ring_sum += ring[i];
  }
  EXPECT_GT(disc_sum, ring_sum);
  EXPECT_GT(ring_sum, 5.0);
}

TEST(ShapesDataset, GenerationAndValidation) {
  ShapesDatasetConfig cfg;
  cfg.images_per_class = 30;
  cfg.classes = 3;
  cfg.image_px = 8;
  const ShapesDataset data = generate_shapes_dataset(cfg);
  EXPECT_EQ(data.train.size(), 72u);
  EXPECT_EQ(data.validation.size(), 18u);
  EXPECT_EQ(data.train.num_classes(), 3u);

  ShapesDatasetConfig bad = cfg;
  bad.classes = 5;
  EXPECT_THROW(generate_shapes_dataset(bad), std::invalid_argument);
  bad = cfg;
  bad.images_per_class = 0;
  EXPECT_THROW(generate_shapes_dataset(bad), std::invalid_argument);
  bad = cfg;
  bad.train_fraction = 0.0;
  EXPECT_THROW(generate_shapes_dataset(bad), std::invalid_argument);
}

TEST(ShapesDataset, DeterministicBySeed) {
  ShapesDatasetConfig cfg;
  cfg.images_per_class = 10;
  cfg.image_px = 8;
  const ShapesDataset a = generate_shapes_dataset(cfg);
  const ShapesDataset b = generate_shapes_dataset(cfg);
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train.label(i), b.train.label(i));
    EXPECT_EQ(a.train.image(i)[10], b.train.image(i)[10]);
  }
}

}  // namespace
}  // namespace a4nn::xfel
