#include "xfel/diffraction.hpp"

#include <cmath>
#include <stdexcept>

namespace a4nn::xfel {

const char* beam_name(BeamIntensity b) {
  switch (b) {
    case BeamIntensity::kLow: return "low";
    case BeamIntensity::kMedium: return "medium";
    case BeamIntensity::kHigh: return "high";
  }
  return "?";
}

BeamIntensity beam_from_name(const std::string& name) {
  if (name == "low") return BeamIntensity::kLow;
  if (name == "medium") return BeamIntensity::kMedium;
  if (name == "high") return BeamIntensity::kHigh;
  throw std::invalid_argument("unknown beam intensity '" + name +
                              "' (expected low|medium|high)");
}

double beam_fluence(BeamIntensity b) {
  switch (b) {
    case BeamIntensity::kLow: return 1e14;
    case BeamIntensity::kMedium: return 1e15;
    case BeamIntensity::kHigh: return 1e16;
  }
  return 0.0;
}

double beam_expected_photons(BeamIntensity b) {
  // Detected photons scale linearly with fluence; the absolute numbers are
  // detector-model specific. 10x steps mirror the paper's fluence ladder.
  switch (b) {
    case BeamIntensity::kLow: return 2.0e2;
    case BeamIntensity::kMedium: return 2.0e3;
    case BeamIntensity::kHigh: return 2.0e4;
  }
  return 0.0;
}

DiffractionSimulator::DiffractionSimulator(DetectorConfig detector,
                                           BeamIntensity intensity)
    : detector_(detector), intensity_(intensity) {
  if (detector.pixels < 4)
    throw std::invalid_argument("DiffractionSimulator: detector too small");
  if (detector.q_max <= 0.0)
    throw std::invalid_argument("DiffractionSimulator: q_max must be > 0");
}

std::vector<double> DiffractionSimulator::ideal_pattern(
    const Conformation& conf, const Mat3& orientation) const {
  const std::size_t n = detector_.pixels;
  std::vector<double> intensity(n * n, 0.0);

  // Rotate atoms into the lab frame once per shot.
  std::vector<Vec3> atoms;
  atoms.reserve(conf.atoms.size());
  for (const auto& a : conf.atoms) atoms.push_back(orientation.apply(a));

  const double step = 2.0 * detector_.q_max / static_cast<double>(n - 1);
  for (std::size_t py = 0; py < n; ++py) {
    const double qy = -detector_.q_max + step * static_cast<double>(py);
    for (std::size_t px = 0; px < n; ++px) {
      const double qx = -detector_.q_max + step * static_cast<double>(px);
      // Small-angle Ewald sphere: qz grows quadratically off-axis.
      const double qz =
          detector_.curvature * (qx * qx + qy * qy) / detector_.q_max;
      double re = 0.0, im = 0.0;
      for (const auto& r : atoms) {
        const double phase =
            2.0 * M_PI * (qx * r.x + qy * r.y + qz * r.z);
        re += std::cos(phase);
        im += std::sin(phase);
      }
      intensity[py * n + px] = re * re + im * im;
    }
  }

  // Normalize to unit total so fluence scaling is detector-independent.
  double total = 0.0;
  for (double v : intensity) total += v;
  if (total > 0.0) {
    for (double& v : intensity) v /= total;
  }
  return intensity;
}

Shot DiffractionSimulator::simulate_shot(const Conformation& conf,
                                         util::Rng& rng) const {
  Shot shot;
  shot.orientation = Mat3::random_rotation(rng);
  const std::vector<double> ideal = ideal_pattern(conf, shot.orientation);
  const double expected_photons = beam_expected_photons(intensity_);

  const std::size_t numel = ideal.size();
  shot.image.resize(numel);
  double max_counts = 0.0;
  std::vector<double> counts(numel);
  for (std::size_t i = 0; i < numel; ++i) {
    counts[i] =
        static_cast<double>(rng.poisson(expected_photons * ideal[i]));
    shot.total_photons += counts[i];
    max_counts = std::max(max_counts, counts[i]);
  }
  // Log-scale normalization: diffraction intensities span orders of
  // magnitude; log compression is what practitioners feed CNNs.
  const double denom = std::log1p(max_counts);
  for (std::size_t i = 0; i < numel; ++i) {
    shot.image[i] = denom > 0.0
                        ? static_cast<float>(std::log1p(counts[i]) / denom)
                        : 0.0f;
  }
  return shot;
}

}  // namespace a4nn::xfel
