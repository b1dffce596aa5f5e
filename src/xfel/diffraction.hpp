// Far-field XFEL diffraction-pattern synthesis.
//
// Stand-in for the paper's spsim + Xmipp pipeline. For each shot we draw a
// uniform random beam orientation (Xmipp's role), rotate the conformation,
// and evaluate the coherent structure factor F(q) = sum_j exp(2*pi*i q.r_j)
// on a flat detector grid in the small-angle approximation (spsim's role).
// The expected photon count per pixel is the normalized intensity |F|^2
// scaled by the beam fluence, and the recorded pattern is a Poisson sample
// of it — so beam intensity controls the signal-to-noise ratio exactly as
// in the paper (low fluence -> noisy patterns -> harder classification).
#pragma once

#include <string>
#include <vector>

#include "util/rng.hpp"
#include "xfel/protein.hpp"

namespace a4nn::xfel {

/// Beam intensity regimes from the paper (photons / um^2 / pulse).
enum class BeamIntensity { kLow, kMedium, kHigh };

const char* beam_name(BeamIntensity b);
/// Inverse of beam_name; throws std::invalid_argument on any other name.
BeamIntensity beam_from_name(const std::string& name);
/// Paper fluence value, for record trails.
double beam_fluence(BeamIntensity b);
/// Expected total detected photons per pattern in our detector model.
/// Chosen so low/medium/high reproduce the paper's noise ordering.
double beam_expected_photons(BeamIntensity b);

struct DetectorConfig {
  std::size_t pixels = 16;   // square detector, pixels x pixels
  double q_max = 0.12;       // reciprocal-space half-extent (1/Angstrom-ish)
  double curvature = 0.35;   // Ewald-sphere qz curvature factor
};

struct Shot {
  std::vector<float> image;  // pixels*pixels, normalized [0, 1]
  Mat3 orientation;          // beam orientation used (ground truth metadata)
  double total_photons = 0;  // detected photon count before normalization
};

class DiffractionSimulator {
 public:
  DiffractionSimulator(DetectorConfig detector, BeamIntensity intensity);

  /// Noise-free normalized intensity pattern for a given orientation.
  std::vector<double> ideal_pattern(const Conformation& conf,
                                    const Mat3& orientation) const;

  /// One simulated shot: random orientation + Poisson photon noise +
  /// log-scale normalization to [0, 1].
  Shot simulate_shot(const Conformation& conf, util::Rng& rng) const;

  const DetectorConfig& detector() const { return detector_; }
  BeamIntensity intensity() const { return intensity_; }

 private:
  DetectorConfig detector_;
  BeamIntensity intensity_;
};

}  // namespace a4nn::xfel
