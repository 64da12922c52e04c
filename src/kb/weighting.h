#ifndef TECORE_KB_WEIGHTING_H_
#define TECORE_KB_WEIGHTING_H_

#include <algorithm>
#include <cmath>

namespace tecore {
namespace kb {

/// \brief Largest log-odds magnitude: a confidence of exactly 1.0 maps to
/// this value rather than +∞, and a hard rule scores the facts it derives
/// as this weight. exp(13.8) ≈ 1e6, i.e. certainty ≈ 0.999999.
inline constexpr double kMaxLogOdds = 13.815510557964274;

/// \brief The log-odds of a confidence c in (0,1]: log(c / (1-c)),
/// clamped to [-kMaxLogOdds, kMaxLogOdds]. The inverse of
/// WeightToConfidence, which turns an MLN rule weight into a derived
/// fact's score. (A fact's own unit prior weight is its confidence; see
/// ground::GroundNetwork::PriorClause.)
inline double ConfidenceToWeight(double confidence) {
  const double c = std::clamp(confidence, 1e-12, 1.0 - 1e-12);
  const double w = std::log(c / (1.0 - c));
  return std::clamp(w, -kMaxLogOdds, kMaxLogOdds);
}

/// \brief Inverse of ConfidenceToWeight (sigmoid).
inline double WeightToConfidence(double weight) {
  return 1.0 / (1.0 + std::exp(-weight));
}

}  // namespace kb
}  // namespace tecore

#endif  // TECORE_KB_WEIGHTING_H_
