#include "boolean/error_metrics.hpp"

#include <cmath>
#include <stdexcept>

namespace adsd {

InputDistribution InputDistribution::uniform(unsigned num_inputs) {
  if (num_inputs == 0 || num_inputs > 26) {
    throw std::invalid_argument("InputDistribution: inputs must be in [1,26]");
  }
  InputDistribution d;
  d.num_inputs_ = num_inputs;
  d.uniform_ = true;
  d.uniform_prob_ =
      1.0 / static_cast<double>(std::uint64_t{1} << num_inputs);
  return d;
}

InputDistribution InputDistribution::from_weights(std::vector<double> weights) {
  if (weights.empty() || (weights.size() & (weights.size() - 1)) != 0) {
    throw std::invalid_argument(
        "InputDistribution: weight count must be a power of two");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0 || std::isnan(w)) {
      throw std::invalid_argument("InputDistribution: negative weight");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("InputDistribution: all weights are zero");
  }
  if (!std::isfinite(total)) {
    throw std::invalid_argument("InputDistribution: weights sum to infinity");
  }
  InputDistribution d;
  d.uniform_ = false;
  unsigned n = 0;
  while ((std::size_t{1} << n) < weights.size()) {
    ++n;
  }
  d.num_inputs_ = n;
  d.probs_ = std::move(weights);
  for (double& p : d.probs_) {
    p /= total;
  }
  return d;
}

namespace {

void check_shapes(const TruthTable& exact, const TruthTable& approx,
                  const InputDistribution& dist) {
  if (exact.num_inputs() != approx.num_inputs() ||
      exact.num_outputs() != approx.num_outputs()) {
    throw std::invalid_argument("error metric: table shape mismatch");
  }
  if (dist.num_inputs() != exact.num_inputs()) {
    throw std::invalid_argument("error metric: distribution shape mismatch");
  }
}

}  // namespace

double error_rate(const BitVec& exact, const BitVec& approx,
                  const InputDistribution& dist) {
  if (exact.size() != approx.size() ||
      exact.size() != dist.num_patterns()) {
    throw std::invalid_argument("error_rate: size mismatch");
  }
  if (dist.is_uniform()) {
    return static_cast<double>(exact.hamming_distance(approx)) /
           static_cast<double>(exact.size());
  }
  double er = 0.0;
  for (std::uint64_t x = 0; x < exact.size(); ++x) {
    if (exact.get(x) != approx.get(x)) {
      er += dist.prob(x);
    }
  }
  return er;
}

double error_rate(const TruthTable& exact, const TruthTable& approx,
                  const InputDistribution& dist) {
  check_shapes(exact, approx, dist);
  double er = 0.0;
  for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
    if (exact.word(x) != approx.word(x)) {
      er += dist.prob(x);
    }
  }
  return er;
}

double mean_error_distance(const TruthTable& exact, const TruthTable& approx,
                           const InputDistribution& dist) {
  check_shapes(exact, approx, dist);
  double med = 0.0;
  for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
    const auto a = static_cast<std::int64_t>(exact.word(x));
    const auto b = static_cast<std::int64_t>(approx.word(x));
    med += dist.prob(x) * static_cast<double>(std::llabs(a - b));
  }
  return med;
}

std::uint64_t worst_case_error(const TruthTable& exact,
                               const TruthTable& approx) {
  if (exact.num_inputs() != approx.num_inputs() ||
      exact.num_outputs() != approx.num_outputs()) {
    throw std::invalid_argument("worst_case_error: table shape mismatch");
  }
  std::uint64_t wce = 0;
  for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
    const auto a = static_cast<std::int64_t>(exact.word(x));
    const auto b = static_cast<std::int64_t>(approx.word(x));
    const auto d = static_cast<std::uint64_t>(std::llabs(a - b));
    if (d > wce) {
      wce = d;
    }
  }
  return wce;
}

double mean_relative_error(const TruthTable& exact, const TruthTable& approx,
                           const InputDistribution& dist) {
  check_shapes(exact, approx, dist);
  double mre = 0.0;
  for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
    const auto a = static_cast<std::int64_t>(exact.word(x));
    const auto b = static_cast<std::int64_t>(approx.word(x));
    const double denom = a > 0 ? static_cast<double>(a) : 1.0;
    mre += dist.prob(x) * static_cast<double>(std::llabs(a - b)) / denom;
  }
  return mre;
}

}  // namespace adsd
