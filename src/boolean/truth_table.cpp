#include "boolean/truth_table.hpp"

#include <stdexcept>

namespace adsd {

TruthTable::TruthTable(unsigned num_inputs, unsigned num_outputs)
    : num_inputs_(num_inputs), num_outputs_(num_outputs) {
  if (num_inputs == 0 || num_inputs > kMaxInputs) {
    throw std::invalid_argument("TruthTable: inputs must be in [1, 26]");
  }
  if (num_outputs == 0 || num_outputs > kMaxOutputs) {
    throw std::invalid_argument("TruthTable: outputs must be in [1, 63]");
  }
  outputs_.assign(num_outputs, BitVec(num_patterns()));
}

TruthTable TruthTable::from_function(
    unsigned num_inputs, unsigned num_outputs,
    const std::function<std::uint64_t(std::uint64_t)>& f) {
  TruthTable tt(num_inputs, num_outputs);
  const std::uint64_t patterns = tt.num_patterns();
  for (std::uint64_t x = 0; x < patterns; ++x) {
    tt.set_word(x, f(x));
  }
  return tt;
}

std::uint64_t TruthTable::word(std::uint64_t input) const {
  std::uint64_t w = 0;
  for (unsigned k = 0; k < num_outputs_; ++k) {
    w |= static_cast<std::uint64_t>(outputs_[k].get(input)) << k;
  }
  return w;
}

void TruthTable::set_word(std::uint64_t input, std::uint64_t value) {
  for (unsigned k = 0; k < num_outputs_; ++k) {
    outputs_[k].set(input, (value >> k) & 1);
  }
}

void TruthTable::set_output(unsigned k, BitVec bits) {
  if (bits.size() != num_patterns()) {
    throw std::invalid_argument("TruthTable::set_output: size mismatch");
  }
  outputs_[k] = std::move(bits);
}

bool TruthTable::operator==(const TruthTable& other) const {
  return num_inputs_ == other.num_inputs_ &&
         num_outputs_ == other.num_outputs_ && outputs_ == other.outputs_;
}

std::uint64_t TruthTable::diff_count(const TruthTable& other) const {
  if (num_inputs_ != other.num_inputs_ ||
      num_outputs_ != other.num_outputs_) {
    throw std::invalid_argument("TruthTable::diff_count: shape mismatch");
  }
  std::uint64_t c = 0;
  for (std::uint64_t x = 0; x < num_patterns(); ++x) {
    if (word(x) != other.word(x)) {
      ++c;
    }
  }
  return c;
}

}  // namespace adsd
