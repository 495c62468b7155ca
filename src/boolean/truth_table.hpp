#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "support/bitvec.hpp"

namespace adsd {

/// Complete truth table of a multi-output Boolean function
/// G : {0,1}^n -> {0,1}^m.
///
/// Output k (0-based) is the bit of weight 2^k in the output word, i.e.
/// output m-1 is the most significant bit; the decomposition framework
/// optimizes outputs from MSB to LSB as in the paper. Inputs are indexed by
/// the integer encoding of the input pattern, bit i of the index being input
/// variable x_i.
class TruthTable {
 public:
  /// Shape limits, enforced by the constructor and the table readers.
  static constexpr unsigned kMaxInputs = 26;
  static constexpr unsigned kMaxOutputs = 63;

  /// All-zero function with n inputs and m outputs.
  TruthTable(unsigned num_inputs, unsigned num_outputs);

  /// Tabulates `f`, which maps an input code in [0, 2^n) to an m-bit output
  /// word (higher bits are ignored).
  static TruthTable from_function(
      unsigned num_inputs, unsigned num_outputs,
      const std::function<std::uint64_t(std::uint64_t)>& f);

  unsigned num_inputs() const { return num_inputs_; }
  unsigned num_outputs() const { return num_outputs_; }
  std::uint64_t num_patterns() const { return std::uint64_t{1} << num_inputs_; }

  bool bit(unsigned output, std::uint64_t input) const {
    return outputs_[output].get(input);
  }
  void set_bit(unsigned output, std::uint64_t input, bool v) {
    outputs_[output].set(input, v);
  }

  /// Full m-bit output word for an input pattern.
  std::uint64_t word(std::uint64_t input) const;
  void set_word(std::uint64_t input, std::uint64_t value);

  /// The single-output function as a packed column of 2^n bits.
  const BitVec& output(unsigned k) const { return outputs_[k]; }
  void set_output(unsigned k, BitVec bits);

  bool operator==(const TruthTable& other) const;
  bool operator!=(const TruthTable& other) const { return !(*this == other); }

  /// Number of input patterns where any output differs.
  std::uint64_t diff_count(const TruthTable& other) const;

 private:
  unsigned num_inputs_;
  unsigned num_outputs_;
  std::vector<BitVec> outputs_;
};

}  // namespace adsd
