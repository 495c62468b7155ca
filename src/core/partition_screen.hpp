#pragma once

#include <vector>

#include "boolean/partition.hpp"
#include "support/bitvec.hpp"

namespace adsd {

class ThreadPool;

/// Truth-table candidate-partition screener.
///
/// The DALTA framework samples P random partitions per output and pays a
/// full core-COP solve for each. The column multiplicity (number of
/// distinct bound-set columns of the Boolean matrix) is a cheap proxy for
/// how well a partition can be approximated by two column patterns:
/// multiplicity <= 2 means an exact decomposition exists (Theorem 2), and
/// low multiplicity means the columns cluster tightly. Screening generates
/// `screen_factor * P` candidates, ranks them by multiplicity, and keeps
/// the best P -- trading a pass over the output column for fewer wasted
/// solver calls.
///
/// The count is exact: the output's 2^n bits are scattered into
/// column-major order (so each column is a contiguous bit field), and the
/// distinct fields are counted. The scratch is per thread, reused across
/// calls, and stays within two output columns plus 1 MB whatever the shape
/// of the partition.
class PartitionScreener {
 public:
  /// Keeps a copy of one output column (2^n bits).
  PartitionScreener(const BitVec& output_bits, unsigned num_inputs);

  /// Column multiplicity of the screened output under `w`. Safe to call
  /// from several threads at once.
  std::size_t multiplicity(const InputPartition& w) const;

  /// Keeps the `keep` partitions of lowest multiplicity (stable order among
  /// ties, so results stay deterministic). With a `pool`, the candidates
  /// are ranked on it; the kept list is the same either way.
  std::vector<InputPartition> screen(std::vector<InputPartition> candidates,
                                     std::size_t keep,
                                     ThreadPool* pool = nullptr) const;

 private:
  BitVec bits_;
  unsigned num_inputs_;
};

}  // namespace adsd
