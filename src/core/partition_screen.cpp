#include "core/partition_screen.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "boolean/truth_table.hpp"
#include "core/partition_screen_detail.hpp"
#include "support/thread_pool.hpp"

namespace adsd {

namespace {

/// Per-thread buffers of one multiplicity count, reused across calls (and
/// across screeners), so a steady-state count allocates nothing. Each is
/// sized exactly to what the call needs.
struct ScreenScratch {
  std::vector<std::uint64_t> cell_lut;  // pattern byte -> cell bits
  std::vector<std::uint64_t> cells;     // the table in column-major order
  std::vector<std::uint32_t> keys;      // columns (|A| <= 5) or column ids
};

ScreenScratch& scratch() {
  thread_local ScreenScratch s;
  return s;
}

}  // namespace

std::size_t detail::screen_scratch_bytes() {
  const ScreenScratch& s = scratch();
  return 8 * (s.cell_lut.capacity() + s.cells.capacity()) +
         4 * s.keys.capacity();
}

PartitionScreener::PartitionScreener(const BitVec& output_bits,
                                     unsigned num_inputs)
    : bits_(output_bits), num_inputs_(num_inputs) {
  if (num_inputs > TruthTable::kMaxInputs ||
      output_bits.size() != (std::uint64_t{1} << num_inputs)) {
    throw std::invalid_argument("PartitionScreener: table size mismatch");
  }
}

std::size_t PartitionScreener::multiplicity(const InputPartition& w) const {
  if (w.num_inputs() != num_inputs_) {
    throw std::invalid_argument("PartitionScreener: partition width mismatch");
  }
  ScreenScratch& s = scratch();
  const auto a = static_cast<unsigned>(w.free_vars().size());
  const std::size_t cols = w.num_cols();

  // Pattern x lands in cell (col_of(x) << |A|) | row_of(x): column j is the
  // 2^|A|-bit field starting at bit j * 2^|A|. Pattern bit free_vars[i]
  // becomes cell bit i and bound_vars[i] cell bit |A| + i. The map is a bit
  // permutation, so a cell is the OR of its pattern bytes' cells.
  const std::size_t bytes = (num_inputs_ + 7) / 8;
  s.cell_lut.assign(bytes * 256, 0);
  auto fill = [&](const std::vector<unsigned>& vars, unsigned first) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      std::uint64_t* table = &s.cell_lut[(vars[i] / 8) * 256];
      for (std::uint64_t v = 0; v < 256; ++v) {
        table[v] |= ((v >> (vars[i] % 8)) & 1) << (first + i);
      }
    }
  };
  fill(w.free_vars(), 0);
  fill(w.bound_vars(), a);
  const std::vector<std::uint64_t>& words = bits_.words();
  s.cells.assign(words.size(), 0);
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t set = words[i];
    if (set == 0) {
      continue;
    }
    // The word's 64 patterns share their high bits: the cell of pattern
    // 64i + t is the cell of 64i ORed with the cell of t.
    const std::uint64_t x = std::uint64_t{i} << 6;
    std::uint64_t base = 0;
    for (std::size_t b = 0; b < bytes; ++b) {
      base |= s.cell_lut[b * 256 + ((x >> (8 * b)) & 0xff)];
    }
    while (set != 0) {
      const std::uint64_t c = base | s.cell_lut[__builtin_ctzll(set)];
      s.cells[c >> 6] |= std::uint64_t{1} << (c & 63);
      set &= set - 1;
    }
  }

  s.keys.clear();
  if (a <= 5) {
    // Columns are fields of at most 32 bits: sort their values and count
    // the distinct ones. The fields are taken one table's worth of 32-bit
    // words at a time (a single batch when |A| = 5), deduplicating after
    // each batch, so the keys hold at most one column's bits plus the
    // 2^(2^|A|) <= 2^16 values a narrower field can take.
    const unsigned width = 1u << a;
    const std::uint64_t mask = ~std::uint64_t{0} >> (64 - width);
    const std::size_t batch = 2 * s.cells.size();
    s.keys.reserve(std::min(cols, batch + (std::size_t{1} << 16)));
    for (std::size_t j0 = 0; j0 < cols; j0 += batch) {
      for (std::size_t j = j0; j < std::min(cols, j0 + batch); ++j) {
        const std::size_t bit = j * width;
        s.keys.push_back(static_cast<std::uint32_t>(
            (s.cells[bit >> 6] >> (bit & 63)) & mask));
      }
      std::sort(s.keys.begin(), s.keys.end());
      s.keys.erase(std::unique(s.keys.begin(), s.keys.end()), s.keys.end());
    }
    return s.keys.size();
  }
  // Columns of whole words: sort column ids by content, count the runs.
  const std::size_t span = std::size_t{1} << (a - 6);
  const std::uint64_t* cells = s.cells.data();
  auto col = [&](std::uint32_t j) { return cells + j * span; };
  s.keys.resize(cols);
  std::iota(s.keys.begin(), s.keys.end(), 0u);
  std::sort(s.keys.begin(), s.keys.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              return std::lexicographical_compare(col(x), col(x) + span,
                                                  col(y), col(y) + span);
            });
  std::size_t distinct = 1;
  for (std::size_t j = 1; j < cols; ++j) {
    if (!std::equal(col(s.keys[j]), col(s.keys[j]) + span,
                    col(s.keys[j - 1]))) {
      ++distinct;
    }
  }
  return distinct;
}

std::vector<InputPartition> PartitionScreener::screen(
    std::vector<InputPartition> candidates, std::size_t keep,
    ThreadPool* pool) const {
  if (keep >= candidates.size()) {
    return candidates;
  }
  std::vector<std::size_t> mu(candidates.size());
  auto rank = [&](std::size_t i) { mu[i] = multiplicity(candidates[i]); };
  if (pool != nullptr) {
    pool->parallel_for(candidates.size(), rank);
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      rank(i);
    }
  }
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return mu[a] < mu[b]; });
  std::vector<InputPartition> kept;
  kept.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    kept.push_back(std::move(candidates[order[i]]));
  }
  return kept;
}

}  // namespace adsd
