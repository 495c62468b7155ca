#pragma once

#include <cstddef>

// Internal surface of the partition screener, for tests only.

namespace adsd::detail {

/// Bytes the calling thread's multiplicity scratch holds. For any partition
/// of an n-input table (n <= TruthTable::kMaxInputs) it stays within two
/// output columns (2 * 2^n bits) plus 1 MB: one column of cells, at most
/// one column of sort keys plus 256 KB, and 8 KB of tables.
std::size_t screen_scratch_bytes();

}  // namespace adsd::detail
