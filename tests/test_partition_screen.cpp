#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "boolean/boolean_matrix.hpp"
#include "boolean/decomposition.hpp"
#include "core/dalta.hpp"
#include "core/partition_screen.hpp"
#include "core/partition_screen_detail.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"
#include "support/thread_pool.hpp"

namespace adsd {
namespace {

BitVec random_table(unsigned n, Rng& rng) {
  BitVec bits(std::uint64_t{1} << n);
  for (std::uint64_t x = 0; x < bits.size(); ++x) {
    bits.set(x, rng.next_bool());
  }
  return bits;
}

std::size_t matrix_multiplicity(const BitVec& bits, unsigned n,
                                const InputPartition& w) {
  TruthTable tt(n, 1);
  tt.set_output(0, bits);
  return BooleanMatrix::from_function(tt, 0, w).distinct_columns().size();
}

TEST(PartitionScreen, MultiplicityMatchesMatrix) {
  Rng rng(29);
  const auto tt = make_benchmark_table("exp", 7, 7);
  const PartitionScreener screener(tt.output(5), 7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto w = InputPartition::random(7, 3, rng);
    EXPECT_EQ(screener.multiplicity(w),
              matrix_multiplicity(tt.output(5), 7, w));
  }
}

// Decomposability cases. They keep the `BddDecompose` suite name under
// which they were first written against a BDD cofactor count; the count now
// comes from the truth-table screener.

TEST(BddDecompose, MultiplicityMatchesMatrixDistinctColumns) {
  Rng rng(13);
  for (int trial = 0; trial < 25; ++trial) {
    const unsigned n = 7;
    const BitVec bits = random_table(n, rng);
    const auto w = InputPartition::random(n, 3, rng);
    EXPECT_EQ(PartitionScreener(bits, n).multiplicity(w),
              matrix_multiplicity(bits, n, w))
        << w.to_string();
  }
}

TEST(BddDecompose, AgreesWithTheorem2Check) {
  Rng rng(17);
  int decomposable = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned n = 6;
    const auto w = InputPartition::random(n, 2, rng);
    // Mix decomposable and random functions.
    const BitVec bits = (trial % 2 == 0) ? random_decomposable_output(w, rng)
                                         : random_table(n, rng);
    TruthTable tt(n, 1);
    tt.set_output(0, bits);
    const auto matrix = BooleanMatrix::from_function(tt, 0, w);
    const bool matrix_ok = check_column_decomposition(matrix).has_value();
    EXPECT_EQ(PartitionScreener(bits, n).multiplicity(w) <= 2, matrix_ok);
    decomposable += matrix_ok;
  }
  EXPECT_GT(decomposable, 10);
}

// Every partition of `n` inputs with `free_size` free variables.
std::vector<InputPartition> all_partitions(unsigned n, unsigned free_size) {
  std::vector<InputPartition> out;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    if (static_cast<unsigned>(__builtin_popcountll(mask)) != free_size) {
      continue;
    }
    std::vector<unsigned> free_vars;
    std::vector<unsigned> bound_vars;
    for (unsigned v = 0; v < n; ++v) {
      ((mask >> v) & 1 ? free_vars : bound_vars).push_back(v);
    }
    out.emplace_back(std::move(free_vars), std::move(bound_vars));
  }
  return out;
}

TEST(BddDecompose, FindsPlantedPartition) {
  Rng rng(19);
  const unsigned n = 7;
  const InputPartition planted({1, 3, 6}, {0, 2, 4, 5});
  const PartitionScreener screener(random_decomposable_output(planted, rng),
                                   n);
  EXPECT_LE(screener.multiplicity(planted), 2u);
  // Screening every free-3 partition down to one keeps a decomposable one.
  const auto best = screener.screen(all_partitions(n, 3), 1);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_LE(screener.multiplicity(best.front()), 2u)
      << best.front().to_string();
}

TEST(BddDecompose, RandomFunctionHasNoDecomposablePartition) {
  Rng rng(23);
  const unsigned n = 7;
  const PartitionScreener screener(random_table(n, rng), n);
  const auto candidates = all_partitions(n, 3);
  ASSERT_EQ(candidates.size(), 35u);
  const auto best = screener.screen(candidates, 1);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_GT(screener.multiplicity(best.front()), 2u)
      << best.front().to_string();
}

TEST(BddDecompose, BrentKungCarryDecomposes) {
  // The adder's carry-out depends on its operands through the prefix
  // structure, so splitting by operand is not an exact decomposition.
  const auto tt = make_benchmark_table("brent-kung", 6, 4);
  const InputPartition w({0, 1, 2}, {3, 4, 5});
  const std::size_t mu = PartitionScreener(tt.output(3), 6).multiplicity(w);
  EXPECT_EQ(mu, matrix_multiplicity(tt.output(3), 6, w));
  EXPECT_GT(mu, 2u) << "carry is not disjoint-decomposable by operand split";
}

TEST(BddDecompose, WidthMismatchThrows) {
  const PartitionScreener screener(BitVec(32), 5);
  EXPECT_THROW((void)screener.multiplicity(InputPartition::trivial(6, 3)),
               std::invalid_argument);
  EXPECT_THROW(PartitionScreener(BitVec(32), 6), std::invalid_argument);
}

TEST(PartitionScreen, KeepsLowestMultiplicityCandidates) {
  Rng rng(31);
  const auto tt = make_benchmark_table("cos", 7, 7);
  const PartitionScreener screener(tt.output(6), 7);
  std::vector<InputPartition> candidates;
  for (int i = 0; i < 12; ++i) {
    candidates.push_back(InputPartition::random(7, 3, rng));
  }
  const auto kept = screener.screen(candidates, 3);
  ASSERT_EQ(kept.size(), 3u);
  std::size_t worst_kept = 0;
  for (const auto& w : kept) {
    worst_kept = std::max(worst_kept, screener.multiplicity(w));
  }
  // No discarded candidate may beat the worst kept one.
  std::size_t best_possible = 1000;
  for (const auto& w : candidates) {
    best_possible = std::min(best_possible, screener.multiplicity(w));
  }
  EXPECT_LE(screener.multiplicity(kept.front()), worst_kept);
  EXPECT_EQ(screener.multiplicity(kept.front()), best_possible);
}

TEST(PartitionScreen, KeepAllWhenBudgetCoversCandidates) {
  Rng rng(37);
  const auto tt = make_benchmark_table("erf", 6, 6);
  const PartitionScreener screener(tt.output(0), 6);
  std::vector<InputPartition> candidates;
  for (int i = 0; i < 4; ++i) {
    candidates.push_back(InputPartition::random(6, 3, rng));
  }
  EXPECT_EQ(screener.screen(candidates, 10).size(), 4u);
}

TEST(PartitionScreen, PoolKeepsTheSameCandidates) {
  // Many ties (a smooth function at a small free set), so the stable tie
  // order is exercised, not just the ranking.
  Rng rng(41);
  const auto tt = make_benchmark_table("multiplier", 12, 12);
  ThreadPool pool(4);
  for (const unsigned k : {0u, 5u, 11u}) {
    const PartitionScreener screener(tt.output(k), 12);
    std::vector<InputPartition> candidates;
    for (int i = 0; i < 64; ++i) {
      candidates.push_back(InputPartition::random(12, 5, rng));
    }
    const auto serial = screener.screen(candidates, 16);
    const auto pooled = screener.screen(candidates, 16, &pool);
    EXPECT_EQ(serial, pooled) << "output " << k;
  }
}

TEST(PartitionScreen, ScratchStaysNearOneColumnAtMaxInputs) {
  // A sparse table at the widest supported n: the count is known from the
  // set patterns alone, and the scratch must stay about 2^n bits for every
  // shape -- columns far shorter than, equal to and far longer than a
  // word.
  const unsigned n = TruthTable::kMaxInputs;
  Rng rng(43);
  BitVec bits(std::uint64_t{1} << n);
  std::vector<std::uint64_t> set;
  for (int i = 0; i < 40; ++i) {
    set.push_back(rng.next_below(bits.size()));
    bits.set(set.back(), true);
  }
  const PartitionScreener screener(bits, n);
  const std::size_t column_bytes = bits.size() / 8;
  for (const unsigned a : {1u, 4u, 5u, 6u, 7u, n - 1}) {
    const auto w = InputPartition::random(n, a, rng);
    std::map<std::uint64_t, std::set<std::uint64_t>> rows_of_col;
    for (const std::uint64_t x : set) {
      rows_of_col[w.col_of(x)].insert(w.row_of(x));
    }
    std::set<std::set<std::uint64_t>> distinct;
    for (const auto& entry : rows_of_col) {
      distinct.insert(entry.second);
    }
    const bool has_empty_column = rows_of_col.size() < w.num_cols();
    EXPECT_EQ(screener.multiplicity(w),
              distinct.size() + (has_empty_column ? 1 : 0))
        << "|A| = " << a;
    EXPECT_LE(detail::screen_scratch_bytes(), 2 * column_bytes + (1 << 20))
        << "|A| = " << a;
  }
}

TEST(PartitionScreen, DaltaBitIdenticalAcrossThreadCounts) {
  const auto exact = make_benchmark_table("multiplier", 10, 10);
  const auto dist = InputDistribution::uniform(10);
  DaltaParams params;
  params.free_size = 4;
  params.num_partitions = 4;
  params.rounds = 1;
  params.screen_factor = 4;
  const auto solver = SolverRegistry::global().make_from_spec("dalta");

  std::vector<DaltaResult> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    RunContext::Options opts;
    opts.seed = 11;
    opts.threads = threads;
    const RunContext ctx(opts);
    results.push_back(run_dalta(exact, dist, params, *solver, ctx));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].approx, results[i].approx)
        << "thread count must not change the result";
    EXPECT_EQ(results[0].med, results[i].med);
    EXPECT_EQ(results[0].cop_solves, results[i].cop_solves);
    EXPECT_EQ(results[0].solver_iterations, results[i].solver_iterations);
    EXPECT_EQ(results[0].early_stops, results[i].early_stops);
    ASSERT_EQ(results[0].outputs.size(), results[i].outputs.size());
    for (std::size_t k = 0; k < results[0].outputs.size(); ++k) {
      EXPECT_EQ(results[0].outputs[k].partition,
                results[i].outputs[k].partition);
      EXPECT_EQ(results[0].outputs[k].objective,
                results[i].outputs[k].objective);
    }
  }
}

}  // namespace
}  // namespace adsd
