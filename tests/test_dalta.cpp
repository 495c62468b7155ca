#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "boolean/decomposition.hpp"
#include "boolean/error_metrics.hpp"
#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/continuous.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

DaltaParams small_params(DecompMode mode) {
  DaltaParams p;
  p.free_size = 3;
  p.num_partitions = 6;
  p.rounds = 1;
  p.mode = mode;
  p.seed = 7;
  p.parallel = false;
  return p;
}

TruthTable exactly_decomposable_table(unsigned n, unsigned m,
                                      std::uint64_t seed) {
  Rng rng(seed);
  TruthTable tt(n, m);
  // Every output decomposes under the same trivial partition, which the
  // random candidate pool contains with high probability only by luck --
  // so build each output decomposable under *every* partition by making it
  // constant or a single-variable function.
  for (unsigned k = 0; k < m; ++k) {
    const unsigned var = static_cast<unsigned>(rng.next_below(n));
    BitVec bits(tt.num_patterns());
    for (std::uint64_t x = 0; x < tt.num_patterns(); ++x) {
      bits.set(x, (x >> var) & 1);
    }
    tt.set_output(k, bits);
  }
  return tt;
}

TEST(Dalta, SingleVariableOutputsDecomposeLosslessly) {
  // g_k(x) = x_v is decomposable under any partition (x_v lands in A or B);
  // the framework must find zero-error settings for every output.
  const auto exact = exactly_decomposable_table(7, 4, 11);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=7");
  const auto res = run_dalta(exact, dist, small_params(DecompMode::kJoint),
                             *solver);
  EXPECT_DOUBLE_EQ(res.med, 0.0);
  EXPECT_DOUBLE_EQ(res.error_rate, 0.0);
  EXPECT_EQ(res.approx, exact);
}

TEST(Dalta, ReportedMedMatchesRecomputation) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const AlternatingCoreSolver solver(4);
  const auto res =
      run_dalta(exact, dist, small_params(DecompMode::kJoint), solver);
  EXPECT_NEAR(res.med, mean_error_distance(exact, res.approx, dist), 1e-12);
  EXPECT_NEAR(res.error_rate, error_rate(exact, res.approx, dist), 1e-12);
}

TEST(Dalta, EveryOutputGetsASetting) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 6, 5);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  const auto res =
      run_dalta(exact, dist, small_params(DecompMode::kSeparate), solver);
  ASSERT_EQ(res.outputs.size(), 5u);
  for (const auto& out : res.outputs) {
    EXPECT_EQ(out.partition.num_inputs(), 6u);
    EXPECT_EQ(out.setting.v1.size(), out.partition.num_rows());
    EXPECT_EQ(out.setting.t.size(), out.partition.num_cols());
  }
}

TEST(Dalta, ApproxOutputsRealizeChosenSettings) {
  const auto exact = make_continuous_table(continuous_spec("ln"), 6, 4);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  const auto res =
      run_dalta(exact, dist, small_params(DecompMode::kJoint), solver);
  for (unsigned k = 0; k < 4; ++k) {
    const BitVec expect =
        compose_output(res.outputs[k].setting, res.outputs[k].partition);
    EXPECT_EQ(res.approx.output(k), expect);
  }
}

TEST(Dalta, LutNetworkReproducesApproximation) {
  const auto exact = make_continuous_table(continuous_spec("erf"), 6, 5);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  const auto res =
      run_dalta(exact, dist, small_params(DecompMode::kJoint), solver);
  const auto net = res.to_lut_network();
  EXPECT_EQ(net.to_truth_table(), res.approx)
      << "hardware LUT evaluation must agree with the committed approximation";
  // Paper scheme: per-output saving from 2^6 = 64 bits to 2^3 + 2^4 = 24.
  EXPECT_LT(net.total_size_bits(), net.total_flat_size_bits());
}

TEST(Dalta, DeterministicAcrossParallelModes) {
  const auto exact = make_continuous_table(continuous_spec("tan"), 6, 4);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  auto params = small_params(DecompMode::kJoint);
  params.parallel = false;
  const auto serial = run_dalta(exact, dist, params, solver);
  params.parallel = true;
  const auto parallel = run_dalta(exact, dist, params, solver);
  EXPECT_EQ(serial.approx, parallel.approx)
      << "partition evaluation order must not affect the result";
  EXPECT_EQ(serial.med, parallel.med);
}

TEST(Dalta, MorePartitionsNeverHurtJointObjectiveMuch) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 6, 6);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  auto few = small_params(DecompMode::kJoint);
  few.num_partitions = 2;
  auto many = small_params(DecompMode::kJoint);
  many.num_partitions = 12;
  const auto res_few = run_dalta(exact, dist, few, solver);
  const auto res_many = run_dalta(exact, dist, many, solver);
  // Not a strict guarantee (commits are greedy and sequential), but with
  // a 6x larger candidate pool the MED should not degrade noticeably.
  EXPECT_LE(res_many.med, res_few.med * 1.5 + 1e-9);
}

TEST(Dalta, SecondRoundDoesNotHurt) {
  const auto exact = make_continuous_table(continuous_spec("denoise"), 6, 6);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  auto one = small_params(DecompMode::kJoint);
  one.rounds = 1;
  auto two = small_params(DecompMode::kJoint);
  two.rounds = 2;
  const auto res1 = run_dalta(exact, dist, one, solver);
  const auto res2 = run_dalta(exact, dist, two, solver);
  EXPECT_LE(res2.med, res1.med * 1.5 + 1e-9);
}

TEST(Dalta, StatsAccounting) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 6, 3);
  const auto dist = InputDistribution::uniform(6);
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=6");
  auto params = small_params(DecompMode::kSeparate);
  params.rounds = 2;
  const auto res = run_dalta(exact, dist, params, *solver);
  // 3 outputs x 6 partitions x 2 rounds solves.
  EXPECT_EQ(res.cop_solves, 3u * 6u * 2u);
  EXPECT_GT(res.solver_iterations, 0u);
  EXPECT_GT(res.seconds, 0.0);
}

TEST(Dalta, SeparateModeMinimizesPerBitErrors) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const AlternatingCoreSolver solver(6);
  const auto sep =
      run_dalta(exact, dist, small_params(DecompMode::kSeparate), solver);
  const auto joint =
      run_dalta(exact, dist, small_params(DecompMode::kJoint), solver);
  // The paper's qualitative claim: joint mode yields smaller MED because it
  // respects bit significance. The commits are greedy, so allow slack for
  // small instances rather than asserting strict dominance.
  EXPECT_LE(joint.med, sep.med * 1.10 + 0.25);
}

TEST(Dalta, PartitionScreeningIsDeterministicAndRarelyWorse) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const AlternatingCoreSolver solver(4);

  auto base = small_params(DecompMode::kJoint);
  base.num_partitions = 4;
  auto screened = base;
  screened.screen_factor = 6;

  const auto r_scr1 = run_dalta(exact, dist, screened, solver);
  const auto r_scr2 = run_dalta(exact, dist, screened, solver);
  EXPECT_EQ(r_scr1.approx, r_scr2.approx) << "screening must be deterministic";
  // Same solver budget either way: P solves per output.
  EXPECT_EQ(r_scr1.cop_solves, run_dalta(exact, dist, base, solver).cop_solves);

  // Low-multiplicity partitions approximate better on smooth functions.
  // "Rarely worse" is a property of the seed distribution, not of any one
  // draw, so compare mean MED across several seeds.
  double med_base = 0.0;
  double med_scr = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    base.seed = seed;
    screened.seed = seed;
    med_base += run_dalta(exact, dist, base, solver).med;
    med_scr += run_dalta(exact, dist, screened, solver).med;
  }
  EXPECT_LE(med_scr, med_base * 1.05 + 1e-9);
}

TEST(Dalta, ScreenFactorOneMatchesDefault) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 6, 4);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  auto a = small_params(DecompMode::kJoint);
  auto b = a;
  b.screen_factor = 1;
  const auto ra = run_dalta(exact, dist, a, solver);
  const auto rb = run_dalta(exact, dist, b, solver);
  EXPECT_EQ(ra.approx, rb.approx);
}

TEST(Dalta, RejectsBadParameters) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 6, 3);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(2);
  auto params = small_params(DecompMode::kJoint);
  params.free_size = 0;
  EXPECT_THROW((void)run_dalta(exact, dist, params, solver),
               std::invalid_argument);
  params = small_params(DecompMode::kJoint);
  params.free_size = 6;
  EXPECT_THROW((void)run_dalta(exact, dist, params, solver),
               std::invalid_argument);
  params = small_params(DecompMode::kJoint);
  params.num_partitions = 0;
  EXPECT_THROW((void)run_dalta(exact, dist, params, solver),
               std::invalid_argument);
  params = small_params(DecompMode::kJoint);
  params.screen_factor = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW((void)run_dalta(exact, dist, params, solver),
               std::invalid_argument)
      << "an oversample that wraps must fail, not shrink the candidate list";
  const auto dist5 = InputDistribution::uniform(5);
  EXPECT_THROW(
      (void)run_dalta(exact, dist5, small_params(DecompMode::kJoint), solver),
      std::invalid_argument);
}

}  // namespace
}  // namespace adsd
