#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "boolean/boolean_matrix.hpp"
#include "boolean/error_metrics.hpp"
#include "boolean/partition.hpp"
#include "boolean/truth_table.hpp"
#include "core/column_cop.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

BooleanMatrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  BooleanMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m.set(i, j, rng.next_bool());
    }
  }
  return m;
}

ColumnSetting random_setting(std::size_t r, std::size_t c, Rng& rng) {
  ColumnSetting s;
  s.v1 = BitVec(r);
  s.v2 = BitVec(r);
  s.t = BitVec(c);
  for (std::size_t i = 0; i < r; ++i) {
    s.v1.set(i, rng.next_bool());
    s.v2.set(i, rng.next_bool());
  }
  for (std::size_t j = 0; j < c; ++j) {
    s.t.set(j, rng.next_bool());
  }
  return s;
}

std::vector<double> uniform_probs(std::size_t r, std::size_t c, unsigned n) {
  return std::vector<double>(r * c, 1.0 / static_cast<double>(1u << n));
}

// ------------------------------------------------------ matrix_probs

TEST(MatrixProbs, UniformFillsConstant) {
  const auto w = InputPartition::trivial(6, 3);
  const auto d = InputDistribution::uniform(6);
  const auto p = matrix_probs(d, w);
  ASSERT_EQ(p.size(), 64u);
  for (double v : p) {
    EXPECT_DOUBLE_EQ(v, 1.0 / 64.0);
  }
}

TEST(MatrixProbs, NonUniformRouting) {
  std::vector<double> weights(16, 0.0);
  weights[0b0110] = 1.0;  // single input pattern carries all mass
  const auto d = InputDistribution::from_weights(std::move(weights));
  const InputPartition w({0, 1}, {2, 3});
  const auto p = matrix_probs(d, w);
  // Pattern 0110: row bits (x0,x1) = (0,1) -> row 2; col (x2,x3) = (1,0)
  // -> col 1.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(p[i * 4 + j], (i == 2 && j == 1) ? 1.0 : 0.0);
    }
  }
}

// --------------------------------------------------- Separate-mode COP

TEST(ColumnCopSeparate, ObjectiveIsWeightedErrorRate) {
  Rng rng(1);
  const std::size_t r = 4;
  const std::size_t c = 8;
  const auto m = random_matrix(r, c, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 5));
  for (int trial = 0; trial < 30; ++trial) {
    const auto s = random_setting(r, c, rng);
    const double expected =
        static_cast<double>(mismatch_count(m, s)) / 32.0;
    EXPECT_NEAR(cop.objective(s), expected, 1e-12);
  }
}

TEST(ColumnCopSeparate, PerfectSettingHasZeroObjective) {
  Rng rng(2);
  const auto w = InputPartition::trivial(6, 2);
  TruthTable tt(6, 1);
  tt.set_output(0, random_decomposable_output(w, rng));
  const auto m = BooleanMatrix::from_function(tt, 0, w);
  const auto cs = check_column_decomposition(m);
  ASSERT_TRUE(cs.has_value());
  const auto cop = ColumnCop::separate(m, uniform_probs(4, 16, 6));
  EXPECT_NEAR(cop.objective(*cs), 0.0, 1e-15);
}

TEST(ColumnCopSeparate, IsingEnergyEqualsObjective) {
  Rng rng(3);
  const std::size_t r = 3;
  const std::size_t c = 5;
  const auto m = random_matrix(r, c, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 4));
  const IsingModel model = cop.to_ising();
  EXPECT_EQ(model.num_spins(), 2 * r + c);
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = random_setting(r, c, rng);
    const auto spins = cop.encode(s);
    EXPECT_NEAR(model.energy(spins), cop.objective(s), 1e-12)
        << "Eq. (9) energy must equal the weighted ER";
  }
}

TEST(ColumnCopSeparate, DecodeEncodeRoundTrip) {
  Rng rng(4);
  const auto m = random_matrix(5, 6, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(5, 6, 5));
  const auto s = random_setting(5, 6, rng);
  const auto spins = cop.encode(s);
  const auto back = cop.decode(spins);
  EXPECT_EQ(back.v1, s.v1);
  EXPECT_EQ(back.v2, s.v2);
  EXPECT_EQ(back.t, s.t);
}

// ------------------------------------------------------ Joint-mode COP

/// Brute-force |2^k * Ohat + D| objective for validation.
double true_joint_objective(const BooleanMatrix& m, const ColumnSetting& s,
                            const std::vector<double>& probs,
                            const std::vector<double>& d, double weight) {
  double total = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const double ohat = s.value(i, j) ? 1.0 : 0.0;
      total += probs[i * m.cols() + j] *
               std::fabs(weight * ohat + d[i * m.cols() + j]);
    }
  }
  return total;
}

TEST(ColumnCopJoint, LinearizationIsExactForAllDCases) {
  Rng rng(5);
  const std::size_t r = 3;
  const std::size_t c = 4;
  const double weight = 4.0;  // bit 2
  const auto m = random_matrix(r, c, rng);
  const auto probs = uniform_probs(r, c, 4);
  // Ds covering all three regimes: D > 0, -w <= D <= 0, D < -w.
  std::vector<double> d(r * c);
  for (auto& v : d) {
    v = std::floor(rng.next_double(-10.0, 10.0));
  }
  const auto cop = ColumnCop::joint(m, probs, d, weight);
  for (int trial = 0; trial < 60; ++trial) {
    const auto s = random_setting(r, c, rng);
    EXPECT_NEAR(cop.objective(s), true_joint_objective(m, s, probs, d, weight),
                1e-12)
        << "Eqs. (13)/(15) must reproduce |2^(k-1) Ohat + D| exactly";
  }
}

TEST(ColumnCopJoint, IsingEnergyEqualsObjective) {
  Rng rng(6);
  const std::size_t r = 4;
  const std::size_t c = 4;
  const auto m = random_matrix(r, c, rng);
  const auto probs = uniform_probs(r, c, 4);
  std::vector<double> d(r * c);
  for (auto& v : d) {
    v = std::floor(rng.next_double(-6.0, 6.0));
  }
  const auto cop = ColumnCop::joint(m, probs, d, 2.0);
  const IsingModel model = cop.to_ising();
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = random_setting(r, c, rng);
    EXPECT_NEAR(model.energy(cop.encode(s)), cop.objective(s), 1e-12)
        << "Eq. (16) energy must equal the linearized MED";
  }
}

TEST(ColumnCopJoint, ZeroDReducesToScaledSeparate) {
  Rng rng(7);
  const std::size_t r = 4;
  const std::size_t c = 6;
  const auto m = random_matrix(r, c, rng);
  const auto probs = uniform_probs(r, c, 5);
  const std::vector<double> d(r * c, 0.0);
  const auto joint = ColumnCop::joint(m, probs, d, 8.0);
  const auto sep = ColumnCop::separate(m, probs);
  for (int trial = 0; trial < 20; ++trial) {
    const auto s = random_setting(r, c, rng);
    // D = 0: |8*Ohat - 0| = 8*Ohat... but the exact value only contributes
    // through D, so joint cost = 8 * Ohat regardless of O. Compare against
    // the closed form directly.
    double expect = 0.0;
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        expect += probs[i * c + j] * 8.0 * (s.value(i, j) ? 1.0 : 0.0);
      }
    }
    EXPECT_NEAR(joint.objective(s), expect, 1e-12);
    (void)sep;
  }
}

TEST(ColumnCopJoint, ConsistentDGivesZeroAtExactSetting) {
  // If the other outputs are exact and this output's matrix decomposes
  // exactly, then D = -2^k * O and the exact setting has zero cost.
  Rng rng(8);
  const auto w = InputPartition::trivial(5, 2);
  TruthTable tt(5, 1);
  tt.set_output(0, random_decomposable_output(w, rng));
  const auto m = BooleanMatrix::from_function(tt, 0, w);
  const auto cs = check_column_decomposition(m);
  ASSERT_TRUE(cs.has_value());
  const double weight = 4.0;
  const std::size_t r = m.rows();
  const std::size_t c = m.cols();
  std::vector<double> d(r * c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      d[i * c + j] = -weight * (m.at(i, j) ? 1.0 : 0.0);
    }
  }
  const auto cop = ColumnCop::joint(m, uniform_probs(r, c, 5), d, weight);
  EXPECT_NEAR(cop.objective(*cs), 0.0, 1e-15);
}

// --------------------------------------------------------- Theorem 3

TEST(Theorem3, ResetNeverIncreasesObjective) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t r = 4;
    const std::size_t c = 8;
    const auto m = random_matrix(r, c, rng);
    const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 5));
    auto s = random_setting(r, c, rng);
    const double before = cop.objective(s);
    cop.reset_optimal_t(s);
    EXPECT_LE(cop.objective(s), before + 1e-12);
  }
}

TEST(Theorem3, ResetIsOptimalOverAllT) {
  Rng rng(10);
  const std::size_t r = 3;
  const std::size_t c = 4;
  const auto m = random_matrix(r, c, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 4));
  auto s = random_setting(r, c, rng);
  cop.reset_optimal_t(s);
  const double opt = cop.objective(s);
  // Exhaustive check over all 2^c type vectors with the same V1/V2.
  for (std::uint64_t bits = 0; bits < (1u << c); ++bits) {
    auto alt = s;
    for (std::size_t j = 0; j < c; ++j) {
      alt.t.set(j, (bits >> j) & 1);
    }
    EXPECT_GE(cop.objective(alt), opt - 1e-12);
  }
}

TEST(Theorem3, VResetNeverIncreasesAndIsOptimal) {
  Rng rng(11);
  const std::size_t r = 3;
  const std::size_t c = 5;
  const auto m = random_matrix(r, c, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 4));
  auto s = random_setting(r, c, rng);
  const double before = cop.objective(s);
  cop.reset_optimal_v(s);
  const double after = cop.objective(s);
  EXPECT_LE(after, before + 1e-12);
  // Exhaustive over all V1 for fixed V2, T.
  for (std::uint64_t bits = 0; bits < (1u << r); ++bits) {
    auto alt = s;
    for (std::size_t i = 0; i < r; ++i) {
      alt.v1.set(i, (bits >> i) & 1);
    }
    EXPECT_GE(cop.objective(alt), after - 1e-12);
  }
}

TEST(ColumnCop, IdealBoundIsALowerBound) {
  Rng rng(12);
  for (int trial = 0; trial < 40; ++trial) {
    const auto m = random_matrix(4, 6, rng);
    const auto cop = ColumnCop::separate(m, uniform_probs(4, 6, 5));
    const auto s = random_setting(4, 6, rng);
    EXPECT_LE(cop.ideal_bound(), cop.objective(s) + 1e-12);
  }
}

TEST(ColumnCop, SpinLayoutIndices) {
  Rng rng(13);
  const auto m = random_matrix(4, 6, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(4, 6, 5));
  EXPECT_EQ(cop.num_spins(), 14u);
  EXPECT_EQ(cop.v1_spin(0), 0u);
  EXPECT_EQ(cop.v2_spin(0), 4u);
  EXPECT_EQ(cop.t_spin(0), 8u);
  EXPECT_EQ(cop.t_spin(5), 13u);
}

TEST(ColumnCop, ValidationErrors) {
  Rng rng(14);
  const auto m = random_matrix(2, 2, rng);
  EXPECT_THROW((void)ColumnCop::separate(m, {0.25}), std::invalid_argument);
  std::vector<double> probs(4, 0.25);
  std::vector<double> d(3, 0.0);
  EXPECT_THROW((void)ColumnCop::joint(m, probs, d, 1.0),
               std::invalid_argument);
  d.resize(4, 0.0);
  EXPECT_THROW((void)ColumnCop::joint(m, probs, d, 0.0),
               std::invalid_argument);
  const auto cop = ColumnCop::separate(m, probs);
  EXPECT_THROW((void)cop.decode(std::vector<std::int8_t>(3)),
               std::invalid_argument);
}

// Parameterized sweep: energy/objective agreement across shapes and modes.
struct ShapeParam {
  std::size_t r;
  std::size_t c;
  bool joint;
};

// CMake's gtest discovery names each case by its printed parameter
// (".../r2c8_joint"); without a PrintTo gtest prints the struct's raw
// bytes, uninitialized padding included, so the names would not be stable.
void PrintTo(const ShapeParam& p, std::ostream* os) {
  *os << 'r' << p.r << 'c' << p.c << (p.joint ? "_joint" : "_separate");
}

class CopEnergySweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(CopEnergySweep, EnergyMatchesObjectiveEverywhere) {
  const auto param = GetParam();
  Rng rng(77 + param.r * 13 + param.c + (param.joint ? 1000 : 0));
  const auto m = random_matrix(param.r, param.c, rng);
  std::vector<double> probs(param.r * param.c);
  double total = 0.0;
  for (auto& p : probs) {
    p = rng.next_double(0.0, 1.0);
    total += p;
  }
  for (auto& p : probs) {
    p /= total;  // arbitrary non-uniform input distribution
  }
  ColumnCop cop = [&] {
    if (!param.joint) {
      return ColumnCop::separate(m, probs);
    }
    std::vector<double> d(param.r * param.c);
    for (auto& v : d) {
      v = std::floor(rng.next_double(-9.0, 9.0));
    }
    return ColumnCop::joint(m, probs, d, 4.0);
  }();
  const IsingModel model = cop.to_ising();
  for (int trial = 0; trial < 40; ++trial) {
    const auto s = random_setting(param.r, param.c, rng);
    EXPECT_NEAR(model.energy(cop.encode(s)), cop.objective(s), 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CopEnergySweep,
    ::testing::Values(ShapeParam{2, 2, false}, ShapeParam{2, 8, false},
                      ShapeParam{8, 2, false}, ShapeParam{4, 16, false},
                      ShapeParam{16, 4, false}, ShapeParam{2, 2, true},
                      ShapeParam{4, 8, true}, ShapeParam{8, 8, true},
                      ShapeParam{16, 32, true}));

}  // namespace
}  // namespace adsd
