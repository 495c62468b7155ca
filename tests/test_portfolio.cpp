// Portfolio meta-solver coverage (DESIGN.md §4.8): the race must never
// return a worse objective than its anchor on the same seed (the property
// bench_diff gates in CI), the soft budget must skip — not kill — members,
// and adapt mode must accumulate per-family win records that reorder and
// prune the roster.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/column_cop.hpp"
#include "core/portfolio_solver.hpp"
#include "core/solver_registry.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {
namespace {

/// A context with metrics armed: the portfolio's race counters live in the
/// process-wide registry, so tests read deltas around their solves.
RunContext metrics_context() {
  RunContext::Options opts;
  opts.metrics = true;
  return RunContext(opts);
}

std::uint64_t counter_value(const char* name) {
  return MetricsRegistry::global().counter(name).value();
}

ColumnCop random_cop(std::uint64_t seed, std::size_t r, std::size_t c) {
  Rng rng(seed);
  BooleanMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m.set(i, j, rng.next_bool());
    }
  }
  const std::vector<double> probs(r * c, 1.0 / static_cast<double>(r * c));
  return ColumnCop::separate(m, probs);
}

TEST(Portfolio, NeverWorseThanTheAnchorAlone) {
  const auto& reg = SolverRegistry::global();
  const auto portfolio = reg.make_from_spec("portfolio,n=6");
  const auto anchor = reg.make_from_spec("prop,n=6");
  const RunContext ctx{RunContext::Options{}};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ColumnCop cop = random_cop(seed, 6, 14);
    CoreSolveStats race_stats;
    CoreSolveStats anchor_stats;
    (void)portfolio->solve(cop, ctx, seed, &race_stats);
    (void)anchor->solve(cop, ctx, seed, &anchor_stats);
    EXPECT_LE(race_stats.objective, anchor_stats.objective)
        << "seed " << seed;
  }
}

TEST(Portfolio, DeterministicForFixedSeed) {
  const auto portfolio =
      SolverRegistry::global().make_from_spec("portfolio,n=5");
  const RunContext ctx{RunContext::Options{}};
  const ColumnCop cop = random_cop(3, 5, 12);
  CoreSolveStats a_stats;
  CoreSolveStats b_stats;
  const ColumnSetting a = portfolio->solve(cop, ctx, 7, &a_stats);
  const ColumnSetting b = portfolio->solve(cop, ctx, 7, &b_stats);
  EXPECT_EQ(a_stats.objective, b_stats.objective);
  EXPECT_TRUE(a.v1 == b.v1 && a.v2 == b.v2 && a.t == b.t);
}

TEST(Portfolio, RaceTelemetryCountsEveryRace) {
  const auto portfolio =
      SolverRegistry::global().make_from_spec("portfolio,n=5");
  const std::uint64_t races0 = counter_value("portfolio_races_total");
  const RunContext ctx = metrics_context();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    (void)portfolio->solve(random_cop(seed, 5, 12), ctx, seed, nullptr);
  }
  EXPECT_EQ(counter_value("portfolio_races_total") - races0, 3u);
}

TEST(Portfolio, TinyBudgetSkipsEveryNonAnchorMember) {
  // budget-ms tiny but positive: the anchor still runs (it always does),
  // the boundary check then skips the rest and records how many.
  PortfolioCoreSolver::Options opt;
  opt.budget_ms = 1e-6;
  const PortfolioCoreSolver portfolio(opt);
  ASSERT_EQ(portfolio.members().size(), 3u);
  const std::uint64_t skips0 = counter_value("portfolio_member_skips_total");
  const RunContext ctx = metrics_context();
  const ColumnCop cop = random_cop(2, 5, 12);
  CoreSolveStats stats;
  (void)portfolio.solve(cop, ctx, 1, &stats);
  EXPECT_TRUE(stats.stopped_early);
  EXPECT_EQ(counter_value("portfolio_member_skips_total") - skips0, 2u);
}

TEST(Portfolio, AdaptModeAccumulatesWinRecordsPerFamily) {
  PortfolioCoreSolver::Options opt;
  opt.mode = PortfolioCoreSolver::Mode::kAdapt;
  opt.min_trials = 100;  // never reorders/prunes within this test
  const PortfolioCoreSolver portfolio(opt);
  const RunContext ctx{RunContext::Options{}};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    (void)portfolio.solve(random_cop(seed, 5, 12), ctx, seed, nullptr);
  }
  // 4 races, 3 members each, all on the same r5c12 family.
  EXPECT_EQ(portfolio.win_rates().total_trials(), 12u);
  std::uint64_t wins = 0;
  for (const char* member : {"prop", "simcim", "doch"}) {
    const auto s = portfolio.win_rates().stat("r5c12", member);
    EXPECT_EQ(s.trials, 4u) << member;
    wins += s.wins;
  }
  EXPECT_EQ(wins, 4u);  // exactly one winner per race
  // Race mode records nothing.
  const PortfolioCoreSolver racing{PortfolioCoreSolver::Options{}};
  (void)racing.solve(random_cop(1, 5, 12), ctx, 1, nullptr);
  EXPECT_EQ(racing.win_rates().total_trials(), 0u);
}

TEST(Portfolio, AdaptModePrunesHopelessMembers) {
  // min_trials 1 and prune_below 1.0: after the first race on a family,
  // every non-anchor member that did not win it is pruned from the next.
  PortfolioCoreSolver::Options opt;
  opt.mode = PortfolioCoreSolver::Mode::kAdapt;
  opt.min_trials = 1;
  opt.prune_below = 1.0;
  const PortfolioCoreSolver portfolio(opt);
  const std::uint64_t prunes0 = counter_value("portfolio_member_prunes_total");
  const RunContext ctx = metrics_context();
  (void)portfolio.solve(random_cop(1, 5, 12), ctx, 1, nullptr);
  const std::uint64_t first = portfolio.win_rates().total_trials();
  EXPECT_EQ(first, 3u);
  (void)portfolio.solve(random_cop(2, 5, 12), ctx, 2, nullptr);
  // At most the anchor plus one surviving winner raced the second time.
  EXPECT_LE(portfolio.win_rates().total_trials(), first + 2);
  EXPECT_GE(counter_value("portfolio_member_prunes_total") - prunes0, 1u);
}

TEST(Portfolio, RejectsBadConfigurations) {
  PortfolioCoreSolver::Options empty;
  empty.member_specs.clear();
  EXPECT_THROW((void)PortfolioCoreSolver(empty), std::invalid_argument);

  PortfolioCoreSolver::Options nested;
  nested.member_specs = {"prop", "portfolio"};
  EXPECT_THROW((void)PortfolioCoreSolver(nested), std::invalid_argument);

  PortfolioCoreSolver::Options bad_prune;
  bad_prune.prune_below = 1.5;
  EXPECT_THROW((void)PortfolioCoreSolver(bad_prune), std::invalid_argument);

  const auto& reg = SolverRegistry::global();
  EXPECT_THROW((void)reg.make_from_spec("portfolio,mode=bogus"),
               std::invalid_argument);
  EXPECT_THROW((void)reg.make_from_spec("portfolio,members=prop|nope"),
               std::invalid_argument);
  EXPECT_THROW((void)reg.make_from_spec("portfolio,members="),
               std::invalid_argument);
}

TEST(Portfolio, RegistryForwardsSharedKeysToDeclaringMembersOnly) {
  // "sa" takes replicas but not kernel; the forwarded spec must respect
  // each member's declared keys or the member build would throw.
  const auto solver = SolverRegistry::global().make_from_spec(
      "portfolio,members=prop|sa|simcim,n=6,replicas=2,kernel=scalar");
  const auto* portfolio = dynamic_cast<const PortfolioCoreSolver*>(
      solver.get());
  ASSERT_NE(portfolio, nullptr);
  ASSERT_EQ(portfolio->members().size(), 3u);
  EXPECT_EQ(portfolio->options().member_specs[0],
            "prop,n=6,replicas=2,kernel=scalar");
  EXPECT_EQ(portfolio->options().member_specs[1], "sa,n=6,replicas=2");
  EXPECT_EQ(portfolio->options().member_specs[2],
            "simcim,n=6,replicas=2,kernel=scalar");
}

}  // namespace
}  // namespace adsd
