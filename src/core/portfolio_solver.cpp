#include "core/portfolio_solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/solver_registry.hpp"
#include "support/log.hpp"
#include "support/run_context.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace adsd {

namespace {

std::string spec_head(const std::string& spec) {
  const std::size_t comma = spec.find(',');
  return comma == std::string::npos ? spec : spec.substr(0, comma);
}

}  // namespace

PortfolioCoreSolver::PortfolioCoreSolver(Options options)
    : options_(std::move(options)) {
  if (options_.member_specs.empty()) {
    throw std::invalid_argument("PortfolioCoreSolver: need >= 1 member");
  }
  if (options_.prune_below < 0.0 || options_.prune_below > 1.0) {
    throw std::invalid_argument("PortfolioCoreSolver: prune_below in [0, 1]");
  }
  members_.reserve(options_.member_specs.size());
  for (const std::string& spec : options_.member_specs) {
    // A nested portfolio would race races (and self-recurse through the
    // registry); reject it up front with a clear message.
    if (spec_head(spec) == "portfolio") {
      throw std::invalid_argument(
          "PortfolioCoreSolver: nested portfolio member '" + spec + "'");
    }
    members_.push_back(SolverRegistry::global().make_from_spec(spec));
  }
}

ColumnSetting PortfolioCoreSolver::do_solve(const ColumnCop& cop,
                                            const RunContext& ctx,
                                            std::uint64_t seed,
                                            CoreSolveStats* stats) const {
  const std::string family =
      "r" + std::to_string(cop.rows()) + "c" + std::to_string(cop.cols());

  // Non-anchor member order: configured order in race mode; in adapt mode,
  // once this family has min_trials races, descending win rate (stable, so
  // the configured order breaks ties) with hopeless members pruned.
  std::vector<std::size_t> order;
  order.reserve(members_.size() > 0 ? members_.size() - 1 : 0);
  for (std::size_t i = 1; i < members_.size(); ++i) {
    order.push_back(i);
  }
  if (options_.mode == Mode::kAdapt) {
    std::vector<double> rate(members_.size(), 1.0);
    std::vector<std::uint64_t> trials(members_.size(), 0);
    for (std::size_t i = 1; i < members_.size(); ++i) {
      const WinRateTable::Stat s =
          wins_.stat(family, options_.member_specs[i]);
      trials[i] = s.trials;
      rate[i] = s.trials == 0 ? 1.0
                              : static_cast<double>(s.wins) /
                                    static_cast<double>(s.trials);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&rate](std::size_t a, std::size_t b) {
                       return rate[a] > rate[b];
                     });
    const auto pruned = std::stable_partition(
        order.begin(), order.end(), [&](std::size_t i) {
          return trials[i] < options_.min_trials ||
                 rate[i] >= options_.prune_below;
        });
    if (pruned != order.end()) {
      if (MetricsRegistry* m = ctx.metrics()) {
        m->counter("portfolio_member_prunes_total")
            .add(static_cast<std::uint64_t>(order.end() - pruned));
      }
      ADSD_LOG_INFO("core/portfolio", "adapt mode pruned losing members",
                    {"pruned", static_cast<std::uint64_t>(
                                   order.end() - pruned)},
                    {"remaining", static_cast<std::uint64_t>(
                                      pruned - order.begin()) + 1});
      order.erase(pruned, order.end());
    }
  }

  Timer race_timer;
  const TraceSpan race_span(ctx.tracer(), "core/portfolio/race");

  // The anchor always runs: its result is the floor the race can only
  // improve on, which is what makes the portfolio never-worse than the
  // anchor alone on the same seed.
  CoreSolveStats anchor_stats;
  ColumnSetting best = members_[0]->solve(cop, ctx, seed, &anchor_stats);
  const double anchor_obj = anchor_stats.objective;
  double best_obj = anchor_obj;
  std::size_t winner = 0;
  std::size_t total_iters = anchor_stats.iterations;
  bool any_early = anchor_stats.stopped_early;

  std::vector<std::size_t> raced;
  raced.reserve(members_.size());
  raced.push_back(0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    // Soft budget, checked at member boundaries: a started member finishes
    // (intra-solve budgets are the members' own deadline machinery).
    if ((options_.budget_ms > 0.0 &&
         race_timer.seconds() * 1000.0 >= options_.budget_ms) ||
        ctx.expired()) {
      if (MetricsRegistry* m = ctx.metrics()) {
        m->counter("portfolio_member_skips_total")
            .add(static_cast<std::uint64_t>(order.size() - pos));
      }
      ADSD_LOG_DEBUG("core/portfolio", "race budget exhausted, skipping",
                     {"skipped", static_cast<std::uint64_t>(
                                     order.size() - pos)},
                     {"elapsed_ms", race_timer.seconds() * 1000.0},
                     {"deadline_expired", ctx.expired()});
      any_early = true;
      break;
    }
    const std::size_t idx = order[pos];
    CoreSolveStats member_stats;
    ColumnSetting s = members_[idx]->solve(cop, ctx, seed, &member_stats);
    total_iters += member_stats.iterations;
    any_early = any_early || member_stats.stopped_early;
    raced.push_back(idx);
    // Strictly better only: ties stay with the earliest racer (ultimately
    // the anchor), preserving the never-worse guarantee.
    if (member_stats.objective < best_obj) {
      best = std::move(s);
      best_obj = member_stats.objective;
      winner = idx;
    }
  }

  if (MetricsRegistry* m = ctx.metrics()) {
    m->counter("portfolio_races_total").add();
    m->counter("portfolio_member_wins_total",
               {{"member", spec_head(options_.member_specs[winner])}})
        .add();
  }
  ADSD_LOG_DEBUG("core/portfolio", "race decided",
                 {"winner", spec_head(options_.member_specs[winner])},
                 {"margin", anchor_obj - best_obj},
                 {"raced", static_cast<std::uint64_t>(raced.size())});
  if (options_.mode == Mode::kAdapt) {
    for (const std::size_t idx : raced) {
      wins_.record(family, options_.member_specs[idx], idx == winner);
    }
  }
  if (QorRecorder* qor = ctx.qor()) {
    qor->add("core/portfolio/wins/" +
             spec_head(options_.member_specs[winner]));
    qor->sample("core/portfolio/margin", anchor_obj - best_obj);
  }

  if (stats != nullptr) {
    stats->objective = best_obj;
    stats->iterations = total_iters;
    stats->stopped_early = any_early;
    stats->proven_optimal = false;
  }
  return best;
}

}  // namespace adsd
