#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/column_cop.hpp"
#include "core/cop_solvers.hpp"
#include "core/dalta.hpp"
#include "core/nondisjoint_dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "ising/bsb.hpp"
#include "ising/bsb_batch.hpp"
#include "ising/bsb_pack.hpp"
#include "ising/model.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"
#include "support/thread_pool.hpp"

namespace adsd {
namespace {

IsingModel random_model(std::size_t n, double density, Rng& rng) {
  IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.set_bias(i, rng.next_double(-1.0, 1.0));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.next_double() < density) {
        m.add_coupling(i, j, rng.next_double(-1.0, 1.0));
      }
    }
  }
  m.finalize();
  return m;
}

std::vector<IsingModel> member_models(std::size_t count, std::size_t n,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<IsingModel> models;
  models.reserve(count);
  for (std::size_t m = 0; m < count; ++m) {
    models.push_back(random_model(n, 0.3 + 0.1 * (m % 5), rng));
  }
  return models;
}

/// The standalone reference every packed member must reproduce bit-for-bit:
/// BsbBatchEngine on the member's own model with SbParams.seed = its seed.
IsingSolveResult standalone(const IsingModel& model, SbParams params,
                            std::uint64_t seed, std::size_t replicas) {
  params.seed = seed;
  BsbBatchEngine engine(model, params, replicas);
  return engine.run();
}

// ------------------------------------------------------- member bit parity

TEST(BsbPackParity, MembersMatchStandaloneAcrossReplicas) {
  const auto models = member_models(5, 12, 101);
  SbParams params;
  params.max_iterations = 300;
  params.stop.enabled = true;
  params.stop.epsilon = 1e-6;
  params.stop.sample_interval = 5;
  params.stop.window = 6;

  for (std::size_t replicas = 1; replicas <= 8; ++replicas) {
    std::vector<PackMember> members;
    for (std::size_t m = 0; m < models.size(); ++m) {
      members.push_back({&models[m], 1000 + 7 * m, {}});
    }
    BsbPackEngine engine(members, params, replicas);
    const auto packed = engine.run();
    ASSERT_EQ(packed.size(), models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      const auto ref = standalone(models[m], params, members[m].seed, replicas);
      EXPECT_EQ(ref.energy, packed[m].energy) << "R=" << replicas << " m=" << m;
      EXPECT_EQ(ref.spins, packed[m].spins) << "R=" << replicas << " m=" << m;
      EXPECT_EQ(ref.iterations, packed[m].iterations);
      EXPECT_EQ(ref.stopped_early, packed[m].stopped_early);
    }
  }
}

TEST(BsbPackParity, MembersMatchStandaloneAtEveryKernelRequest) {
  const auto models = member_models(4, 10, 202);
  for (const kernels::ForceKernel kernel :
       {kernels::ForceKernel::kScalar, kernels::ForceKernel::kAvx2,
        kernels::ForceKernel::kAvx512, kernels::ForceKernel::kDense,
        kernels::ForceKernel::kAuto}) {
    SbParams params;
    params.max_iterations = 250;
    params.kernel = kernel;
    params.stop.enabled = true;
    params.stop.epsilon = 1e-7;
    params.stop.sample_interval = 10;
    params.stop.window = 5;

    std::vector<PackMember> members;
    for (std::size_t m = 0; m < models.size(); ++m) {
      members.push_back({&models[m], 31 + m, {}});
    }
    BsbPackEngine engine(members, params, 2);
    const auto packed = engine.run();
    for (std::size_t m = 0; m < models.size(); ++m) {
      const auto ref = standalone(models[m], params, members[m].seed, 2);
      EXPECT_EQ(ref.energy, packed[m].energy)
          << kernels::force_kernel_name(kernel) << " m=" << m;
      EXPECT_EQ(ref.spins, packed[m].spins);
      EXPECT_EQ(ref.iterations, packed[m].iterations);
    }
  }
}

TEST(BsbPackParity, DiscreteVariantMatchesStandalone) {
  const auto models = member_models(3, 11, 303);
  SbParams params;
  params.max_iterations = 150;
  params.discrete = true;
  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 71 + m, {}});
  }
  BsbPackEngine engine(members, params, 1);
  const auto packed = engine.run();
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto ref = standalone(models[m], params, members[m].seed, 1);
    EXPECT_EQ(ref.energy, packed[m].energy);
    EXPECT_EQ(ref.spins, packed[m].spins);
  }
}

TEST(BsbPackParity, InitialPositionsWarmStartMatchesStandalone) {
  const auto models = member_models(3, 9, 404);
  SbParams params;
  params.max_iterations = 120;
  Rng rng(55);
  std::vector<std::vector<double>> warm(models.size());
  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    warm[m].resize(9);
    for (double& v : warm[m]) {
      v = rng.next_double(-0.1, 0.1);
    }
    members.push_back({&models[m], 5 + m, warm[m]});
  }
  BsbPackEngine engine(members, params, 2);
  const auto packed = engine.run();
  for (std::size_t m = 0; m < models.size(); ++m) {
    SbParams p = params;
    p.initial_positions = warm[m];
    const auto ref = standalone(models[m], p, members[m].seed, 2);
    EXPECT_EQ(ref.energy, packed[m].energy);
    EXPECT_EQ(ref.spins, packed[m].spins);
  }
}

// ------------------------------------------- retirement at different steps

TEST(BsbPackRetirement, MembersRetireAtDifferentIterationsAndStayExact) {
  // A loose variance window makes each member's dynamic stop fire at its
  // own step; the packed run must retire them one by one (slot compaction)
  // without disturbing the survivors.
  const auto models = member_models(6, 10, 505);
  SbParams params;
  params.max_iterations = 4000;
  params.stop.enabled = true;
  params.stop.epsilon = 1e-3;
  params.stop.sample_interval = 5;
  params.stop.window = 4;

  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 900 + 13 * m, {}});
  }
  BsbPackEngine engine(members, params, 1);
  const auto packed = engine.run();
  std::set<std::size_t> distinct;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto ref = standalone(models[m], params, members[m].seed, 1);
    EXPECT_EQ(ref.energy, packed[m].energy) << "m=" << m;
    EXPECT_EQ(ref.spins, packed[m].spins);
    EXPECT_EQ(ref.iterations, packed[m].iterations);
    EXPECT_TRUE(packed[m].stopped_early) << "m=" << m;
    distinct.insert(packed[m].iterations);
  }
  // The point of the test: retirement actually happened at unequal steps.
  EXPECT_GT(distinct.size(), 1u);
}

// ----------------------------------------------------- intervention hooks

TEST(BsbPackHook, PlaneHookSeesStandaloneLayoutAndStaysExact) {
  const auto models = member_models(4, 8, 606);
  SbParams params;
  params.max_iterations = 100;
  params.stop.sample_interval = 10;
  const std::size_t replicas = 2;

  // Per-member pinning intervention, written once against the standalone
  // plane layout (element i of replica r at i * replicas + r).
  auto pin = [](std::size_t member, std::span<double> x, std::span<double> y,
                std::size_t reps) {
    const std::size_t i = member % 8;
    for (std::size_t r = 0; r < reps; ++r) {
      x[i * reps + r] = (member % 2 == 0) ? 1.0 : -1.0;
      y[i * reps + r] = 0.0;
    }
  };

  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 40 + m, {}});
  }
  BsbPackEngine engine(members, params, replicas);
  const auto packed = engine.run(pin);
  for (std::size_t m = 0; m < models.size(); ++m) {
    SbParams p = params;
    p.seed = members[m].seed;
    BsbBatchEngine ref_engine(models[m], p, replicas);
    const auto ref = ref_engine.run(
        nullptr, [&](std::span<double> x, std::span<double> y,
                     std::size_t reps) { pin(m, x, y, reps); });
    EXPECT_EQ(ref.energy, packed[m].energy) << "m=" << m;
    EXPECT_EQ(ref.spins, packed[m].spins);
  }
}

// ------------------------------------------------- tile-width bit parity

TEST(BsbPackParity, TileWidthsAreBitIdentical) {
  // A pack wider than the working-set tile must reproduce the standalone
  // trajectories: tiles only change which slots advance together between
  // sampling points, and members never interact between sampling points.
  // Sixteen n = 12 core COPs (192 spins each) give a derived tile below
  // the member count, and dynamic stop retires members across tiles.
  const TruthTable tt = make_benchmark_table("erf", 12, 12);
  const InputDistribution dist = InputDistribution::uniform(12);
  std::vector<IsingModel> models;
  for (unsigned k = 0; k < 16; ++k) {
    Rng rng(300 + k);
    const InputPartition w = InputPartition::random(12, 6, rng);
    const BooleanMatrix matrix = BooleanMatrix::from_function(tt, k % 12, w);
    models.push_back(
        ColumnCop::separate(matrix, matrix_probs(dist, w)).to_ising());
  }
  SbParams params;
  params.max_iterations = 200;
  params.stop.enabled = true;
  params.stop.epsilon = 1e-6;
  params.stop.sample_interval = 5;
  params.stop.window = 5;

  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 4000 + 11 * m, {}});
  }
  BsbPackEngine engine(members, params, 1);
  EXPECT_EQ(engine.num_spins(), 192u);
  EXPECT_GE(engine.tile(), 1u);
  EXPECT_LT(engine.tile(), engine.num_members());
  const auto packed = engine.run();
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto ref = standalone(models[m], params, members[m].seed, 1);
    EXPECT_EQ(ref.energy, packed[m].energy) << "m=" << m;
    EXPECT_EQ(ref.spins, packed[m].spins) << "m=" << m;
    EXPECT_EQ(ref.iterations, packed[m].iterations) << "m=" << m;
  }
}

// ---------------------------------------------------- mixed-n bit parity

TEST(BsbPackParity, MixedSpinCountsMatchStandalone) {
  // Members of different sizes share one pack: smaller members ride with
  // inert padded spins and must still match their standalone solves.
  Rng rng(111);
  std::vector<IsingModel> models;
  for (const std::size_t n :
       {std::size_t{6}, std::size_t{12}, std::size_t{9}, std::size_t{5},
        std::size_t{12}, std::size_t{8}}) {
    models.push_back(random_model(n, 0.5, rng));
  }
  SbParams params;
  params.max_iterations = 220;
  params.stop.enabled = true;
  params.stop.epsilon = 1e-6;
  params.stop.sample_interval = 5;
  params.stop.window = 5;

  for (const std::size_t replicas : {std::size_t{1}, std::size_t{2}}) {
    std::vector<PackMember> members;
    for (std::size_t m = 0; m < models.size(); ++m) {
      members.push_back({&models[m], 7000 + 31 * m, {}});
    }
    BsbPackEngine engine(members, params, replicas);
    EXPECT_EQ(engine.num_spins(), 12u);
    EXPECT_EQ(engine.member_spins(0), 6u);
    const auto packed = engine.run();
    for (std::size_t m = 0; m < models.size(); ++m) {
      const auto ref = standalone(models[m], params, members[m].seed, replicas);
      EXPECT_EQ(ref.energy, packed[m].energy) << "R=" << replicas << " m=" << m;
      EXPECT_EQ(ref.spins, packed[m].spins);
      EXPECT_EQ(ref.iterations, packed[m].iterations);
      ASSERT_EQ(packed[m].spins.size(), models[m].num_spins());
    }
  }
}

// ------------------------------------------------------ deadline handling

TEST(BsbPackDeadline, ExpiredContextRetiresEveryMemberImmediately) {
  const auto models = member_models(3, 8, 707);
  SbParams params;
  params.max_iterations = 100000;
  RunContext::Options opts;
  opts.time_budget_s = 1e-9;
  const RunContext ctx(opts);
  while (!ctx.expired()) {
  }
  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 3 + m, {}});
  }
  BsbPackEngine engine(members, params, 1);
  engine.set_context(&ctx);
  const auto packed = engine.run();
  for (const auto& res : packed) {
    EXPECT_TRUE(res.stopped_early);
    EXPECT_EQ(res.iterations, 0u);
  }
}

TEST(BsbPackDeadline, SlotsCompactMidSolveOnDeadline) {
  // A deadline that expires in the middle of a run must retire members at
  // their next sampling point without disturbing the survivors' slots.
  // Member 2's hook burns the whole budget at the first sampling point
  // (step 10): members 0 and 1 passed their deadline check before it ran,
  // so they survive to step 20, while members 2..5 retire at step 10 —
  // each retirement swap-compacts a survivor into a lower slot.
  const auto models = member_models(6, 8, 1212);
  SbParams params;
  params.max_iterations = 20;
  params.stop.sample_interval = 10;

  RunContext::Options opts;
  opts.time_budget_s = 0.25;
  const RunContext ctx(opts);
  auto burn = [&](std::size_t member, std::span<double>, std::span<double>,
                  std::size_t) {
    if (member == 2) {
      while (!ctx.expired()) {
      }
    }
  };
  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 50 + m, {}});
  }
  BsbPackEngine engine(members, params, 1);
  engine.set_context(&ctx);
  const auto packed = engine.run(burn);

  for (std::size_t m = 0; m < models.size(); ++m) {
    EXPECT_EQ(packed[m].iterations, m < 2 ? 20u : 10u) << "m=" << m;
    EXPECT_TRUE(packed[m].stopped_early) << "m=" << m;
    // Results stay internally consistent after mid-solve compaction.
    EXPECT_EQ(packed[m].energy, models[m].energy(packed[m].spins))
        << "m=" << m;
  }
  // The survivors ran the same 20 steps they would alone (the hook never
  // touches the planes), so the compaction around them left their
  // trajectories bit-identical to a deadline-free standalone solve.
  for (std::size_t m = 0; m < 2; ++m) {
    const auto ref = standalone(models[m], params, members[m].seed, 1);
    EXPECT_EQ(ref.energy, packed[m].energy) << "m=" << m;
    EXPECT_EQ(ref.spins, packed[m].spins) << "m=" << m;
    EXPECT_EQ(ref.iterations, packed[m].iterations) << "m=" << m;
  }
}

TEST(BsbPackDeadline, BatchEngineChecksDeadlineAtRestartBoundary) {
  Rng rng(14);
  const auto model = random_model(8, 0.5, rng);
  SbParams params;
  params.max_iterations = 100000;
  RunContext::Options opts;
  opts.time_budget_s = 1e-9;
  const RunContext ctx(opts);
  while (!ctx.expired()) {
  }
  const auto res = solve_sb_batch(model, params, 1, nullptr, nullptr, &ctx);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_EQ(res.iterations, 0u);
}

// ------------------------------------------------------ argument checking

TEST(BsbPack, RejectsBadArguments) {
  Rng rng(21);
  const auto a = random_model(6, 0.8, rng);
  const auto b = random_model(7, 0.8, rng);
  SbParams params;
  EXPECT_THROW(BsbPackEngine({}, params, 1), std::invalid_argument);
  {
    // Mixed spin counts are legal (padded); zero replicas is not.
    const std::vector<PackMember> mixed = {{&a, 1, {}}, {&b, 2, {}}};
    BsbPackEngine ok(mixed, params, 1);
    EXPECT_EQ(ok.num_spins(), 7u);
    EXPECT_THROW(BsbPackEngine(mixed, params, 0), std::invalid_argument);
  }
  {
    IsingModel unfinalized(6);
    const std::vector<PackMember> raw = {{&unfinalized, 1, {}}};
    EXPECT_THROW(BsbPackEngine(raw, params, 1), std::invalid_argument);
  }
}

// ------------------------------------------------- packed core COP solver

ColumnCop benchmark_cop(unsigned output, unsigned shift = 0,
                        unsigned free_size = 4) {
  const TruthTable tt = make_benchmark_table("exp", 9, 7);
  const InputDistribution dist = InputDistribution::uniform(9);
  Rng rng(77 + shift);
  const InputPartition w = InputPartition::random(9, free_size, rng);
  const BooleanMatrix matrix = BooleanMatrix::from_function(tt, output, w);
  const std::vector<double> probs = matrix_probs(dist, w);
  return ColumnCop::separate(matrix, probs);
}

TEST(PackedCoreCopSolver, SingleSolveMatchesIsingCoreSolver) {
  const ColumnCop cop = benchmark_cop(3);
  const auto plain = SolverRegistry::global().make_from_spec("prop,n=9");
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=9,pack=8");
  CoreSolveStats sp;
  CoreSolveStats sq;
  const ColumnSetting p = plain->solve(cop, 42, &sp);
  const ColumnSetting q = packed->solve(cop, 42, &sq);
  EXPECT_TRUE(p.v1 == q.v1 && p.v2 == q.v2 && p.t == q.t);
  EXPECT_EQ(sp.objective, sq.objective);
  EXPECT_EQ(sp.iterations, sq.iterations);
  EXPECT_EQ(sp.stopped_early, sq.stopped_early);
}

TEST(PackedCoreCopSolver, BatchMatchesLoopedSolvesAcrossConfigs) {
  std::vector<ColumnCop> cops;
  for (unsigned k = 0; k < 6; ++k) {
    cops.push_back(benchmark_cop(k % 7, k));
  }
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < cops.size(); ++i) {
    seeds.push_back(1000 + 17 * i);
  }
  // Theorem-3 + dynamic stop are on by default; replicas=4 packs with
  // several replicas per slot, replicas=8 takes the unpacked path,
  // restarts=2 exercises the per-attempt reseed, pack=3 forces multiple
  // chunks per batch.
  for (const std::string extra :
       {"", ",replicas=4", ",replicas=8", ",restarts=2"}) {
    const auto plain =
        SolverRegistry::global().make_from_spec("prop,n=9" + extra);
    const auto packed = SolverRegistry::global().make_from_spec(
        "prop,n=9,pack=3" + extra);
    const RunContext ctx(std::uint64_t{7});
    std::vector<CoreSolveStats> packed_stats;
    const auto batch = packed->solve_batch(cops, ctx, seeds, &packed_stats);
    ASSERT_EQ(batch.size(), cops.size());
    for (std::size_t i = 0; i < cops.size(); ++i) {
      CoreSolveStats ref_stats;
      const ColumnSetting ref =
          plain->solve(cops[i], ctx, seeds[i], &ref_stats);
      EXPECT_TRUE(ref.v1 == batch[i].v1 && ref.v2 == batch[i].v2 &&
                  ref.t == batch[i].t)
          << "config '" << extra << "' instance " << i;
      EXPECT_EQ(ref_stats.objective, packed_stats[i].objective);
      EXPECT_EQ(ref_stats.iterations, packed_stats[i].iterations);
      EXPECT_EQ(ref_stats.stopped_early, packed_stats[i].stopped_early);
    }
  }
}

TEST(PackedCoreCopSolver, UnbatchedSolverBatchEqualsLoop) {
  // The default solve_batch path (no batched() override) must equal a
  // caller-side loop for any solver.
  std::vector<ColumnCop> cops;
  for (unsigned k = 0; k < 3; ++k) {
    cops.push_back(benchmark_cop(k, 10 + k));
  }
  const std::vector<std::uint64_t> seeds = {5, 6, 7};
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=9");
  const RunContext ctx(std::uint64_t{3});
  std::vector<CoreSolveStats> stats;
  const auto batch = solver->solve_batch(cops, ctx, seeds, &stats);
  for (std::size_t i = 0; i < cops.size(); ++i) {
    CoreSolveStats ref_stats;
    const ColumnSetting ref = solver->solve(cops[i], ctx, seeds[i], &ref_stats);
    EXPECT_TRUE(ref.v1 == batch[i].v1 && ref.v2 == batch[i].v2 &&
                ref.t == batch[i].t);
    EXPECT_EQ(ref_stats.objective, stats[i].objective);
  }
  EXPECT_THROW(solver->solve_batch(cops, ctx, std::vector<std::uint64_t>{1}),
               std::invalid_argument);
}

// ------------------------------------------ carving a batch over the pool

std::vector<ColumnCop> same_shape_batch(std::size_t count) {
  std::vector<ColumnCop> cops;
  for (unsigned k = 0; k < count; ++k) {
    cops.push_back(benchmark_cop(k % 7, k));
  }
  return cops;
}

std::vector<std::uint64_t> batch_seeds(std::size_t count) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < count; ++i) {
    seeds.push_back(500 + 31 * i);
  }
  return seeds;
}

RunContext pooled_context(std::size_t threads, bool metrics = false) {
  RunContext::Options opts;
  opts.seed = 7;
  opts.threads = threads;
  opts.metrics = metrics;
  return RunContext(opts);
}

/// Every member of `batch` equals the looped plain `prop` solve.
void expect_matches_looped(std::span<const ColumnCop> cops,
                           std::span<const std::uint64_t> seeds,
                           const std::vector<ColumnSetting>& batch,
                           const std::vector<CoreSolveStats>& stats,
                           const std::string& label) {
  const auto plain = SolverRegistry::global().make_from_spec("prop,n=9");
  const RunContext ctx(std::uint64_t{7});
  ASSERT_EQ(batch.size(), cops.size()) << label;
  for (std::size_t i = 0; i < cops.size(); ++i) {
    CoreSolveStats ref_stats;
    const ColumnSetting ref = plain->solve(cops[i], ctx, seeds[i], &ref_stats);
    EXPECT_TRUE(ref.v1 == batch[i].v1 && ref.v2 == batch[i].v2 &&
                ref.t == batch[i].t)
        << label << " instance " << i;
    EXPECT_EQ(ref_stats.objective, stats[i].objective) << label << " " << i;
    EXPECT_EQ(ref_stats.iterations, stats[i].iterations) << label << " " << i;
    EXPECT_EQ(ref_stats.stopped_early, stats[i].stopped_early)
        << label << " " << i;
  }
}

TEST(PackPlan, SameShapeBatchSplitsEvenlyAcrossParticipants) {
  const std::vector<std::size_t> sizes(16, 64);
  auto pack_sizes = [&](std::size_t pack, std::size_t min_packs) {
    const PackPlan plan = plan_packs(sizes, pack, min_packs);
    std::vector<std::size_t> out;
    for (std::size_t p = 0; p < plan.packs(); ++p) {
      out.push_back(plan.bounds[p + 1] - plan.bounds[p]);
    }
    return out;
  };
  using V = std::vector<std::size_t>;
  EXPECT_EQ(pack_sizes(16, 1), V({16}));
  EXPECT_EQ(pack_sizes(16, 3), V({6, 5, 5}));
  EXPECT_EQ(pack_sizes(16, 4), V({4, 4, 4, 4}));
  EXPECT_EQ(pack_sizes(5, 1), V({4, 4, 4, 4}));  // pack=K stays a cap
  EXPECT_EQ(pack_sizes(5, 2), V({4, 4, 4, 4}));
  EXPECT_EQ(pack_sizes(16, 40), V(16, 1));      // never below one member
  EXPECT_EQ(plan_packs({}, 16, 4).packs(), 0u);
}

TEST(PackPlan, MixedSizesKeepPaddedVolumeCapAfterCarving) {
  // Neighbouring sizes that share a bucket, a straggler, and sizes far
  // enough apart to need their own buckets.
  const std::vector<std::size_t> sizes = {64, 40, 64, 66, 130, 40, 64, 72,
                                          40, 64, 131, 66, 40, 72, 64, 40,
                                          200, 64, 40, 66};
  for (const std::size_t pack : {1u, 3u, 4u, 16u, 64u}) {
    for (const std::size_t min_packs : {1u, 2u, 3u, 4u, 8u, 32u}) {
      const PackPlan plan = plan_packs(sizes, pack, min_packs);
      std::vector<std::size_t> seen = plan.order;
      std::sort(seen.begin(), seen.end());
      for (std::size_t i = 0; i < seen.size(); ++i) {
        ASSERT_EQ(seen[i], i);
      }
      ASSERT_EQ(plan.bounds.front(), 0u);
      ASSERT_EQ(plan.bounds.back(), sizes.size());
      EXPECT_GE(plan.packs(), std::min(sizes.size(), min_packs));
      for (std::size_t p = 0; p < plan.packs(); ++p) {
        const std::size_t count = plan.bounds[p + 1] - plan.bounds[p];
        ASSERT_GE(count, 1u);
        EXPECT_LE(count, pack);
        std::size_t own = 0;
        std::size_t widest = 0;
        for (std::size_t k = plan.bounds[p]; k < plan.bounds[p + 1]; ++k) {
          const std::size_t n = sizes[plan.order[k]];
          own += n * n;
          widest = std::max(widest, n);
          if (k > plan.bounds[p]) {
            EXPECT_LE(sizes[plan.order[k - 1]], n);
          }
        }
        EXPECT_LE(widest * widest * count * 4, own * 5)
            << "pack=" << pack << " min_packs=" << min_packs << " pack #" << p;
      }
    }
  }
}

TEST(PackedCoreCopSolver, CarvedBatchBitIdenticalAcrossPoolSizes) {
  const std::vector<ColumnCop> cops = same_shape_batch(16);
  const std::vector<std::uint64_t> seeds = batch_seeds(cops.size());
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=9,pack=16");
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const RunContext ctx = pooled_context(threads);
    std::vector<CoreSolveStats> stats;
    const auto batch = packed->solve_batch(cops, ctx, seeds, &stats);
    expect_matches_looped(cops, seeds, batch, stats,
                          std::to_string(threads) + " workers");
  }
}

TEST(PackedCoreCopSolver, NonNestedBatchDispatchesThroughPool) {
  const std::vector<ColumnCop> cops = same_shape_batch(16);
  const std::vector<std::uint64_t> seeds = batch_seeds(cops.size());
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=9,pack=16");
  const RunContext ctx = pooled_context(4, /*metrics=*/true);
  MetricsRegistry& m = MetricsRegistry::global();
  const std::uint64_t jobs = m.counter("thread_pool_jobs_total").value();
  const std::uint64_t inline_runs =
      m.counter("thread_pool_inline_runs_total").value();
  std::vector<CoreSolveStats> stats;
  const auto batch = packed->solve_batch(cops, ctx, seeds, &stats);
  EXPECT_GT(m.counter("thread_pool_jobs_total").value(), jobs);
  EXPECT_EQ(m.counter("thread_pool_inline_runs_total").value(), inline_runs);
  expect_matches_looped(cops, seeds, batch, stats, "pooled");
}

TEST(PackedCoreCopSolver, NestedBatchStaysInlineAndBitIdentical) {
  const std::vector<ColumnCop> cops = same_shape_batch(16);
  const std::vector<std::uint64_t> seeds = batch_seeds(cops.size());
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=9,pack=16");
  const RunContext ctx = pooled_context(4, /*metrics=*/true);
  MetricsRegistry& m = MetricsRegistry::global();
  const std::uint64_t jobs = m.counter("thread_pool_jobs_total").value();
  std::vector<std::vector<ColumnSetting>> batches(2);
  std::vector<std::vector<CoreSolveStats>> stats(2);
  ctx.pool().parallel_for(2, [&](std::size_t k) {
    ASSERT_TRUE(ThreadPool::in_parallel_region());
    batches[k] = packed->solve_batch(cops, ctx, seeds, &stats[k]);
  });
  // Only the outer call became a pool job; the nested batches ran inline.
  EXPECT_EQ(m.counter("thread_pool_jobs_total").value(), jobs + 1);
  for (std::size_t k = 0; k < 2; ++k) {
    expect_matches_looped(cops, seeds, batches[k], stats[k],
                          "nested #" + std::to_string(k));
  }
}

TEST(PackedCoreCopSolver, MixedSizeBatchCarvedOverPoolMatchesLooped) {
  std::vector<ColumnCop> cops;
  for (unsigned k = 0; k < 12; ++k) {
    cops.push_back(benchmark_cop(k % 7, 40 + k, 3 + k % 3));
  }
  std::set<std::size_t> distinct;
  for (const ColumnCop& cop : cops) {
    distinct.insert(cop.num_spins());
  }
  ASSERT_GE(distinct.size(), 2u);
  const std::vector<std::uint64_t> seeds = batch_seeds(cops.size());
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=9,pack=16");
  const RunContext ctx = pooled_context(4);
  std::vector<CoreSolveStats> stats;
  const auto batch = packed->solve_batch(cops, ctx, seeds, &stats);
  expect_matches_looped(cops, seeds, batch, stats, "mixed sizes");
}

// ----------------------------------------------------- registry spec keys

TEST(PackedCoreCopSolver, RegistrySpecBuildsPackedSolver) {
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,pack=16");
  EXPECT_EQ(packed->name(), "ising-bsb-pack");
  EXPECT_TRUE(packed->batched());
  const auto plain = SolverRegistry::global().make_from_spec("prop");
  EXPECT_EQ(plain->name(), "ising-bsb");
  EXPECT_FALSE(plain->batched());
  // The engine has one layout and derives its tile width, so these keys
  // fail like any unknown key, with or without pack.
  for (const std::string key :
       {"pack-layout=slots", "pack-tile=4", "pack-share-j=1"}) {
    for (const std::string spec : {"prop,", "prop,pack=4,"}) {
      try {
        SolverRegistry::global().make_from_spec(spec + key);
        FAIL() << "expected invalid_argument for " << spec + key;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("does not take key"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(PackedCoreCopSolver, PackingPaysOnlyInsideTheMeasuredBand) {
  // Anchors of the crossover measurement: slots win at 192 spins for
  // R = 1 and R = 4; the unpacked engine wins at R = 8 and R = 16, and at
  // 768 spins for R = 1.
  EXPECT_TRUE(PackedCoreCopSolver::packing_pays(1, 192));
  EXPECT_TRUE(PackedCoreCopSolver::packing_pays(4, 192));
  EXPECT_FALSE(PackedCoreCopSolver::packing_pays(8, 192));
  EXPECT_FALSE(PackedCoreCopSolver::packing_pays(16, 192));
  EXPECT_FALSE(PackedCoreCopSolver::packing_pays(1, 768));
}

TEST(PackedCoreCopSolver, SmallReplicaBatchRunsPacked) {
  const std::vector<ColumnCop> cops = same_shape_batch(8);
  const std::vector<std::uint64_t> seeds = batch_seeds(cops.size());
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=9,pack=16");
  MetricsRegistry::Counter& runs =
      MetricsRegistry::global().counter("pack_runs_total");
  const std::uint64_t runs0 = runs.value();
  const RunContext ctx = pooled_context(1, /*metrics=*/true);
  std::vector<CoreSolveStats> stats;
  const auto batch = packed->solve_batch(cops, ctx, seeds, &stats);
  EXPECT_GT(runs.value() - runs0, 0u);
  expect_matches_looped(cops, seeds, batch, stats, "R=1");
}

TEST(PackedCoreCopSolver, HighReplicaBatchRunsUnpackedAndBitIdentical) {
  const std::vector<ColumnCop> cops = same_shape_batch(8);
  const std::vector<std::uint64_t> seeds = batch_seeds(cops.size());
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=9,replicas=8,pack=16");
  const auto plain =
      SolverRegistry::global().make_from_spec("prop,n=9,replicas=8");
  MetricsRegistry::Counter& runs =
      MetricsRegistry::global().counter("pack_runs_total");
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::uint64_t runs0 = runs.value();
    const RunContext ctx = pooled_context(threads, /*metrics=*/true);
    std::vector<CoreSolveStats> stats;
    const auto batch = packed->solve_batch(cops, ctx, seeds, &stats);
    EXPECT_EQ(runs.value() - runs0, 0u);
    const RunContext ref_ctx(std::uint64_t{7});
    for (std::size_t i = 0; i < cops.size(); ++i) {
      CoreSolveStats ref_stats;
      const ColumnSetting ref =
          plain->solve(cops[i], ref_ctx, seeds[i], &ref_stats);
      EXPECT_TRUE(ref.v1 == batch[i].v1 && ref.v2 == batch[i].v2 &&
                  ref.t == batch[i].t)
          << threads << " threads, instance " << i;
      EXPECT_EQ(ref_stats.objective, stats[i].objective);
      EXPECT_EQ(ref_stats.iterations, stats[i].iterations);
      EXPECT_EQ(ref_stats.stopped_early, stats[i].stopped_early);
    }
  }
}

// --------------------------------------------------- end-to-end DALTA runs

TEST(DaltaPacked, RunDaltaBitIdenticalWithPackedSolver) {
  const TruthTable exact = make_benchmark_table("exp", 8, 6);
  const InputDistribution dist = InputDistribution::uniform(8);
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 4;
  params.rounds = 1;
  params.seed = 42;

  const auto plain = SolverRegistry::global().make_from_spec("prop,n=8");
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=8,pack=4");
  const auto a = run_dalta(exact, dist, params, *plain);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    RunContext::Options opts;
    opts.seed = params.seed;
    opts.threads = threads;
    const RunContext ctx(opts);
    const auto b = run_dalta(exact, dist, params, *packed, ctx);

    EXPECT_EQ(a.med, b.med) << threads << " threads";
    EXPECT_EQ(a.error_rate, b.error_rate);
    EXPECT_EQ(a.cop_solves, b.cop_solves);
    EXPECT_EQ(a.solver_iterations, b.solver_iterations);
    for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
      ASSERT_EQ(a.approx.word(x), b.approx.word(x)) << "pattern " << x;
    }
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t k = 0; k < a.outputs.size(); ++k) {
      EXPECT_EQ(a.outputs[k].objective, b.outputs[k].objective);
    }
  }
}

TEST(DaltaPacked, RunDaltaNdBitIdenticalWithPackedSolver) {
  const TruthTable exact = make_benchmark_table("exp", 8, 6);
  const InputDistribution dist = InputDistribution::uniform(8);
  NdDaltaParams params;
  params.free_size = 3;
  params.shared_size = 1;
  params.num_partitions = 3;
  params.rounds = 1;
  params.seed = 42;

  const auto plain = SolverRegistry::global().make_from_spec("prop,n=8");
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=8,pack=6");
  const auto a = run_dalta_nd(exact, dist, params, *plain);
  const auto b = run_dalta_nd(exact, dist, params, *packed);

  EXPECT_EQ(a.med, b.med);
  EXPECT_EQ(a.error_rate, b.error_rate);
  EXPECT_EQ(a.cop_solves, b.cop_solves);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
    ASSERT_EQ(a.approx.word(x), b.approx.word(x)) << "pattern " << x;
  }
}

}  // namespace
}  // namespace adsd
