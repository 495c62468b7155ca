#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "boolean/boolean_matrix.hpp"
#include "byte_mutator.hpp"
#include "core/column_cop.hpp"
#include "core/solver_registry.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

ColumnCop random_cop(std::uint64_t seed, std::size_t r = 5,
                     std::size_t c = 10) {
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

TEST(SolverRegistry, AllCanonicalNamesBuild) {
  const SolverRegistry& r = SolverRegistry::global();
  for (const char* name :
       {"prop", "sa", "simcim", "doch", "dalta", "dalta-lit", "ilp", "ba",
        "alt", "exhaustive"}) {
    const auto solver = r.make(name);
    ASSERT_NE(solver, nullptr) << name;
  }
}

TEST(SolverRegistry, AliasesResolveToTheSameEntryAsTheClassName) {
  const SolverRegistry& r = SolverRegistry::global();
  // Aliases are the CoreCopSolver::name() strings, so registry lookups and
  // trace span paths ("core/solve/<name>") agree.
  const std::pair<const char*, const char*> pairs[] = {
      {"prop", "ising-bsb"},     {"dalta", "dalta-greedy"},
      {"ilp", "ilp-bnb"},        {"ba", "ba-anneal"},
      {"alt", "alternating"},    {"sa", "ising-sa"},
      {"simcim", "ising-simcim"}, {"doch", "ising-doch"},
  };
  for (const auto& [canonical, alias] : pairs) {
    EXPECT_EQ(r.find(canonical), r.find(alias)) << canonical;
    EXPECT_EQ(r.make(alias)->name(), alias);
  }
}

TEST(SolverRegistry, EveryEntryBuildsWithAnEmptyConfig) {
  for (const auto& entry : SolverRegistry::global().entries()) {
    EXPECT_TRUE(entry.accepts(entry.name));
    const auto solver = entry.factory(SolverConfig{});
    ASSERT_NE(solver, nullptr) << entry.name;
    EXPECT_FALSE(solver->name().empty()) << entry.name;
  }
}

TEST(SolverRegistry, UnknownNameThrowsWithKnownList) {
  try {
    (void)SolverRegistry::global().make("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("prop"), std::string::npos)
        << "the error should list the known solvers";
  }
}

TEST(SolverRegistry, UnknownKeyThrowsStrictly) {
  SolverConfig config;
  config.set("bogus", "1");
  EXPECT_THROW((void)SolverRegistry::global().make("prop", config),
               std::invalid_argument);
  // A key valid for one solver is still rejected on another.
  SolverConfig budget;
  budget.set("budget", "1.0");
  EXPECT_THROW((void)SolverRegistry::global().make("dalta", budget),
               std::invalid_argument);
}

// Fixture for the enriched unknown-name diagnostic: every canonical name
// appears in sorted order, followed by an "aliases:" section listing the
// class-name spellings, so a typo'd spec is self-correcting. The removed
// racing meta-solver's name is just another unknown name.
TEST(SolverRegistry, UnknownNameErrorEnumeratesTheFullRoster) {
  for (const std::string unknown : {"nope", "portfolio"}) {
    try {
      (void)SolverRegistry::global().make_from_spec(unknown);
      FAIL() << "expected invalid_argument for " << unknown;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      const std::string head = "unknown solver '" + unknown + "' (known: ";
      ASSERT_EQ(msg.rfind(head, 0), 0u) << msg;
      EXPECT_EQ(msg.substr(head.size()),
                "alt, ba, dalta, dalta-lit, doch, exhaustive, ilp, prop, sa, "
                "simcim; aliases: alternating, ba-anneal, dalta-greedy, "
                "ilp-bnb, ising-bsb, ising-doch, ising-sa, ising-simcim)");
    }
  }
}

// Fixture for the enriched unknown-key diagnostic: the offending key is
// named and the solver's declared keys are listed sorted.
TEST(SolverRegistry, UnknownKeyErrorEnumeratesDeclaredKeys) {
  SolverConfig config;
  config.set("bogus", "1");
  try {
    (void)SolverRegistry::global().make("sa", config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("solver 'sa' does not take key 'bogus'"),
              std::string::npos)
        << msg;
    // Sorted declared keys: beta-end before beta-start before n ...
    std::size_t last = 0;
    for (const char* key :
         {"beta-end", "beta-start", "n", "polish", "replicas", "sweeps"}) {
      const std::size_t pos = msg.find(key, last);
      EXPECT_NE(pos, std::string::npos) << key << " missing in: " << msg;
      last = pos;
    }
  }
  // A keyless solver reports that it takes none.
  SolverConfig any;
  any.set("x", "1");
  try {
    (void)SolverRegistry::global().make("exhaustive", any);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no keys"), std::string::npos)
        << e.what();
  }
}

TEST(SolverRegistry, MalformedValuesThrow) {
  SolverConfig config;
  config.set("replicas", "4x");
  EXPECT_THROW((void)SolverRegistry::global().make("prop", config),
               std::invalid_argument);
  SolverConfig config2;
  config2.set("theorem3", "maybe");
  EXPECT_THROW((void)SolverRegistry::global().make("prop", config2),
               std::invalid_argument);
}

// replicas=0 / restarts=0 are refused, not clamped to 1 — on prop and on
// the engine entries that share its count keys — and the error names the
// solver and the key.
TEST(SolverRegistry, ZeroCountsThrowInsteadOfClamping) {
  for (const std::string solver : {"prop", "simcim"}) {
    for (const std::string key : {"replicas", "restarts"}) {
      try {
        (void)SolverRegistry::global().make_from_spec(solver + "," + key +
                                                      "=0");
        FAIL() << "expected invalid_argument for " << solver << " " << key;
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("solver '" + solver + "': key '" + key + "'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(">= 1"), std::string::npos) << msg;
      }
    }
  }
  // Iteration caps, sweep counts, the dt step and the stop keys fail the
  // same way at spec parse, not later as an anonymous engine error.
  const struct {
    const char* spec;
    const char* solver;
    const char* key;
    const char* want;
  } limits[] = {
      {"prop,max-iter=0", "prop", "max-iter", ">= 1 (got '0')"},
      {"prop,dt=-1", "prop", "dt", "> 0 (got '-1')"},
      {"prop,dt=0", "prop", "dt", "> 0 (got '0')"},
      {"sa,sweeps=0", "sa", "sweeps", ">= 1 (got '0')"},
      {"simcim,max-iter=0", "simcim", "max-iter", ">= 1 (got '0')"},
      {"simcim,dt=-0.5", "simcim", "dt", "> 0 (got '-0.5')"},
      {"doch,max-iter=0", "doch", "max-iter", ">= 1 (got '0')"},
      {"prop,pack=4,max-iter=0", "prop", "max-iter", ">= 1 (got '0')"},
      // The stop keys: a zero sample interval always, a window under 2
      // whenever the dynamic stop is on (it is by default).
      {"prop,stop-interval=0", "prop", "stop-interval", ">= 1 (got '0')"},
      {"prop,stop=0,stop-interval=0", "prop", "stop-interval",
       ">= 1 (got '0')"},
      {"prop,stop-window=1", "prop", "stop-window", ">= 2 (got '1')"},
      {"prop,pack=4,stop-window=0", "prop", "stop-window", ">= 2 (got '0')"},
      {"simcim,stop-interval=0", "simcim", "stop-interval",
       ">= 1 (got '0')"},
      {"simcim,stop=1,stop-window=1", "simcim", "stop-window",
       ">= 2 (got '1')"},
      {"sa,stop-interval=0", "sa", "stop-interval", ">= 1 (got '0')"},
      {"sa,stop-window=1", "sa", "stop-window", ">= 2 (got '1')"},
      {"doch,stop-window=1", "doch", "stop-window", ">= 2 (got '1')"},
      // Annealing schedules: beta-start > 0, and beta-end >= beta-start
      // (a given value or the default it fell back to).
      {"ba,beta-start=0", "ba", "beta-start", "> 0 (got '0')"},
      {"ba,beta-start=-1", "ba", "beta-start", "> 0 (got '-1')"},
      {"ba,beta-start=nan", "ba", "beta-start", "> 0 (got 'nan')"},
      {"ba,beta-end=0.1", "ba", "beta-end", ">= beta-start (got '0.1')"},
      {"ba,beta-start=500", "ba", "beta-end", ">= beta-start (got '200')"},
      {"sa,beta-start=0", "sa", "beta-start", "> 0 (got '0')"},
      {"sa,beta-start=2,beta-end=1", "sa", "beta-end",
       ">= beta-start (got '1')"},
      // Counts of the non-Ising solvers.
      {"ba,restarts=0", "ba", "restarts", ">= 1 (got '0')"},
      {"ba,sweeps=0", "ba", "sweeps", ">= 1 (got '0')"},
      {"alt,restarts=0", "alt", "restarts", ">= 1 (got '0')"},
      {"alt,sweeps=0", "alt", "sweeps", ">= 1 (got '0')"},
      {"ilp,warm-restarts=0", "ilp", "warm-restarts", ">= 1 (got '0')"},
      {"ilp,budget=nan", "ilp", "budget", "a number (got 'nan')"},
      // DOCH's engine refuses these too, but only at solve time and
      // without naming the key.
      {"doch,momentum=-1", "doch", "momentum", ">= 0 (got '-1')"},
      {"doch,init-amp=-0.5", "doch", "init-amp", ">= 0 (got '-0.5')"},
  };
  for (const auto& limit : limits) {
    try {
      (void)SolverRegistry::global().make_from_spec(limit.spec);
      FAIL() << "expected invalid_argument for " << limit.spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), std::string("solver '") +
                                           limit.solver + "': key '" +
                                           limit.key + "' must be " +
                                           limit.want)
          << limit.spec;
    }
  }
  // The packed prop path validates before building the packed solver.
  EXPECT_THROW(
      (void)SolverRegistry::global().make_from_spec("prop,pack=4,replicas=0"),
      std::invalid_argument);
  // One still builds.
  EXPECT_NO_THROW(
      (void)SolverRegistry::global().make_from_spec("simcim,replicas=1"));
  // With the stop off the window is unused, so any value builds.
  EXPECT_NO_THROW((void)SolverRegistry::global().make_from_spec(
      "prop,stop=0,stop-window=1"));
  EXPECT_NO_THROW((void)SolverRegistry::global().make_from_spec(
      "sa,stop=0,stop-window=0"));
  // The boundary values themselves build: an isothermal schedule, no
  // momentum, and the one-shot greedy (dalta sweeps=0 is dalta-lit).
  for (const char* spec :
       {"ba,beta-start=1,beta-end=1", "sa,beta-start=3,beta-end=3",
        "doch,momentum=0,init-amp=0", "dalta,sweeps=0", "ilp,budget=0"}) {
    EXPECT_NO_THROW((void)SolverRegistry::global().make_from_spec(spec))
        << spec;
  }
}

TEST(SolverRegistry, SpecParsing) {
  const auto [name, config] =
      SolverRegistry::parse_spec("prop,replicas=4,stop-epsilon=1e-6");
  EXPECT_EQ(name, "prop");
  EXPECT_EQ(config.get_size("replicas", 1), 4u);
  EXPECT_DOUBLE_EQ(config.get_double("stop-epsilon", 0.0), 1e-6);
  EXPECT_FALSE(config.has("n"));

  EXPECT_THROW((void)SolverRegistry::parse_spec(""), std::invalid_argument);
  EXPECT_THROW((void)SolverRegistry::parse_spec("prop,novalue"),
               std::invalid_argument);
  EXPECT_THROW((void)SolverRegistry::parse_spec("prop,=3"),
               std::invalid_argument);
}

TEST(SolverRegistry, RegistryBuiltSolverMatchesDirectConstruction) {
  const auto cop = random_cop(77);
  // The registry path must be bit-identical to hand-built construction:
  // same options, same seed, same setting.
  auto options = IsingCoreSolver::Options::paper_defaults(9);
  options.replicas = 2;
  const IsingCoreSolver direct(options);
  const auto via_registry =
      SolverRegistry::global().make_from_spec("prop,n=9,replicas=2");

  for (const std::uint64_t seed : {1u, 5u, 42u}) {
    CoreSolveStats ds;
    CoreSolveStats rs;
    const auto d = direct.solve(cop, seed, &ds);
    const auto r = via_registry->solve(cop, seed, &rs);
    EXPECT_TRUE(d.v1 == r.v1 && d.v2 == r.v2 && d.t == r.t);
    EXPECT_EQ(ds.objective, rs.objective);
    EXPECT_EQ(ds.iterations, rs.iterations);
  }
}

TEST(SolverRegistry, ConfigTypedGetterFallbacks) {
  SolverConfig config;
  config.set("k", "12");
  config.set("f", "0.5");
  config.set("b", "off");
  EXPECT_EQ(config.get_size("k", 0), 12u);
  EXPECT_EQ(config.get_size("absent", 9), 9u);
  EXPECT_DOUBLE_EQ(config.get_double("f", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(config.get_double("absent", 2.5), 2.5);
  EXPECT_FALSE(config.get_bool("b", true));
  EXPECT_TRUE(config.get_bool("absent", true));
}

TEST(SolverRegistry, DuplicateRegistrationThrows) {
  SolverRegistry local;
  local.add({"x", "", {"y"}, {}, [](const SolverConfig&) {
               return SolverRegistry::global().make("dalta");
             }});
  SolverRegistry::Entry dup{"y", "", {}, {}, [](const SolverConfig&) {
                              return SolverRegistry::global().make("dalta");
                            }};
  EXPECT_THROW(local.add(dup), std::invalid_argument);
}

// ------------------------------------------------------ spec mutation

/// A valid spec for every registered solver, each setting every key the
/// entry declares (prop twice: plain and packed).
const std::vector<std::string>& seed_specs() {
  static const std::vector<std::string> specs = {
      "prop,n=9,replicas=2,restarts=1,theorem3=1,anti-collapse=0,polish=1,"
      "seed-init=1,max-iter=200,dt=0.5,discrete=0,kernel=auto,stop=1,"
      "stop-interval=10,stop-window=10,stop-epsilon=1e-8",
      "ising-bsb,pack=4,replicas=1,max-iter=100,kernel=scalar",
      "sa,n=9,replicas=2,restarts=1,polish=1,seed-init=0,sweeps=50,"
      "beta-start=0.1,beta-end=10,stop=0,stop-interval=5,stop-window=4,"
      "stop-epsilon=1e-6",
      "simcim,n=9,replicas=2,restarts=1,theorem3=0,anti-collapse=1,polish=1,"
      "seed-init=1,max-iter=300,dt=0.25,pump-start=-1,pump-end=1,"
      "noise=0.05,c0=0.2,kernel=auto,stop=1,stop-interval=8,stop-window=8,"
      "stop-epsilon=1e-7",
      "doch,n=9,replicas=1,restarts=2,theorem3=1,anti-collapse=1,polish=0,"
      "seed-init=1,max-iter=300,rho=0.5,momentum=0.9,init-amp=0.1,"
      "kernel=auto,stop=1,stop-interval=10,stop-window=6,stop-epsilon=1e-8",
      "dalta,sweeps=4",
      "dalta-lit",
      "ilp,budget=0.25,warm-restarts=8",
      "ba,sweeps=300,beta-start=0.5,beta-end=200,restarts=2",
      "alt,restarts=8,sweeps=64",
      "exhaustive",
  };
  return specs;
}

TEST(SolverRegistryMutation, SeedsCoverEveryEntryAndBuild) {
  for (const SolverRegistry::Entry& entry :
       SolverRegistry::global().entries()) {
    bool covered = false;
    for (const std::string& spec : seed_specs()) {
      const std::string name = spec.substr(0, spec.find(','));
      covered = covered || entry.accepts(name);
    }
    EXPECT_TRUE(covered) << "no seed spec for solver '" << entry.name << "'";
  }
  for (const std::string& spec : seed_specs()) {
    EXPECT_NO_THROW((void)SolverRegistry::global().make_from_spec(spec))
        << spec;
  }
}

/// The spec contract under byte mutation: every mutant either builds a
/// solver through make_from_spec or throws std::invalid_argument — no
/// crash and no other exception type. Mutants are fixed per seed, so a
/// failure is reproducible from the printed text.
TEST(SolverRegistryMutation, SpecMutantsBuildOrThrowInvalidArgument) {
  // Separators, digits, signs, exponent and special-value letters, and a
  // few bytes outside printable ASCII.
  constexpr char kInteresting[] = {',', '=', '0', '1', '9', '-', '+', '.',
                                   'e', 'E', 'n', 'a', 'i', 'f', 'x', ' ',
                                   '\0', '\t', '\x7f', '\xff'};
  std::size_t built = 0;
  std::size_t rejected = 0;
  std::uint64_t seed = 0x7370656300000000ull;
  for (const std::string& spec : seed_specs()) {
    ByteMutator mutator(++seed,
                        std::string_view(kInteresting, sizeof(kInteresting)));
    for (int i = 0; i < 1500; ++i) {
      const std::string mutant = mutator.mutate(spec);
      try {
        ASSERT_NE(SolverRegistry::global().make_from_spec(mutant), nullptr)
            << mutant;
        ++built;
      } catch (const std::invalid_argument&) {
        ++rejected;
      } catch (const std::exception& e) {
        FAIL() << "mutant '" << mutant << "' of '" << spec
               << "' threw a non-invalid_argument: " << e.what();
      }
    }
  }
  EXPECT_GT(built, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace adsd
