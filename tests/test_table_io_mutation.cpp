// Mutation test for the truth-table and distribution readers
// (src/boolean/table_io), the readers behind adsd_cli's --table, --pla
// and --dist inputs. ByteMutator derives mutants from small in-repo tables
// serialized with to_hex_string / to_pla_string / write_distribution;
// every mutant must either parse or throw std::invalid_argument or
// std::runtime_error — no crash, no other exception type. A parsed table
// must re-serialize to a fixed point, and a parsed distribution must hold
// finite, non-negative probabilities that sum to 1. Inputs that once
// broke a reader stay below as fixed regression cases.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "boolean/table_io.hpp"
#include "byte_mutator.hpp"
#include "funcs/registry.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

/// Bytes that steer the readers into their branches: directives, digits
/// of both radixes, signs and exponents, separators, control and
/// non-ASCII bytes.
constexpr char kInteresting[] = {
    '.',  'i',  'o',    'e',    't',    'd',  's', '0', '1', '2', '6',
    '9',  'a',  'f',    'F',    'g',    'x',  '-', '+', 'E', ' ', '\n',
    '\t', '\r', '\0',   '\x7f', '\x80', '\xff'};

constexpr int kMutantsPerSeed = 1500;

std::vector<TruthTable> seed_tables() {
  Rng rng(0x7474);
  std::vector<TruthTable> tables = {
      make_benchmark_table("multiplier", 4, 4),
      make_benchmark_table("exp", 5, 3),
      TruthTable::from_function(3, 2, [](std::uint64_t x) { return x; }),
  };
  tables.push_back(TruthTable::from_function(
      2, 5, [&](std::uint64_t) { return rng.next_u64() & 0x1F; }));
  return tables;
}

/// The reader contract over every mutant of every seed: `parse` returns
/// or throws invalid_argument / runtime_error, any other exception fails
/// the test, and whatever parses must pass `check`. Both outcomes must
/// occur, or the mutator is not exploring.
template <typename Parse, typename Check>
void run_mutants(const std::vector<std::string>& seeds, std::uint64_t salt,
                 Parse parse, Check check) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    ByteMutator mutator(salt + s, {kInteresting, sizeof kInteresting});
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutator.mutate(seeds[s]);
      const std::string label =
          "seed " + std::to_string(s) + " mutant " + std::to_string(i);
      std::optional<decltype(parse(mutant))> result;
      try {
        result.emplace(parse(mutant));
      } catch (const std::invalid_argument&) {
      } catch (const std::runtime_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << ": reader threw an unexpected "
                      << typeid(e).name() << ": " << e.what();
        return;  // one reproducible failing mutant is enough
      }
      if (!result) {
        ++rejected;
        continue;
      }
      ++accepted;
      SCOPED_TRACE(label);
      check(*result);
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(TableIoMutation, HexMutantsParseOrThrow) {
  std::vector<std::string> seeds;
  for (const TruthTable& tt : seed_tables()) {
    seeds.push_back(to_hex_string(tt));
  }
  run_mutants(
      seeds, 0x6865780000000000ull,
      [](const std::string& text) { return from_hex_string(text); },
      [](const TruthTable& tt) {
        const std::string once = to_hex_string(tt);
        EXPECT_EQ(from_hex_string(once), tt);
      });
}

TEST(TableIoMutation, PlaMutantsParseOrThrow) {
  std::vector<std::string> seeds;
  for (const TruthTable& tt : seed_tables()) {
    seeds.push_back(to_pla_string(tt));
  }
  run_mutants(
      seeds, 0x706c610000000000ull,
      [](const std::string& text) { return from_pla_string(text); },
      [](const TruthTable& tt) {
        const std::string once = to_pla_string(tt);
        EXPECT_EQ(from_pla_string(once), tt);
      });
}

TEST(TableIoMutation, DistributionMutantsParseOrThrow) {
  std::vector<std::string> seeds;
  for (const InputDistribution& d :
       {InputDistribution::from_weights({3.0, 1.0, 0.0, 4.0}),
        InputDistribution::uniform(3),
        InputDistribution::from_weights(
            {1e-3, 2.0, 0.5, 7.0, 0.0, 1.0, 3.0, 0.25})}) {
    std::ostringstream os;
    write_distribution(os, d);
    seeds.push_back(os.str());
  }
  run_mutants(
      seeds, 0x6469737400000000ull,
      [](const std::string& text) {
        std::istringstream is(text);
        return read_distribution(is);
      },
      [](const InputDistribution& d) {
        double total = 0.0;
        for (std::uint64_t x = 0; x < d.num_patterns(); ++x) {
          const double p = d.prob(x);
          ASSERT_TRUE(std::isfinite(p) && p >= 0.0) << "prob " << x;
          total += p;
        }
        EXPECT_NEAR(total, 1.0, 1e-9);
      });
}

// ----------------------------------------------------- fixed regressions

/// Peak resident set of this process in kB (Linux reports ru_maxrss in
/// kB). ctest runs each test in its own process, so the peak before a
/// read is this test's own baseline.
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// A mutant of the 2-input distribution turned ".dist 2" into ".dist 26"
// and the reader allocated and zeroed 2^26 weights (512 MB) before
// finding the input truncated; under a 400 MB address-space limit that
// surfaced as std::bad_alloc. Each reader now sizes its storage from what
// it has read, so a maximal header over a short body is rejected cheaply.
TEST(TableIoMutation, MaximalHeaderOverShortBodyThrowsWithoutAllocating) {
  const long before = peak_rss_kb();
  std::istringstream dist(".dist 26\n0.5\n0.25\n");
  EXPECT_THROW((void)read_distribution(dist), std::invalid_argument);
  EXPECT_THROW((void)from_hex_string(".tt 26 63\nff\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_pla_string(".i 26\n.o 63\n.e\n"),
               std::invalid_argument);
  EXPECT_LT(peak_rss_kb() - before, 64 * 1024)
      << "a reader sized its storage from the header alone";
}

TEST(TableIoMutation, OutOfRangeHeadersAndWeightsAreRejected) {
  for (const char* text : {".tt 27 1\n0\n", ".tt 4 64\n0000\n",
                           ".tt 0 1\n0\n", ".tt 4294967295 1\n0\n"}) {
    EXPECT_THROW((void)from_hex_string(text), std::invalid_argument) << text;
  }
  for (const char* text : {".i 27\n.o 1\n.e\n", ".i 1\n.o 64\n.e\n",
                           ".i 1\n.o 1\n0 1\n.e\n"}) {
    EXPECT_THROW((void)from_pla_string(text), std::invalid_argument) << text;
  }
  for (const char* text : {".dist 27\n", ".dist 1\n1e308 1e308\n",
                           ".dist 1\n1e999 1\n", ".dist 1\n-1 2\n"}) {
    std::istringstream is(text);
    EXPECT_THROW((void)read_distribution(is), std::invalid_argument) << text;
  }
}

}  // namespace
}  // namespace adsd
