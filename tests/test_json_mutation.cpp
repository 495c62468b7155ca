// Mutation test for the in-repo JSON parser (src/support/json), the one
// reader behind every JSON artifact the tools validate. A deterministic
// byte mutator on the repo's xoshiro Rng derives mutants from the
// committed fixtures in tests/data; every mutant must either parse or
// throw std::runtime_error — no crash, no other exception type, no hang —
// and whatever parses must serialize to a fixed point. The sanitizer CI
// jobs run this file like any other test, so a memory error on a mutant
// fails there. Inputs that once broke the parser stay below as fixed
// regression cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "byte_mutator.hpp"
#include "support/json.hpp"

namespace adsd {
namespace {

/// Bytes that steer the parser into its branches: structure, literals,
/// escapes, number syntax, whitespace, control and non-ASCII bytes.
constexpr char kInteresting[] = {
    '{',  '}',  '[', ']', '"', ':', ',', '\\', 'u',    'n',    't',
    'f',  'e',  'E', '.', '-', '+', '0', '1',  '9',    ' ',    '\n',
    '\t', '\0', 'D', '8', 'C', 'a', '\x1f', '\x7f', '\x80', '\xff'};

std::vector<std::filesystem::path> seed_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(ADSD_TEST_DATA_DIR)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());  // fixed order, fixed mutants
  return files;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

/// The parser contract on one input: parse, or throw std::runtime_error.
/// A parsed document must reach a serialization fixed point. Returns
/// whether the input parsed.
bool parses_or_rejects(const std::string& text, const std::string& label) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": parse threw a non-runtime_error: "
                  << e.what();
    return false;
  }
  const std::string once = json::dump(doc);
  EXPECT_EQ(once, json::dump(json::parse(once))) << label;
  return true;
}

TEST(JsonMutation, SeedsFromTestDataParse) {
  const auto files = seed_files();
  ASSERT_GE(files.size(), 5u) << "fixtures missing from " ADSD_TEST_DATA_DIR;
  std::size_t parsed = 0;
  for (const auto& path : files) {
    try {
      (void)json::parse(read_file(path));
      ++parsed;
    } catch (const std::runtime_error&) {
      // trace_empty.json is whitespace only: a rejected seed still seeds.
    }
  }
  EXPECT_GE(parsed, files.size() - 1);
}

TEST(JsonMutation, EveryMutantParsesOrThrowsRuntimeError) {
  constexpr int kMutantsPerSeed = 1500;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::uint64_t file_index = 0;
  for (const auto& path : seed_files()) {
    const std::string seed_text = read_file(path);
    ByteMutator mutator(0x6a736f6e00000000ull + file_index++,
                        {kInteresting, sizeof kInteresting});
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = mutator.mutate(seed_text);
      const std::string label =
          path.filename().string() + " mutant " + std::to_string(i);
      ++(parses_or_rejects(mutant, label) ? accepted : rejected);
      if (HasFailure()) {
        return;  // one reproducible failing mutant is enough
      }
    }
  }
  // Both outcomes must actually occur, or the mutator is not exploring.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ----------------------------------------------------- fixed regressions

TEST(JsonMutation, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const std::string deep_array(200000, '[');
  std::string deep_object;  // objects nest through keys: {"a":{"a":{...
  for (int i = 0; i < 200000; ++i) {
    deep_object += "{\"a\":";
  }
  EXPECT_THROW((void)json::parse(deep_array), std::runtime_error);
  EXPECT_THROW((void)json::parse(deep_object), std::runtime_error);
  // Nesting well inside the limit still parses.
  std::string ok(64, '[');
  ok += std::string(64, ']');
  EXPECT_NO_THROW((void)json::parse(ok));
}

TEST(JsonMutation, TruncatedAndBrokenTokensAreRejected) {
  for (const char* text :
       {"", "[", "{\"a\"", "{\"a\":", "\"\\u12", "\"\\ud800\"",
        "\"\\udc00\"", "\"\\ud800\\u0041\"", "-", "1.", "1e", "1e+",
        "01", "tru", "nul", "[1,]", "{\"a\":1,}", "\"\x01\"", "1e999",
        "\xef\xbb\xbf", "[1] x"}) {
    EXPECT_THROW((void)json::parse(text), std::runtime_error) << text;
  }
}

}  // namespace
}  // namespace adsd
