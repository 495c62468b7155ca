// Deterministic byte mutator for the parser mutation tests
// (test_json_mutation, test_table_io_mutation, and the spec mutants in
// test_solver_registry): derives mutants of a seed text on the repo's
// xoshiro Rng, so every run explores the same inputs and a failing mutant
// is reproducible from its index.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/rng.hpp"

namespace adsd {

/// One to four edits per mutant, each a bit flip, an overwrite or
/// insertion of an interesting or random byte, a range erase, a range
/// duplication, or a truncation. `interesting` lists the bytes that steer
/// the parser under test into its branches.
class ByteMutator {
 public:
  ByteMutator(std::uint64_t seed, std::string_view interesting)
      : rng_(seed), interesting_(interesting) {}

  std::string mutate(const std::string& seed_text) {
    std::string s = seed_text;
    const std::uint64_t edits = 1 + rng_.next_below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      edit(s);
    }
    return s;
  }

 private:
  char interesting() {
    return interesting_[rng_.next_below(interesting_.size())];
  }
  std::size_t pos(const std::string& s) { return rng_.next_below(s.size()); }

  void edit(std::string& s) {
    if (s.empty()) {
      s.push_back(interesting());
      return;
    }
    switch (rng_.next_below(7)) {
      case 0:
        s[pos(s)] ^= static_cast<char>(1u << rng_.next_below(8));
        break;
      case 1:
        s[pos(s)] = interesting();
        break;
      case 2:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 rng_.next_below(s.size() + 1)),
                 interesting());
        break;
      case 3: {
        const std::size_t at = pos(s);
        s.erase(at, 1 + rng_.next_below(8));
        break;
      }
      case 4: {
        const std::size_t at = pos(s);
        const std::string slice = s.substr(at, 1 + rng_.next_below(16));
        s.insert(rng_.next_below(s.size() + 1), slice);
        break;
      }
      case 5:
        s.resize(pos(s));
        break;
      default:
        s[pos(s)] = static_cast<char>(rng_.next_below(256));
        break;
    }
  }

  Rng rng_;
  std::string_view interesting_;
};

}  // namespace adsd
