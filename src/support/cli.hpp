#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace adsd {

/// Minimal command-line parser for the bench/example binaries.
///
/// Accepts `--name value`, `--name=value`, and bare `--flag` forms. Unknown
/// options are collected rather than rejected so that harness scripts can
/// pass experiment-specific knobs through a shared runner; a command with a
/// fixed option set calls reject_unknown() to refuse the rest.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  std::string get_string(const std::string& name, std::string fallback) const;
  int get_int(const std::string& name, int fallback) const;
  std::size_t get_size(const std::string& name, std::size_t fallback) const;

  /// Strict variant for counted resources (--threads, --replicas): the
  /// whole value must parse as a base-10 integer >= 1. Rejects 0,
  /// negatives, empty values, and trailing garbage ("4x") instead of
  /// silently falling back.
  std::size_t get_positive_size(const std::string& name,
                                std::size_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Throws std::invalid_argument naming the first option (in sorted
  /// order) that is not in `known`, e.g. "decompose does not take option
  /// '--telemtry' (options: --budget, ...)", so a misspelled or removed
  /// flag fails instead of being ignored.
  void reject_unknown(const std::string& command,
                      const std::vector<std::string>& known) const;

  /// Positional (non `--`) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace adsd
