#include "support/cli.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace adsd {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) {
    program_ = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is itself an option or absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[i + 1];
      ++i;
    } else {
      options_[arg] = "";
    }
  }
}

void CliArgs::reject_unknown(const std::string& command,
                             const std::vector<std::string>& known) const {
  for (const auto& [name, value] : options_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) {
      continue;
    }
    std::vector<std::string> sorted = known;
    std::sort(sorted.begin(), sorted.end());
    std::string list;
    for (const std::string& k : sorted) {
      list += (list.empty() ? "--" : ", --") + k;
    }
    throw std::invalid_argument(command + " does not take option '--" + name +
                                "' (options: " + list + ")");
  }
}

bool CliArgs::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::optional<std::string> CliArgs::raw(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string CliArgs::get_string(const std::string& name,
                                std::string fallback) const {
  const auto v = raw(name);
  return v ? *v : fallback;
}

int CliArgs::get_int(const std::string& name, int fallback) const {
  const auto v = raw(name);
  if (!v || v->empty()) {
    return fallback;
  }
  return std::stoi(*v);
}

std::size_t CliArgs::get_size(const std::string& name,
                              std::size_t fallback) const {
  const auto v = raw(name);
  if (!v || v->empty()) {
    return fallback;
  }
  const long long parsed = std::stoll(*v);
  if (parsed < 0) {
    throw std::invalid_argument("--" + name + " must be non-negative");
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t CliArgs::get_positive_size(const std::string& name,
                                       std::size_t fallback) const {
  const auto v = raw(name);
  if (!v) {
    return fallback;
  }
  unsigned long long parsed = 0;
  const char* begin = v->data();
  const char* end = begin + v->size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec != std::errc{} || ptr != end || parsed == 0) {
    throw std::invalid_argument("--" + name +
                                ": expected a positive integer, got '" + *v +
                                "'");
  }
  return static_cast<std::size_t>(parsed);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v || v->empty()) {
    return fallback;
  }
  return std::stod(*v);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v) {
    return fallback;
  }
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on") {
    return true;
  }
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") {
    return false;
  }
  throw std::invalid_argument("--" + name + ": expected a boolean, got '" +
                              *v + "'");
}

}  // namespace adsd
