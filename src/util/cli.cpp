#include "util/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace avtk::cli {

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // would overflow
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<int> parse_positive_int(std::string_view text) {
  const auto value = parse_u64(text);
  if (!value || *value < 1 ||
      *value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return std::nullopt;
  }
  return static_cast<int>(*value);
}

std::optional<unsigned> parse_uint(std::string_view text) {
  const auto value = parse_u64(text);
  if (!value || *value > std::numeric_limits<unsigned>::max()) return std::nullopt;
  return static_cast<unsigned>(*value);
}

std::optional<double> parse_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  // strtod needs a terminated buffer; the token is short, copy it.
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;  // trailing garbage
  if (errno == ERANGE || !std::isfinite(value)) return std::nullopt;
  return value;
}

std::optional<double> parse_fraction(std::string_view text) {
  const auto value = parse_double(text);
  if (!value || *value < 0.0 || *value > 1.0) return std::nullopt;
  return value;
}

arg_list::arg_list(int argc, char** argv, int first) {
  std::vector<std::string> args;
  for (int i = first; i < argc; ++i) args.emplace_back(argv[i]);
  *this = arg_list(std::move(args));
}

arg_list::arg_list(std::vector<std::string> args) {
  for (auto& arg : args) {
    // Split --name=value into the two-token form the accessors expect.
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        args_.push_back(arg.substr(0, eq));
        args_.push_back(arg.substr(eq + 1));
        continue;
      }
    }
    args_.push_back(std::move(arg));
  }
}

std::optional<std::string> arg_list::maybe_value_of(const std::string& flag) {
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (args_[i] != flag) continue;
    consumed_.insert(i);
    if (i + 1 < args_.size()) {
      consumed_.insert(i + 1);
      return args_[i + 1];
    }
    return std::string();  // flag was the last token: present, no value
  }
  return std::nullopt;
}

bool arg_list::has(const std::string& flag) {
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (args_[i] == flag) {
      consumed_.insert(i);
      return true;
    }
  }
  return false;
}

std::optional<std::string> arg_list::value_if_present(const std::string& flag) {
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (args_[i] != flag) continue;
    consumed_.insert(i);
    if (i + 1 < args_.size() && args_[i + 1].rfind("--", 0) != 0) {
      consumed_.insert(i + 1);
      return args_[i + 1];
    }
    return std::string();
  }
  return std::nullopt;
}

std::vector<std::string> arg_list::positional() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (!consumed_.contains(i)) out.push_back(args_[i]);
  }
  return out;
}

std::optional<std::string> arg_list::unknown_flag() const {
  for (const auto& word : positional()) {
    if (word.starts_with("--")) return word;
  }
  return std::nullopt;
}

}  // namespace avtk::cli
