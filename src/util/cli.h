// avtk/util/cli.h
//
// Command-line plumbing shared by the avtk driver (tools/avtk_cli.cpp) and
// its tests: the minimal flag scanner and STRICT numeric parsers.
//
// The parsers exist because std::atoi/strtoull silently turn "banana" into
// 0 and "-3" (or a 2^63 seed squeezed through an int) into a plausible but
// wrong simulation. Every parser here demands that the WHOLE token is a
// number of the advertised shape — no leading/trailing garbage, no empty
// strings, no silent saturation — and answers nullopt otherwise, so a
// malformed flag value becomes a usage error instead of a degenerate run.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace avtk::cli {

/// Unsigned 64-bit: one-or-more decimal digits, nothing else, value
/// representable in uint64_t. This is the seed parser — fleet and
/// generator seeds are uint64_t end to end, so 2^63-sized seeds must
/// survive (no int round trip anywhere).
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Strictly positive int (>= 1): digits only, fits in int. Rejects 0 —
/// flags like --vehicles/--months mean a count of work, and a silent zero
/// runs a degenerate simulation.
std::optional<int> parse_positive_int(std::string_view text);

/// Unsigned int, 0 allowed (flags where 0 means "auto", e.g. --parallel /
/// --threads): digits only, fits in unsigned.
std::optional<unsigned> parse_uint(std::string_view text);

/// Strict finite double: the whole token must parse (strtod consumes
/// everything) and the value must be finite. "1e3" is fine, "3banana" and
/// "nan" are not.
std::optional<double> parse_double(std::string_view text);

/// Strict double restricted to [0, 1] — fault fractions, duty cycles.
std::optional<double> parse_fraction(std::string_view text);

/// Minimal flag parsing: --name value, --name=value, or bare flags.
class arg_list {
 public:
  arg_list(int argc, char** argv, int first);
  explicit arg_list(std::vector<std::string> args);

  /// The one accessor for flags that take a value: nullopt when `flag` is
  /// absent; otherwise the flag is consumed along with the token after it,
  /// which is returned VERBATIM — even another --flag — or "" when the
  /// flag is the last token. A strict caller can therefore reject both
  /// `--vehicles --driverless` and a trailing `--csv` as a missing value
  /// instead of skipping it or reporting an unknown flag.
  std::optional<std::string> maybe_value_of(const std::string& flag);

  bool has(const std::string& flag);

  /// For flags whose value is optional (--parallel [N]): nullopt when the
  /// flag is absent, "" when it is passed bare or followed by another flag,
  /// else the value.
  std::optional<std::string> value_if_present(const std::string& flag);

  std::vector<std::string> positional() const;

  /// The first unconsumed token that looks like a flag ("--..."), if any.
  /// Read every flag a command knows first; what is left is unknown.
  std::optional<std::string> unknown_flag() const;

 private:
  std::vector<std::string> args_;
  std::set<std::size_t> consumed_;
};

}  // namespace avtk::cli
