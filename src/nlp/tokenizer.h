// avtk/nlp/tokenizer.h
//
// Word tokenizer for disengagement-log text: lower-cases, splits on
// non-alphanumerics, keeps intra-word hyphens/slashes split apart
// ("decision-and-control" -> decision, and, control), and preserves
// number tokens (useful for reaction-time extraction).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace avtk::nlp {

/// One token with its byte offset into the original text.
struct token {
  std::string text;        ///< lower-cased token
  std::size_t offset = 0;  ///< byte offset of the first character
  bool is_number = false;  ///< token is all digits / decimal point

  bool operator==(const token&) const = default;
};

/// Tokenizes `text`; never returns empty tokens.
std::vector<token> tokenize(std::string_view text);

/// Convenience: just the token strings.
std::vector<std::string> tokenize_words(std::string_view text);

/// Zero-allocation scan primitive behind tokenize(): returns the next raw
/// (not yet lower-cased) token at or after `pos` as a view into `text`,
/// advancing `pos` past it; an empty view means the text is exhausted.
/// tokenize() and the interned-id fast path share these exact boundaries.
std::string_view next_token_view(std::string_view text, std::size_t& pos);

/// True for a number token: digits with optional '.', at least one digit
/// (`token::is_number`). Case-blind, so it applies to raw views too.
bool is_number_token(std::string_view t);

}  // namespace avtk::nlp
