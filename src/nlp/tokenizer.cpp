#include "nlp/tokenizer.h"

#include "util/strings.h"

namespace avtk::nlp {

namespace {

bool is_token_char(char c) { return str::is_alnum(c); }

}  // namespace

bool is_number_token(std::string_view t) {
  bool saw_digit = false;
  for (char c : t) {
    if (str::is_digit(c)) {
      saw_digit = true;
    } else if (c != '.') {
      return false;
    }
  }
  return saw_digit;
}

std::string_view next_token_view(std::string_view text, std::size_t& pos) {
  std::size_t i = pos;
  // Skip separators, but let a '.' glue digits together ("0.85").
  while (i < text.size() && !is_token_char(text[i])) ++i;
  const std::size_t start = i;
  while (i < text.size()) {
    if (is_token_char(text[i])) {
      ++i;
    } else if (text[i] == '.' && i + 1 < text.size() && str::is_digit(text[i + 1]) &&
               i > start && str::is_digit(text[i - 1])) {
      ++i;  // decimal point inside a number
    } else {
      break;
    }
  }
  pos = i;
  return text.substr(start, i - start);
}

std::vector<token> tokenize(std::string_view text) {
  std::vector<token> out;
  std::size_t pos = 0;
  while (true) {
    const auto raw = next_token_view(text, pos);
    if (raw.empty()) break;
    token t;
    t.text = str::to_lower(raw);
    t.offset = static_cast<std::size_t>(raw.data() - text.data());
    t.is_number = is_number_token(t.text);
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<std::string> tokenize_words(std::string_view text) {
  std::vector<std::string> out;
  for (auto& t : tokenize(text)) out.push_back(std::move(t.text));
  return out;
}

}  // namespace avtk::nlp
