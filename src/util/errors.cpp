#include "util/errors.h"

namespace avtk {

namespace {

constexpr std::pair<error_code, std::string_view> k_code_names[] = {
    {error_code::ocr, "ocr"},           {error_code::header, "header"},
    {error_code::parse, "parse"},       {error_code::normalize, "normalize"},
    {error_code::label, "label"},       {error_code::io, "io"},
    {error_code::internal, "internal"}, {error_code::limit, "limit"},
};

}  // namespace

std::string_view error_code_name(error_code code) {
  for (const auto& [c, name] : k_code_names) {
    if (c == code) return name;
  }
  return "internal";
}

}  // namespace avtk
