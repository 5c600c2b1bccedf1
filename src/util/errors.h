// avtk/util/errors.h
//
// Exception hierarchy for the avtk library. All avtk components signal
// unrecoverable conditions by throwing one of these types (C++ Core
// Guidelines E.2/E.14: throw exceptions, use purpose-designed types).
//
// Every exception carries a machine-readable `error_code` naming the
// pipeline stage (or generic facility) that failed. The codes are the
// contract between the fault-containment layer (core/pipeline quarantine
// policies), the avtk.quarantine.v1 report, the serve error envelopes, and
// the obs per-code counters — keep the spellings stable.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace avtk {

/// Machine-readable failure taxonomy. The first six name the Stage I-IV
/// pipeline facilities that can reject a document; `internal` is the
/// catch-all for everything else (logic/numeric/lookup failures); `limit`
/// rejects an input that exceeds a fixed size bound (a serve request line
/// longer than serve::k_max_request_bytes).
enum class error_code {
  ocr,        ///< OCR recovery failed on a scanned document
  header,     ///< report identity (kind / manufacturer / release) not established
  parse,      ///< line- or field-level parsing failed
  normalize,  ///< Stage II-2 normalization rejected the data
  label,      ///< Stage III NLP labeling failed
  io,         ///< filesystem / stream failure
  internal,   ///< unclassified: logic, numeric, lookup, unknown exceptions
  limit,      ///< input larger than a fixed size bound
};

/// Stable wire spelling of a code ("ocr", "header", ...).
std::string_view error_code_name(error_code code);

/// Base class of every error thrown by avtk.
class error : public std::runtime_error {
 public:
  explicit error(const std::string& what) : std::runtime_error(what) {}
  error(error_code code, const std::string& what) : std::runtime_error(what), code_(code) {}

  /// The machine-readable failure class (error_code::internal by default).
  error_code code() const { return code_; }

 private:
  error_code code_ = error_code::internal;
};

/// Malformed input encountered while parsing a report, CSV row, date, etc.
class parse_error : public error {
 public:
  explicit parse_error(const std::string& what)
      : error(error_code::parse, "parse error: " + what) {}

 protected:
  parse_error(error_code code, const std::string& what) : error(code, what) {}
};

/// A document whose identity (report kind, manufacturer, DMV release)
/// cannot be established. Derived from parse_error so existing handlers
/// that catch parse failures keep working; carries error_code::header so
/// the quarantine layer can tell header damage from body damage.
class header_error : public parse_error {
 public:
  explicit header_error(const std::string& what)
      : parse_error(error_code::header, "header error: " + what) {}
};

/// OCR recovery failed on a scanned document.
class ocr_error : public error {
 public:
  explicit ocr_error(const std::string& what) : error(error_code::ocr, "ocr error: " + what) {}
};

/// Stage II-2 normalization rejected its input wholesale.
class normalize_error : public error {
 public:
  explicit normalize_error(const std::string& what)
      : error(error_code::normalize, "normalize error: " + what) {}
};

/// Stage III NLP labeling failed.
class label_error : public error {
 public:
  explicit label_error(const std::string& what)
      : error(error_code::label, "label error: " + what) {}
};

/// A filesystem or stream operation failed.
class io_error : public error {
 public:
  explicit io_error(const std::string& what) : error(error_code::io, "io error: " + what) {}
};

/// A numerical routine failed to converge or was handed an invalid domain.
class numeric_error : public error {
 public:
  explicit numeric_error(const std::string& what) : error("numeric error: " + what) {}
};

/// A lookup (manufacturer, tag, column...) failed.
class not_found_error : public error {
 public:
  explicit not_found_error(const std::string& what) : error("not found: " + what) {}
};

/// A component was used in a way that violates its contract.
class logic_error : public error {
 public:
  explicit logic_error(const std::string& what) : error("logic error: " + what) {}
};

}  // namespace avtk
