#include "inject/corruptor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "dataset/manufacturers.h"
#include "obs/json.h"
#include "ocr/noise.h"
#include "util/rng.h"
#include "util/strings.h"

namespace avtk::inject {

namespace {

constexpr std::pair<fault_kind, std::string_view> k_kind_names[] = {
    {fault_kind::truncate_pages, "truncate_pages"},
    {fault_kind::garble_header, "garble_header"},
    {fault_kind::empty_document, "empty_document"},
    {fault_kind::duplicate_pages, "duplicate_pages"},
    {fault_kind::ocr_noise, "ocr_noise"},
    {fault_kind::format_scramble, "format_scramble"},
};

// Case-insensitive in-place replacement of every occurrence of `from`.
void ireplace_all(std::string& text, std::string_view from, std::string_view to) {
  if (from.empty()) return;
  const std::string haystack = str::to_lower(text);
  const std::string needle = str::to_lower(from);
  std::string out;
  std::size_t pos = 0;
  for (;;) {
    const auto hit = haystack.find(needle, pos);
    if (hit == std::string::npos) break;
    out.append(text, pos, hit - pos);
    out.append(to);
    pos = hit + needle.size();
  }
  if (pos == 0) return;  // nothing matched
  out.append(text, pos, std::string::npos);
  text = std::move(out);
}

// A gibberish token no fuzzy-matcher snaps back to a real manufacturer.
std::string gibberish_token(rng& gen) {
  std::string token;
  const auto len = gen.uniform_int(9, 12);
  for (std::int64_t i = 0; i < len; ++i) {
    token.push_back(static_cast<char>('a' + gen.uniform_int(0, 25)));
  }
  return token;
}

// --- fault shapes -----------------------------------------------------
//
// Each shape draws its random parameters ONCE and applies the same
// structural damage to the delivered document and its pristine twin, so
// the two copies stay aligned (the parsers' line-for-line fallback relies
// on matching line counts) and the fallback cannot undo the damage.

void truncate_to_fraction(ocr::document& doc, double keep_fraction) {
  const std::size_t total = doc.line_count();
  std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(total) * keep_fraction));
  std::vector<ocr::page> pages;
  for (auto& p : doc.pages) {
    if (keep == 0) break;
    if (p.lines.size() > keep) p.lines.resize(keep);
    keep -= p.lines.size();
    pages.push_back(std::move(p));
  }
  doc.pages = std::move(pages);
}

void apply_truncate(ocr::document& doc, ocr::document* pristine, rng& gen) {
  const double keep = gen.uniform(0.05, 0.35);
  truncate_to_fraction(doc, keep);
  if (pristine != nullptr) truncate_to_fraction(*pristine, keep);
}

void replace_maker_everywhere(ocr::document& doc, std::string_view replacement) {
  const std::string maker = doc.manufacturer;
  for (auto& p : doc.pages) {
    for (auto& line : p.lines) {
      if (!maker.empty()) ireplace_all(line, maker, replacement);
    }
  }
  // Belt and braces: if the document carries no manufacturer metadata the
  // replacement above is a no-op, so deface the header lines outright.
  if (maker.empty() && !doc.pages.empty()) {
    auto& lines = doc.pages.front().lines;
    const std::size_t header = std::min<std::size_t>(lines.size(), 9);
    for (std::size_t i = 0; i < header; ++i) lines[i] = std::string(replacement);
  }
}

void apply_garble_header(ocr::document& doc, ocr::document* pristine, rng& gen) {
  const std::string garbage = gibberish_token(gen);
  replace_maker_everywhere(doc, garbage);
  if (pristine != nullptr) replace_maker_everywhere(*pristine, garbage);
}

void apply_empty(ocr::document& doc, ocr::document* pristine) {
  doc.pages.clear();
  if (pristine != nullptr) pristine->pages.clear();
}

void apply_duplicate_pages(ocr::document& doc, ocr::document* pristine, rng& gen) {
  if (doc.pages.empty()) return;
  const auto target =
      static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(doc.pages.size()) - 1));
  doc.pages.insert(doc.pages.begin() + static_cast<std::ptrdiff_t>(target) + 1,
                   doc.pages[target]);
  if (pristine != nullptr && !pristine->pages.empty()) {
    const auto p = std::min(target, pristine->pages.size() - 1);
    pristine->pages.insert(pristine->pages.begin() + static_cast<std::ptrdiff_t>(p) + 1,
                           pristine->pages[p]);
  }
}

void apply_ocr_noise(ocr::document& doc, ocr::document* pristine, rng& gen) {
  // Far past the worst profile the mock OCR engine can recover from: this
  // models an unreadable scan, not a merely bad one.
  ocr::noise_profile brutal;
  brutal.confusion = 0.35;
  brutal.drop = 0.15;
  brutal.duplicate = 0.10;
  brutal.space_insert = 0.10;
  brutal.space_drop = 0.25;
  for (auto& p : doc.pages) {
    for (auto& line : p.lines) line = ocr::corrupt_line(line, brutal, gen);
  }
  if (pristine != nullptr) {
    for (auto& p : pristine->pages) {
      for (auto& line : p.lines) line = ocr::corrupt_line(line, brutal, gen);
    }
  }
}

void apply_format_scramble(ocr::document& doc, ocr::document* pristine, rng& gen) {
  // Relabel the report as another manufacturer's: the header then selects
  // the wrong format reader for the body rows.
  std::vector<std::string> others;
  for (const auto m : dataset::k_all_manufacturers) {
    const auto name = dataset::manufacturer_name(m);
    if (!str::iequals(name, doc.manufacturer)) others.emplace_back(name);
  }
  if (others.empty()) return;
  const std::string impostor = gen.pick(others);
  replace_maker_everywhere(doc, impostor);
  if (pristine != nullptr) replace_maker_everywhere(*pristine, impostor);
}

void apply_fault(fault_kind kind, ocr::document& doc, ocr::document* pristine, rng& gen) {
  switch (kind) {
    case fault_kind::truncate_pages:
      apply_truncate(doc, pristine, gen);
      return;
    case fault_kind::garble_header:
      apply_garble_header(doc, pristine, gen);
      return;
    case fault_kind::empty_document:
      apply_empty(doc, pristine);
      return;
    case fault_kind::duplicate_pages:
      apply_duplicate_pages(doc, pristine, gen);
      return;
    case fault_kind::ocr_noise:
      apply_ocr_noise(doc, pristine, gen);
      return;
    case fault_kind::format_scramble:
      apply_format_scramble(doc, pristine, gen);
      return;
  }
}

}  // namespace

std::string_view fault_kind_name(fault_kind kind) {
  for (const auto& [k, name] : k_kind_names) {
    if (k == kind) return name;
  }
  return "truncate_pages";
}

std::optional<fault_kind> fault_kind_from_name(std::string_view name) {
  for (const auto& [k, n] : k_kind_names) {
    if (n == name) return k;
  }
  return std::nullopt;
}

const std::vector<fault_kind>& all_fault_kinds() {
  static const std::vector<fault_kind> kinds = {
      fault_kind::truncate_pages, fault_kind::garble_header,  fault_kind::empty_document,
      fault_kind::duplicate_pages, fault_kind::ocr_noise,     fault_kind::format_scramble,
  };
  return kinds;
}

const injected_fault* injection_report::fault_for(std::size_t index) const {
  for (const auto& f : faults) {
    if (f.index == index) return &f;
  }
  return nullptr;
}

injection_report inject_faults(std::vector<ocr::document>& documents,
                               std::vector<ocr::document>& pristine,
                               const injection_config& config) {
  if (!(config.fraction >= 0.0 && config.fraction <= 1.0)) {
    throw logic_error("injection fraction must be in [0, 1]");
  }
  if (!pristine.empty() && pristine.size() != documents.size()) {
    throw logic_error("pristine corpus must parallel documents one-to-one");
  }

  injection_report report;
  report.seed = config.seed;
  report.fraction = config.fraction;
  report.documents_in = documents.size();
  if (documents.empty() || config.fraction == 0.0) return report;

  // Seeded selection: shuffle the index space, keep the leading fraction
  // (at least one document), then walk the victims in document order.
  rng gen(config.seed);
  std::vector<std::size_t> order(documents.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  gen.shuffle(order);
  const auto count = std::min<std::size_t>(
      documents.size(),
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(
                                   config.fraction * static_cast<double>(documents.size())))));
  order.resize(count);
  std::sort(order.begin(), order.end());

  const std::vector<fault_kind>& kinds = config.kinds.empty() ? all_fault_kinds() : config.kinds;

  for (std::size_t v = 0; v < order.size(); ++v) {
    const std::size_t i = order[v];
    ocr::document& doc = documents[i];
    ocr::document* twin = pristine.empty() ? nullptr : &pristine[i];

    injected_fault fault;
    fault.index = i;
    fault.title = doc.title;
    fault.requested = kinds[v % kinds.size()];

    // Apply the requested fault, then walk the escalation ladder until the
    // strict probe agrees the document is detectably corrupt. The ladder
    // terminates: an empty document always fails the strict scan.
    std::vector<fault_kind> ladder = {fault.requested};
    if (fault.requested != fault_kind::garble_header) ladder.push_back(fault_kind::garble_header);
    if (fault.requested != fault_kind::empty_document) ladder.push_back(fault_kind::empty_document);
    for (const fault_kind step : ladder) {
      apply_fault(step, doc, twin, gen);
      fault.applied = step;
      if (const auto probed = core::probe_document(doc, twin, {}, i)) {
        fault.code = probed->code;
        fault.probe_message = probed->message;
        break;
      }
      ++fault.escalations;
    }
    report.faults.push_back(std::move(fault));
  }
  return report;
}

std::string injection_to_json(const injection_report& report) {
  namespace json = obs::json;
  json::array faults;
  for (const auto& f : report.faults) {
    json::object entry;
    entry.emplace_back("index", f.index);
    entry.emplace_back("title", f.title);
    entry.emplace_back("requested", std::string(fault_kind_name(f.requested)));
    entry.emplace_back("applied", std::string(fault_kind_name(f.applied)));
    entry.emplace_back("escalations", f.escalations);
    entry.emplace_back("code", std::string(error_code_name(f.code)));
    entry.emplace_back("message", f.probe_message);
    faults.emplace_back(std::move(entry));
  }
  json::object root;
  root.emplace_back("schema", "avtk.inject.v1");
  root.emplace_back("seed", static_cast<double>(report.seed));
  root.emplace_back("fraction", report.fraction);
  root.emplace_back("documents_in", report.documents_in);
  root.emplace_back("documents_injected", report.faults.size());
  root.emplace_back("faults", std::move(faults));
  return json::value(std::move(root)).dump(2) + "\n";
}

}  // namespace avtk::inject
