#include "ocr/postprocess.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <limits>

#include "nlp/dictionary.h"
#include "nlp/tokenizer.h"
#include "util/strings.h"

namespace avtk::ocr {

namespace {

// Glyph repairs valid inside numeric context.
char to_digit(char c) {
  switch (c) {
    case 'O': case 'o': return '0';
    case 'l': case 'I': return '1';
    case 'S': case 's': return '5';
    case 'B': return '8';
    case 'Z': case 'z': return '2';
    case 'g': case 'q': return '9';
    case 'b': return '6';
    default: return c;
  }
}

bool is_word_char(char c) { return avtk::str::is_alpha(c) || c == '\''; }

// A character buffer on the stack for up to 64 characters (every lexicon
// word and nearly every token), on the heap beyond.
class char_buffer {
 public:
  explicit char_buffer(std::size_t size) : size_(size) {
    if (size > stack_.size()) {
      heap_.resize(size);
      data_ = heap_.data();
    }
  }
  char_buffer(const char_buffer&) = delete;
  char_buffer& operator=(const char_buffer&) = delete;

  char* data() { return data_; }
  std::span<char> span() { return {data_, size_}; }
  std::string_view view() const { return {data_, size_}; }

 private:
  std::array<char, 64> stack_{};
  std::string heap_;
  char* data_ = stack_.data();
  std::size_t size_;
};

// Calls `visit` on each distinct one-letter deletion of `word` until it
// returns false; returns false when it did. Deleting any letter of a run
// of equal letters gives the same string, so only the run's first letter
// is deleted. The deletions are built in one buffer: deletion i is
// word[0, i) + word[i + 1, n), one character away from deletion i - 1.
template <typename Visit>
bool for_each_deletion(std::string_view word, Visit visit) {
  if (word.empty()) return true;
  char_buffer buf(word.size() - 1);
  std::ranges::copy(word.substr(1), buf.data());
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (i > 0) {
      buf.data()[i - 1] = word[i - 1];
      if (word[i] == word[i - 1]) continue;
    }
    if (!visit(buf.view())) return false;
  }
  return true;
}

// The builtin vocabulary's words; the lexicon drops the duplicates.
std::vector<std::string> builtin_words() {
  std::vector<std::string> words;
  const auto add = [&](std::string_view w) { words.emplace_back(w); };
  // Report schema keywords.
  add("ads");  // "Initiated By: ADS" — must not be "corrected" to "as"
  add("vin");
  for (const char* w :
       {"date", "time", "vin", "vehicle", "miles", "month", "disengagement", "disengagements",
        "disengage", "disengaged", "accident", "cause", "description", "location", "weather",
        "driver", "reaction", "initiated", "automatic", "manual", "planned", "autonomous",
        "mode", "total", "report", "street", "highway", "freeway", "interstate", "parking",
        "urban", "suburban", "rural", "sunny", "cloudy", "rainy", "overcast", "dry", "wet",
        "clear", "fog", "city", "road", "conditions", "safely", "resumed", "control",
        "takeover", "request", "test", "speed", "mph", "rear", "front", "side", "collision",
        "intersection", "lane", "turn", "stop", "yield", "pedestrian", "cyclist", "passenger"}) {
    add(w);
  }
  // Month names and abbreviations.
  for (const char* w : {"january", "february", "march", "april", "may", "june", "july",
                        "august", "september", "october", "november", "december", "jan", "feb",
                        "mar", "apr", "jun", "jul", "aug", "sep", "sept", "oct", "nov", "dec"}) {
    add(w);
  }
  // Manufacturer names as they appear in reports.
  for (const char* w : {"waymo", "google", "bosch", "delphi", "nissan", "mercedes", "benz",
                        "tesla", "volkswagen", "cruise", "gm", "uber", "ford", "honda", "bmw",
                        "leaf", "prototype"}) {
    add(w);
  }
  // Failure-dictionary vocabulary: every stem plus the raw words of the
  // builtin phrases (stems alone miss inflected forms seen in logs).
  const auto dict = nlp::failure_dictionary::builtin();
  for (const auto tag : dict.tags()) {
    for (const auto& phrase : dict.phrases(tag)) {
      for (const auto& s : phrase.stems) add(s);
    }
  }
  // Function words and report prose: these appear in nearly every line, so
  // they dominate the confidence signal.
  for (const char* w :
       {"a",    "an",   "and",  "as",    "at",    "by",    "centered", "did",  "didn",
        "down", "for",  "from", "her",   "his",   "in",    "into",     "it",   "its",
        "no",   "not",  "of",   "off",   "on",    "or",    "out",      "that", "the",
        "then", "this", "to",   "under", "up",    "was",   "were",     "with", "while",
        "again", "also", "after", "before", "during", "near", "over", "several", "twice",
        "late", "per",  "result", "immediate", "without", "incident", "assumed"}) {
    add(w);
  }
  // Vocabulary of the phrase-bank templates (the free-text cause lines).
  for (const char* w :
       {"mileage",    "triggered",   "expired",     "undetected", "construction", "forced",
        "approaching", "siren",      "degraded",    "visibility", "roadway",      "afternoon",
        "operation",  "debris",      "travel",      "erratic",    "stepped",      "curb",
        "unexpectedly", "jaywalking", "crossed",    "swerved",    "cones",        "maps",
        "adjacent",   "unusual",     "traffic",     "flow",       "platform",     "delayed",
        "output",     "exhaustion",  "primary",     "unit",       "inference",    "fallback",
        "engaged",    "resource",    "state",       "overheating", "enclosure",   "throttling",
        "monitor",    "lead",        "faded",       "pavement",   "shoulder",     "obstacle",
        "merging",    "confidence",  "threshold",   "crosswalk",  "anticipate",   "improper",
        "infeasible", "obstruction", "unwanted",    "uncomfortable", "insufficient", "gap",
        "tunnel",     "section",     "frames",      "corruption", "channel",      "drift",
        "suite",      "invalid",     "redundant",   "disagreed",  "spike",        "modules",
        "nodes",      "internal",    "messages",    "loss",       "exceeded",     "link",
        "unprotected", "logic",      "capability",  "oncoming",   "shared",       "double",
        "parked",     "truck",       "restart",     "automatically", "interface", "map",
        "matching",   "component",   "pipeline",    "keep",       "maneuver",     "ignored",
        "intervened", "drive",       "wire",        "faults",     "complex",      "yellow",
        "yielding",   "cross",       "turn",        "reset",      "driving",      "running",
        "red",        "light",       "cutting",     "reported",   "recorded",     "logged",
        "occurred",   "details",     "provided",    "additional", "information",  "available",
        "requirement", "normal",     "event",       "heavy",      "bus",          "mid",
        "block",      "closure",     "prior",       "ahead",      "high",         "load",
        "caused",     "side",        "plan",        "produced",   "selected",     "path",
        "chose",      "chosen",      "action",      "wrong",      "poor",         "made",
        "deceleration", "signal",    "lost",        "overpass",   "blackout",     "reading",
        "dropped",    "packets",     "handled",     "rate",       "data",         "timeout",
        "scene",      "situation",   "involving",   "beyond",     "outside",      "domain",
        "operational", "corner",     "case",        "unhandled",  "encountered",  "user"}) {
    add(w);
  }
  for (const char* w :
       {"software", "module", "froze", "watchdog", "error", "processor", "overload", "lidar",
        "radar", "gps", "camera", "sensor", "network", "latency", "bandwidth", "planner",
        "planning", "motion", "trajectory", "perception", "recognition", "detection",
        "detect", "behavior", "prediction", "predict", "recklessly", "behaving", "user",
        "construction", "zone", "emergency", "localize", "localization", "calibration",
        "decision", "controller", "unresponsive", "actuation", "command", "hardware",
        "memory", "crash", "hang", "bug", "system", "failure", "fault", "malfunction",
        "unforeseen", "situation", "designed", "limitation", "scenario", "glare", "debris",
        "incorrect", "untimely", "wrong", "vehicles"}) {
    add(w);
  }
  return words;
}

}  // namespace

std::uint32_t lexicon::key_hash(std::string_view key) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(key));
}

lexicon::lexicon(std::vector<std::string> words) {
  for (auto& w : words) w = str::to_lower(w);
  std::erase(words, std::string());
  std::ranges::sort(words);
  words.erase(std::unique(words.begin(), words.end()), words.end());
  words_ = std::move(words);

  for (std::uint32_t id = 0; id < words_.size(); ++id) {
    index_.push_back({key_hash(words_[id]), id});
    for_each_deletion(words_[id], [&](std::string_view key) {
      index_.push_back({key_hash(key), id});
      return true;
    });
  }
  std::ranges::sort(index_);
  index_.erase(std::unique(index_.begin(), index_.end()), index_.end());
  index_.shrink_to_fit();

  // One slot per posting group, at most half the slots full, so a probe
  // for an absent hash ends at an empty slot after a few steps.
  std::size_t groups = 0;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (i == 0 || index_[i].key_hash != index_[i - 1].key_hash) ++groups;
  }
  table_.assign(std::bit_ceil(std::max<std::size_t>(2 * groups, 1)), slot{});
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (i > 0 && index_[i].key_hash == index_[i - 1].key_hash) continue;
    std::size_t at = index_[i].key_hash & mask;
    while (table_[at].begin != k_empty) at = (at + 1) & mask;
    table_[at] = {index_[i].key_hash, static_cast<std::uint32_t>(i)};
  }
}

std::span<const lexicon::posting> lexicon::postings(std::string_view key) const {
  const std::uint32_t hash = key_hash(key);
  const std::size_t mask = table_.size() - 1;
  for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
    const slot s = table_[at];
    if (s.begin == k_empty) return {};
    if (s.key_hash != hash) continue;
    std::size_t end = s.begin + 1;
    while (end < index_.size() && index_[end].key_hash == hash) ++end;
    return std::span(index_).subspan(s.begin, end - s.begin);
  }
}

bool lexicon::contains(std::string_view word) const {
  char_buffer buf(word.size());
  const auto lower = *str::lower_into(word, buf.span());
  return std::ranges::any_of(postings(lower),
                             [&](const posting& p) { return words_[p.id] == lower; });
}

std::size_t lexicon::footprint_bytes() const {
  std::size_t bytes = sizeof(*this) + words_.capacity() * sizeof(std::string) +
                      index_.capacity() * sizeof(posting) + table_.capacity() * sizeof(slot);
  const std::size_t inline_capacity = std::string().capacity();
  for (const auto& w : words_) {
    if (w.capacity() > inline_capacity) bytes += w.capacity() + 1;
  }
  return bytes;
}

std::string_view lexicon::best_match(std::string_view word) const {
  char_buffer buf(word.size());
  const auto lower = *str::lower_into(word, buf.span());
  const auto own = postings(lower);
  for (const auto& p : own) {
    if (words_[p.id] == lower) return words_[p.id];
  }
  if (lower.size() < 3) return {};  // too short to snap safely

  // Every word within distance 1 shares a key with the query: a
  // substitution leaves the same deletion of both, an insertion or a
  // deletion leaves one word a deletion of the other. Shared deletions also
  // admit distance-2 pairs (a transposition: "wyamo" and "waymo" both lose
  // a letter to "wamo"), so each candidate is confirmed. Snapping needs
  // exactly one distinct word within distance 1, whatever the visit order.
  constexpr auto k_none = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t found = k_none;
  const auto admit = [&](std::span<const posting> candidates) {
    for (const auto& p : candidates) {
      if (p.id == found || !str::within_edit_distance(lower, words_[p.id], 1)) continue;
      if (found != k_none) return false;  // ambiguous: refuse to correct
      found = p.id;
    }
    return true;
  };
  if (!admit(own) ||
      !for_each_deletion(lower, [&](std::string_view key) { return admit(postings(key)); })) {
    return {};
  }
  return found == k_none ? std::string_view() : std::string_view(words_[found]);
}

std::shared_ptr<const lexicon> lexicon::builtin() {
  static const auto shared = std::make_shared<const lexicon>(builtin_words());
  return shared;
}

std::string correct_line(std::string_view line, const lexicon& vocab) {
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (!is_word_char(c) && !str::is_digit(c)) {
      out += c;
      ++i;
      continue;
    }
    // A token is a maximal run of letters/digits/apostrophes. Glyph
    // confusions put digits inside words ("watchd0g") and letters inside
    // numbers ("2O16"), so the split must not happen at the letter/digit
    // boundary.
    const std::size_t start = i;
    std::size_t letters = 0;
    std::size_t digits = 0;
    while (i < line.size() && (is_word_char(line[i]) || str::is_digit(line[i]))) {
      if (str::is_digit(line[i])) {
        ++digits;
      } else if (str::is_alpha(line[i])) {
        ++letters;
      }
      ++i;
    }
    const auto token = line.substr(start, i - start);
    // Only tokens that contain real digits are numeric candidates: an
    // all-letter token like "so" must not be misread as "50".
    if (digits > 0 && digits >= letters) {
      // Mostly numeric: repair digit-confusable letters in place, leaving
      // non-confusable characters (true letters, separators) untouched.
      for (const char t : token) out += str::is_digit(t) ? t : to_digit(t);
      continue;
    }
    // best_match returns a member as itself, so a result equal to the
    // token (ignoring case) means "already a word": keep its spelling.
    const auto fixed = vocab.best_match(token);
    if (!fixed.empty() && !str::iequals(token, fixed)) {
      // Preserve the original word's leading capitalization.
      const std::size_t first = out.size();
      out += fixed;
      if (token[0] >= 'A' && token[0] <= 'Z') out[first] = str::upper(out[first]);
    } else {
      out += token;
    }
  }
  return out;
}

double vocabulary_hit_rate(std::string_view line, const lexicon& vocab) {
  std::size_t words = 0;
  std::size_t hits = 0;
  std::size_t pos = 0;
  for (auto t = nlp::next_token_view(line, pos); !t.empty(); t = nlp::next_token_view(line, pos)) {
    if (nlp::is_number_token(t)) continue;
    ++words;
    if (vocab.contains(t)) ++hits;
  }
  if (words == 0) return 1.0;  // an all-numeric line is fine as-is
  return static_cast<double>(hits) / static_cast<double>(words);
}

}  // namespace avtk::ocr
