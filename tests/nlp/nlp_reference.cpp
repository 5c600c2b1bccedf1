#include "nlp_reference.h"

#include <algorithm>

#include "nlp/stemmer.h"
#include "nlp/stopwords.h"
#include "nlp/tokenizer.h"
#include "util/strings.h"

namespace avtk::nlp::testing {

namespace {

std::vector<std::string> description_stems(std::string_view description) {
  return stem_all(remove_stopwords(tokenize_words(description)));
}

tag_scores score_stems(const failure_dictionary& dictionary,
                       const std::vector<std::string>& stems) {
  tag_scores scores;
  for (const auto tag : dictionary.tags()) {
    double total = 0;
    for (const auto& phrase : dictionary.phrases(tag)) {
      total += static_cast<double>(count_phrase_matches(stems, phrase.stems)) * phrase.weight;
    }
    if (total > 0) scores[tag] = total;
  }
  return scores;
}

}  // namespace

std::size_t count_phrase_matches(const std::vector<std::string>& stems,
                                 const std::vector<std::string>& phrase) {
  if (phrase.empty() || phrase.size() > stems.size()) return 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i + phrase.size() <= stems.size(); ++i) {
    if (std::equal(phrase.begin(), phrase.end(), stems.begin() + static_cast<std::ptrdiff_t>(i))) {
      ++count;
    }
  }
  return count;
}

tag_scores reference_scores(const failure_dictionary& dictionary, std::string_view description) {
  return score_stems(dictionary, description_stems(description));
}

classification reference_classify(const failure_dictionary& dictionary,
                                  std::string_view description) {
  const auto stems = description_stems(description);
  const auto scores = score_stems(dictionary, stems);
  classification out;
  // The map iterates in enum order and strict > keeps the first maximum.
  for (const auto& [tag, score] : scores) {
    if (score > out.score) {
      out.tag = tag;
      out.score = score;
    }
  }
  if (out.score <= 0) return out;
  for (const auto& [tag, score] : scores) {
    if (tag != out.tag) out.runner_up = std::max(out.runner_up, score);
  }
  out.category = category_of(out.tag);
  out.confidence = (out.score - out.runner_up) / out.score;
  for (const auto& phrase : dictionary.phrases(out.tag)) {
    if (count_phrase_matches(stems, phrase.stems) > 0) {
      out.matched_phrases.push_back(str::join(phrase.stems, " "));
    }
  }
  return out;
}

}  // namespace avtk::nlp::testing
