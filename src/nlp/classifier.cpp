#include "nlp/classifier.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/strings.h"

namespace avtk::nlp {

keyword_voting_classifier::keyword_voting_classifier(failure_dictionary dictionary)
    : dictionary_(std::move(dictionary)), automaton_(dictionary_, interner_) {
  phrase_texts_.reserve(automaton_.phrase_count());
  for (const auto& block : automaton_.tag_blocks()) {
    for (const auto& phrase : dictionary_.phrases(block.tag)) {
      phrase_texts_.push_back(str::join(phrase.stems, " "));
    }
  }
}

void keyword_voting_classifier::score_interned(std::string_view description, scratch& s) const {
  interned_stem_ids(description, interner_, s.stem_ids, s.tokens);
  s.counts.assign(automaton_.phrase_count(), 0);
  automaton_.count_matches(s.stem_ids, s.counts);

  // Accumulate per tag in (tag, phrase index) order — the reference
  // scorer's float addition order, so totals are bit-identical to it.
  const auto& phrases = automaton_.phrases();
  const auto& blocks = automaton_.tag_blocks();
  s.block_totals.assign(blocks.size(), 0.0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    double total = 0;
    for (std::uint32_t i = 0; i < blocks[b].count; ++i) {
      const auto pid = blocks[b].first + i;
      total += static_cast<double>(s.counts[pid]) * phrases[pid].weight;
    }
    s.block_totals[b] = total;
  }
}

verdict keyword_voting_classifier::label_with(std::string_view description, scratch& s) const {
  score_interned(description, s);
  // Winner = max score; ties go to the first tag in enum order (tag_blocks
  // iterate the ordered dictionary map and strict > keeps the first
  // maximum). Non-positive totals can never win or place, so a description
  // matching no phrase is Unknown-T / Unknown-C.
  const auto& blocks = automaton_.tag_blocks();
  fault_tag best = fault_tag::unknown;
  double best_score = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (s.block_totals[b] > best_score) {
      best = blocks[b].tag;
      best_score = s.block_totals[b];
    }
  }
  if (best_score <= 0) return {};  // Unknown-T / Unknown-C defaults
  double runner_up = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].tag != best) runner_up = std::max(runner_up, s.block_totals[b]);
  }
  return {best, category_of(best), best_score, runner_up, (best_score - runner_up) / best_score};
}

classification keyword_voting_classifier::classify_with(std::string_view description,
                                                        scratch& s) const {
  classification out{label_with(description, s), {}};
  if (out.tag == fault_tag::unknown) return out;
  // The hit counts from the single matching pass double as the
  // matched-phrase record: same phrases, same dictionary order.
  for (const auto& block : automaton_.tag_blocks()) {
    if (block.tag != out.tag) continue;
    for (std::uint32_t i = 0; i < block.count; ++i) {
      const auto pid = block.first + i;
      if (s.counts[pid] > 0) out.matched_phrases.push_back(phrase_texts_[pid]);
    }
    break;
  }
  return out;
}

classification keyword_voting_classifier::classify(std::string_view description) const {
  thread_local scratch s;
  auto out = classify_with(description, s);
  count_labels(1, out.tag == fault_tag::unknown ? 1 : 0);
  return out;
}

std::vector<classification> keyword_voting_classifier::classify_all(
    std::span<const std::string_view> descriptions) const {
  std::vector<classification> out;
  out.reserve(descriptions.size());
  scratch s;
  std::size_t unknown = 0;
  for (const auto description : descriptions) {
    out.push_back(classify_with(description, s));
    if (out.back().tag == fault_tag::unknown) ++unknown;
  }
  count_labels(descriptions.size(), unknown);
  return out;
}

verdict keyword_voting_classifier::label(std::string_view description) const {
  thread_local scratch s;
  return label_with(description, s);
}

void keyword_voting_classifier::count_labels(std::size_t labeled, std::size_t unknown) {
  static obs::counter& classified = obs::metrics().get_counter("nlp.classifications");
  static obs::counter& unknown_tags = obs::metrics().get_counter("nlp.unknown_tags");
  classified.add(labeled);
  unknown_tags.add(unknown);
}

}  // namespace avtk::nlp
