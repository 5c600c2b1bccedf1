#include "nlp/classifier.h"

#include <algorithm>
#include <thread>

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

classification keyword_voting_classifier::classify_with(std::string_view description,
                                                        scratch& s) const {
  static obs::counter& classified = obs::metrics().get_counter("nlp.classifications");
  static obs::counter& unknown = obs::metrics().get_counter("nlp.unknown_tags");
  classified.add();

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
  if (best_score <= 0) {
    unknown.add();
    return {};  // Unknown-T / Unknown-C defaults
  }
  double runner_up = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].tag != best) runner_up = std::max(runner_up, s.block_totals[b]);
  }
  classification out;
  out.tag = best;
  out.category = category_of(best);
  out.score = best_score;
  out.runner_up = runner_up;
  out.confidence = (best_score - runner_up) / best_score;
  // The hit counts from the single matching pass double as the
  // matched-phrase record: same phrases, same dictionary order.
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].tag != best) continue;
    for (std::uint32_t i = 0; i < blocks[b].count; ++i) {
      const auto pid = blocks[b].first + i;
      if (s.counts[pid] > 0) out.matched_phrases.push_back(phrase_texts_[pid]);
    }
    break;
  }
  return out;
}

classification keyword_voting_classifier::classify(std::string_view description) const {
  thread_local scratch s;
  return classify_with(description, s);
}

std::vector<classification> keyword_voting_classifier::classify_all(
    std::span<const std::string_view> descriptions, unsigned parallelism) const {
  std::vector<classification> out(descriptions.size());
  unsigned workers = std::max(1u, parallelism);
  if (descriptions.size() < workers) {
    workers = descriptions.empty() ? 1u : static_cast<unsigned>(descriptions.size());
  }
  if (workers == 1) {
    scratch s;
    for (std::size_t i = 0; i < descriptions.size(); ++i) {
      out[i] = classify_with(descriptions[i], s);
    }
    return out;
  }
  // Fixed-stride split into disjoint result slots; the automaton, interner
  // and dictionary are read-only, so workers share them without locking.
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      scratch s;
      for (std::size_t i = t; i < descriptions.size(); i += workers) {
        out[i] = classify_with(descriptions[i], s);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return out;
}

}  // namespace avtk::nlp
