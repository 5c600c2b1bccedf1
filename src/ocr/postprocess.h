// avtk/ocr/postprocess.h
//
// Lexicon-based OCR post-correction: repairs glyph confusions inside
// numeric fields ("1O" -> "10"), and snaps near-miss words to a unique
// lexicon entry within edit distance 1. This is the step that makes the
// downstream parsers and the NLP tagger robust to residual scan noise.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace avtk::ocr {

/// The correction vocabulary (lower-cased words), indexed for distance-1
/// lookups by symmetric deletes: every word and each of its one-letter
/// deletions map to the word's id, so the words within distance 1 of a
/// query are among those sharing a key with the query or one of its
/// one-letter deletions. The postings are one vector sorted by (32-bit key
/// hash, word id); an open-addressing table over it maps each key hash to
/// its posting group, so a key costs one probe (a few slots of linear
/// probing, the table at most half full), not a binary search. Lookups
/// lower-case into a stack buffer and never allocate for words of up to
/// 64 letters. Immutable once built, so one instance can be shared by
/// every engine and thread.
class lexicon {
 public:
  /// One index posting: a key (a word or one of its one-letter deletions),
  /// stored by hash only, and the id of the word it came from. A hash
  /// collision only adds a candidate that the distance check rejects.
  struct posting {
    std::uint32_t key_hash = 0;
    std::uint32_t id = 0;

    auto operator<=>(const posting&) const = default;
  };

  explicit lexicon(std::vector<std::string> words);

  bool contains(std::string_view word) const;
  std::size_t size() const { return words_.size(); }

  /// The lower-cased words, sorted and unique.
  const std::vector<std::string>& words() const { return words_; }

  /// Heap and inline bytes held by the words, the postings and the table.
  std::size_t footprint_bytes() const;

  /// The unique lexicon word within edit distance 1 of `word`, or empty
  /// when none or ambiguous. Exact members return themselves (lower-cased);
  /// words shorter than 3 letters only ever match exactly. The view is of
  /// the lexicon's own copy of the word.
  std::string_view best_match(std::string_view word) const;

  /// The postings whose key hash equals key_hash(key): one table probe.
  std::span<const posting> postings(std::string_view key) const;

  /// Every posting, sorted by (key_hash, id).
  std::span<const posting> index() const { return index_; }

  /// The 32-bit hash the index files a key under.
  static std::uint32_t key_hash(std::string_view key);

  /// Default vocabulary: report-schema keywords, month names, manufacturer
  /// names, and the failure-dictionary vocabulary. Built once per process
  /// and shared.
  static std::shared_ptr<const lexicon> builtin();

 private:
  /// A table slot: a key hash and the index in `index_` of its posting
  /// group's first posting; `begin == k_empty` marks a free slot.
  static constexpr std::uint32_t k_empty = 0xFFFFFFFF;
  struct slot {
    std::uint32_t key_hash = 0;
    std::uint32_t begin = k_empty;
  };

  std::vector<std::string> words_;
  std::vector<posting> index_;  ///< sorted by (key_hash, id)
  std::vector<slot> table_;     ///< power-of-two size, linear probing
};

/// Corrects one line: numeric repair plus lexicon snapping per word.
/// Non-word characters (separators, punctuation) are preserved verbatim.
std::string correct_line(std::string_view line, const lexicon& vocab);

/// Fraction of alphabetic words in `line` found in the lexicon — the
/// engine's confidence signal.
double vocabulary_hit_rate(std::string_view line, const lexicon& vocab);

}  // namespace avtk::ocr
