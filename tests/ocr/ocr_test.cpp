#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_map>

#include "ocr/document.h"
#include "ocr/engine.h"
#include "ocr/noise.h"
#include "ocr/postprocess.h"
#include "ocr_reference.h"
#include "util/rng.h"
#include "util/strings.h"

namespace avtk::ocr {
namespace {

// ---------------------------------------------------------------- document

TEST(Document, FromTextRoundTrip) {
  const std::string text = "line one\nline two\nline three\n";
  const auto doc = document::from_text(text);
  EXPECT_EQ(doc.line_count(), 3u);
  EXPECT_EQ(doc.full_text(), text);
}

TEST(Document, EmptyText) {
  const auto doc = document::from_text("");
  EXPECT_EQ(doc.line_count(), 0u);
}

TEST(Document, MultiPageFullText) {
  document doc;
  doc.pages.push_back(page{{"a"}});
  doc.pages.push_back(page{{"b"}});
  EXPECT_EQ(doc.line_count(), 2u);
  EXPECT_EQ(doc.full_text(), "a\n\nb\n");
}

// ------------------------------------------------------------------- noise

TEST(Noise, CleanProfileIsIdentity) {
  rng g(91);
  const auto profile = noise_profile::for_quality(scan_quality::clean);
  const std::string line = "Date: 1/12/15 | Vehicle: DEL-01 | Cause: lidar dropout";
  EXPECT_EQ(corrupt_line(line, profile, g), line);
}

TEST(Noise, QualityOrdersErrorRates) {
  const auto good = noise_profile::for_quality(scan_quality::good);
  const auto poor = noise_profile::for_quality(scan_quality::poor);
  EXPECT_LT(good.confusion, poor.confusion);
  EXPECT_LT(good.drop, poor.drop);
}

TEST(Noise, PoorProfileActuallyCorrupts) {
  rng g(92);
  const auto profile = noise_profile::for_quality(scan_quality::poor);
  const std::string line(200, 'l');  // 'l' confuses to '1'/'I'
  int changed = 0;
  for (int i = 0; i < 20; ++i) {
    if (corrupt_line(line, profile, g) != line) ++changed;
  }
  EXPECT_GT(changed, 15);
}

TEST(Noise, ConfusionsAreFromTable) {
  EXPECT_FALSE(confusions_for('l').empty());
  EXPECT_FALSE(confusions_for('0').empty());
  EXPECT_TRUE(confusions_for(' ').empty());
  EXPECT_TRUE(confusions_for('#').empty());
}

TEST(Noise, DeterministicGivenSeed) {
  const auto profile = noise_profile::for_quality(scan_quality::poor);
  const std::string line = "watchdog error at 18:24:03 on 11/12/14";
  rng g1(7);
  rng g2(7);
  EXPECT_EQ(corrupt_line(line, profile, g1), corrupt_line(line, profile, g2));
}

TEST(Noise, CorruptDocumentPreservesLineStructure) {
  rng g(93);
  auto doc = document::from_text("alpha\nbravo\ncharlie\n");
  doc.quality = scan_quality::poor;
  corrupt_document(doc, g);
  EXPECT_EQ(doc.line_count(), 3u);
}

TEST(CharacterErrorRate, KnownValues) {
  EXPECT_DOUBLE_EQ(testing::character_error_rate("abcd", "abcd"), 0.0);
  EXPECT_DOUBLE_EQ(testing::character_error_rate("abcd", "abce"), 0.25);
  EXPECT_DOUBLE_EQ(testing::character_error_rate("", ""), 0.0);
  EXPECT_DOUBLE_EQ(testing::character_error_rate("", "x"), 1.0);
}

// ------------------------------------------------------------- postprocess

TEST(Lexicon, ContainsIsCaseInsensitive) {
  lexicon v({"Watchdog", "lidar"});
  EXPECT_TRUE(v.contains("watchdog"));
  EXPECT_TRUE(v.contains("WATCHDOG"));
  EXPECT_FALSE(v.contains("radar"));
}

TEST(Lexicon, BestMatchSnapsWithinDistanceOne) {
  lexicon v({"watchdog", "software"});
  EXPECT_EQ(v.best_match("watchd0g"), "watchdog");
  EXPECT_EQ(v.best_match("softwarre"), "software");
  EXPECT_EQ(v.best_match("watchdog"), "watchdog");  // exact
  EXPECT_EQ(v.best_match("xyz"), "");
}

TEST(Lexicon, BestMatchReturnsMembersLowerCased) {
  lexicon v({"watchdog"});
  EXPECT_EQ(v.best_match("WatchDog"), "watchdog");
}

TEST(Lexicon, AmbiguousMatchRefused) {
  lexicon v({"cart", "card"});
  EXPECT_EQ(v.best_match("carx"), "");  // distance 1 to both
  EXPECT_EQ(testing::reference_best_match(v.words(), "carx"), "");
}

TEST(Lexicon, TranspositionIsNotSnapped) {
  // "wyamo" and "waymo" share the deletion "wamo", but a transposition is
  // distance 2: the shared key alone must not snap.
  lexicon v({"waymo"});
  EXPECT_EQ(v.best_match("wyamo"), "");
  EXPECT_EQ(testing::reference_best_match(v.words(), "wyamo"), "");
}

TEST(Lexicon, WordAndItsDeletionBothInRange) {
  // "cars" is one substitution from "cart" and one insertion from "car":
  // two words within distance 1, so nothing snaps. "carts" is distance 1
  // from "cart" only.
  lexicon v({"cart", "car"});
  EXPECT_EQ(v.best_match("cars"), "");
  EXPECT_EQ(v.best_match("carts"), "cart");
  for (const char* q : {"cars", "carts", "ca", "cat", "scar"}) {
    EXPECT_EQ(v.best_match(q), testing::reference_best_match(v.words(), q)) << q;
  }
}

TEST(Lexicon, BuiltinIsSharedPerProcess) {
  EXPECT_EQ(lexicon::builtin().get(), lexicon::builtin().get());
}

// Every builtin word, and every deletion, adjacent transposition,
// substitution and insertion of one of its letters: the delete index must
// answer exactly as the linear scan over the same words.
TEST(Lexicon, IndexedBestMatchEqualsReferenceOnOneEditDamage) {
  const auto v = lexicon::builtin();
  const auto& words = v->words();
  std::size_t snapped = 0;
  std::size_t refused = 0;
  const auto check = [&](const std::string& query) {
    const auto expected = testing::reference_best_match(words, query);
    EXPECT_EQ(v->best_match(query), expected) << query;
    ++(expected.empty() ? refused : snapped);
  };
  for (const auto& w : words) {
    check(w);
    for (std::size_t i = 0; i < w.size(); ++i) {
      check(w.substr(0, i) + w.substr(i + 1));
      if (i + 1 < w.size()) {
        std::string swapped = w;
        std::swap(swapped[i], swapped[i + 1]);
        check(swapped);
      }
      std::string substituted = w;
      substituted[i] = substituted[i] == 'e' ? 'c' : 'e';
      check(substituted);
      check(w.substr(0, i) + "'" + w.substr(i));
    }
  }
  // The sweep must exercise both outcomes of the uniqueness rule.
  EXPECT_GT(snapped, words.size());
  EXPECT_GT(refused, 100u);
}

// Whole lines of builtin vocabulary through the OCR noise model at every
// scan quality (confusions, drops, duplicates, split and fused words).
TEST(Lexicon, IndexedBestMatchEqualsReferenceOnCorruptedLines) {
  const auto v = lexicon::builtin();
  const auto line = str::join(v->words(), " ");
  rng gen(95);
  for (const auto q :
       {scan_quality::clean, scan_quality::good, scan_quality::fair, scan_quality::poor}) {
    const auto profile = noise_profile::for_quality(q);
    for (int trial = 0; trial < 3; ++trial) {
      const auto noisy = corrupt_line(line, profile, gen);
      for (const auto token : str::split_whitespace(noisy)) {
        EXPECT_EQ(v->best_match(token), testing::reference_best_match(v->words(), token))
            << token;
      }
    }
  }
}

// The token walk behind vocabulary_hit_rate against the original
// tokenize-then-lookup path: identical rates, bit for bit, over mixed-case
// vocabulary with numbers and a long token, at every scan quality.
TEST(Lexicon, VocabularyHitRateEqualsTokenizePathOnCorruptedLines) {
  const auto v = lexicon::builtin();
  std::vector<std::string> parts;
  for (std::size_t i = 0; i < v->words().size(); ++i) {
    parts.push_back(v->words()[i]);
    if (i % 3 == 0) std::ranges::transform(parts.back(), parts.back().begin(), str::upper);
    if (i % 11 == 0) parts.push_back(std::to_string(i) + ".5");
  }
  parts.push_back(std::string(80, 'W'));
  const auto line = str::join(parts, " ");
  EXPECT_EQ(vocabulary_hit_rate(line, *v), testing::reference_vocabulary_hit_rate(v->words(), line));
  rng gen(96);
  for (const auto q :
       {scan_quality::clean, scan_quality::good, scan_quality::fair, scan_quality::poor}) {
    const auto profile = noise_profile::for_quality(q);
    for (int trial = 0; trial < 3; ++trial) {
      const auto noisy = corrupt_line(line, profile, gen);
      EXPECT_EQ(vocabulary_hit_rate(noisy, *v),
                testing::reference_vocabulary_hit_rate(v->words(), noisy));
      // Word by word too: single-token, all-number and punctuation-only
      // lines.
      for (const auto& word : str::split_whitespace(noisy)) {
        EXPECT_EQ(vocabulary_hit_rate(word, *v),
                  testing::reference_vocabulary_hit_rate(v->words(), word))
            << word;
      }
    }
  }
}

// The postings group of `key` as the sorted index's binary search finds it.
std::span<const lexicon::posting> equal_range_group(const lexicon& v, std::string_view key) {
  const auto range =
      std::ranges::equal_range(v.index(), lexicon::key_hash(key), {}, &lexicon::posting::key_hash);
  return {range.begin(), range.end()};
}

void expect_probe_is_equal_range(const lexicon& v, std::string_view key) {
  const auto probed = v.postings(key);
  const auto expected = equal_range_group(v, key);
  EXPECT_EQ(probed.size(), expected.size()) << key;
  if (!expected.empty()) {
    EXPECT_EQ(probed.data(), expected.data()) << key;
  }
}

// The hash-table probe against a binary search of the sorted postings:
// every key of the builtin index (each word and each one-letter deletion)
// and keys that are not in it.
TEST(Lexicon, ProbeReturnsEqualRangeGroupForEveryKey) {
  const auto v = lexicon::builtin();
  std::size_t keys = 0;
  for (const auto& w : v->words()) {
    expect_probe_is_equal_range(*v, w);
    for (std::size_t i = 0; i < w.size(); ++i) {
      expect_probe_is_equal_range(*v, w.substr(0, i) + w.substr(i + 1));
      ++keys;
    }
  }
  EXPECT_GT(keys, v->index().size() / 2);
  rng gen(97);
  for (int i = 0; i < 5000; ++i) {
    std::string absent(static_cast<std::size_t>(gen.uniform_int(1, 12)), 'a');
    for (auto& c : absent) c = static_cast<char>('a' + gen.uniform_int(0, 25));
    expect_probe_is_equal_range(*v, absent);
  }
}

// Two distinct words with the same 32-bit key hash share one posting
// group: the probe returns it whole for both keys, and the distance check
// keeps the answers exact.
TEST(Lexicon, ProbeSurvivesForced32BitHashCollision) {
  std::unordered_map<std::uint32_t, std::string> seen;
  std::string a;
  std::string b;
  rng gen(98);
  while (a.empty()) {
    std::string word(8, 'a');
    for (auto& c : word) c = static_cast<char>('a' + gen.uniform_int(0, 25));
    const auto [it, fresh] = seen.emplace(lexicon::key_hash(word), word);
    if (!fresh && it->second != word) {
      a = it->second;
      b = word;
    }
  }
  ASSERT_EQ(lexicon::key_hash(a), lexicon::key_hash(b));
  const lexicon v({a, b, "waymo", "watchdog"});
  expect_probe_is_equal_range(v, a);
  expect_probe_is_equal_range(v, b);
  const auto group = v.postings(a);
  EXPECT_EQ(group.data(), v.postings(b).data());
  ASSERT_EQ(group.size(), 2u);
  EXPECT_NE(group[0].id, group[1].id);
  EXPECT_TRUE(v.contains(a));
  EXPECT_TRUE(v.contains(b));
  EXPECT_EQ(v.best_match(a), a);
  EXPECT_EQ(v.best_match(b), b);
  for (const auto& w : {a, b}) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      const auto deleted = w.substr(0, i) + w.substr(i + 1);
      EXPECT_EQ(v.best_match(deleted), testing::reference_best_match(v.words(), deleted));
      std::string substituted = w;
      substituted[i] = substituted[i] == 'q' ? 'x' : 'q';
      EXPECT_EQ(v.best_match(substituted), testing::reference_best_match(v.words(), substituted));
    }
  }
}

TEST(Lexicon, ShortWordsNotSnapped) {
  lexicon v({"to", "of"});
  EXPECT_EQ(v.best_match("tx"), "");
}

TEST(Lexicon, BuiltinKnowsDomainVocabulary) {
  const auto v = lexicon::builtin();
  for (const char* w : {"watchdog", "lidar", "disengagement", "waymo", "mileage",
                        "pedestrian", "january"}) {
    EXPECT_TRUE(v->contains(w)) << w;
  }
}

TEST(CorrectLine, FixesWordsAndNumbers) {
  const auto v = lexicon::builtin();
  EXPECT_EQ(correct_line("watchd0g error", *v), "watchdog error");
  EXPECT_EQ(correct_line("DMV Release: 2O16", *v), "DMV Release: 2016");
}

TEST(CorrectLine, PreservesCapitalization) {
  lexicon v({"watchdog"});
  EXPECT_EQ(correct_line("Watchd0g", v), "Watchdog");
  EXPECT_EQ(correct_line("WATCHDOG WatchDog", v), "WATCHDOG WatchDog");  // members verbatim
}

TEST(CorrectLine, LeavesUnknownWordsAlone) {
  lexicon v({"known"});
  EXPECT_EQ(correct_line("zzqqy stays", v), "zzqqy stays");
}

TEST(VocabularyHitRate, FractionOfKnownWords) {
  lexicon v({"alpha", "beta"});
  EXPECT_DOUBLE_EQ(vocabulary_hit_rate("alpha beta", v), 1.0);
  EXPECT_DOUBLE_EQ(vocabulary_hit_rate("alpha gamma", v), 0.5);
  EXPECT_DOUBLE_EQ(vocabulary_hit_rate("12 34", v), 1.0);  // numbers exempt
}

// ------------------------------------------------------------------ engine

TEST(Engine, HighConfidenceOnCleanDomainText) {
  const mock_ocr_engine engine(lexicon::builtin());
  const auto rec = engine.recognize_line("watchdog error triggered a takeover request");
  EXPECT_GT(rec.confidence, 0.8);
  EXPECT_FALSE(rec.needs_manual_review);
}

TEST(Engine, LowConfidenceFlagsManualReview) {
  const mock_ocr_engine engine(lexicon::builtin());
  const auto rec = engine.recognize_line("zxq wvut bnmp qrst hjkl");
  EXPECT_LT(rec.confidence, 0.6);
  EXPECT_TRUE(rec.needs_manual_review);
}

TEST(Engine, RecoveryReducesCharacterErrorRate) {
  rng g(94);
  const mock_ocr_engine engine(lexicon::builtin());
  const std::string original =
      "Sensor failed to localize in time. Driver safely disengaged and resumed manual control.";
  const auto profile = noise_profile::for_quality(scan_quality::fair);
  double cer_corrupted = 0;
  double cer_recovered = 0;
  const int trials = 50;
  for (int i = 0; i < trials; ++i) {
    const auto corrupted = corrupt_line(original, profile, g);
    const auto recovered = engine.recognize_line(corrupted).text;
    cer_corrupted += testing::character_error_rate(original, corrupted);
    cer_recovered += testing::character_error_rate(original, recovered);
  }
  EXPECT_LE(cer_recovered, cer_corrupted);
}

TEST(Engine, PostprocessCanBeDisabled) {
  engine_config cfg;
  cfg.apply_postprocess = false;
  const mock_ocr_engine engine(lexicon::builtin(), cfg);
  EXPECT_EQ(engine.recognize_line("watchd0g").text, "watchd0g");
}

}  // namespace
}  // namespace avtk::ocr
