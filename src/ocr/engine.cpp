#include "ocr/engine.h"

#include "obs/metrics.h"

namespace avtk::ocr {

mock_ocr_engine::mock_ocr_engine(std::shared_ptr<const lexicon> vocab, engine_config config)
    : vocab_(std::move(vocab)), config_(config) {}

recognized_line mock_ocr_engine::recognize_line(const std::string& line) const {
  // Hot path: the counters are resolved once, then each call is a single
  // relaxed fetch_add (safe from the pipeline's worker threads).
  static obs::counter& lines_seen = obs::metrics().get_counter("ocr.lines");
  static obs::counter& manual_review = obs::metrics().get_counter("ocr.manual_review_lines");

  recognized_line out;
  out.text = config_.apply_postprocess ? correct_line(line, *vocab_) : line;
  out.confidence = vocabulary_hit_rate(out.text, *vocab_);
  out.needs_manual_review = out.confidence < config_.manual_review_threshold;
  lines_seen.add();
  if (out.needs_manual_review) manual_review.add();
  return out;
}

}  // namespace avtk::ocr
