#include "ocr/engine.h"

#include "obs/metrics.h"

namespace avtk::ocr {

std::string recognition_result::text() const {
  std::string out;
  for (const auto& l : lines) {
    out += l.text;
    out += '\n';
  }
  return out;
}

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

recognition_result mock_ocr_engine::recognize(const document& doc) const {
  recognition_result out;
  double conf_sum = 0;
  for (const auto& p : doc.pages) {
    for (const auto& line : p.lines) {
      auto rec = recognize_line(line);
      conf_sum += rec.confidence;
      if (rec.needs_manual_review) ++out.manual_review_count;
      out.lines.push_back(std::move(rec));
    }
  }
  out.mean_confidence = out.lines.empty() ? 1.0 : conf_sum / static_cast<double>(out.lines.size());
  return out;
}

}  // namespace avtk::ocr
