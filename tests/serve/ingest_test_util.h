// Shared raw-document material for the serve suites that exercise the
// "ingest" request kind: a clean generated corpus, its first report of a
// given kind, the same corpus with injected faults, and the wire line that
// files a document.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/generator.h"
#include "ingest/processor.h"
#include "inject/corruptor.h"
#include "obs/json.h"

namespace avtk::serve::testing {

// A clean-quality corpus: the delivered documents scan strictly without
// needing the pristine fallback, which is exactly the shape a raw text
// document arriving over the wire has.
inline dataset::generated_corpus& corpus() {
  static dataset::generated_corpus c = [] {
    dataset::generator_config cfg;
    cfg.seed = 424;
    cfg.quality = ocr::scan_quality::clean;
    return dataset::generate_corpus(cfg);
  }();
  return c;
}

// First corpus document of the wanted kind, by strict probe.
inline const ocr::document& first_report(bool accident) {
  const auto& c = corpus();
  const ingest::document_processor probe{ingest::processor_config{}};
  for (std::size_t i = 0; i < c.documents.size(); ++i) {
    const auto scan = probe.scan(c.documents[i], &c.pristine_documents[i], i);
    if (scan.fault) continue;
    if (accident ? scan.is_accident_report : scan.is_disengagement_report) {
      return c.documents[i];
    }
  }
  ADD_FAILURE() << "corpus has no " << (accident ? "accident" : "disengagement") << " report";
  return c.documents.front();
}

// The corpus after a seeded fault injection (seed 17, 5% of documents).
struct injected_corpus {
  std::vector<ocr::document> docs;
  std::vector<ocr::document> pristine;
  inject::injection_report report;
};

inline injected_corpus inject_corpus() {
  injected_corpus out{corpus().documents, corpus().pristine_documents, {}};
  inject::injection_config icfg;
  icfg.seed = 17;
  icfg.fraction = 0.05;
  out.report = inject::inject_faults(out.docs, out.pristine, icfg);
  return out;
}

// The wire request that files `doc` under correlation id `id`.
inline std::string ingest_request_line(const ocr::document& doc, int id) {
  obs::json::object spec;
  spec.emplace_back("text", doc.full_text());
  spec.emplace_back("title", doc.title);
  obs::json::object req;
  req.emplace_back("ingest", obs::json::value(std::move(spec)));
  req.emplace_back("id", id);
  return obs::json::value(std::move(req)).dump();
}

}  // namespace avtk::serve::testing
