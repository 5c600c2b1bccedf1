#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/errors.h"

namespace avtk::core {

namespace {

// Maps the batch run's configuration onto the shared per-document
// processor. Scans are strict under skip/quarantine (document-level damage
// becomes a captured fault) and lenient under fail_fast, preserving the
// historical tolerate-everything behavior of that policy bit-for-bit. The
// scan workers label each document with the processor's classifier, built
// from the run's dictionary.
ingest::processor_config make_scan_config(const pipeline_config& config) {
  ingest::processor_config pcfg;
  pcfg.run_ocr = config.run_ocr;
  pcfg.strict = config.on_error != error_policy::fail_fast;
  pcfg.ocr_give_up_confidence = config.ocr_give_up_confidence;
  pcfg.retry_degraded_ocr = config.retry_degraded_ocr;
  pcfg.normalizer = config.normalizer;
  pcfg.dictionary = config.dictionary;
  pcfg.trace = config.trace;
  return pcfg;
}

}  // namespace

std::vector<std::size_t> scan_order(const std::vector<ocr::document>& documents) {
  std::vector<std::size_t> bytes(documents.size(), 0);
  for (std::size_t i = 0; i < documents.size(); ++i) {
    for (const auto& page : documents[i].pages) {
      for (const auto& line : page.lines) bytes[i] += line.size();
    }
  }
  std::vector<std::size_t> order(documents.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return bytes[a] != bytes[b] ? bytes[a] > bytes[b] : a < b;
  });
  return order;
}

std::size_t label_disengagements(dataset::failure_database& db,
                                 const nlp::keyword_voting_classifier& classifier) {
  // One batch call so the classifier's scratch buffers are set up once for
  // the whole corpus.
  std::vector<std::string_view> descriptions;
  descriptions.reserve(db.disengagements().size());
  for (const auto& d : db.disengagements()) descriptions.push_back(d.description);
  const auto verdicts = classifier.classify_all(descriptions);

  std::size_t unknown = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    db.relabel_disengagement(i, verdicts[i].tag, verdicts[i].category);
    if (verdicts[i].tag == nlp::fault_tag::unknown) ++unknown;
  }
  return unknown;
}

pipeline_result run_pipeline(const std::vector<ocr::document>& documents,
                             const std::vector<ocr::document>& pristine,
                             const pipeline_config& config) {
  if (!pristine.empty() && pristine.size() != documents.size()) {
    throw logic_error("pristine fallback must parallel documents one-to-one");
  }

  const obs::stopwatch total_watch;
  obs::scoped_span pipeline_span(config.trace, "pipeline");

  pipeline_result result;
  auto& stats = result.stats;
  stats.documents_in = documents.size();

  const bool strict = config.on_error != error_policy::fail_fast;
  const ingest::document_processor processor(make_scan_config(config));

  // Stage III's matcher (dictionary interning + automaton compile) is
  // built once, up front, and shared read-only by every scan worker.
  obs::scoped_span classify_span(config.trace, "classify", pipeline_span.id());
  obs::scoped_span build_span(config.trace, "classify.build", classify_span.id());
  const obs::stopwatch build_watch;
  processor.classifier();
  const double classify_build_seconds = build_watch.elapsed_seconds();
  build_span.close();
  classify_span.close();

  // Stage II and the record-local rest of the chain through the shared
  // document processor, one task per document: OCR + parse, then the
  // document's normalization and Stage-III labels in the same worker.
  // Every per-document failure is captured into its slot; what happens to
  // it afterwards is the policy's call, so the scan itself is identical
  // for all policies (and for any thread count).
  ingest::scan_timing worker_time;
  obs::scoped_span scan_span(config.trace, "scan", pipeline_span.id());
  std::vector<ingest::document_scan> per_document(documents.size());
  // Under fail_fast the lowest faulting index is the run's outcome, so
  // workers stop picking up documents beyond a known fault (documents
  // below it must still be scanned: one of them could fail at a lower
  // index, and that one wins).
  std::atomic<std::size_t> first_fault{documents.size()};
  const auto worker = [&](std::size_t i) {
    const ocr::document* fallback = pristine.empty() ? nullptr : &pristine[i];
    auto& doc = per_document[i];
    doc = processor.scan(documents[i], fallback, i, &worker_time, scan_span.id());
    if (!doc.fault) {
      processor.normalize_and_label(doc, &worker_time, scan_span.id());
      return;
    }
    // Atomic running minimum of the faulting indices.
    std::size_t seen = first_fault.load(std::memory_order_relaxed);
    while (i < seen && !first_fault.compare_exchange_weak(seen, i, std::memory_order_relaxed)) {
    }
  };

  const unsigned parallelism = std::max(1u, config.parallelism);
  if (parallelism == 1 || documents.size() <= 1) {
    for (std::size_t i = 0; i < documents.size(); ++i) {
      worker(i);
      if (!strict && per_document[i].fault) break;  // fail_fast: first fault decides
    }
  } else {
    // Longest first from one shared cursor: a worker that finishes takes
    // the next-longest document left, so no worker is left holding two
    // large filings while the others idle. The cursor hands out every
    // index once, so each worker writes only its own documents' slots
    // (CP.2: no data race by construction).
    const auto order = scan_order(documents);
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> threads;
    const unsigned n = std::min<unsigned>(parallelism,
                                          static_cast<unsigned>(documents.size()));
    threads.reserve(n);
    for (unsigned t = 0; t < n; ++t) {
      threads.emplace_back([&] {
        while (true) {
          const std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
          if (k >= order.size()) break;
          const std::size_t i = order[k];
          if (!strict && i > first_fault.load(std::memory_order_relaxed)) continue;
          worker(i);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  scan_span.close();

  if (config.on_error == error_policy::fail_fast &&
      first_fault.load(std::memory_order_relaxed) < documents.size()) {
    const auto& f = *per_document[first_fault.load(std::memory_order_relaxed)].fault;
    throw document_error(f.index, f.title, f.code, f.message);
  }

  // Deterministic merge in document order; faulted documents contribute
  // nothing and are counted (and, under quarantine, surfaced). Only the
  // mileage is gathered: its cells merge across documents. Disengagements
  // and accidents stay in their documents' slots until ingest.
  obs::scoped_span merge_span(config.trace, "merge", pipeline_span.id());
  const obs::stopwatch merge_watch;
  std::vector<dataset::mileage_record> all_mileage;
  std::map<error_code, std::size_t> quarantined_by_code;
  double confidence_sum = 0;
  for (auto& doc : per_document) {
    // The retry rung counts whether or not it saved the document — a
    // retried-then-quarantined document still burned the second pass.
    if (doc.ocr_retried) ++stats.ocr_retries;
    if (doc.fault) {
      ++stats.documents_quarantined;
      ++quarantined_by_code[doc.fault->code];
      if (config.on_error == error_policy::quarantine) {
        result.quarantined.push_back(std::move(*doc.fault));
      }
      continue;
    }
    stats.ocr_lines += doc.ocr_lines;
    confidence_sum += doc.ocr_confidence_sum;
    stats.ocr_manual_review_lines += doc.ocr_manual_review_lines;
    stats.parse_failed_lines += doc.parse_failed_lines;
    stats.manual_transcriptions += doc.manual_transcriptions;
    stats.records_normalized_away += doc.records_normalized_away;
    stats.unknown_tags += doc.unknown_tags;
    if (doc.is_disengagement_report) ++stats.disengagement_reports;
    if (doc.is_accident_report) ++stats.accident_reports;
    if (doc.unidentified) ++stats.unidentified_documents;
    all_mileage.insert(all_mileage.end(), std::make_move_iterator(doc.mileage.begin()),
                       std::make_move_iterator(doc.mileage.end()));
  }
  stats.ocr_mean_confidence =
      stats.ocr_lines > 0 ? confidence_sum / static_cast<double>(stats.ocr_lines) : 1.0;
  const double merge_seconds = merge_watch.elapsed_seconds();
  merge_span.close();

  // Stage II-2 across documents: duplicate mileage cells merge corpus-wide.
  obs::scoped_span normalize_span(config.trace, "normalize", pipeline_span.id());
  const obs::stopwatch normalize_watch;
  parse::normalize_mileage(all_mileage);
  const double normalize_seconds = normalize_watch.elapsed_seconds();
  normalize_span.close();

  // Stage IV ingest: the consolidated failure database, in document order,
  // every record already labeled by its scan worker (a faulted document's
  // slot holds no records).
  obs::scoped_span ingest_span(config.trace, "ingest", pipeline_span.id());
  const obs::stopwatch ingest_watch;
  for (auto& doc : per_document) {
    for (auto& e : doc.events) result.database.add_disengagement(std::move(e));
  }
  for (auto& m : all_mileage) result.database.add_mileage(std::move(m));
  for (auto& doc : per_document) {
    for (auto& a : doc.accidents) result.database.add_accident(std::move(a));
  }
  // Keep the wire's version bytes: the retired relabel pass bumped once per label.
  auto version = result.database.version();
  version.disengagements += result.database.disengagements().size();
  result.database.set_version(version);
  const double ingest_seconds = ingest_watch.elapsed_seconds();
  ingest_span.close();

  obs::scoped_span analysis_span(config.trace, "analysis", pipeline_span.id());
  const obs::stopwatch analysis_watch;
  stats.disengagements = result.database.disengagements().size();
  stats.accidents = result.database.accidents().size();
  stats.analyzed = parse::analyzed_manufacturers(result.database, config.filter);
  const double analysis_seconds = analysis_watch.elapsed_seconds();
  analysis_span.close();

  // The per-document stages are summed across workers, like ocr and parse.
  const double classify_label_seconds = worker_time.label_ns.total_seconds();
  stats.stage_timings = {
      {"ocr", worker_time.ocr_ns.total_seconds()},
      {"parse", worker_time.parse_ns.total_seconds()},
      {"merge", merge_seconds},
      {"normalize", normalize_seconds + worker_time.normalize_ns.total_seconds()},
      {"ingest", ingest_seconds},
      {"classify", classify_build_seconds + classify_label_seconds},
      {"classify.build", classify_build_seconds},
      {"classify.label", classify_label_seconds},
      {"analysis", analysis_seconds},
  };
  stats.total_seconds = total_watch.elapsed_seconds();

  // Operational metrics for the process-wide registry (fleet-monitor style
  // visibility; the per-run numbers live in `stats`).
  auto& registry = obs::metrics();
  registry.get_counter("pipeline.runs").add();
  registry.get_counter("pipeline.documents").add(stats.documents_in);
  registry.get_counter("pipeline.disengagements").add(stats.disengagements);
  registry.get_counter("pipeline.unknown_tags").add(stats.unknown_tags);
  if (stats.documents_quarantined > 0) {
    registry.get_counter("pipeline.documents_quarantined").add(stats.documents_quarantined);
    for (const auto& [code, count] : quarantined_by_code) {
      registry.get_counter("pipeline.quarantined." + std::string(error_code_name(code)))
          .add(count);
    }
  }
  if (stats.ocr_retries > 0) {
    registry.get_counter("pipeline.ocr.retried").add(stats.ocr_retries);
  }
  registry.set_gauge("pipeline.last_run_seconds", stats.total_seconds);
  registry.set_gauge("pipeline.last_ocr_mean_confidence", stats.ocr_mean_confidence);
  return result;
}

std::optional<quarantined_document> probe_document(const ocr::document& doc,
                                                   const ocr::document* pristine,
                                                   const pipeline_config& config,
                                                   std::size_t index) {
  auto pcfg = make_scan_config(config);
  pcfg.strict = true;     // a probe always applies the full validations
  pcfg.trace = nullptr;   // ... and never pollutes the caller's trace
  const ingest::document_processor processor(std::move(pcfg));
  return processor.scan(doc, pristine, index).fault;
}

std::string quarantine_to_json(const pipeline_result& result, error_policy policy) {
  namespace json = obs::json;
  json::array docs;
  for (const auto& q : result.quarantined) {
    json::object entry;
    entry.emplace_back("index", q.index);
    entry.emplace_back("title", q.title);
    entry.emplace_back("code", std::string(error_code_name(q.code)));
    entry.emplace_back("message", q.message);
    docs.emplace_back(std::move(entry));
  }
  json::object root;
  root.emplace_back("schema", "avtk.quarantine.v1");
  root.emplace_back("policy", std::string(error_policy_name(policy)));
  root.emplace_back("documents_in", result.stats.documents_in);
  root.emplace_back("documents_quarantined", result.stats.documents_quarantined);
  root.emplace_back("documents", std::move(docs));
  return json::value(std::move(root)).dump(2) + "\n";
}

double pipeline_stats::stage_seconds(std::string_view stage) const {
  for (const auto& t : stage_timings) {
    if (t.stage == stage) return t.seconds;
  }
  return 0;
}

}  // namespace avtk::core
