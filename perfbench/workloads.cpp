#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "nlp/ontology.h"
#include "obs/json.h"
#include "soak/workload.h"

namespace avbench {

namespace {

using avtk::dataset::manufacturer;
using avtk::serve::query;
using avtk::serve::query_kind;

// splitmix64: tiny, seedable and identical on every platform (the
// std::*_distribution adaptors are not).
struct rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  bool chance(double p) { return static_cast<double>(next() >> 11) * 0x1.0p-53 < p; }
  template <class T>
  const T& pick(const std::vector<T>& v) { return v[below(v.size())]; }
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  rng r{seed ^ (salt * 0xd1b54a32d192ed03ull)};
  return r.next();
}

}  // namespace

std::string_view workload_name(workload w) {
  switch (w) {
    case workload::serve_hot: return "serve_hot";
    case workload::serve_cold: return "serve_cold";
    case workload::ingest_live: return "ingest_live";
    case workload::batch_run: return "batch_run";
  }
  return "?";
}

bool workload_from_name(std::string_view name, workload* out) {
  for (const auto w : {workload::serve_hot, workload::serve_cold, workload::ingest_live,
                       workload::batch_run}) {
    if (workload_name(w) == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::string request_line(const query& q, std::size_t id) {
  namespace json = avtk::obs::json;
  std::string out = "{\"id\":" + std::to_string(id) + ",\"query\":";
  out += json::escape(avtk::serve::query_kind_name(q.kind));
  if (q.maker) out += ",\"maker\":" + json::escape(avtk::dataset::manufacturer_id(*q.maker));
  if (q.year) out += ",\"year\":" + std::to_string(*q.year);
  if (q.tag) out += ",\"tag\":" + json::escape(avtk::nlp::tag_id(*q.tag));
  if (q.category) out += ",\"category\":" + json::escape(avtk::nlp::category_name(*q.category));
  const query defaults;
  if (q.min_samples != defaults.min_samples) {
    out += ",\"min_samples\":" + std::to_string(q.min_samples);
  }
  if (q.replicates != defaults.replicates) {
    out += ",\"replicates\":" + std::to_string(q.replicates);
  }
  if (q.seed != defaults.seed) out += ",\"seed\":" + std::to_string(q.seed);
  if (q.horizon_miles != defaults.horizon_miles) {
    out += ",\"horizon_miles\":" + std::to_string(static_cast<long long>(q.horizon_miles));
  }
  out += '}';
  return out;
}

// The serve_hot kinds in popularity order.
constexpr query_kind k_hot_kinds[] = {query_kind::tags, query_kind::metrics,
                                      query_kind::categories, query_kind::modality,
                                      query_kind::trend};

std::vector<query> hot_queries(const std::vector<manufacturer>& makers) {
  // Popularity order is fixed (kind-major interleave, bare first) so every
  // seed draws the same cost mix; only the draw sequence is seeded.
  std::vector<query> out;
  for (std::size_t m = 0; m <= makers.size(); ++m) {
    for (const auto kind : k_hot_kinds) {
      query q;
      q.kind = kind;
      if (m > 0) q.maker = makers[m - 1];
      out.push_back(q);
    }
  }
  return out;
}

std::vector<std::size_t> zipf_draws(std::size_t k, std::size_t n, std::uint64_t seed) {
  std::vector<double> cdf(k);
  double total = 0;
  for (std::size_t r = 0; r < k; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), k_zipf_s);
    cdf[r] = total;
  }
  rng g{mix(seed, 1)};
  std::vector<std::size_t> out(n);
  for (auto& d : out) {
    const double u = static_cast<double>(g.next() >> 11) * 0x1.0p-53 * total;
    d = std::min<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(), k - 1);
  }
  return out;
}

std::vector<query> cold_queries(const std::vector<manufacturer>& makers, std::size_t n,
                                std::uint64_t seed) {
  rng g{mix(seed, 2)};
  const std::vector<int> years = {2014, 2015, 2016};
  const std::vector<avtk::nlp::fault_tag> tags(avtk::nlp::k_all_fault_tags.begin(),
                                               avtk::nlp::k_all_fault_tags.end());
  const std::vector<avtk::nlp::failure_category> categories = {
      avtk::nlp::failure_category::ml_design, avtk::nlp::failure_category::system,
      avtk::nlp::failure_category::unknown};

  // The kind mix is the soak's (soak::build_query_mix): its entries, each a
  // kind that names the maker or not, keep their weights. One block holds
  // every entry of the mix once; each entry's copies are spread evenly over
  // the block in a fixed order, so every seed queues its expensive queries
  // alike and the tail latency measures the engine rather than where a
  // shuffle happened to cluster them.
  struct entry {
    query base;
    int weight = 0;
    std::size_t drawn = 0;
  };
  std::vector<entry> entries;
  for (const auto& q : avtk::soak::build_query_mix(makers.front())) {
    if (entries.empty() || entries.back().base.canonical() != q.canonical()) entries.push_back({q});
    ++entries.back().weight;
  }
  std::vector<std::pair<double, std::size_t>> slots;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    for (int j = 0; j < entries[e].weight; ++j) {
      slots.emplace_back((j + 0.5) / entries[e].weight + 1e-3 * static_cast<double>(e), e);
    }
  }
  std::sort(slots.begin(), slots.end());

  // Each drawn query keeps its entry's kind, maker flag and mcf replicates.
  // The index axes (year, tag, category) cycle through all 8 subsets, so
  // every axis and combination is equally common; values, makers and the
  // fit/mcf/nhpp knobs are drawn uniformly.
  const auto draw = [&](const entry& e, std::size_t subset) {
    query q = e.base;
    if (q.maker) q.maker = g.pick(makers);
    if (subset & 1) q.year = g.pick(years);
    if (subset & 2) q.tag = g.pick(tags);
    if (subset & 4) q.category = g.pick(categories);
    if (q.kind == query_kind::fit) q.min_samples = 10 + g.below(60);
    if (q.kind == query_kind::mcf) q.seed = g.below(1u << 30);
    if (q.kind == query_kind::nhpp) q.horizon_miles = static_cast<double>(1000 + g.below(199000));
    return q;
  };

  std::vector<query> out;
  out.reserve(n);
  std::set<std::string> seen;
  while (out.size() < n) {
    for (const auto& slot : slots) {
      if (out.size() == n) break;
      auto& e = entries[slot.second];
      // Redraw until distinct, moving on to the next axis subset each time
      // (a bare, unfiltered entry has a single variant).
      for (std::size_t subset = e.drawn++;; ++subset) {
        auto q = draw(e, subset % 8);
        if (seen.insert(q.canonical()).second) {
          out.push_back(std::move(q));
          break;
        }
      }
    }
  }
  return out;
}

std::vector<filing> build_filings(std::uint64_t seed) {
  std::vector<std::vector<filing>> per_maker;
  for (const auto maker : avtk::dataset::k_all_manufacturers) {
    avtk::soak::workload_config cfg;
    cfg.fleet.maker = maker;
    cfg.fleet.months = 20;
    cfg.fleet.seed = mix(seed, 100 + static_cast<std::uint64_t>(maker));
    cfg.chaos_fraction = 0.1;
    cfg.chaos_seed = mix(seed, 200 + static_cast<std::uint64_t>(maker));
    const auto wl = avtk::soak::build_workload(cfg);
    std::vector<filing> docs;
    for (const auto& d : wl.documents) {
      docs.push_back({d.request_line, maker, d.corrupted, d.expected_code});
    }
    per_maker.push_back(std::move(docs));
  }
  // Interleave maker by maker: each maker's stream stays month-ordered.
  std::vector<filing> out;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& docs : per_maker) {
      if (i < docs.size()) {
        out.push_back(std::move(docs[i]));
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

ingest_stream build_ingest_stream(const std::vector<filing>& filings, std::uint64_t seed) {
  ingest_stream s;
  const auto draws = zipf_draws(std::size(k_hot_kinds), filings.size() * k_queries_per_filing,
                                mix(seed, 3));
  std::size_t d = 0;
  for (std::size_t f = 0; f < filings.size(); ++f) {
    // Re-number the document's id to its line position in this stream.
    const auto& line = filings[f].line;
    const std::size_t at = line.rfind(",\"id\":");
    s.lines.push(line.substr(0, at) + ",\"id\":" + std::to_string(s.lines.size()) + "}");
    s.filing_of_line.push_back(static_cast<long>(f));
    for (std::size_t k = 0; k < k_queries_per_filing; ++k, ++d) {
      query q;
      q.kind = k_hot_kinds[draws[d]];
      q.maker = filings[f].maker;
      s.lines.push(request_line(q, s.lines.size()));
      s.filing_of_line.push_back(-1);
    }
  }
  return s;
}

std::vector<std::int64_t> fixed_rate_due(std::size_t n, double rate) {
  std::vector<std::int64_t> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
  }
  return due;
}

}  // namespace avbench
