#include "serve/index.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace avtk::serve {

// Append-only storage of ascending record indices. Slots [0, claimed)
// belong to posting lists some epoch has built; each list reads only its
// own prefix, which is never rewritten. An extension appends in place only
// by claiming from exactly its own prefix length — so of two epochs
// extending one list, the second copies instead — and a full buffer
// doubles into a fresh one. Capacities are powers of two, at least 16.
struct query_index::posting_buffer {
  explicit posting_buffer(std::size_t capacity)
      : data(std::make_unique_for_overwrite<std::uint32_t[]>(capacity)), capacity(capacity) {}

  std::unique_ptr<std::uint32_t[]> data;
  std::size_t capacity;
  std::atomic<std::size_t> claimed{0};
};

namespace {

// Intersection of ascending posting lists, ascending result. Iterates the
// smallest list and binary-searches the rest, so a narrow axis (one tag,
// one maker-year) keeps the cost near its own match count.
domain_selection intersect(std::vector<std::span<const std::uint32_t>> lists) {
  std::sort(lists.begin(), lists.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  dataset::selection out;
  out.reserve(lists.front().size());
  for (const std::uint32_t idx : lists.front()) {
    bool in_all = true;
    for (std::size_t i = 1; i < lists.size(); ++i) {
      if (!std::binary_search(lists[i].begin(), lists[i].end(), idx)) {
        in_all = false;
        break;
      }
    }
    if (in_all) out.push_back(idx);
  }
  return domain_selection::own(std::move(out));
}

// No filter on the domain → whole domain; one applicable posting list →
// borrow it zero-copy; several → intersect.
domain_selection combine(std::vector<std::span<const std::uint32_t>> lists) {
  if (lists.empty()) return domain_selection();
  if (lists.size() == 1) return domain_selection::borrow(lists.front());
  return intersect(std::move(lists));
}

// Nothing but appends since the base: the version moved by exactly the
// record-count delta.
bool appended_only(std::size_t base_count, std::uint64_t base_version, std::size_t count,
                   std::uint64_t version) {
  return count >= base_count && version >= base_version &&
         version - base_version == count - base_count;
}

}  // namespace

template <typename Key>
std::span<const std::uint32_t> query_index::find(const postings<Key>& lists, const Key& key) {
  const auto it = std::lower_bound(lists.begin(), lists.end(), key,
                                   [](const auto& entry, const Key& k) { return entry.first < k; });
  if (it == lists.end() || it->first != key) return {};
  return {it->second.buffer->data.get(), it->second.size};
}

template <typename Key>
void query_index::extend(postings<Key>& lists, const std::map<Key, dataset::selection>& delta) {
  for (const auto& [key, added] : delta) {
    auto it = std::lower_bound(lists.begin(), lists.end(), key,
                               [](const auto& entry, const Key& k) { return entry.first < k; });
    if (it == lists.end() || it->first != key) it = lists.insert(it, {key, posting{}});
    posting& p = it->second;
    const std::size_t size = p.size + added.size();
    std::size_t expected = p.size;
    const bool in_place = p.buffer && size <= p.buffer->capacity &&
                          p.buffer->claimed.compare_exchange_strong(expected, size);
    if (!in_place) {
      auto fresh = std::make_shared<posting_buffer>(std::max<std::size_t>(16, std::bit_ceil(size)));
      if (p.size > 0) std::copy_n(p.buffer->data.get(), p.size, fresh->data.get());
      fresh->claimed.store(size, std::memory_order_relaxed);
      p.buffer = std::move(fresh);
    }
    std::copy(added.begin(), added.end(), p.buffer->data.get() + p.size);
    p.size = static_cast<std::uint32_t>(size);
  }
}

template <typename Key>
std::size_t query_index::postings_bytes(const postings<Key>& lists) {
  std::size_t total = lists.capacity() * sizeof(typename postings<Key>::value_type);
  for (const auto& entry : lists) total += entry.second.buffer->capacity * sizeof(std::uint32_t);
  return total;
}

query_selection query_index::select(const query& q) const {
  query_selection out;

  std::vector<std::span<const std::uint32_t>> dis;
  if (q.maker) dis.push_back(find(dis_by_maker_, *q.maker));
  if (q.year) dis.push_back(find(dis_by_year_, *q.year));
  if (q.tag) dis.push_back(find(dis_by_tag_, *q.tag));
  if (q.category) dis.push_back(find(dis_by_category_, *q.category));
  out.disengagements = combine(std::move(dis));

  // Mileage and accidents: maker/year only — tag and category narrow the
  // event set, never the exposure it is normalized by.
  std::vector<std::span<const std::uint32_t>> mil;
  if (q.maker) mil.push_back(find(mil_by_maker_, *q.maker));
  if (q.year) mil.push_back(find(mil_by_year_, *q.year));
  out.mileage = combine(std::move(mil));

  std::vector<std::span<const std::uint32_t>> acc;
  if (q.maker) acc.push_back(find(acc_by_maker_, *q.maker));
  if (q.year) acc.push_back(find(acc_by_year_, *q.year));
  out.accidents = combine(std::move(acc));

  return out;
}

std::unique_ptr<const query_index> build_query_index(const dataset::failure_database& db,
                                                     obs::trace* trace,
                                                     std::string_view span_label,
                                                     const query_index* base) {
  const obs::stopwatch watch;
  std::string span_name = "serve.index.build";
  if (!span_label.empty()) span_name += "." + std::string(span_label);
  obs::scoped_span span(trace, span_name);

  const auto& disengagements = db.disengagements();
  const auto& mileage = db.mileage();
  const auto& accidents = db.accidents();
  const auto& v = db.version();
  const bool extend =
      base != nullptr &&
      appended_only(base->disengagements_, base->version_.disengagements, disengagements.size(),
                    v.disengagements) &&
      appended_only(base->mileage_, base->version_.mileage, mileage.size(), v.mileage) &&
      appended_only(base->accidents_, base->version_.accidents, accidents.size(), v.accidents);
  auto index = extend ? std::make_unique<query_index>(*base) : std::make_unique<query_index>();

  // The records past what the starting index covers, grouped per key in
  // ascending index order, then appended to each key's list.
  std::map<dataset::manufacturer, dataset::selection> by_maker;
  std::map<int, dataset::selection> by_year;
  std::map<nlp::fault_tag, dataset::selection> by_tag;
  std::map<nlp::failure_category, dataset::selection> by_category;
  for (auto i = static_cast<std::uint32_t>(index->disengagements_); i < disengagements.size();
       ++i) {
    const auto& d = disengagements[i];
    by_maker[d.maker].push_back(i);
    by_year[disengagement_year(d)].push_back(i);
    by_tag[d.tag].push_back(i);
    by_category[d.category].push_back(i);
  }
  query_index::extend(index->dis_by_maker_, by_maker);
  query_index::extend(index->dis_by_year_, by_year);
  query_index::extend(index->dis_by_tag_, by_tag);
  query_index::extend(index->dis_by_category_, by_category);

  by_maker.clear();
  by_year.clear();
  for (auto i = static_cast<std::uint32_t>(index->mileage_); i < mileage.size(); ++i) {
    by_maker[mileage[i].maker].push_back(i);
    by_year[mileage[i].month.year].push_back(i);
  }
  query_index::extend(index->mil_by_maker_, by_maker);
  query_index::extend(index->mil_by_year_, by_year);

  by_maker.clear();
  by_year.clear();
  for (auto i = static_cast<std::uint32_t>(index->accidents_); i < accidents.size(); ++i) {
    by_maker[accidents[i].maker].push_back(i);
    by_year[accident_year(accidents[i])].push_back(i);
  }
  query_index::extend(index->acc_by_maker_, by_maker);
  query_index::extend(index->acc_by_year_, by_year);

  index->disengagements_ = disengagements.size();
  index->mileage_ = mileage.size();
  index->accidents_ = accidents.size();
  index->version_ = v;
  index->bytes_ = query_index::postings_bytes(index->dis_by_maker_) +
                  query_index::postings_bytes(index->mil_by_maker_) +
                  query_index::postings_bytes(index->acc_by_maker_) +
                  query_index::postings_bytes(index->dis_by_year_) +
                  query_index::postings_bytes(index->mil_by_year_) +
                  query_index::postings_bytes(index->acc_by_year_) +
                  query_index::postings_bytes(index->dis_by_tag_) +
                  query_index::postings_bytes(index->dis_by_category_);

  obs::metrics().get_counter("serve.index.builds").add();
  if (extend) obs::metrics().get_counter("serve.index.extends").add();
  obs::metrics().get_counter("serve.index.build_ns").add(
      static_cast<std::uint64_t>(watch.elapsed_ns()));
  obs::metrics().get_counter("serve.index.bytes").add(index->bytes_);
  span.close();
  return index;
}

}  // namespace avtk::serve
