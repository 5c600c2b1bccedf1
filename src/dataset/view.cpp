#include "dataset/view.h"

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <string_view>
#include <utility>

namespace avtk::dataset {

std::vector<const disengagement_record*> database_view::disengagements_of(
    manufacturer maker) const {
  std::vector<const disengagement_record*> out;
  out.reserve(disengagements().size());
  for (const auto& d : disengagements()) {
    if (d.maker == maker) out.push_back(&d);
  }
  return out;
}

std::vector<manufacturer> database_view::manufacturers_present() const {
  // Flag array over the (small, dense) manufacturer enum; emitting in
  // k_all_manufacturers order preserves the sorted-set enum order the
  // serve tier's deterministic payloads rely on.
  std::array<bool, k_all_manufacturers.size()> seen{};
  for (const auto& d : disengagements()) seen[static_cast<std::size_t>(d.maker)] = true;
  for (const auto& m : mileage()) seen[static_cast<std::size_t>(m.maker)] = true;
  std::vector<manufacturer> out;
  for (const auto maker : k_all_manufacturers) {
    if (seen[static_cast<std::size_t>(maker)]) out.push_back(maker);
  }
  return out;
}

double database_view::total_miles() const {
  double t = 0;
  for (const auto& m : mileage()) t += m.miles;
  return t;
}

double database_view::total_miles(manufacturer maker) const {
  double t = 0;
  for (const auto& m : mileage()) {
    if (m.maker == maker) t += m.miles;
  }
  return t;
}

long long database_view::total_disengagements() const {
  return static_cast<long long>(disengagements().size());
}

long long database_view::total_disengagements(manufacturer maker) const {
  long long t = 0;
  for (const auto& d : disengagements()) {
    if (d.maker == maker) ++t;
  }
  return t;
}

long long database_view::total_accidents() const {
  return static_cast<long long>(accidents().size());
}

long long database_view::total_accidents(manufacturer maker) const {
  long long t = 0;
  for (const auto& a : accidents()) {
    if (a.maker == maker) ++t;
  }
  return t;
}

// The monthly attribution join (semantics in view.h), over one maker's
// records: equal-share within a known month, miles-proportional fallback,
// fractional-remainder distribution with content-hash tie breaks. Cost: one
// stable sort of row pointers, a two-level binary search per dated,
// identified event and, only when some events are unattributed, one pass
// bucketing the positive-mile cells by month plus one remainder sort per
// unattributed month over precomputed (fraction, tie hash) keys.
std::vector<vehicle_month> database_view::vehicle_months(manufacturer maker) const {
  // The maker's mileage rows as pointers beside their sort keys. Cell
  // order: (vehicle id, month index). Stable, so the rows of one cell sum
  // their miles in corpus order.
  struct row_ref {
    std::string_view id;
    std::int64_t month;
    const mileage_record* row;
  };
  std::vector<row_ref> rows;
  for (const auto& m : mileage()) {
    if (m.maker == maker) rows.push_back({m.vehicle_id, m.month.index(), &m});
  }
  std::stable_sort(rows.begin(), rows.end(), [](const row_ref& a, const row_ref& b) {
    const int by_vehicle = a.id.compare(b.id);
    return by_vehicle != 0 ? by_vehicle < 0 : a.month < b.month;
  });

  // One run of consecutive cells per vehicle; `id` views the records.
  struct vehicle_run {
    std::string_view id;
    std::size_t first;
    std::size_t last;
  };
  std::vector<vehicle_month> cells;
  cells.reserve(rows.size());
  std::vector<vehicle_run> runs;
  for (const auto& row : rows) {
    const bool new_vehicle = runs.empty() || runs.back().id != row.id;
    if (new_vehicle || cells.back().month.index() != row.month) {
      if (new_vehicle) runs.push_back({row.id, cells.size(), cells.size()});
      cells.push_back({maker, row.row->vehicle_id, row.row->month, 0.0, 0});
      runs.back().last = cells.size();
    }
    cells.back().miles += row.row->miles;
  }

  std::map<std::int64_t, long long> unattributed;  // month -1 = any
  for (const auto& d : disengagements()) {
    if (d.maker != maker) continue;
    const auto bucket = d.month_bucket();
    if (bucket && !d.vehicle_id.empty()) {
      const auto month = bucket->index();
      const std::string_view id = d.vehicle_id;
      const auto run = std::partition_point(runs.begin(), runs.end(),
                                            [&](const vehicle_run& r) { return r.id < id; });
      if (run != runs.end() && run->id == id) {
        const auto first = cells.begin() + static_cast<std::ptrdiff_t>(run->first);
        const auto last = cells.begin() + static_cast<std::ptrdiff_t>(run->last);
        const auto it = std::partition_point(
            first, last, [&](const vehicle_month& cell) { return cell.month.index() < month; });
        if (it != last && it->month.index() == month) {
          ++it->disengagements;
          continue;
        }
      }
    }
    ++unattributed[bucket ? bucket->index() : -1];
  }
  if (unattributed.empty()) return cells;

  // The positive-mile cells in cell order — the whole-history fallback
  // set — and their mile total, summed in that order; then the same cells
  // bucketed by unattributed known month. Each bucket keeps cell (vehicle)
  // order, so its miles sum in the order a scan over every cell would.
  std::vector<std::size_t> positive;
  double positive_miles = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!(cells[i].miles > 0)) continue;
    positive.push_back(i);
    positive_miles += cells[i].miles;
  }
  std::vector<std::int64_t> months;  // ascending, as the map holds them
  for (const auto& entry : unattributed) {
    if (entry.first >= 0) months.push_back(entry.first);
  }
  std::vector<std::vector<std::size_t>> by_month(months.size());
  for (const auto i : positive) {
    const auto month = cells[i].month.index();
    const auto it = std::lower_bound(months.begin(), months.end(), month);
    if (it == months.end() || *it != month) continue;
    by_month[static_cast<std::size_t>(it - months.begin())].push_back(i);
  }

  // Each cell's tie hash: its vehicle id's hash, once per vehicle, mixed
  // with its month.
  std::vector<std::size_t> tie(cells.size());
  for (const auto& run : runs) {
    const std::size_t id_hash = std::hash<std::string_view>{}(run.id);
    for (std::size_t i = run.first; i < run.last; ++i) {
      tie[i] = id_hash ^
               (static_cast<std::size_t>(cells[i].month.index()) * 0x9E3779B97F4A7C15ULL);
    }
  }

  struct share {
    double fraction;
    std::size_t tie;
    std::size_t slot;
  };
  std::vector<share> order;
  std::vector<long long> assigned;
  for (const auto& [month_index, count] : unattributed) {
    bool equal_share = month_index >= 0;
    std::span<const std::size_t> mine = positive;
    double miles_total = positive_miles;
    if (equal_share) {
      const auto it = std::lower_bound(months.begin(), months.end(), month_index);
      mine = by_month[static_cast<std::size_t>(it - months.begin())];
      miles_total = 0;
      for (const auto i : mine) miles_total += cells[i].miles;
      if (mine.empty() || miles_total <= 0) {
        // No mileage reported for that month: fall back to the whole
        // history, miles-proportionally.
        equal_share = false;
        mine = positive;
        miles_total = positive_miles;
      }
    }
    if (mine.empty() || miles_total <= 0) continue;
    const double equal = static_cast<double>(count) / static_cast<double>(mine.size());
    order.clear();
    assigned.assign(mine.size(), 0);
    long long assigned_total = 0;
    for (std::size_t k = 0; k < mine.size(); ++k) {
      const auto& cell = cells[mine[k]];
      const double expected =
          equal_share ? equal : static_cast<double>(count) * cell.miles / miles_total;
      assigned[k] = static_cast<long long>(expected);
      assigned_total += assigned[k];
      order.push_back({expected - static_cast<double>(assigned[k]), tie[mine[k]], k});
    }
    // Distribute the remainder to the cells with the largest fractional
    // parts. Equal-share splits make every fractional part identical, so
    // ties are broken by a content hash — otherwise the first vehicles in
    // id order would absorb every event, month after month.
    std::sort(order.begin(), order.end(), [](const share& a, const share& b) {
      if (a.fraction != b.fraction) return a.fraction > b.fraction;
      return a.tie < b.tie;
    });
    for (std::size_t k = 0; assigned_total < count && k < order.size(); ++k, ++assigned_total) {
      ++assigned[order[k].slot];
    }
    for (std::size_t k = 0; k < mine.size(); ++k) {
      cells[mine[k]].disengagements += assigned[k];
    }
  }

  return cells;
}

std::vector<vehicle_month> database_view::vehicle_months() const {
  std::vector<vehicle_month> out;
  for (const auto maker : k_all_manufacturers) {
    auto cells = vehicle_months(maker);
    out.insert(out.end(), std::make_move_iterator(cells.begin()),
               std::make_move_iterator(cells.end()));
  }
  return out;
}

std::vector<vehicle_month> fleet_months(std::span<const vehicle_month> cells) {
  std::vector<const vehicle_month*> by_month;
  by_month.reserve(cells.size());
  for (const auto& cell : cells) by_month.push_back(&cell);
  // Stable, so each month keeps its cells in vehicle-id order.
  std::stable_sort(by_month.begin(), by_month.end(), [](const auto* a, const auto* b) {
    return a->month.index() < b->month.index();
  });
  std::vector<vehicle_month> out;
  for (const auto* cell : by_month) {
    if (out.empty() || out.back().month.index() != cell->month.index()) {
      out.push_back({cell->maker, {}, cell->month, 0.0, 0});
    }
    out.back().miles += cell->miles;
    out.back().disengagements += cell->disengagements;
  }
  return out;
}

std::vector<double> database_view::reaction_times(std::optional<manufacturer> maker) const {
  std::vector<double> out;
  for (const auto& d : disengagements()) {
    if (maker && d.maker != *maker) continue;
    if (d.reaction_time_s) out.push_back(*d.reaction_time_s);
  }
  return out;
}

}  // namespace avtk::dataset
