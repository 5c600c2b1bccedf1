#include "dataset/view.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <string_view>

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
// fractional-remainder distribution with content-hash tie breaks.
std::vector<vehicle_month> database_view::vehicle_months(manufacturer maker) const {
  // Cell order: (vehicle id, month index).
  const auto before = [](const vehicle_month& cell, std::string_view vehicle,
                         std::int64_t month) {
    const int by_vehicle = cell.vehicle_id.compare(vehicle);
    return by_vehicle != 0 ? by_vehicle < 0 : cell.month.index() < month;
  };
  std::vector<vehicle_month> rows;
  for (const auto& m : mileage()) {
    if (m.maker == maker) rows.push_back({maker, m.vehicle_id, m.month, m.miles, 0});
  }
  // Stable, so the rows of one cell sum their miles in corpus order.
  std::stable_sort(rows.begin(), rows.end(), [&](const vehicle_month& a, const vehicle_month& b) {
    return before(a, b.vehicle_id, b.month.index());
  });
  std::vector<vehicle_month> cells;
  for (auto& row : rows) {
    if (cells.empty() || before(cells.back(), row.vehicle_id, row.month.index())) {
      cells.push_back({maker, std::move(row.vehicle_id), row.month, 0.0, 0});
    }
    cells.back().miles += row.miles;
  }

  std::map<std::int64_t, long long> unattributed;  // month -1 = any
  for (const auto& d : disengagements()) {
    if (d.maker != maker) continue;
    const auto bucket = d.month_bucket();
    if (bucket && !d.vehicle_id.empty()) {
      const auto month = bucket->index();
      const auto it = std::partition_point(cells.begin(), cells.end(), [&](const auto& cell) {
        return before(cell, d.vehicle_id, month);
      });
      if (it != cells.end() && it->vehicle_id == d.vehicle_id && it->month.index() == month) {
        ++it->disengagements;
        continue;
      }
    }
    ++unattributed[bucket ? bucket->index() : -1];
  }

  for (const auto& [month_index, count] : unattributed) {
    bool equal_share = month_index >= 0;
    std::vector<vehicle_month*> mine;
    double miles_total = 0;
    for (auto& cell : cells) {
      if (month_index >= 0 && cell.month.index() != month_index) continue;
      if (!(cell.miles > 0)) continue;
      mine.push_back(&cell);
      miles_total += cell.miles;
    }
    if ((mine.empty() || miles_total <= 0) && month_index >= 0) {
      // No mileage reported for that month: fall back to the whole history,
      // miles-proportionally.
      equal_share = false;
      mine.clear();
      miles_total = 0;
      for (auto& cell : cells) {
        if (!(cell.miles > 0)) continue;
        mine.push_back(&cell);
        miles_total += cell.miles;
      }
    }
    if (mine.empty() || miles_total <= 0) continue;
    std::vector<double> expected(mine.size());
    std::vector<long long> assigned(mine.size());
    long long assigned_total = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      expected[i] = equal_share
                        ? static_cast<double>(count) / static_cast<double>(mine.size())
                        : static_cast<double>(count) * mine[i]->miles / miles_total;
      assigned[i] = static_cast<long long>(expected[i]);
      assigned_total += assigned[i];
    }
    // Distribute the remainder to the cells with the largest fractional
    // parts. Equal-share splits make every fractional part identical, so
    // ties are broken by a content hash — otherwise the first vehicles in
    // id order would absorb every event, month after month.
    std::vector<std::size_t> order(mine.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto tie_hash = [&](std::size_t i) {
      return std::hash<std::string>{}(mine[i]->vehicle_id) ^
             (static_cast<std::size_t>(mine[i]->month.index()) * 0x9E3779B97F4A7C15ULL);
    };
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double fa = expected[a] - static_cast<double>(assigned[a]);
      const double fb = expected[b] - static_cast<double>(assigned[b]);
      if (fa != fb) return fa > fb;
      return tie_hash(a) < tie_hash(b);
    });
    for (std::size_t i = 0; assigned_total < count && i < order.size(); ++i, ++assigned_total) {
      ++assigned[order[i]];
    }
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i]->disengagements += assigned[i];
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
