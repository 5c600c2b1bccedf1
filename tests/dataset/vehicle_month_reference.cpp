#include "vehicle_month_reference.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace avtk::dataset::testing {

std::vector<vehicle_month> reference_vehicle_months(const database_view& view,
                                                    manufacturer maker) {
  // Cell order: (vehicle id, month index).
  const auto before = [](const vehicle_month& cell, std::string_view vehicle,
                         std::int64_t month) {
    const int by_vehicle = cell.vehicle_id.compare(vehicle);
    return by_vehicle != 0 ? by_vehicle < 0 : cell.month.index() < month;
  };
  std::vector<vehicle_month> rows;
  for (const auto& m : view.mileage()) {
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
  for (const auto& d : view.disengagements()) {
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

}  // namespace avtk::dataset::testing
