#include "reliability/events.h"

#include <algorithm>
#include <utility>

namespace avtk::reliability {

namespace {

using dataset::manufacturer;
using dataset::vehicle_month;

// Appends one month's events to `process`, advancing its exposure clock.
// The cell's d events land at fractions (j+1)/(d+1) of the month's mileage
// span, so they stay strictly inside (start, end) and strictly ordered. A
// zero-mile month with events (possible when a report logs events against
// a vehicle that reported no miles that month) pins them to the current
// clock position; events at clock 0 have no observable exposure and are
// dropped when the process is finalized.
void append_month(event_process& process, const vehicle_month& cell) {
  const double start = process.exposure;
  const auto d = static_cast<std::size_t>(cell.disengagements);
  for (std::size_t j = 0; j < d; ++j) {
    const double frac = static_cast<double>(j + 1) / static_cast<double>(d + 1);
    process.events.push_back(start + cell.miles * frac);
  }
  process.exposure = start + cell.miles;
}

// Drops unobservable zero-clock events; returns false for a process with
// no exposure at all (nothing to estimate against).
bool finalize(event_process& process) {
  std::erase_if(process.events, [](double t) { return !(t > 0); });
  return process.exposure > 0;
}

}  // namespace

std::size_t maker_processes::vehicle_events() const {
  std::size_t n = 0;
  for (const auto& v : vehicles) n += v.count();
  return n;
}

std::optional<maker_processes> extract_processes(const dataset::database_view& db,
                                                 manufacturer maker) {
  // Cells carry the attribution of vehicle-less / month-less events and
  // arrive sorted by (vehicle, month), which makes the extraction
  // deterministic.
  const auto cells = db.vehicle_months(maker);
  maker_processes out;
  out.maker = maker;
  out.fleet.unit_id = std::string(dataset::manufacturer_id(maker));

  // Per-VIN: one linear pass builds each vehicle's cumulative-mileage clock.
  event_process current;
  bool open = false;
  const auto flush = [&] {
    if (open && finalize(current)) out.vehicles.push_back(std::move(current));
    current = event_process{};
    open = false;
  };
  for (const auto& cell : cells) {
    if (!open || cell.vehicle_id != current.unit_id) {
      flush();
      current.unit_id = cell.vehicle_id;
      open = true;
    }
    append_month(current, cell);
  }
  flush();

  // Fleet: the fleet months on one shared clock, so the within-month spread
  // uses the whole fleet's mileage span for that month.
  for (const auto& month : dataset::fleet_months(cells)) append_month(out.fleet, month);
  if (!finalize(out.fleet)) return std::nullopt;
  return out;
}

std::vector<maker_processes> extract_processes(const dataset::database_view& db) {
  std::vector<maker_processes> out;
  for (const auto maker : dataset::k_all_manufacturers) {
    if (auto processes = extract_processes(db, maker)) out.push_back(std::move(*processes));
  }
  return out;
}

}  // namespace avtk::reliability
