// The vehicle-month join as first written: a stable sort of whole
// vehicle_month values, a string-compared partition_point per dated,
// identified event, a scan over every cell per unattributed month, and a
// remainder sort that hashes the vehicle id inside its comparator. It is
// the oracle database_view::vehicle_months(maker) is checked against cell
// by cell. Test-only: the dataset tests link it, avtk_dataset and the CLI
// never do.
#pragma once

#include <vector>

#include "dataset/view.h"

namespace avtk::dataset::testing {

/// database_view::vehicle_months(maker), computed the original way.
std::vector<vehicle_month> reference_vehicle_months(const database_view& view,
                                                    manufacturer maker);

}  // namespace avtk::dataset::testing
