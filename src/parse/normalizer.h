// avtk/parse/normalizer.h
//
// Stage II's final step: cross-manufacturer normalization and sanity rules
// applied to parsed records before they enter the consolidated database.
#pragma once

#include <vector>

#include "dataset/records.h"

namespace avtk::parse {

struct normalization_stats {
  std::size_t reaction_times_cleared = 0;  ///< non-physical values dropped
  std::size_t descriptions_normalized = 0; ///< whitespace collapsed
  std::size_t vehicle_ids_normalized = 0;
  std::size_t records_dropped = 0;         ///< unusable records removed
};

struct normalizer_config {
  /// Reaction times above this are kept but flagged; the paper keeps the
  /// Volkswagen ~4 h outlier in Fig. 10 and excludes it from the Fig. 11
  /// fit, so normalization must NOT delete it.
  double reaction_time_suspect_s = 300.0;
  /// Values below this are measurement noise and cleared.
  double reaction_time_floor_s = 0.0;
};

/// Normalizes disengagement records in place:
///  * trims/collapses whitespace in descriptions and vehicle ids,
///  * upper-bounds ranges is already done at parse time; here non-positive
///    reaction times are cleared,
///  * drops records with no usable content (no description at all).
normalization_stats normalize_disengagements(std::vector<dataset::disengagement_record>& records,
                                             const normalizer_config& config = {});

/// Normalizes mileage records: drops non-positive mileage and merges
/// duplicate (maker, vehicle, month) cells into the first one, adding the
/// duplicates' miles in input order. The result is sorted by (maker,
/// vehicle id, month).
normalization_stats normalize_mileage(std::vector<dataset::mileage_record>& records);

/// Normalizes accident records: clamps speeds to a physical range
/// [0, 120] mph and collapses whitespace.
normalization_stats normalize_accidents(std::vector<dataset::accident_record>& records);

}  // namespace avtk::parse
