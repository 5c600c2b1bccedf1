// avtk/parse/filter.h
//
// Stage II filtering rules: which manufacturers enter the statistical
// analysis. The paper excludes Uber, BMW, Ford and Honda ("too few
// disengagements for us to draw statistically significant conclusions").
#pragma once

#include <vector>

#include "dataset/view.h"

namespace avtk::parse {

struct filter_config {
  /// Manufacturers with fewer total disengagements than this are excluded
  /// from the analysis set (their accidents still count toward totals).
  long long min_disengagements = 20;
};

/// Manufacturers in `db` that pass the filter.
std::vector<dataset::manufacturer> analyzed_manufacturers(const dataset::database_view& db,
                                                          const filter_config& config = {});

/// True when the manufacturer passes.
bool passes_filter(const dataset::database_view& db, dataset::manufacturer maker,
                   const filter_config& config = {});

}  // namespace avtk::parse
