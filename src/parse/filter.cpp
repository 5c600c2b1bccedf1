#include "parse/filter.h"

namespace avtk::parse {

bool passes_filter(const dataset::database_view& db, dataset::manufacturer maker,
                   const filter_config& config) {
  return db.total_disengagements(maker) >= config.min_disengagements;
}

std::vector<dataset::manufacturer> analyzed_manufacturers(const dataset::database_view& db,
                                                          const filter_config& config) {
  std::vector<dataset::manufacturer> out;
  for (const auto m : db.manufacturers_present()) {
    if (passes_filter(db, m, config)) out.push_back(m);
  }
  return out;
}

}  // namespace avtk::parse
