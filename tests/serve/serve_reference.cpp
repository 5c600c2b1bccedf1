#include "serve_reference.h"

#include "serve/index.h"
#include "serve/render.h"

namespace avtk::serve::testing {

bool matches(const dataset::disengagement_record& d, const query& q) {
  if (q.maker && d.maker != *q.maker) return false;
  if (q.year && disengagement_year(d) != *q.year) return false;
  if (q.tag && d.tag != *q.tag) return false;
  if (q.category && d.category != *q.category) return false;
  return true;
}

dataset::failure_database filter_database(const dataset::failure_database& db, const query& q) {
  dataset::failure_database out;
  for (const auto& d : db.disengagements()) {
    if (matches(d, q)) out.add_disengagement(d);
  }
  for (const auto& m : db.mileage()) {
    if (q.maker && m.maker != *q.maker) continue;
    if (q.year && m.month.year != *q.year) continue;
    out.add_mileage(m);
  }
  for (const auto& a : db.accidents()) {
    if (q.maker && a.maker != *q.maker) continue;
    if (q.year && accident_year(a) != *q.year) continue;
    out.add_accident(a);
  }
  return out;
}

std::string reference_payload(const dataset::failure_database& db, const query& q) {
  return render_payload(filter_database(db, q), q);
}

}  // namespace avtk::serve::testing
