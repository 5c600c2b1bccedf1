#include "dataset/database.h"

namespace avtk::dataset {

std::string database_version::to_string() const {
  return "d" + std::to_string(disengagements) + ".m" + std::to_string(mileage) + ".a" +
         std::to_string(accidents);
}

// Copy-on-write guard: every mutator funnels through here. A shared array
// (use_count > 1: some snapshot or copy still references it) is cloned
// before the write; a uniquely owned one mutates in place, so a burst of
// appends after one share pays a single clone. The use_count probe can
// race only downward (a concurrent reader dropping its reference), so a
// stale read merely clones unnecessarily — it can never mutate an array a
// reader still sees.
template <typename T>
std::vector<T>& failure_database::owned(std::shared_ptr<std::vector<T>>& arr) {
  if (arr.use_count() != 1) arr = std::make_shared<std::vector<T>>(*arr);
  return *arr;
}

void failure_database::add_disengagement(disengagement_record rec) {
  add_disengagement(std::move(rec), disengagement_ids_->size());
}

void failure_database::add_disengagement(disengagement_record rec, std::uint64_t id) {
  owned(disengagements_).push_back(std::move(rec));
  owned(disengagement_ids_).push_back(id);
  ++version_.disengagements;
}

void failure_database::relabel_disengagement(std::size_t index, nlp::fault_tag tag,
                                             nlp::failure_category category) {
  auto& records = owned(disengagements_);
  records.at(index).tag = tag;
  records.at(index).category = category;
  ++version_.disengagements;
}

void failure_database::add_mileage(mileage_record rec) {
  add_mileage(std::move(rec), mileage_ids_->size());
}

void failure_database::add_mileage(mileage_record rec, std::uint64_t id) {
  owned(mileage_).push_back(std::move(rec));
  owned(mileage_ids_).push_back(id);
  ++version_.mileage;
}

void failure_database::add_accident(accident_record rec) {
  add_accident(std::move(rec), accident_ids_->size());
}

void failure_database::add_accident(accident_record rec, std::uint64_t id) {
  owned(accidents_).push_back(std::move(rec));
  owned(accident_ids_).push_back(id);
  ++version_.accidents;
}

}  // namespace avtk::dataset
