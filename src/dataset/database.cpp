#include "dataset/database.h"

#include <stdexcept>

namespace avtk::dataset {

std::string database_version::to_string() const {
  return "d" + std::to_string(disengagements) + ".m" + std::to_string(mileage) + ".a" +
         std::to_string(accidents);
}

void failure_database::add_disengagement(disengagement_record rec) {
  add_disengagement(std::move(rec), disengagements_.size());
}

void failure_database::add_disengagement(disengagement_record rec, std::uint64_t id) {
  disengagements_.push_back(std::move(rec), id);
  ++version_.disengagements;
}

void failure_database::relabel_disengagement(std::size_t index, nlp::fault_tag tag,
                                             nlp::failure_category category) {
  if (index >= disengagements_.size()) {
    throw std::out_of_range("relabel_disengagement: index out of range");
  }
  auto& record = disengagements_.modify(index);
  record.tag = tag;
  record.category = category;
  ++version_.disengagements;
}

void failure_database::add_mileage(mileage_record rec) {
  add_mileage(std::move(rec), mileage_.size());
}

void failure_database::add_mileage(mileage_record rec, std::uint64_t id) {
  mileage_.push_back(std::move(rec), id);
  ++version_.mileage;
}

void failure_database::add_accident(accident_record rec) {
  add_accident(std::move(rec), accidents_.size());
}

void failure_database::add_accident(accident_record rec, std::uint64_t id) {
  accidents_.push_back(std::move(rec), id);
  ++version_.accidents;
}

}  // namespace avtk::dataset
