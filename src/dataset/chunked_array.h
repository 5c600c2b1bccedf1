// avtk/dataset/chunked_array.h
//
// The persistent storage behind each failure_database domain
// (dataset/database.h): records plus their global record ids, held in
// fixed-size chunks of `chunk_size` entries behind shared pointers.
//
// Copying an array copies its chunk-pointer list, so the copy shares every
// chunk with the source. A chunk is immutable while shared: a mutation
// clones only the chunk it writes, and only when some other copy still
// holds it (clone-iff-shared). Full chunks are never appended to, so an
// append after a copy clones at most the partly filled tail; a relabel
// clones the one chunk it touches. A commit of Δ records on top of an
// N-record epoch therefore costs O(Δ + N / chunk_size), and freeing the
// superseded epoch releases its pointer list and its private tail only.
//
// Readers of a shared array are race-free by construction (a shared chunk
// is never written); mutation is single-owner — writers serialize
// externally, exactly as failure_database requires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

namespace avtk::dataset {

template <typename T>
class chunked_array {
 public:
  /// Entries per chunk: a power of two, so an index splits into chunk and
  /// offset with a shift and a mask.
  static constexpr std::size_t chunk_size = 128;
  static_assert((chunk_size & (chunk_size - 1)) == 0, "chunk_size must be a power of two");

  /// One block of records and their parallel global ids.
  struct chunk {
    std::vector<T> items;
    std::vector<std::uint64_t> ids;
  };

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    iterator() = default;
    iterator(const chunked_array* array, std::size_t pos) : array_(array), pos_(pos) { load(); }
    const T& operator*() const { return *item_; }
    const T* operator->() const { return item_; }
    /// Steps within the current chunk by pointer; only the first entry of
    /// the next chunk goes through the chunk list again.
    iterator& operator++() {
      ++pos_;
      if (pos_ % chunk_size == 0) {
        load();
      } else {
        ++item_;
      }
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const iterator& other) const { return pos_ == other.pos_; }

   private:
    void load() { item_ = pos_ < array_->size() ? &(*array_)[pos_] : nullptr; }

    const chunked_array* array_ = nullptr;
    std::size_t pos_ = 0;
    const T* item_ = nullptr;  ///< entry `pos_`; null at the end
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](std::size_t i) const { return chunks_[i / chunk_size]->items[i % chunk_size]; }
  /// The global record id stored with entry `i`.
  std::uint64_t id(std::size_t i) const { return chunks_[i / chunk_size]->ids[i % chunk_size]; }

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, size_); }

  /// The chunk list, oldest first. Two arrays share a chunk exactly when
  /// they hold the same pointer, which is how tests check structural
  /// sharing.
  std::size_t chunk_count() const { return chunks_.size(); }
  const chunk* chunk_at(std::size_t k) const { return chunks_[k].get(); }

  /// Appends one entry. A full tail starts a fresh chunk; a partly filled
  /// tail that another copy shares is cloned first.
  void push_back(T value, std::uint64_t id) {
    if (size_ % chunk_size == 0) {
      auto fresh = std::make_shared<chunk>();
      fresh->items.reserve(chunk_size);
      fresh->ids.reserve(chunk_size);
      chunks_.push_back(std::move(fresh));
    }
    chunk& tail = owned(chunks_.size() - 1);
    tail.items.push_back(std::move(value));
    tail.ids.push_back(id);
    ++size_;
  }

  /// Mutable access to entry `i`, cloning its chunk first iff it is
  /// shared.
  T& modify(std::size_t i) { return owned(i / chunk_size).items[i % chunk_size]; }

 private:
  // Clone-iff-shared. use_count can race only downward (another copy
  // dropping its reference), so a stale read merely clones unnecessarily —
  // it can never write a chunk another copy still reads.
  chunk& owned(std::size_t k) {
    auto& ptr = chunks_[k];
    if (ptr.use_count() != 1) {
      auto copy = std::make_shared<chunk>();
      copy->items.reserve(chunk_size);
      copy->ids.reserve(chunk_size);
      copy->items = ptr->items;
      copy->ids = ptr->ids;
      ptr = std::move(copy);
    }
    return *ptr;
  }

  std::vector<std::shared_ptr<chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace avtk::dataset
