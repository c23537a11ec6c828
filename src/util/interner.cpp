#include "util/interner.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace pdr::util {

namespace {
/// Arena block granularity; symbols longer than this get a dedicated block.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
}  // namespace

Interner::Interner() { intern(""); }

Interner::Interner(std::shared_ptr<const Interner> base) : base_(std::move(base)) {
  if (base_ == nullptr) {
    intern("");
    return;
  }
  base_size_ = base_->size();
}

Interner::Interner(const Interner& other) { assign(other); }

Interner& Interner::operator=(const Interner& other) {
  if (this == &other) return *this;
  assign(other);
  return *this;
}

void Interner::assign(const Interner& other) {
  base_ = other.base_;
  base_size_ = other.base_size_;
  spans_.clear();
  chunks_.clear();
  chunk_used_ = 0;
  chunk_cap_ = 0;
  index_.clear();
  spans_.reserve(other.spans_.size());
  index_.reserve(other.spans_.size());
  // Rebuild the index from storage: own appended symbols *are* findable
  // in the copy, and emplace keeps the first id when texts collide.
  for (const Span& span : other.spans_) {
    const SymbolId id = push({span.data, span.len}, "Interner::assign");
    index_.emplace(name(id), id);
  }
}

const char* Interner::store(std::string_view s) {
  if (chunks_.empty() || s.size() > chunk_cap_ - chunk_used_) {
    const std::size_t cap = std::max(kChunkBytes, s.size());
    chunks_.push_back(std::make_unique<char[]>(cap));
    chunk_cap_ = cap;
    chunk_used_ = 0;
  }
  char* dst = chunks_.back().get() + chunk_used_;
  if (!s.empty()) std::memcpy(dst, s.data(), s.size());
  chunk_used_ += s.size();
  return dst;
}

SymbolId Interner::push(std::string_view s, const char* where) {
  PDR_CHECK(s.size() <= std::numeric_limits<std::uint32_t>::max(), where, "symbol too long");
  const auto id = static_cast<SymbolId>(size());
  spans_.push_back({store(s), static_cast<std::uint32_t>(s.size())});
  return id;
}

SymbolId Interner::intern(std::string_view s) {
  const SymbolId found = find(s);
  if (found != kNoSymbol) return found;
  const SymbolId id = push(s, "Interner::intern");
  index_.emplace(name(id), id);
  return id;
}

SymbolId Interner::append(std::string_view s) { return push(s, "Interner::append"); }

void Interner::append_all(const Interner& other) {
  PDR_CHECK(base_ == other.base_ && size() <= other.size(), "Interner::append_all",
            "the source does not extend this interner");
  spans_.reserve(other.spans_.size());
  for (std::size_t k = spans_.size(); k < other.spans_.size(); ++k) {
    const Span& span = other.spans_[k];
    spans_.push_back({store({span.data, span.len}), span.len});
  }
}

// The texts' hashes are read in id order and bucketed by their top bits;
// each bucket is then checked with a table small enough to stay in cache,
// where one index over all texts would be probed at random.
std::vector<SymbolId> Interner::first_ids() const {
  // 32 bits of each text's hash: the top ones pick the bucket, the low
  // ones the slot in its table.
  constexpr int kBucketBits = 10;
  const auto bucket_of = [](std::uint32_t hash) { return hash >> (32 - kBucketBits); };
  std::vector<std::uint32_t> hash(size());
  std::vector<std::size_t> bucket_end((std::size_t{1} << kBucketBits) + 1, 0);
  for (SymbolId id = 0; id < hash.size(); ++id) {
    hash[id] = static_cast<std::uint32_t>(std::hash<std::string_view>{}(name(id)) >> 32);
    ++bucket_end[bucket_of(hash[id]) + 1];
  }
  for (std::size_t k = 1; k < bucket_end.size(); ++k) bucket_end[k] += bucket_end[k - 1];
  struct Keyed {
    std::uint32_t hash;
    SymbolId id;
  };
  std::vector<Keyed> keyed(hash.size());
  for (SymbolId id = 0; id < hash.size(); ++id)
    keyed[bucket_end[bucket_of(hash[id])]++] = Keyed{hash[id], id};

  std::vector<SymbolId> first;
  std::vector<std::uint32_t> slots;  ///< open addressing over one bucket: k - begin + 1, 0 = empty
  for (std::size_t bucket = 0, begin = 0; bucket + 1 < bucket_end.size(); ++bucket) {
    // Filling advanced each bucket's start to its end; ids ascend within,
    // so the first id of a text is the one a later equal text finds.
    const std::size_t end = bucket_end[bucket];
    std::size_t capacity = 16;
    while (capacity < 2 * (end - begin)) capacity *= 2;
    slots.assign(capacity, 0);
    for (std::size_t k = begin; k < end; ++k) {
      const Keyed& key = keyed[k];
      std::size_t i = key.hash & (capacity - 1);
      for (; slots[i] != 0; i = (i + 1) & (capacity - 1)) {
        const Keyed& earlier = keyed[begin + slots[i] - 1];
        if (earlier.hash != key.hash || name(earlier.id) != name(key.id)) continue;
        if (first.empty()) {
          first.resize(size());
          std::iota(first.begin(), first.end(), SymbolId{0});
        }
        first[key.id] = earlier.id;
        break;
      }
      if (slots[i] == 0) slots[i] = static_cast<std::uint32_t>(k - begin + 1);
    }
    begin = end;
  }
  return first;
}

SymbolId Interner::find(std::string_view s) const {
  if (base_ != nullptr) {
    const SymbolId id = base_->find(s);
    if (id != kNoSymbol) return id;
  }
  const auto it = index_.find(s);
  return it == index_.end() ? kNoSymbol : it->second;
}

std::string_view Interner::name(SymbolId id) const {
  if (id < base_size_) return base_->name(id);
  PDR_CHECK(id - base_size_ < spans_.size(), "Interner::name", "unknown symbol id");
  const Span& span = spans_[id - base_size_];
  return {span.data, span.len};
}

}  // namespace pdr::util
