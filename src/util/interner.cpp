#include "util/interner.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <limits>

#include "util/error.hpp"

namespace pdr::util {

namespace {
/// Arena block granularity; symbols longer than this get a dedicated block.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
}  // namespace

Interner::Interner() { intern(""); }

Interner::Interner(const Interner& other) { assign(other); }

Interner& Interner::operator=(const Interner& other) {
  if (this == &other) return *this;
  assign(other);
  return *this;
}

void Interner::assign(const Interner& other) {
  spans_.clear();
  chunks_.clear();
  chunk_used_ = 0;
  chunk_cap_ = 0;
  index_.clear();
  spans_.reserve(other.spans_.size());
  index_.reserve(other.spans_.size());
  // Rebuild the index from storage: appended symbols *are* findable in
  // the copy, and emplace keeps the first id when texts collide.
  for (SymbolId id = 0; id < other.spans_.size(); ++id) {
    const std::string_view s = other.name(id);
    const char* data = store(s);
    spans_.push_back({data, static_cast<std::uint32_t>(s.size())});
    index_.emplace(std::string_view(data, s.size()), id);
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

SymbolId Interner::intern(std::string_view s) {
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  PDR_CHECK(s.size() <= std::numeric_limits<std::uint32_t>::max(), "Interner::intern",
            "symbol too long");
  const SymbolId id = static_cast<SymbolId>(spans_.size());
  const char* data = store(s);
  spans_.push_back({data, static_cast<std::uint32_t>(s.size())});
  index_.emplace(std::string_view(data, s.size()), id);
  return id;
}

SymbolId Interner::append(std::string_view s) {
  PDR_CHECK(s.size() <= std::numeric_limits<std::uint32_t>::max(), "Interner::append",
            "symbol too long");
  const SymbolId id = static_cast<SymbolId>(spans_.size());
  const char* data = store(s);
  spans_.push_back({data, static_cast<std::uint32_t>(s.size())});
  return id;
}

void Interner::append_all(const Interner& other) {
  spans_.reserve(spans_.size() + other.spans_.size() - 1);
  for (SymbolId id = 1; id < other.spans_.size(); ++id) {
    const Span& span = other.spans_[id];
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
  std::vector<std::uint32_t> hash(spans_.size());
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
          first.resize(spans_.size());
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
  const auto it = index_.find(s);
  return it == index_.end() ? kNoSymbol : it->second;
}

std::string_view Interner::name(SymbolId id) const {
  PDR_CHECK(id < spans_.size(), "Interner::name", "unknown symbol id");
  return {spans_[id].data, spans_[id].len};
}

}  // namespace pdr::util
