// String interner: stable SymbolId <-> std::string_view mapping.
//
// The schedule core (aaa::Schedule) stores every name — resources,
// variants, modules, operation labels — as a SymbolId into one
// Interner instead of per-item heap std::strings. Interning turns the
// scheduler hot path's string copies and map hashing into integer array
// indexing; names are resolved back to text only at the rendering
// boundary (to_string / gantt / to_csv / codegen / lint / verify).
//
// Guarantees:
//  - ids are dense and stable: the n-th distinct string interned gets id
//    n-1... starting after the reserved empty symbol (id 0), and keeps it
//    for the interner's lifetime, across any internal rehash;
//  - name() views stay valid for the interner's lifetime (characters
//    live in append-only arena chunks whose addresses never move);
//  - seeding: interning a resource set first (e.g. the architecture
//    graph's operators and media, in declaration order) makes those ids
//    dense array indices — SymbolId-indexed vectors replace
//    string-keyed maps.
//
// Shared base: an interner may continue an immutable base interner held
// through a shared_ptr. The base's ids resolve in the base, the
// interner's own ids follow them, intern()/find() look in the base
// first, and copies share the base instead of copying it. aaa::Problem
// builds one base per problem — resources, operation names, alternative
// names, compute labels — so every schedule built from it names its rows
// without copying a string, and the executive generated from a schedule
// shares the same base.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pdr::util {

using SymbolId = std::uint32_t;

/// Sentinel: "no symbol" (distinct from the empty string, which interns
/// as kEmptySymbol).
inline constexpr SymbolId kNoSymbol = static_cast<SymbolId>(-1);

/// The empty string's id: every Interner interns "" at construction.
inline constexpr SymbolId kEmptySymbol = 0;

class Interner {
 public:
  Interner();
  /// An interner continuing `base`: ids below base->size() name the
  /// base's symbols, and this interner's own ids follow them. The base
  /// must not change afterwards. A null base is a fresh interner.
  explicit Interner(std::shared_ptr<const Interner> base);

  // Copies share the base and rebuild the index of their own symbols
  // against the copy's own arena — the string_view keys must point into
  // *this* storage, not the source's.
  Interner(const Interner& other);
  Interner& operator=(const Interner& other);
  // Moves keep arena chunk addresses, so views and the index stay valid.
  Interner(Interner&&) noexcept = default;
  Interner& operator=(Interner&&) noexcept = default;

  /// Id of `s`, interning it first if unseen (the base's id when the
  /// base's index holds it). Ids are assigned densely in first-intern
  /// order.
  SymbolId intern(std::string_view s);

  /// Appends `s` as a fresh symbol without consulting or updating the
  /// find() index — the fast path for strings the caller knows are
  /// unique and never looked up by name (e.g. operation labels, which
  /// the algorithm graph validates as duplicate-free). The id is dense
  /// like any other and name() works as usual, but find() on this
  /// interner will not see it. Copies rebuild the index of their own
  /// symbols from storage, so an own appended symbol *is* findable in a
  /// copy (first id wins if the same text was also interned); a base's
  /// appended symbols stay unindexed.
  SymbolId append(std::string_view s);

  /// Appends the symbols `other` holds beyond this interner's size, as
  /// append() would, so each keeps its id. `other` must extend this
  /// interner: same base, and this interner's symbols are its first ones
  /// (a fresh interner on other.base() always is). A bulk copy of the
  /// names without the cost of indexing them.
  void append_all(const Interner& other);

  /// For each symbol, base and own alike, the first id holding its text:
  /// appended symbols may repeat a text. first_ids()[id] == id unless the
  /// text occurred before; empty when every text is distinct.
  std::vector<SymbolId> first_ids() const;

  /// Id of `s` if already interned (in the base or here), kNoSymbol
  /// otherwise. Never mutates.
  SymbolId find(std::string_view s) const;

  /// The string behind `id`; valid for the interner's lifetime. `id`
  /// must come from this interner or its base (checked).
  std::string_view name(SymbolId id) const;

  /// Number of symbols, the base's included (and the reserved empty one).
  std::size_t size() const { return base_size_ + spans_.size(); }

  /// The base this interner continues; null when it has none.
  const std::shared_ptr<const Interner>& base() const { return base_; }

 private:
  struct Span {
    const char* data;
    std::uint32_t len;
  };

  /// Copies `s` into the arena (growing it as needed) and returns the
  /// stable address of the copy.
  const char* store(std::string_view s);
  /// Shares `other`'s base and rebuilds this interner's arena and index
  /// from `other`'s own symbols.
  void assign(const Interner& other);
  /// Appends `s` to the arena and the id table, unindexed.
  SymbolId push(std::string_view s, const char* where);

  std::shared_ptr<const Interner> base_;
  std::size_t base_size_ = 0;  ///< base_->size(): the first own id

  // Symbol text lives in append-only chunks: a million short names cost a
  // few hundred block allocations (and frees) instead of one heap string
  // per symbol, which keeps schedule construction *and* destruction off
  // the allocator in the scheduler benchmarks.
  std::vector<Span> spans_;                      ///< id - base_size_ -> view into chunks_
  std::vector<std::unique_ptr<char[]>> chunks_;  ///< arena blocks; addresses never move
  std::size_t chunk_used_ = 0;                   ///< bytes consumed in chunks_.back()
  std::size_t chunk_cap_ = 0;                    ///< capacity of chunks_.back()
  std::unordered_map<std::string_view, SymbolId> index_;  ///< views into chunks_
};

}  // namespace pdr::util
