// util::Interner contracts, and the rendering-boundary invariant the
// schedule core's SoA refactor rests on:
//
//  - ids are dense, first-intern-ordered and stable across any internal
//    rehash; name() views stay valid for the interner's lifetime;
//  - copies rebuild the index against their own storage (the string_view
//    keys must never dangle into the source);
//  - an interner on a shared base continues the base's ids, looks names
//    up there first, never writes to it, and shares it with its copies;
//  - the adequation engine seeds the schedule's interner from the
//    architecture graph, so resource ids are dense array indices;
//  - the SoA renderers (to_string / to_csv / gantt) and the generated
//    executive are byte-identical to a legacy AoS rendering of the same
//    schedule, across a strategy-fuzz corpus, for the ready queue and
//    the rescanning reference alike.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/macrocode.hpp"
#include "bench/generators.hpp"
#include "bench/rescan_reference.hpp"
#include "util/error.hpp"
#include "util/interner.hpp"
#include "util/strings.hpp"

namespace pdr {
namespace {

using util::Interner;
using util::kEmptySymbol;
using util::kNoSymbol;
using util::SymbolId;

// --- unit: id assignment -----------------------------------------------------

TEST(Interner, EmptyStringIsReservedAtConstruction) {
  Interner interner;
  EXPECT_EQ(interner.size(), 1u);
  EXPECT_EQ(interner.find(""), kEmptySymbol);
  EXPECT_EQ(interner.intern(""), kEmptySymbol);
  EXPECT_EQ(interner.name(kEmptySymbol), "");
}

TEST(Interner, IdsAreDenseInFirstInternOrder) {
  Interner interner;
  EXPECT_EQ(interner.intern("CPU"), 1u);
  EXPECT_EQ(interner.intern("D1"), 2u);
  EXPECT_EQ(interner.intern("BUS"), 3u);
  // Re-interning is idempotent and does not mint new ids.
  EXPECT_EQ(interner.intern("D1"), 2u);
  EXPECT_EQ(interner.size(), 4u);
  EXPECT_EQ(interner.find("BUS"), 3u);
  EXPECT_EQ(interner.find("never-seen"), kNoSymbol);
  EXPECT_EQ(interner.name(1), "CPU");
  EXPECT_EQ(interner.name(2), "D1");
  EXPECT_EQ(interner.name(3), "BUS");
}

TEST(Interner, InternCopiesTheCallersBuffer) {
  Interner interner;
  SymbolId id = kNoSymbol;
  {
    std::string transient = "ephemeral-name";
    id = interner.intern(transient);
    transient.assign(transient.size(), 'x');  // clobber the source buffer
  }
  EXPECT_EQ(interner.name(id), "ephemeral-name");
  EXPECT_EQ(interner.find("ephemeral-name"), id);
}

TEST(Interner, AppendAllKeepsEveryIdUnindexed) {
  Interner source;
  source.intern("CPU");
  source.append("op1");
  source.intern("BUS");
  Interner copy;
  copy.append_all(source);
  ASSERT_EQ(copy.size(), source.size());
  for (SymbolId id = 0; id < source.size(); ++id) EXPECT_EQ(copy.name(id), source.name(id));
  EXPECT_EQ(copy.find("CPU"), kNoSymbol);  // appended, so not in the index
}

TEST(Interner, FirstIdsMapRepeatedTextsToTheirFirstId) {
  Interner interner;
  EXPECT_TRUE(interner.first_ids().empty());
  const SymbolId a = interner.append("a_to_b");
  const SymbolId b = interner.append("b");
  EXPECT_TRUE(interner.first_ids().empty());  // every text distinct
  const SymbolId a2 = interner.append("a_to_b");
  const SymbolId empty2 = interner.append("");
  const SymbolId a3 = interner.append("a_to_b");
  const std::vector<SymbolId> first = interner.first_ids();
  ASSERT_EQ(first.size(), interner.size());
  EXPECT_EQ(first[a], a);
  EXPECT_EQ(first[b], b);
  EXPECT_EQ(first[a2], a);
  EXPECT_EQ(first[a3], a);
  EXPECT_EQ(first[empty2], kEmptySymbol);
  // Many distinct texts, so every bucket of the check holds several.
  Interner many;
  std::vector<SymbolId> twice;
  for (int i = 0; i < 5000; ++i) many.append("op" + std::to_string(i));
  for (int i = 0; i < 5000; i += 7) twice.push_back(many.append("op" + std::to_string(i)));
  const std::vector<SymbolId> first_many = many.first_ids();
  ASSERT_EQ(first_many.size(), many.size());
  for (SymbolId id = 0; id < many.size(); ++id) {
    const SymbolId want = id <= 5000 ? id : static_cast<SymbolId>(1 + 7 * (id - 5001));
    EXPECT_EQ(first_many[id], want) << many.name(id);
  }
  EXPECT_EQ(twice.size(), many.size() - 5001);
}

// --- property: stability across rehash ---------------------------------------

TEST(InternerProperty, IdsAndViewsStableAcrossRehash) {
  constexpr int kSymbols = 10'000;  // far past any initial bucket count
  Interner interner;
  std::vector<std::pair<SymbolId, std::string>> seen;
  std::vector<const char*> data;  // name() storage addresses at intern time
  seen.reserve(kSymbols);
  for (int i = 0; i < kSymbols; ++i) {
    const std::string s = "sym_" + std::to_string(i * 7919 % kSymbols) + "_" + std::to_string(i);
    const SymbolId id = interner.intern(s);
    seen.emplace_back(id, s);
    data.push_back(interner.name(id).data());
  }
  // Ids are dense and were assigned in intern order...
  for (int i = 0; i < kSymbols; ++i) EXPECT_EQ(seen[i].first, static_cast<SymbolId>(i + 1));
  // ...and after thousands of rehash-triggering inserts, every earlier
  // id still resolves to the same string at the same storage address.
  for (int i = 0; i < kSymbols; ++i) {
    const std::string_view view = interner.name(seen[i].first);
    EXPECT_EQ(view, seen[i].second);
    EXPECT_EQ(view.data(), data[i]);
    EXPECT_EQ(interner.find(seen[i].second), seen[i].first);
  }
}

TEST(InternerProperty, CopyRebuildsIndexAgainstItsOwnStorage) {
  Interner copy;
  const char* original_data = nullptr;
  {
    Interner original;
    original.intern("alpha");
    original.intern("beta");
    original_data = original.name(1).data();
    copy = original;
  }  // original destroyed: any index entry pointing into it now dangles
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.find("alpha"), 1u);
  EXPECT_EQ(copy.find("beta"), 2u);
  EXPECT_EQ(copy.name(1), "alpha");
  EXPECT_NE(copy.name(1).data(), original_data);  // owns its own bytes
  // The copy keeps interning independently.
  EXPECT_EQ(copy.intern("gamma"), 3u);
}

TEST(InternerProperty, MoveKeepsViewsValid) {
  Interner source;
  source.intern("stable");
  const std::string_view before = source.name(1);
  Interner moved = std::move(source);
  EXPECT_EQ(moved.name(1), "stable");
  EXPECT_EQ(moved.name(1).data(), before.data());  // arena chunks never move
}

TEST(InternerProperty, OversizedSymbolsGetDedicatedChunksAndViewsStay) {
  // Symbols longer than the arena block roll into dedicated chunks;
  // neighbours interned before and after keep their addresses.
  Interner interner;
  const SymbolId before_id = interner.intern("before");
  const char* before_data = interner.name(before_id).data();
  const std::string big(1 << 20, 'q');  // 1 MiB, far past any block size
  const SymbolId big_id = interner.intern(big);
  const SymbolId after_id = interner.intern("after");
  for (int i = 0; i < 1000; ++i) interner.append("filler_" + std::to_string(i));
  EXPECT_EQ(interner.name(big_id), big);
  EXPECT_EQ(interner.name(before_id), "before");
  EXPECT_EQ(interner.name(before_id).data(), before_data);
  EXPECT_EQ(interner.name(after_id), "after");
  EXPECT_EQ(interner.find(big), big_id);
}

// --- shared base ------------------------------------------------------------

std::shared_ptr<const Interner> make_base() {
  auto base = std::make_shared<Interner>();
  base->intern("CPU");    // 1
  base->intern("BUS");    // 2
  base->append("op1");    // 3, unindexed
  base->intern("mod_a");  // 4
  return base;
}

TEST(InternerBase, IdsContinueAfterTheBase) {
  const auto base = make_base();
  Interner own(base);
  EXPECT_EQ(own.size(), base->size());
  EXPECT_EQ(own.base(), base);
  EXPECT_EQ(own.intern("D1"), 5u);
  EXPECT_EQ(own.append("op2"), 6u);
  EXPECT_EQ(own.size(), 7u);
  for (SymbolId id = 0; id < base->size(); ++id) EXPECT_EQ(own.name(id), base->name(id));
  EXPECT_EQ(own.name(5), "D1");
  EXPECT_EQ(own.name(6), "op2");
  EXPECT_THROW((void)own.name(7), pdr::Error);
  // A null base is a fresh interner.
  const Interner fresh(nullptr);
  EXPECT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh.find(""), kEmptySymbol);
}

TEST(InternerBase, FindAndInternSeeBaseAndOwnSymbols) {
  const auto base = make_base();
  Interner own(base);
  const SymbolId d1 = own.intern("D1");
  EXPECT_EQ(own.find(""), kEmptySymbol);
  EXPECT_EQ(own.find("CPU"), 1u);
  EXPECT_EQ(own.intern("BUS"), 2u);  // the base's id, no new symbol
  EXPECT_EQ(own.intern("mod_a"), 4u);
  EXPECT_EQ(own.find("D1"), d1);
  EXPECT_EQ(own.intern("D1"), d1);
  EXPECT_EQ(own.size(), 6u);
  // The base's appended symbols stay unindexed, as in the base itself.
  EXPECT_EQ(own.find("op1"), kNoSymbol);
  EXPECT_EQ(own.find("never-seen"), kNoSymbol);
}

TEST(InternerBase, AppendNeverTouchesTheBase) {
  const auto base = make_base();
  const std::size_t base_size = base->size();
  Interner a(base);
  Interner b(base);
  const SymbolId a_id = a.append("CPU");  // a repeat of a base text
  const SymbolId b_id = b.intern("only_in_b");
  EXPECT_EQ(a_id, b_id);  // both first own ids
  EXPECT_EQ(base->size(), base_size);
  EXPECT_EQ(base->find("only_in_b"), kNoSymbol);
  EXPECT_EQ(a.find("only_in_b"), kNoSymbol);
  EXPECT_EQ(a.find("CPU"), 1u);  // the base's id wins
  EXPECT_EQ(a.name(a_id), "CPU");
  EXPECT_EQ(b.name(b_id), "only_in_b");
}

TEST(InternerBase, CopiesShareTheBaseAndAppendAllCopiesOwnSymbols) {
  const auto base = make_base();
  Interner own(base);
  own.intern("D1");
  own.append("op2");
  const Interner copy = own;
  EXPECT_EQ(copy.base(), base);  // shared, not copied
  ASSERT_EQ(copy.size(), own.size());
  for (SymbolId id = 0; id < own.size(); ++id) EXPECT_EQ(copy.name(id), own.name(id));
  EXPECT_EQ(copy.name(1).data(), own.name(1).data());  // base text, one copy
  EXPECT_NE(copy.name(5).data(), own.name(5).data());  // own text, its own bytes
  EXPECT_EQ(copy.find("op2"), 6u);  // copies index their own appended symbols

  Interner extended(base);
  extended.append_all(own);
  ASSERT_EQ(extended.size(), own.size());
  for (SymbolId id = 0; id < own.size(); ++id) EXPECT_EQ(extended.name(id), own.name(id));
  EXPECT_EQ(extended.find("D1"), kNoSymbol);  // appended, so not in the index
  Interner unrelated;
  EXPECT_THROW(unrelated.append_all(own), pdr::Error);  // a different base
}

TEST(InternerBase, FirstIdsDedupAcrossBaseAndOwnSymbols) {
  const auto base = make_base();
  Interner own(base);
  EXPECT_TRUE(own.first_ids().empty());
  const SymbolId op1 = own.append("op1");  // repeats the base's op1 (id 3)
  const SymbolId fresh = own.append("fresh");
  const SymbolId again = own.append("fresh");
  const std::vector<SymbolId> first = own.first_ids();
  ASSERT_EQ(first.size(), own.size());
  for (SymbolId id = 0; id < base->size(); ++id) EXPECT_EQ(first[id], id);
  EXPECT_EQ(first[op1], 3u);
  EXPECT_EQ(first[fresh], fresh);
  EXPECT_EQ(first[again], fresh);
}

// --- dense seeding from the architecture graph -------------------------------

TEST(InternerSeeding, ScheduleSymbolsStartWithArchitectureResources) {
  const aaa::ArchitectureGraph arch = bench::bench_architecture(/*cpus=*/2, /*regions=*/2);
  bench::GeneratorConfig cfg;
  cfg.shape = bench::GraphShape::Layered;
  cfg.n_ops = 30;
  cfg.width = 5;
  cfg.fanout = 2;
  cfg.conditioned_every = 3;
  cfg.seed = 11;
  const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
  const aaa::Schedule s = aaa::Adequation(g, arch, bench::bench_durations()).run();

  // Operators first, then media, both in architecture declaration order,
  // starting right after the reserved empty symbol.
  SymbolId next = kEmptySymbol + 1;
  for (const aaa::NodeId n : arch.operators()) {
    EXPECT_EQ(s.symbols.find(arch.op(n).name), next) << arch.op(n).name;
    ++next;
  }
  for (const aaa::NodeId n : arch.media()) {
    EXPECT_EQ(s.symbols.find(arch.medium(n).name), next) << arch.medium(n).name;
    ++next;
  }
  // Dense seeding makes resource_busy a direct-indexed table over them.
  EXPECT_GE(s.resource_busy.size(), static_cast<std::size_t>(next));
}

TEST(InternerSeeding, RunsShareTheProblemsNameTable) {
  const aaa::ArchitectureGraph arch = bench::bench_architecture(/*cpus=*/2, /*regions=*/2);
  bench::GeneratorConfig cfg;
  cfg.shape = bench::GraphShape::Layered;
  cfg.n_ops = 30;
  cfg.width = 5;
  cfg.fanout = 2;
  cfg.conditioned_every = 3;
  cfg.seed = 11;
  const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
  const aaa::DurationTable durations = bench::bench_durations();
  const aaa::Adequation adequation(g, arch, durations);
  const aaa::Schedule s = adequation.run();
  aaa::AdequationOptions options;
  options.prefetch = false;
  const aaa::Schedule t = adequation.run(options);

  // Every run continues one base, and every name a run stores is in it.
  ASSERT_NE(s.symbols.base(), nullptr);
  EXPECT_EQ(s.symbols.base(), t.symbols.base());
  EXPECT_EQ(s.symbols.size(), s.symbols.base()->size());
  // A copied schedule shares the base and renders identically.
  const aaa::Schedule copy = s;
  EXPECT_EQ(copy.symbols.base(), s.symbols.base());
  EXPECT_EQ(copy.to_string(), s.to_string());
  EXPECT_EQ(copy.to_csv(), s.to_csv());
  EXPECT_EQ(copy.gantt(), s.gantt());
  // So does the executive generated from it.
  const aaa::Executive exec = aaa::generate_executive(copy, g, arch);
  EXPECT_EQ(exec.names->base(), s.symbols.base());
  EXPECT_EQ(exec.to_string(), aaa::generate_executive(s, g, arch).to_string());
}

// --- exporter byte-identity over a strategy-fuzz corpus ----------------------

/// The pre-SoA renderers, reproduced over the materialized per-item view.
/// Byte-for-byte what Schedule::to_string/to_csv emitted when items were
/// a std::vector<ScheduledItem>.
std::string legacy_to_string(const aaa::Schedule& s) {
  std::string out = strprintf("schedule: makespan %.3f us, %d reconfigs (%.3f us exposed)\n",
                              s.makespan / 1000.0, s.reconfig_count,
                              s.reconfig_exposed / 1000.0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const aaa::ScheduledItem item = s.item(i);
    out += strprintf("  %9.3f..%9.3f us  %-8s %-10s %s\n", item.start / 1000.0,
                     item.end / 1000.0, aaa::item_kind_name(item.kind), item.resource.c_str(),
                     item.label.c_str());
  }
  return out;
}

std::string legacy_to_csv(const aaa::Schedule& s) {
  std::string out = "kind,label,resource,start_ns,end_ns,variant,module\n";
  for (std::size_t i = 0; i < s.size(); ++i) {
    const aaa::ScheduledItem item = s.item(i);
    out += strprintf("%s,%s,%s,%lld,%lld,%s,%s\n", aaa::item_kind_name(item.kind),
                     item.label.c_str(), item.resource.c_str(),
                     static_cast<long long>(item.start), static_cast<long long>(item.end),
                     item.variant.c_str(), item.module.c_str());
  }
  return out;
}

TEST(ExporterByteIdentity, SoARenderersMatchLegacyAcrossStrategyFuzzCorpus) {
  const aaa::ArchitectureGraph arch = bench::bench_architecture(2, 2);
  const aaa::DurationTable durations = bench::bench_durations();
  const bench::GraphShape shapes[] = {bench::GraphShape::Layered, bench::GraphShape::Random,
                                      bench::GraphShape::Streaming};
  const aaa::MappingStrategy strategies[] = {aaa::MappingStrategy::SynDExList,
                                             aaa::MappingStrategy::RoundRobin,
                                             aaa::MappingStrategy::FirstFeasible};
  int checked = 0;
  for (const bench::GraphShape shape : shapes) {
    for (const aaa::MappingStrategy strategy : strategies) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        bench::GeneratorConfig cfg;
        cfg.shape = shape;
        cfg.n_ops = 40;
        cfg.width = 6;
        cfg.fanout = 3;
        cfg.conditioned_every = 4;
        cfg.seed = seed;
        const aaa::AlgorithmGraph g = bench::generate_graph(cfg);

        aaa::AdequationOptions options;
        options.strategy = strategy;
        options.prefetch = seed % 2 == 0;
        const aaa::Schedule s = aaa::Adequation(g, arch, durations).run(options);

        const std::string context = cfg.name() + " / " +
                                    aaa::mapping_strategy_name(strategy) + " / seed " +
                                    std::to_string(seed);
        EXPECT_EQ(s.to_string(), legacy_to_string(s)) << context;
        EXPECT_EQ(s.to_csv(), legacy_to_csv(s)) << context;

        // The ready queue and the rescanning reference must emit
        // byte-identical schedules, renderings and generated executives.
        const aaa::Schedule r =
            bench::schedule_rescan_reference(aaa::Adequation(g, arch, durations), options);
        EXPECT_EQ(s.to_csv(), r.to_csv()) << context;
        EXPECT_EQ(s.to_string(), r.to_string()) << context;
        EXPECT_EQ(s.gantt(), r.gantt()) << context;
        EXPECT_EQ(aaa::generate_executive(s, g, arch).to_string(),
                  aaa::generate_executive(r, g, arch).to_string())
            << context;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 27);
}

}  // namespace
}  // namespace pdr
