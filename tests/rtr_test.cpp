#include <gtest/gtest.h>

#include "obs/sinks.hpp"
#include "rtr/bitstream_store.hpp"
#include "rtr/cache.hpp"
#include "rtr/manager.hpp"
#include "rtr/prefetch.hpp"
#include "rtr/protocol_builder.hpp"
#include "synth/bitgen.hpp"
#include "synth/flow.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pdr::rtr {
namespace {

using namespace pdr::literals;

synth::DesignBundle test_bundle() {
  synth::ModularDesignFlow flow(fabric::xc2v2000());
  flow.add_static("ifft", "ifft", {{"n", 64}});
  flow.add_region("D1", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  return flow.run();
}

// --- store -----------------------------------------------------------------------

/// A validated stream of the first `n` frames of CLB column 3.
std::shared_ptr<const fabric::ValidatedStream> column_stream(std::size_t n) {
  const fabric::DeviceModel device = fabric::xc2v2000();
  auto frames = fabric::FrameMap(device).clb_column_frames(3);
  frames.resize(n);
  return fabric::ValidatedStream::parse(device,
                                        synth::generate_partial_bitstream(device, frames, 5));
}

TEST(BitstreamStore, AddGetFetchTime) {
  BitstreamStore store(1e6, 1000);  // 1 MB/s, 1 us latency
  const auto stream = column_stream(1);
  const Bytes size = stream->bytes().size();
  store.add("m", stream);
  EXPECT_TRUE(store.contains("m"));
  EXPECT_FALSE(store.contains("x"));
  EXPECT_EQ(store.size_of("m"), size);
  EXPECT_EQ(store.fetch_time("m"), 1000 + static_cast<TimeNs>(size) * 1000);  // 1 us per byte
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.total_bytes(), size);
}

TEST(BitstreamStore, ReplaceAndErrors) {
  BitstreamStore store(1e6, 0);
  store.add("m", column_stream(1));
  const auto replacement = column_stream(2);
  store.add("m", replacement);
  EXPECT_EQ(store.validated("m"), replacement);
  EXPECT_EQ(store.size_of("m"), replacement->bytes().size());
  EXPECT_THROW(store.get("ghost"), pdr::Error);
  EXPECT_THROW(store.add("", replacement), pdr::Error);
  EXPECT_THROW(store.add("e", nullptr), pdr::Error);
  EXPECT_THROW(BitstreamStore(0.0, 0), pdr::Error);
}

TEST(BitstreamStore, SharesTheHandleAndDamagesOnlyAPrivateCopy) {
  const synth::DesignBundle bundle = test_bundle();
  const auto& artifact = bundle.variant("D1", "qam16");
  BitstreamStore store(1e6, 0);
  store.add("qam16", artifact.stream);
  EXPECT_EQ(store.validated("qam16"), artifact.stream);
  EXPECT_EQ(store.get("qam16").data(), artifact.stream->bytes().data());  // shared, not copied

  store.corrupt("qam16", 100);
  EXPECT_EQ(store.validated("qam16"), nullptr);
  EXPECT_EQ(store.get("qam16")[100], artifact.bitstream[100] ^ 0xFF);
  EXPECT_TRUE(std::ranges::equal(artifact.stream->bytes(), artifact.bitstream));
  EXPECT_EQ(store.size_of("qam16"), artifact.bitstream.size());

  store.repair("qam16");
  EXPECT_EQ(store.validated("qam16"), artifact.stream);
  EXPECT_EQ(store.get("qam16").data(), artifact.stream->bytes().data());
  EXPECT_EQ(store.repairs(), 1);

  // Damage that cancels itself out is not a repair; the handle comes back.
  store.corrupt("qam16", 7, 0x0F);
  store.corrupt("qam16", 7, 0x0F);
  EXPECT_EQ(store.validated("qam16"), nullptr);
  store.repair("qam16");
  EXPECT_EQ(store.repairs(), 1);
  EXPECT_EQ(store.validated("qam16"), artifact.stream);
  EXPECT_THROW(store.add("none", std::shared_ptr<const fabric::ValidatedStream>()), pdr::Error);
}

// --- cache -----------------------------------------------------------------------

TEST(BitstreamCache, HitMissAndLru) {
  BitstreamCache cache(100);
  EXPECT_FALSE(cache.lookup("a"));
  cache.insert("a", 40);
  cache.insert("b", 40);
  EXPECT_TRUE(cache.lookup("a"));  // refreshes a
  cache.insert("c", 40);           // evicts b (LRU)
  EXPECT_TRUE(cache.lookup("a"));
  EXPECT_FALSE(cache.lookup("b"));
  EXPECT_TRUE(cache.lookup("c"));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LE(cache.used(), cache.capacity());
}

TEST(BitstreamCache, OversizedNeverCached) {
  BitstreamCache cache(10);
  cache.insert("big", 50);
  EXPECT_FALSE(cache.lookup("big"));
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(BitstreamCache, InvalidateRemoves) {
  BitstreamCache cache(100);
  cache.insert("a", 10);
  cache.invalidate("a");
  EXPECT_FALSE(cache.lookup("a"));
  cache.invalidate("ghost");  // no-op
}

TEST(BitstreamCache, HitRateAccounting) {
  BitstreamCache cache(100);
  cache.insert("a", 10);
  cache.lookup("a");
  cache.lookup("b");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(BitstreamCache, ReinsertUpdatesSize) {
  BitstreamCache cache(100);
  cache.insert("a", 90);
  cache.insert("a", 10);
  EXPECT_EQ(cache.used(), 10u);
  cache.insert("b", 80);
  EXPECT_TRUE(cache.lookup("a"));
  EXPECT_TRUE(cache.lookup("b"));
}

TEST(BitstreamCache, ReinsertGrowingEvictsOthers) {
  // Re-inserting an entry at a larger size must make room like a fresh
  // insert would, not silently blow the budget.
  BitstreamCache cache(100);
  cache.insert("a", 40);
  cache.insert("b", 40);
  cache.insert("a", 80);  // now only a fits alongside nothing else
  EXPECT_LE(cache.used(), cache.capacity());
  EXPECT_TRUE(cache.lookup("a"));
  EXPECT_FALSE(cache.lookup("b"));
  EXPECT_GT(cache.evictions(), 0);
}

TEST(BitstreamCache, LookupPromotionChangesEvictionOrder) {
  BitstreamCache cache(90);
  cache.insert("a", 30);
  cache.insert("b", 30);
  cache.insert("c", 30);
  EXPECT_TRUE(cache.lookup("a"));  // a becomes most recent; b is now LRU
  cache.insert("d", 30);
  EXPECT_FALSE(cache.lookup("b"));
  EXPECT_TRUE(cache.lookup("a"));
  EXPECT_TRUE(cache.lookup("c"));
  EXPECT_TRUE(cache.lookup("d"));
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(BitstreamCache, InvalidateAfterEvictionIsNoop) {
  // A module staged earlier may have been evicted by later inserts by the
  // time it is invalidated; the invalidate must not disturb the survivors.
  BitstreamCache cache(50);
  cache.insert("staged", 30);
  cache.insert("x", 30);  // evicts staged
  EXPECT_FALSE(cache.lookup("staged"));
  cache.invalidate("staged");
  EXPECT_TRUE(cache.lookup("x"));
  EXPECT_EQ(cache.used(), 30u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(BitstreamCache, ZeroCapacityCachesNothing) {
  BitstreamCache cache(0);
  cache.insert("a", 1);
  EXPECT_FALSE(cache.lookup("a"));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.used(), 0u);
  cache.invalidate("a");  // no-op, must not throw
  EXPECT_EQ(cache.evictions(), 0);
}

// --- prefetch policies -------------------------------------------------------------

TEST(Prefetch, NoneNeverPredicts) {
  NonePrefetch p;
  EXPECT_FALSE(p.predict("D1", "qpsk").has_value());
  EXPECT_STREQ(p.name(), "none");
}

TEST(Prefetch, ScheduleLookaheadFollowsQueue) {
  ScheduleLookahead p;
  p.feed("D1", {"qpsk", "qpsk", "qam16", "qpsk"});
  // Currently qpsk resident; next different demand is qam16.
  EXPECT_EQ(p.predict("D1", "qpsk").value(), "qam16");
  p.observe("D1", "qpsk");
  p.observe("D1", "qpsk");
  EXPECT_EQ(p.predict("D1", "qpsk").value(), "qam16");
  p.observe("D1", "qam16");
  EXPECT_EQ(p.predict("D1", "qam16").value(), "qpsk");
  p.observe("D1", "qpsk");
  EXPECT_FALSE(p.predict("D1", "qpsk").has_value());  // queue exhausted
  EXPECT_EQ(p.pending("D1"), 0u);
}

TEST(Prefetch, ScheduleLookaheadUnknownRegionEmpty) {
  ScheduleLookahead p;
  EXPECT_FALSE(p.predict("D9", "x").has_value());
  EXPECT_EQ(p.pending("D9"), 0u);
}

TEST(Prefetch, HistoryLearnsTransitions) {
  HistoryPredictor p;
  EXPECT_FALSE(p.predict("D1", "qpsk").has_value());
  p.observe("D1", "qpsk");
  p.observe("D1", "qam16");
  p.observe("D1", "qpsk");
  p.observe("D1", "qam16");
  EXPECT_EQ(p.transition_count("qpsk", "qam16"), 2);
  EXPECT_EQ(p.predict("D1", "qpsk").value(), "qam16");
  EXPECT_EQ(p.predict("D1", "qam16").value(), "qpsk");
}

TEST(Prefetch, HistorySeededFromRelations) {
  aaa::ConstraintSet cset = aaa::parse_constraints(
      "region D1 { width 2 }\n"
      "dynamic a { region D1\n kind fir }\n"
      "dynamic b { region D1\n kind fir }\n"
      "relation a then b\n");
  HistoryPredictor p(cset);
  EXPECT_EQ(p.predict("D1", "a").value(), "b");
}

TEST(Prefetch, FactoryMatchesChoice) {
  aaa::ConstraintSet cset = aaa::parse_constraints(
      "prefetch history\nregion D1 { width 2 }\ndynamic a { region D1\n kind fir }\n");
  EXPECT_STREQ(make_prefetch_policy(cset)->name(), "history");
  cset.prefetch = aaa::PrefetchChoice::None;
  EXPECT_STREQ(make_prefetch_policy(cset)->name(), "none");
  cset.prefetch = aaa::PrefetchChoice::Schedule;
  EXPECT_STREQ(make_prefetch_policy(cset)->name(), "schedule");
}

// --- protocol builder ---------------------------------------------------------------

TEST(ProtocolBuilder, ValidatesAndTimes) {
  const synth::DesignBundle bundle = test_bundle();
  const auto stream =
      fabric::ValidatedStream::parse(bundle.device, bundle.variant("D1", "qpsk").bitstream);
  EXPECT_FALSE(stream->frames().empty());
  ProtocolBuilder fpga_builder(aaa::Placement::Fpga, 40e6, 1e9);
  ProtocolBuilder cpu_builder(aaa::Placement::Cpu, 40e6, 1e9);
  EXPECT_GT(fpga_builder.record(*stream), 0);
  EXPECT_GT(cpu_builder.record(*stream), fpga_builder.record(*stream));
}

// --- manager ---------------------------------------------------------------------------

struct ManagerFixture {
  synth::DesignBundle bundle = test_bundle();
  BitstreamStore store{50e6, 1000};
  ScheduleLookahead policy;
  ManagerConfig config;
  std::unique_ptr<ReconfigManager> manager;

  explicit ManagerFixture(ManagerConfig cfg = {}) : config(cfg) {
    manager = std::make_unique<ReconfigManager>(bundle, config, store, policy);
  }
};

TEST(ProtocolBuilder, RejectsCorruptedMemory) {
  // A corrupted image in external memory never reaches the port: the
  // parse that would make its handle throws, so the manager counts a CRC
  // reject and no build of it.
  ManagerConfig config;
  config.recovery.enabled = true;
  config.recovery.max_retries = 0;
  ManagerFixture f(config);
  obs::Recorder recorder;
  f.manager->set_sinks(obs::Sinks(recorder));
  f.manager->request("D1", "qpsk", 0);
  f.store.corrupt("qam16", f.store.size_of("qam16") / 2, 0x10);
  f.manager->request("D1", "qam16", f.manager->port_free_at());

  const ManagerStats& s = f.manager->stats();
  EXPECT_EQ(s.crc_rejects, 1);
  EXPECT_EQ(s.load_failures, 1);
  EXPECT_EQ(s.port_aborts, 0);
  EXPECT_EQ(recorder.metrics.counter("rtr.manager.crc_rejects").value(), 1.0);
  // Every build went through the port: qpsk and the fallback's blank.
  EXPECT_EQ(recorder.metrics.counter("rtr.builder.builds").value(), 2.0);
  EXPECT_EQ(f.manager->port().loads(), 2);
  const auto frames = f.bundle.floorplan.region_frames("D1");
  for (const auto& addr : frames) EXPECT_NE(f.manager->memory().frame_owner(addr), "qam16");
}

TEST(Manager, RegistersVariantBitstreams) {
  ManagerFixture f;
  EXPECT_TRUE(f.store.contains("qpsk"));
  EXPECT_TRUE(f.store.contains("qam16"));
  EXPECT_EQ(f.manager->loaded("D1"), "");
  EXPECT_THROW(f.manager->loaded("D9"), pdr::Error);
}

TEST(Manager, ColdMissPaysFullLatency) {
  ManagerFixture f;
  const TimeNs cold = f.manager->cold_load_latency("qpsk");
  const auto outcome = f.manager->request("D1", "qpsk", 1000);
  EXPECT_EQ(outcome.kind, RequestKind::Miss);
  EXPECT_EQ(outcome.ready_at, 1000 + cold);
  EXPECT_EQ(outcome.stall, cold);
  EXPECT_EQ(f.manager->loaded("D1"), "qpsk");
  EXPECT_EQ(f.manager->stats().misses, 1);
}

TEST(Manager, RepeatRequestIsFree) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const auto outcome = f.manager->request("D1", "qpsk", 5_ms);
  EXPECT_EQ(outcome.kind, RequestKind::AlreadyLoaded);
  EXPECT_EQ(outcome.stall, 0);
}

TEST(Manager, LoadPhysicallyConfiguresRegion) {
  ManagerFixture f;
  f.manager->request("D1", "qam16", 0);
  const auto frames = f.bundle.floorplan.region_frames("D1");
  EXPECT_TRUE(f.manager->memory().region_owned_by(frames, "qam16"));
  f.manager->request("D1", "qpsk", 10_ms);
  EXPECT_TRUE(f.manager->memory().region_owned_by(frames, "qpsk"));
}

TEST(Manager, AnnounceThenRequestIsPrefetchHit) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const TimeNs t1 = f.manager->port_free_at();
  const auto done = f.manager->announce("D1", "qam16", t1);
  ASSERT_TRUE(done.has_value());
  // Demand after staging finished: only the port transfer remains.
  const auto outcome = f.manager->request("D1", "qam16", *done + 1_ms);
  EXPECT_EQ(outcome.kind, RequestKind::PrefetchHit);
  EXPECT_EQ(outcome.stall, f.manager->staged_load_latency("qam16"));
  EXPECT_LT(outcome.stall, f.manager->cold_load_latency("qam16"));
  EXPECT_EQ(f.manager->stats().prefetch_hits, 1);
  EXPECT_EQ(f.manager->stats().prefetches_issued, 1);
}

TEST(Manager, AnnounceDoesNotTouchTheRegion) {
  // Staging must not disturb the module that is still computing: only a
  // demand rewrites the region's frames.
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const auto frames = f.bundle.floorplan.region_frames("D1");
  f.manager->announce("D1", "qam16", 10_ms);
  EXPECT_EQ(f.manager->loaded("D1"), "qpsk");
  EXPECT_TRUE(f.manager->memory().region_owned_by(frames, "qpsk"));
}

TEST(Manager, AnnounceInFlightGivesPartialStall) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const TimeNs t1 = f.manager->port_free_at();
  const auto done = f.manager->announce("D1", "qam16", t1);
  ASSERT_TRUE(done.has_value());
  // Demand shortly before staging completes: the staged path wins and the
  // stall is the small remainder plus the port transfer.
  const TimeNs just_before = *done - 1000;
  const auto outcome = f.manager->request("D1", "qam16", just_before);
  EXPECT_EQ(outcome.kind, RequestKind::PrefetchInFlight);
  EXPECT_EQ(outcome.stall, 1000 + f.manager->staged_load_latency("qam16"));
  EXPECT_LT(outcome.stall, f.manager->cold_load_latency("qam16"));
}

TEST(Manager, BarelyStartedStagingFallsBackToColdPath) {
  // A demand arriving right after the announce must never be slower than
  // no prefetch at all: the manager streams the cold pipelined path.
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const TimeNs t1 = f.manager->port_free_at();
  f.manager->announce("D1", "qam16", t1);
  const auto outcome = f.manager->request("D1", "qam16", t1 + 10);
  EXPECT_EQ(outcome.kind, RequestKind::Miss);
  EXPECT_EQ(outcome.stall, f.manager->cold_load_latency("qam16"));
  EXPECT_EQ(f.manager->stats().prefetches_wasted, 1);
}

TEST(Manager, AnnounceIgnoredWithNonePolicy) {
  synth::DesignBundle bundle = test_bundle();
  BitstreamStore store(50e6, 1000);
  NonePrefetch none;
  ReconfigManager manager(bundle, ManagerConfig{}, store, none);
  manager.request("D1", "qpsk", 0);
  EXPECT_FALSE(manager.announce("D1", "qam16", 10_ms).has_value());
  EXPECT_EQ(manager.stats().prefetches_issued, 0);
}

TEST(Manager, AnnounceForResidentModuleIsNoop) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  EXPECT_FALSE(f.manager->announce("D1", "qpsk", 10_ms).has_value());
}

TEST(Manager, DuplicateAnnounceReturnsSameCompletion) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const auto a = f.manager->announce("D1", "qam16", f.manager->port_free_at());
  const auto b = f.manager->announce("D1", "qam16", f.manager->port_free_at());
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(f.manager->stats().prefetches_issued, 1);
}

TEST(Manager, MispredictedStagingDoesNotHurtResidentModule) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  f.manager->announce("D1", "qam16", f.manager->port_free_at());
  // Demand stays on qpsk: the staged qam16 is simply unused; the resident
  // module is untouched and free.
  const auto outcome = f.manager->request("D1", "qpsk", f.manager->port_free_at() + 1_ms);
  EXPECT_EQ(outcome.kind, RequestKind::AlreadyLoaded);
  EXPECT_EQ(outcome.stall, 0);
}

TEST(Manager, ReplacedStagingCountedWasted) {
  // Three variants so a second announce can replace the first.
  synth::ModularDesignFlow flow(fabric::xc2v2000());
  flow.add_region("D1", {{"qpsk", "qpsk_mapper", {}},
                         {"qam16", "qam16_mapper", {}},
                         {"qam64", "qam64_mapper", {}}});
  const synth::DesignBundle bundle = flow.run();
  BitstreamStore store(50e6, 1000);
  ScheduleLookahead policy;
  ReconfigManager manager(bundle, ManagerConfig{}, store, policy);

  manager.request("D1", "qpsk", 0);
  manager.announce("D1", "qam16", 10_ms);
  manager.announce("D1", "qam64", 20_ms);  // replaces staged qam16
  EXPECT_EQ(manager.stats().prefetches_wasted, 1);
  EXPECT_EQ(manager.stats().prefetches_issued, 2);
  const auto outcome = manager.request("D1", "qam64", 40_ms);
  EXPECT_EQ(outcome.kind, RequestKind::PrefetchHit);
}

TEST(Manager, CpuManagerAddsInterruptLatency) {
  ManagerConfig fpga_cfg;
  ManagerFixture on_fpga(fpga_cfg);
  ManagerConfig cpu_cfg;
  cpu_cfg.manager = aaa::Placement::Cpu;
  cpu_cfg.interrupt_latency = 50_us;
  ManagerFixture on_cpu(cpu_cfg);
  EXPECT_EQ(on_cpu.manager->cold_load_latency("qpsk"),
            on_fpga.manager->cold_load_latency("qpsk") + 50_us);
}

TEST(Manager, CpuBuilderThrottlesWhenSlowest) {
  ManagerConfig cfg;
  cfg.builder = aaa::Placement::Cpu;
  cfg.cpu_builder_bytes_per_s = 1e6;  // 1 MB/s software framing, slowest stage
  ManagerFixture slow(cfg);
  ManagerFixture fast;
  EXPECT_GT(slow.manager->cold_load_latency("qpsk"), fast.manager->cold_load_latency("qpsk"));
}

TEST(Manager, CacheSkipsMemoryFetch) {
  ManagerConfig cfg;
  cfg.cache_capacity = 1_MiB;
  ManagerFixture f(cfg);
  const auto first = f.manager->request("D1", "qpsk", 0);
  f.manager->request("D1", "qam16", first.ready_at + 1_ms);
  // qpsk is cached now; reloading it avoids the store fetch.
  const auto third = f.manager->request("D1", "qpsk", f.manager->port_free_at() + 1_ms);
  EXPECT_LT(third.stall, first.stall);
  EXPECT_GT(f.manager->cache().hits(), 0);
}

TEST(Manager, CacheServedDemandReportedAsCacheHit) {
  // Regression: cache-served demands used to be folded into `misses`,
  // understating the cache's effect in every stats table.
  ManagerConfig cfg;
  cfg.cache_capacity = 1_MiB;
  ManagerFixture f(cfg);
  f.manager->request("D1", "qpsk", 0);                             // cold miss
  f.manager->request("D1", "qam16", f.manager->port_free_at() + 1_ms);  // cold miss
  const auto outcome = f.manager->request("D1", "qpsk", f.manager->port_free_at() + 1_ms);
  EXPECT_EQ(outcome.kind, RequestKind::CacheHit);
  EXPECT_EQ(outcome.stall, f.manager->staged_load_latency("qpsk"));
  const ManagerStats& s = f.manager->stats();
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.requests, 3);
  EXPECT_STREQ(request_kind_name(RequestKind::CacheHit), "cache_hit");
}

TEST(Manager, AutoPrefetchUsesPolicyPrediction) {
  ManagerFixture f;
  f.policy.feed("D1", {"qpsk", "qam16"});
  f.manager->request("D1", "qpsk", 0);
  f.manager->auto_prefetch("D1", f.manager->port_free_at());
  EXPECT_EQ(f.manager->stats().prefetches_issued, 1);
  const auto outcome = f.manager->request("D1", "qam16", f.manager->port_free_at() + 1_ms);
  EXPECT_EQ(outcome.kind, RequestKind::PrefetchHit);
}

TEST(Manager, StatsAccumulate) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  f.manager->request("D1", "qam16", 20_ms);
  f.manager->request("D1", "qam16", 40_ms);
  const ManagerStats& s = f.manager->stats();
  EXPECT_EQ(s.requests, 3);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.already_loaded, 1);
  EXPECT_GT(s.total_stall, 0);
  EXPECT_GT(s.bytes_loaded, 0u);
}

TEST(Manager, SundanceConfigIsCaseA) {
  const ManagerConfig cfg = sundance_manager_config();
  EXPECT_EQ(cfg.manager, aaa::Placement::Fpga);
  EXPECT_EQ(cfg.builder, aaa::Placement::Fpga);
  EXPECT_EQ(cfg.port_kind, fabric::PortKind::Icap);
}

TEST(Manager, RequestKindNames) {
  EXPECT_STREQ(request_kind_name(RequestKind::Miss), "miss");
  EXPECT_STREQ(request_kind_name(RequestKind::PrefetchHit), "prefetch_hit");
}

// --- residency, blanking, readback, scrubbing -----------------------------------

TEST(Manager, SetResidentSkipsPort) {
  ManagerFixture f;
  f.manager->set_resident("D1", "qpsk");
  EXPECT_EQ(f.manager->loaded("D1"), "qpsk");
  EXPECT_EQ(f.manager->port_free_at(), 0);  // no port time consumed
  const auto outcome = f.manager->request("D1", "qpsk", 100);
  EXPECT_EQ(outcome.kind, RequestKind::AlreadyLoaded);
}

TEST(Manager, BlankClearsResidencyAndOccupiesPort) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const TimeNs done = f.manager->blank("D1", f.manager->port_free_at());
  EXPECT_GT(done, 0);
  EXPECT_EQ(f.manager->loaded("D1"), "");
  EXPECT_EQ(f.manager->stats().blanks, 1);
  // The next demand is a full miss again.
  const auto outcome = f.manager->request("D1", "qpsk", done + 1_ms);
  EXPECT_EQ(outcome.kind, RequestKind::Miss);
}

TEST(Manager, BlankAccountsBytesAndVerifies) {
  // Regression: blank() used to poke the port directly, bypassing the
  // manager's load routine — so blanks were invisible in bytes_loaded and
  // escaped the readback verification every demand load gets.
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const Bytes before = f.manager->stats().bytes_loaded;
  f.manager->blank("D1", f.manager->port_free_at());
  EXPECT_GT(f.manager->stats().bytes_loaded, before);
  // The readback path ran: the region's frames are owned by the blank
  // stream, not left tagged with the old module.
  const auto frames = f.bundle.floorplan.region_frames("D1");
  EXPECT_TRUE(f.manager->memory().region_owned_by(frames, "__blank_D1"));
  EXPECT_FALSE(f.manager->memory().region_owned_by(frames, "qpsk"));
}

TEST(Manager, TraceReconcilesWithStats) {
  // The tentpole invariant: demand-load spans (category "load") must sum
  // exactly to ManagerStats::total_load_time; blanks and scrubs are
  // port-occupying but live under their own categories.
  ManagerFixture f;
  obs::Recorder recorder;
  const obs::Tracer& tracer = recorder.tracer;
  obs::MetricsRegistry& metrics = recorder.metrics;
  f.manager->set_sinks(obs::Sinks(recorder));

  f.manager->request("D1", "qpsk", 0);                                  // miss
  f.manager->announce("D1", "qam16", f.manager->port_free_at());        // staging span
  f.manager->request("D1", "qam16", f.manager->port_free_at() + 20_ms); // prefetch hit
  f.manager->request("D1", "qam16", f.manager->port_free_at() + 1_ms);  // already loaded
  f.manager->blank("D1", f.manager->port_free_at());                    // blank span
  f.manager->request("D1", "qpsk", f.manager->port_free_at() + 1_ms);   // miss again

  const ManagerStats& s = f.manager->stats();
  EXPECT_EQ(tracer.total_duration("load"), s.total_load_time);
  EXPECT_EQ(tracer.count("staging"), static_cast<std::size_t>(s.prefetches_issued));
  EXPECT_EQ(tracer.count("blank"), static_cast<std::size_t>(s.blanks));
  EXPECT_GT(tracer.total_duration("blank"), 0);
  // Counters mirror the struct.
  EXPECT_DOUBLE_EQ(metrics.counter("rtr.manager.requests").value(), s.requests);
  EXPECT_DOUBLE_EQ(metrics.counter("rtr.manager.miss").value(), s.misses);
  EXPECT_DOUBLE_EQ(metrics.counter("rtr.manager.bytes_loaded").value(),
                   static_cast<double>(s.bytes_loaded));
  // The stall histogram saw every demand that touched the port.
  EXPECT_EQ(metrics.histogram("rtr.manager.stall_ns", obs::latency_buckets_ns()).count(),
            static_cast<std::uint64_t>(s.requests - s.already_loaded));
}

TEST(Manager, VerifyDetectsSeuAndScrubRepairs) {
  ManagerFixture f;
  f.manager->request("D1", "qam16", 0);
  EXPECT_EQ(f.manager->verify_resident("D1"), 0);

  // Inject two upsets in different frames.
  const auto frames = f.bundle.floorplan.region_frames("D1");
  auto& memory = const_cast<fabric::ConfigMemory&>(f.manager->memory());
  memory.flip_bit(frames[3], 10, 2);
  memory.flip_bit(frames[17], 0, 7);
  EXPECT_EQ(f.manager->verify_resident("D1"), 2);

  const TimeNs done = f.manager->scrub("D1", f.manager->port_free_at());
  EXPECT_GT(done, 0);
  EXPECT_EQ(f.manager->verify_resident("D1"), 0);
  EXPECT_EQ(f.manager->stats().scrubs, 1);
  EXPECT_EQ(f.manager->loaded("D1"), "qam16");  // residency unchanged
}

TEST(Manager, VerifyResidentMatchesFramePayloadRecount) {
  ManagerFixture f;
  const auto frames = f.bundle.floorplan.region_frames("D1");
  const fabric::FrameMap map(f.bundle.device);
  auto& memory = const_cast<fabric::ConfigMemory&>(f.manager->memory());
  for (const std::string module : {"qpsk", "qam16"}) {
    f.manager->request("D1", module, f.manager->port_free_at());
    const auto& artifact = f.bundle.variant("D1", module);
    // Reference recount: every byte against the generator's payload.
    const auto recount = [&] {
      int bad = 0;
      for (const auto& addr : artifact.placement.frames) {
        const auto data = f.manager->memory().read_frame(addr);
        for (std::size_t b = 0; b < data.size(); ++b)
          if (data[b] != synth::frame_payload_byte(artifact.netlist_hash, map.linear_index(addr),
                                                   static_cast<int>(b))) {
            ++bad;
            break;
          }
      }
      return bad;
    };
    EXPECT_EQ(f.manager->verify_resident("D1"), 0);
    EXPECT_EQ(recount(), 0);
    // k upsets on k distinct frames read back as k corrupted frames.
    for (int k = 1; k <= 4; ++k) {
      memory.flip_bit(frames[static_cast<std::size_t>(k * 7)], k, k % 8);
      EXPECT_EQ(f.manager->verify_resident("D1"), k) << module;
      EXPECT_EQ(recount(), k) << module;
    }
    // A second upset in an already-corrupted frame adds no frame.
    memory.flip_bit(frames[7], 0, 0);
    EXPECT_EQ(f.manager->verify_resident("D1"), 4);
    f.manager->scrub("D1", f.manager->port_free_at());
    EXPECT_EQ(f.manager->verify_resident("D1"), 0);
  }
}

TEST(Manager, ScrubWithoutResidentThrows) {
  ManagerFixture f;
  EXPECT_THROW(f.manager->scrub("D1", 0), pdr::Error);
  EXPECT_THROW(f.manager->verify_resident("D1"), pdr::Error);
}

TEST(Manager, ScrubSerializesOnPort) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const TimeNs t0 = f.manager->port_free_at();
  const TimeNs s1 = f.manager->scrub("D1", t0);
  const TimeNs s2 = f.manager->scrub("D1", t0);  // requested while busy
  EXPECT_GE(s2, s1 + (s1 - t0));                 // second waits for the first
}

TEST(Manager, ScrubKeepsInFlightStagingAndSerializesOnPort) {
  // A scrub issued mid-staging must not cancel the prefetch: the staging
  // buffer is on-chip state, independent of the fabric frames the scrub
  // rewrites. The two only contend for the port at demand time.
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const TimeNs t0 = f.manager->port_free_at();
  const auto staging_done = f.manager->announce("D1", "qam16", t0);
  ASSERT_TRUE(staging_done.has_value());
  const TimeNs scrub_done = f.manager->scrub("D1", t0);
  EXPECT_GT(scrub_done, t0);
  EXPECT_EQ(f.manager->loaded("D1"), "qpsk");
  EXPECT_EQ(f.manager->verify_resident("D1"), 0);
  // The staged entry survived: the demand is a hit (or in flight), never
  // a full miss, and still waits out the scrub's port occupancy.
  const auto out = f.manager->request("D1", "qam16", t0);
  EXPECT_NE(out.kind, RequestKind::Miss);
  EXPECT_GE(out.ready_at, scrub_done);
  EXPECT_EQ(f.manager->loaded("D1"), "qam16");
}

TEST(Manager, BlankInvalidatesStagingAndVerifyThrows) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  f.manager->announce("D1", "qam16", f.manager->port_free_at());
  const TimeNs done = f.manager->blank("D1", f.manager->port_free_at());
  EXPECT_EQ(f.manager->loaded("D1"), "");
  // Readback verification has no expected payload for a blank region.
  EXPECT_THROW(f.manager->verify_resident("D1"), pdr::Error);
  // The staged qam16 died with the blank: the next demand is a miss.
  const auto out = f.manager->request("D1", "qam16", done + 1_ms);
  EXPECT_EQ(out.kind, RequestKind::Miss);
}

TEST(Manager, StatsToStringListsCountersAndHealth) {
  ManagerFixture f;
  f.manager->request("D1", "qpsk", 0);
  const std::string text = f.manager->stats().to_string();
  for (const char* key : {"requests", "misses", "retries", "fallbacks", "crc_rejects",
                          "scrub_repairs", "health_transitions", "total_load_time"})
    EXPECT_NE(text.find(key), std::string::npos) << key;
  EXPECT_NE(text.find("health D1"), std::string::npos);
  EXPECT_NE(text.find("healthy"), std::string::npos);
  // Bit-for-bit stable for identical runs.
  ManagerFixture g;
  g.manager->request("D1", "qpsk", 0);
  EXPECT_EQ(text, g.manager->stats().to_string());
}

}  // namespace
}  // namespace pdr::rtr
