#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault_spec.hpp"
#include "fault/injector.hpp"
#include "fault/scrub_scheduler.hpp"
#include "obs/sinks.hpp"
#include "rtr/manager.hpp"
#include "sim/event_queue.hpp"
#include "synth/bitgen.hpp"
#include "synth/flow.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pdr::fault {
namespace {

using namespace pdr::literals;

synth::DesignBundle test_bundle() {
  synth::ModularDesignFlow flow(fabric::xc2v2000());
  flow.add_static("ifft", "ifft", {{"n", 64}});
  flow.add_region("D1", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  return flow.run();
}

rtr::ManagerConfig recovering_config() {
  rtr::ManagerConfig cfg;
  cfg.recovery.enabled = true;
  cfg.recovery.max_retries = 3;
  return cfg;
}

// --- fault spec ------------------------------------------------------------------

TEST(FaultSpec, ParsesEveryDirective) {
  const FaultSpec spec = parse_fault_spec(
      "# campaign\n"
      "seed 7\n"
      "horizon_ms 120\n"
      "seu D1 rate 400\n"
      "port abort_prob 0.08\n"
      "fetch corrupt qam16 prob 0.3\n"
      "store damage qam16 at_ms 60\n");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.horizon, 120_ms);
  ASSERT_EQ(spec.seus.size(), 1u);
  EXPECT_EQ(spec.seus[0].region, "D1");
  EXPECT_DOUBLE_EQ(spec.seus[0].rate_hz, 400.0);
  EXPECT_DOUBLE_EQ(spec.port_abort_prob, 0.08);
  ASSERT_NE(spec.find_fetch_fault("qam16"), nullptr);
  EXPECT_DOUBLE_EQ(spec.find_fetch_fault("qam16")->prob, 0.3);
  ASSERT_EQ(spec.store_damages.size(), 1u);
  EXPECT_EQ(spec.store_damages[0].at, 60_ms);
  EXPECT_EQ(spec.find_seu("D2"), nullptr);
}

TEST(FaultSpec, DefaultsWithEmptyText) {
  const FaultSpec spec = parse_fault_spec("");
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.horizon, 100_ms);
  EXPECT_TRUE(spec.seus.empty());
  EXPECT_DOUBLE_EQ(spec.port_abort_prob, 0.0);
}

TEST(FaultSpec, RejectsBadInput) {
  EXPECT_THROW(parse_fault_spec("frobnicate\n"), pdr::Error);
  EXPECT_THROW(parse_fault_spec("seu D1 rate 0\n"), pdr::Error);
  EXPECT_THROW(parse_fault_spec("seu D1 rate -3\n"), pdr::Error);
  EXPECT_THROW(parse_fault_spec("port abort_prob 1.5\n"), pdr::Error);
  EXPECT_THROW(parse_fault_spec("fetch corrupt m prob nan-ish\n"), pdr::Error);
  EXPECT_THROW(parse_fault_spec("horizon_ms 0\n"), pdr::Error);
  EXPECT_THROW(parse_fault_spec("seu D1 rate 10\nseu D1 rate 20\n"), pdr::Error);
  EXPECT_THROW(parse_fault_spec("fetch corrupt m prob 0.1\nfetch corrupt m prob 0.2\n"),
               pdr::Error);
  // Errors carry the offending line.
  try {
    parse_fault_spec("seed 1\nbogus\n");
    FAIL() << "expected pdr::Error";
  } catch (const pdr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(FaultSpec, WriteParseRoundTrip) {
  FaultSpec spec;
  spec.seed = 99;
  spec.horizon = 250_ms;
  spec.seus.push_back(SeuProcess{"D1", 123.5});
  spec.port_abort_prob = 0.25;
  spec.fetch_faults.push_back(FetchFault{"qam16", 0.125});
  spec.store_damages.push_back(StoreDamage{"qpsk", 30_ms});
  const FaultSpec back = parse_fault_spec(write_fault_spec(spec));
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.horizon, spec.horizon);
  ASSERT_EQ(back.seus.size(), 1u);
  EXPECT_DOUBLE_EQ(back.seus[0].rate_hz, 123.5);
  EXPECT_DOUBLE_EQ(back.port_abort_prob, 0.25);
  ASSERT_EQ(back.fetch_faults.size(), 1u);
  EXPECT_DOUBLE_EQ(back.fetch_faults[0].prob, 0.125);
  ASSERT_EQ(back.store_damages.size(), 1u);
  EXPECT_EQ(back.store_damages[0].at, 30_ms);
}

// --- injector --------------------------------------------------------------------

TEST(FaultSpec, StoreRepairDirectiveParsesAndRoundTrips) {
  const FaultSpec spec = parse_fault_spec(
      "store damage qam16 at_ms 5\n"
      "store repair qam16 at_ms 40\n");
  ASSERT_EQ(spec.store_damages.size(), 1u);
  ASSERT_EQ(spec.store_repairs.size(), 1u);
  EXPECT_EQ(spec.store_repairs[0].module, "qam16");
  EXPECT_EQ(spec.store_repairs[0].at, 40_ms);
  const FaultSpec back = parse_fault_spec(write_fault_spec(spec));
  ASSERT_EQ(back.store_repairs.size(), 1u);
  EXPECT_EQ(back.store_repairs[0].module, spec.store_repairs[0].module);
  EXPECT_EQ(back.store_repairs[0].at, spec.store_repairs[0].at);
}

TEST(FaultInjector, SeuTimelineIsPoissonLikeAndDeterministic) {
  FaultSpec spec;
  spec.horizon = 1_s;
  spec.seus.push_back(SeuProcess{"D1", 100.0});
  const FaultInjector a(spec, 42);
  const FaultInjector b(spec, 42);
  const auto ta = a.seu_timeline("D1", 50, 100);
  const auto tb = b.seu_timeline("D1", 50, 100);
  ASSERT_FALSE(ta.empty());
  // ~100 events expected over 1 s at 100/s; allow wide slack.
  EXPECT_GT(ta.size(), 50u);
  EXPECT_LT(ta.size(), 200u);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].at, tb[i].at);
    EXPECT_EQ(ta[i].frame_offset, tb[i].frame_offset);
    EXPECT_EQ(ta[i].byte_index, tb[i].byte_index);
    EXPECT_EQ(ta[i].bit, tb[i].bit);
    EXPECT_LT(ta[i].at, spec.horizon);
    EXPECT_LT(ta[i].frame_offset, 50u);
    EXPECT_LT(ta[i].byte_index, 100);
    EXPECT_GE(ta[i].bit, 0);
    EXPECT_LE(ta[i].bit, 7);
    if (i > 0) {
      EXPECT_GE(ta[i].at, ta[i - 1].at);
    }
  }
  // A different seed moves the timeline.
  const FaultInjector c(spec, 43);
  const auto tc = c.seu_timeline("D1", 50, 100);
  EXPECT_TRUE(tc.size() != ta.size() || tc[0].at != ta[0].at);
  // No `seu` directive for the region -> empty timeline.
  EXPECT_TRUE(a.seu_timeline("D2", 50, 100).empty());
}

TEST(FaultInjector, StreamsAreIndependentPerFaultKind) {
  FaultSpec spec;
  spec.horizon = 500_ms;
  spec.seus.push_back(SeuProcess{"D1", 50.0});
  FaultSpec wider = spec;
  wider.port_abort_prob = 0.5;
  wider.fetch_faults.push_back(FetchFault{"qam16", 0.5});
  // Adding port/fetch faults must not move a single SEU.
  const auto base = FaultInjector(spec, 7).seu_timeline("D1", 20, 80);
  const auto with = FaultInjector(wider, 7).seu_timeline("D1", 20, 80);
  ASSERT_EQ(base.size(), with.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].at, with[i].at);
    EXPECT_EQ(base[i].frame_offset, with[i].frame_offset);
  }
}

TEST(FaultInjector, PortAbortDrawsRespectProbability) {
  FaultSpec never;
  FaultInjector off(never, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(off.next_port_abort(), -1.0);
  EXPECT_EQ(off.port_aborts_armed(), 0);

  FaultSpec always;
  always.port_abort_prob = 1.0;
  FaultInjector on(always, 1);
  for (int i = 0; i < 100; ++i) {
    const double f = on.next_port_abort();
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, 1.0);
  }
  EXPECT_EQ(on.port_aborts_armed(), 100);
}

TEST(FaultInjector, FetchCorruptionFlipsExactlyOneByte) {
  FaultSpec spec;
  spec.fetch_faults.push_back(FetchFault{"m", 1.0});
  FaultInjector inj(spec, 5);
  const std::vector<std::uint8_t> stored(256, 0xAB);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(inj.maybe_corrupt_fetch("m", stored, bytes));
  ASSERT_EQ(bytes.size(), stored.size());
  int changed = 0;
  for (const std::uint8_t b : bytes) changed += b != 0xAB;
  EXPECT_EQ(changed, 1);
  EXPECT_EQ(inj.fetch_corruptions(), 1);
  // Unlisted module: never corrupted.
  std::vector<std::uint8_t> other(64, 1);
  EXPECT_FALSE(inj.maybe_corrupt_fetch("other", std::vector<std::uint8_t>(64, 1), other));
  EXPECT_EQ(other, std::vector<std::uint8_t>(64, 1));
}

// --- self-healing manager --------------------------------------------------------

TEST(SelfHealing, RetriesTransientFetchCorruption) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, recovering_config(), store, policy);
  // First fetch arrives corrupted (CRC reject), every later one is clean.
  int fetches = 0;
  manager.set_fetch_fault_hook([&fetches](const std::string&, std::span<const std::uint8_t> stored,
                                          std::vector<std::uint8_t>& bytes) {
    if (++fetches == 1) {
      bytes.assign(stored.begin(), stored.end());
      bytes[bytes.size() / 2] ^= 0xFF;
      return true;
    }
    return false;
  });
  const auto out = manager.request("D1", "qpsk", 0);
  EXPECT_EQ(manager.loaded("D1"), "qpsk");
  EXPECT_EQ(manager.verify_resident("D1"), 0);
  EXPECT_EQ(manager.health("D1"), rtr::RegionHealth::Healthy);
  EXPECT_EQ(manager.stats().crc_rejects, 1);
  EXPECT_EQ(manager.stats().retries, 1);
  EXPECT_EQ(manager.stats().fallbacks, 0);
  // The retry costs extra time beyond one cold load.
  EXPECT_GT(out.stall, manager.cold_load_latency("qpsk"));
}

TEST(SelfHealing, RetriesTransientPortAbort) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, recovering_config(), store, policy);
  int loads = 0;
  manager.port().set_fault_hook([&loads](Bytes, const std::string&) {
    return ++loads == 1 ? 0.5 : -1.0;  // first transfer dies halfway
  });
  manager.request("D1", "qam16", 0);
  EXPECT_EQ(manager.loaded("D1"), "qam16");
  EXPECT_EQ(manager.verify_resident("D1"), 0);
  EXPECT_EQ(manager.stats().port_aborts, 1);
  EXPECT_EQ(manager.port().aborted_loads(), 1);
  EXPECT_EQ(manager.stats().retries, 1);
  EXPECT_EQ(manager.health("D1"), rtr::RegionHealth::Healthy);
}

TEST(SelfHealing, FallsBackToSafeModuleOnPermanentDamage) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ManagerConfig cfg = recovering_config();
  cfg.recovery.max_retries = 2;
  rtr::ReconfigManager manager(bundle, cfg, store, policy);
  manager.set_safe_module("D1", "qpsk");
  // Permanent store damage: every fetch of qam16 fails CRC forever.
  store.corrupt("qam16", store.size_of("qam16") / 2);
  const auto out = manager.request("D1", "qam16", 0);
  EXPECT_EQ(manager.loaded("D1"), "qpsk");  // the safe personality
  EXPECT_EQ(manager.verify_resident("D1"), 0);
  EXPECT_EQ(manager.stats().fallbacks, 1);
  EXPECT_EQ(manager.stats().retries, 2);
  EXPECT_GE(manager.stats().blanks, 1);
  EXPECT_EQ(manager.health("D1"), rtr::RegionHealth::Healthy);
  EXPECT_GT(out.stall, 0);
}

TEST(SelfHealing, FailsRegionWhenNoSafeModuleWorks) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ManagerConfig cfg = recovering_config();
  cfg.recovery.max_retries = 1;
  rtr::ReconfigManager manager(bundle, cfg, store, policy);
  manager.set_safe_module("D1", "qpsk");
  store.corrupt("qpsk", 100);
  store.corrupt("qam16", 100);
  manager.request("D1", "qam16", 0);
  EXPECT_EQ(manager.health("D1"), rtr::RegionHealth::Failed);
  EXPECT_TRUE(manager.loaded("D1").empty());
  EXPECT_GE(manager.stats().fallbacks, 1);
}

TEST(SelfHealing, RecoveryDisabledStillThrows) {
  const synth::DesignBundle bundle = test_bundle();
  // With recovery off, every failure mode throws its own pdr::Error text
  // and leaves every recovery counter at zero.
  using Arm = std::function<void(rtr::BitstreamStore&, rtr::ReconfigManager&)>;
  const auto expect_throw = [&bundle](const char* mode, const Arm& arm,
                                      const std::string& message) {
    rtr::BitstreamStore store(100e6, 0);
    rtr::NonePrefetch policy;
    rtr::ReconfigManager manager(bundle, rtr::ManagerConfig{}, store, policy);
    arm(store, manager);
    try {
      manager.request("D1", "qam16", 0);
      ADD_FAILURE() << mode << ": expected pdr::Error";
    } catch (const pdr::Error& e) {
      EXPECT_EQ(std::string(e.what()), message) << mode;
    }
    EXPECT_TRUE(manager.loaded("D1").empty()) << mode;
    const rtr::ManagerStats& s = manager.stats();
    EXPECT_EQ(s.load_failures, 0) << mode;
    EXPECT_EQ(s.crc_rejects, 0) << mode;
    EXPECT_EQ(s.port_aborts, 0) << mode;
    EXPECT_EQ(s.readback_failures, 0) << mode;
    EXPECT_EQ(s.retries, 0) << mode;
    EXPECT_EQ(s.fallbacks, 0) << mode;
  };
  const std::string crc_message =
      "ValidatedStream: CRC mismatch: stream 0x26d3bd6d, computed 0x468a7653";
  expect_throw(
      "crc reject",
      [](rtr::BitstreamStore& store, rtr::ReconfigManager&) { store.corrupt("qam16", 100); },
      crc_message);
  expect_throw(
      "port abort",
      [](rtr::BitstreamStore&, rtr::ReconfigManager& manager) {
        manager.port().set_fault_hook([](Bytes, const std::string&) { return 0.5; });
      },
      "ConfigPort: load of 'qam16' aborted after 13400 of 26804 bytes (0 frames committed)");
  expect_throw(
      "readback mismatch",
      [&bundle](rtr::BitstreamStore& store, rtr::ReconfigManager&) {
        // A valid stream covering half the region leaves foreign frames.
        auto frames = bundle.floorplan.region_frames("D1");
        frames.resize(frames.size() / 2);
        store.add("qam16", fabric::ValidatedStream::parse(
                               bundle.device,
                               synth::generate_uniform_bitstream(bundle.device, frames, 0)));
      },
      "ReconfigManager: after loading 'qam16', region 'D1' frames are not all owned by it");

  // set_resident() throws in either recovery mode, with the same text.
  {
    rtr::BitstreamStore store(100e6, 0);
    rtr::NonePrefetch policy;
    rtr::ReconfigManager manager(bundle, recovering_config(), store, policy);
    store.corrupt("qam16", 100);
    try {
      manager.set_resident("D1", "qam16");
      ADD_FAILURE() << "set_resident: expected pdr::Error";
    } catch (const pdr::Error& e) {
      EXPECT_EQ(std::string(e.what()), crc_message);
    }
    EXPECT_EQ(manager.stats().crc_rejects, 0);
  }

  // Recovery on: a stream whose parse fails never counts as a build, and
  // the fetch hook corrupts a private copy — the stored image is untouched.
  {
    rtr::BitstreamStore store(100e6, 0);
    rtr::NonePrefetch policy;
    rtr::ReconfigManager manager(bundle, recovering_config(), store, policy);
    obs::Recorder recorder;
    manager.set_sinks(obs::Sinks(recorder));
    const auto stored = store.get("qam16");
    const std::vector<std::uint8_t> before(stored.begin(), stored.end());
    int corrupted = 0;
    manager.set_fetch_fault_hook(
        [&corrupted](const std::string&, std::span<const std::uint8_t> stored,
                     std::vector<std::uint8_t>& bytes) {
          if (corrupted > 0) return false;
          bytes.assign(stored.begin(), stored.end());
          bytes[bytes.size() / 2] ^= 0xFF;
          ++corrupted;
          return true;
        });
    manager.request("D1", "qam16", 0);
    EXPECT_EQ(corrupted, 1);
    EXPECT_EQ(manager.loaded("D1"), "qam16");
    EXPECT_EQ(manager.stats().crc_rejects, 1);
    EXPECT_EQ(recorder.metrics.counter("rtr.builder.builds").value(), 1.0);  // the retry only
    const auto after = store.get("qam16");
    EXPECT_TRUE(std::equal(after.begin(), after.end(), before.begin(), before.end()));
  }
}

TEST(SelfHealing, StoreDamageAfterACleanLoadIsStillRejected) {
  // The parse is skipped only for the store's intact handle: a clean load
  // of qam16, then damage to its stored image, must still be
  // caught before the port, and a repair must make it loadable again.
  const synth::DesignBundle bundle = test_bundle();
  const std::string crc_message =
      "ValidatedStream: CRC mismatch: stream 0x26d3bd6d, computed 0x468a7653";
  for (const bool recovery : {true, false}) {
    SCOPED_TRACE(recovery ? "recovery on" : "recovery off");
    rtr::BitstreamStore store(100e6, 0);
    rtr::NonePrefetch policy;
    rtr::ReconfigManager manager(bundle, recovery ? recovering_config() : rtr::ManagerConfig{},
                                 store, policy);
    manager.set_safe_module("D1", "qpsk");
    manager.request("D1", "qam16", 0);
    manager.request("D1", "qpsk", manager.port_free_at());
    store.corrupt("qam16", 100);
    if (recovery) {
      manager.request("D1", "qam16", manager.port_free_at());
      EXPECT_GT(manager.stats().crc_rejects, 0);
      EXPECT_EQ(manager.stats().port_aborts, 0);
      EXPECT_EQ(manager.loaded("D1"), "qpsk");  // fell back
    } else {
      try {
        manager.request("D1", "qam16", manager.port_free_at());
        ADD_FAILURE() << "expected pdr::Error";
      } catch (const pdr::Error& e) {
        EXPECT_EQ(std::string(e.what()), crc_message);
      }
      EXPECT_EQ(manager.stats().crc_rejects, 0);
    }
    store.repair("qam16");
    manager.request("D1", "qam16", manager.port_free_at());
    EXPECT_EQ(manager.loaded("D1"), "qam16");
    EXPECT_EQ(manager.verify_resident("D1"), 0);
  }
}

TEST(SelfHealing, StoreDamageNeverReachesTheSharedHandle) {
  // Managers on two stores share the bundle's qam16 handle. Damage to one
  // store's image goes to a private copy: the artifact's bytes and the
  // handle's stay pristine, that store's next load is a CrcReject, the
  // other store loads cleanly, and repair() brings the handle back.
  const synth::DesignBundle bundle = test_bundle();
  const auto& artifact = bundle.variant("D1", "qam16");
  const std::vector<std::uint8_t> pristine = artifact.bitstream;
  rtr::BitstreamStore store(100e6, 0);
  rtr::BitstreamStore other(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, recovering_config(), store, policy);
  rtr::ReconfigManager bystander(bundle, recovering_config(), other, policy);
  manager.set_safe_module("D1", "qpsk");
  ASSERT_EQ(store.validated("qam16"), artifact.stream);
  ASSERT_EQ(other.validated("qam16"), artifact.stream);

  store.corrupt("qam16", 100);
  EXPECT_EQ(artifact.bitstream, pristine);
  EXPECT_TRUE(std::ranges::equal(artifact.stream->bytes(), pristine));
  EXPECT_EQ(other.validated("qam16"), artifact.stream);

  manager.request("D1", "qam16", 0);
  EXPECT_GT(manager.stats().crc_rejects, 0);
  EXPECT_EQ(manager.stats().port_aborts, 0);
  EXPECT_EQ(manager.loaded("D1"), "qpsk");  // fell back
  bystander.request("D1", "qam16", 0);
  EXPECT_EQ(bystander.stats().load_failures, 0);
  EXPECT_EQ(bystander.verify_resident("D1"), 0);

  store.repair("qam16");
  EXPECT_EQ(store.validated("qam16"), artifact.stream);
  const int rejects = manager.stats().crc_rejects;
  manager.request("D1", "qam16", manager.port_free_at());
  EXPECT_EQ(manager.loaded("D1"), "qam16");
  EXPECT_EQ(manager.stats().crc_rejects, rejects);
  EXPECT_EQ(manager.verify_resident("D1"), 0);
}

TEST(SelfHealing, FetchHookCopiesOnlyWhenItCorrupts) {
  // The hook sees the store's own bytes, not a copy. When it declines, the
  // load streams those bytes and ignores whatever `corrupted` holds. When
  // it corrupts a module whose stored image already has a handle, the
  // copy is parsed in full: a CrcReject, and the port never sees it.
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, recovering_config(), store, policy);
  int calls = 0;
  bool corrupt_next = false;
  manager.set_fetch_fault_hook([&](const std::string& module, std::span<const std::uint8_t> stored,
                                   std::vector<std::uint8_t>& corrupted) {
    ++calls;
    EXPECT_EQ(stored.data(), store.get(module).data()) << module;
    EXPECT_TRUE(corrupted.empty());
    if (!corrupt_next) {
      corrupted.assign(stored.size(), 0x00);  // never streamed: the hook declines
      return false;
    }
    corrupt_next = false;
    corrupted.assign(stored.begin(), stored.end());
    corrupted[corrupted.size() / 2] ^= 0xFF;
    return true;
  });
  manager.request("D1", "qam16", 0);
  manager.request("D1", "qpsk", manager.port_free_at());
  EXPECT_EQ(manager.stats().load_failures, 0);
  const int port_loads = manager.port().loads();
  corrupt_next = true;
  manager.request("D1", "qam16", manager.port_free_at());
  EXPECT_EQ(calls, 4);  // the corrupted fetch and its clean retry
  EXPECT_EQ(manager.stats().crc_rejects, 1);
  EXPECT_EQ(manager.stats().port_aborts, 0);
  EXPECT_EQ(manager.stats().retries, 1);
  EXPECT_EQ(manager.port().loads(), port_loads + 1);  // only the clean retry
  EXPECT_EQ(manager.loaded("D1"), "qam16");
  EXPECT_EQ(manager.verify_resident("D1"), 0);
}

TEST(SelfHealing, StatsReportPerRegionTransitionCounts) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ManagerConfig cfg = recovering_config();
  cfg.recovery.max_retries = 1;
  rtr::ReconfigManager manager(bundle, cfg, store, policy);
  manager.set_safe_module("D1", "qpsk");
  store.corrupt("qam16", 100);
  manager.request("D1", "qam16", 0);  // degrades, then the fallback heals
  const auto& counts = manager.stats().health_transition_counts;
  ASSERT_EQ(counts.count("D1"), 1u);
  EXPECT_GE(counts.at("D1").at("healthy->degraded"), 1);
  EXPECT_GE(counts.at("D1").at("degraded->healthy"), 1);
  // The directed counts reconcile with the flat transition total and are
  // part of the printed stats block.
  int total = 0;
  for (const auto& [edge, n] : counts.at("D1")) total += n;
  EXPECT_EQ(total, manager.stats().health_transitions);
  const std::string text = manager.stats().to_string();
  EXPECT_NE(text.find("transition D1"), std::string::npos) << text;
  EXPECT_NE(text.find("healthy->degraded"), std::string::npos) << text;
}

TEST(SelfHealing, CheckHealthTracksCorruptionAndRepair) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, recovering_config(), store, policy);
  manager.set_resident("D1", "qpsk");
  EXPECT_EQ(manager.check_health("D1", 0), 0);
  EXPECT_EQ(manager.health("D1"), rtr::RegionHealth::Healthy);

  const auto frames = bundle.floorplan.region_frames("D1");
  manager.memory().flip_bit(frames[3], 5, 2);
  EXPECT_EQ(manager.check_health("D1", 1_ms), 1);
  EXPECT_EQ(manager.health("D1"), rtr::RegionHealth::Degraded);

  manager.scrub("D1", 2_ms);
  EXPECT_EQ(manager.stats().scrub_repairs, 1);
  EXPECT_EQ(manager.check_health("D1", 3_ms), 0);
  EXPECT_EQ(manager.health("D1"), rtr::RegionHealth::Healthy);
  EXPECT_GE(manager.stats().health_transitions, 2);
  EXPECT_THROW(manager.check_health("ghost", 0), pdr::Error);
}

// --- scrub scheduler -------------------------------------------------------------

TEST(ScrubSchedulerTest, BlindModeRepairsInjectedUpsets) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, recovering_config(), store, policy);
  manager.set_resident("D1", "qpsk");
  const auto frames = bundle.floorplan.region_frames("D1");

  sim::EventQueue queue;
  ScrubScheduler scrubber(queue, manager, {"D1"}, 1_ms);
  scrubber.start();
  queue.schedule(500_us, "seu", [&](TimeNs) { manager.memory().flip_bit(frames[0], 1, 1); });
  queue.schedule(2'500_us, "seu", [&](TimeNs) { manager.memory().flip_bit(frames[1], 2, 2); });
  queue.run(10_ms);
  EXPECT_EQ(scrubber.stats().ticks, 10);
  EXPECT_EQ(scrubber.stats().scrubs, 10);  // blind: every tick rewrites
  EXPECT_EQ(scrubber.stats().frames_repaired, 2);
  EXPECT_EQ(manager.verify_resident("D1"), 0);
}

TEST(ScrubSchedulerTest, ReadbackModeSkipsCleanRegions) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, recovering_config(), store, policy);
  manager.set_resident("D1", "qpsk");
  const auto frames = bundle.floorplan.region_frames("D1");

  sim::EventQueue queue;
  ScrubScheduler scrubber(queue, manager, {"D1"}, 1_ms, ScrubScheduler::Mode::ReadbackTriggered);
  scrubber.start();
  queue.schedule(4'500_us, "seu", [&](TimeNs) { manager.memory().flip_bit(frames[0], 1, 1); });
  queue.run(10_ms);
  EXPECT_EQ(scrubber.stats().ticks, 10);
  EXPECT_EQ(scrubber.stats().scrubs, 1);  // only the dirty tick rewrites
  EXPECT_EQ(scrubber.stats().frames_repaired, 1);
  EXPECT_EQ(manager.verify_resident("D1"), 0);

  EXPECT_THROW(ScrubScheduler(queue, manager, {"D1"}, 0), pdr::Error);
  EXPECT_THROW(ScrubScheduler(queue, manager, {}, 1_ms), pdr::Error);
}

// --- campaign acceptance ---------------------------------------------------------

FaultSpec acceptance_spec() {
  FaultSpec spec;
  spec.seed = 7;
  spec.horizon = 80_ms;
  spec.seus.push_back(SeuProcess{"D1", 500.0});
  spec.port_abort_prob = 0.1;
  spec.fetch_faults.push_back(FetchFault{"qam16", 0.3});
  spec.store_damages.push_back(StoreDamage{"qam16", 40_ms});
  return spec;
}

TEST(Campaign, RecoveryEndsWithEveryRegionHealthyAndClean) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  CampaignConfig config;
  config.recovery = true;
  const CampaignReport report = run_campaign(bundle, store, acceptance_spec(), config);
  EXPECT_GT(report.seus_injected, 0);
  EXPECT_GT(report.demands, 0);
  EXPECT_EQ(report.unrecovered_errors, 0);
  // The acceptance bar: zero silent corruption at the horizon.
  EXPECT_TRUE(report.all_healthy());
  ASSERT_FALSE(report.regions.empty());
  for (const RegionOutcome& r : report.regions) {
    EXPECT_EQ(r.health, rtr::RegionHealth::Healthy) << r.region;
    EXPECT_EQ(r.corrupted_frames, 0) << r.region;
    EXPECT_FALSE(r.resident.empty()) << r.region;
  }
  EXPECT_EQ(report.total_corrupted_frames(), 0);
}

TEST(Campaign, NoRecoveryNoScrubLeavesCorruptedFrames) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  CampaignConfig config;
  config.recovery = false;
  config.scrub_period = 0;
  const CampaignReport report = run_campaign(bundle, store, acceptance_spec(), config);
  EXPECT_GT(report.seus_injected, 0);
  EXPECT_GT(report.total_corrupted_frames(), 0);
}

TEST(Campaign, SameSeedSameReportBitForBit) {
  const synth::DesignBundle bundle = test_bundle();
  CampaignConfig config;
  rtr::BitstreamStore store_a(100e6, 0);
  rtr::BitstreamStore store_b(100e6, 0);
  const CampaignReport a = run_campaign(bundle, store_a, acceptance_spec(), config);
  const CampaignReport b = run_campaign(bundle, store_b, acceptance_spec(), config);
  EXPECT_EQ(a.to_string(), b.to_string());
  // An explicit config seed overrides the spec's and changes the run.
  CampaignConfig reseeded = config;
  reseeded.seed = 12345;
  rtr::BitstreamStore store_c(100e6, 0);
  const CampaignReport c = run_campaign(bundle, store_c, acceptance_spec(), reseeded);
  EXPECT_EQ(c.seed, 12345u);
  EXPECT_NE(c.to_string(), a.to_string());
}

TEST(Campaign, StoreRepairClosesTheOutageWindow) {
  // Damage qam16 early, re-flash it mid-horizon: the campaign must apply
  // both events and end with every region healthy — the outage window is
  // bounded, not permanent.
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  const FaultSpec spec = parse_fault_spec(
      "seed 13\n"
      "horizon_ms 100\n"
      "store damage qam16 at_ms 5\n"
      "store repair qam16 at_ms 40\n");
  CampaignConfig config;
  config.recovery = true;
  const CampaignReport report = run_campaign(bundle, store, spec, config);
  EXPECT_EQ(report.store_damages, 1);
  EXPECT_EQ(report.store_repairs, 1);
  // Demands inside the window fell back; after the repair qam16 loads
  // cleanly again, so the horizon state is healthy.
  EXPECT_GT(report.manager.fallbacks + report.manager.retries, 0);
  EXPECT_TRUE(report.all_healthy());
  EXPECT_NE(report.to_string().find("store_repairs"), std::string::npos);
}

TEST(Campaign, RejectsSpecNamingUnknownTargets) {
  const synth::DesignBundle bundle = test_bundle();
  rtr::BitstreamStore store(100e6, 0);
  const auto error_of = [&](const std::string& spec_text) -> std::string {
    try {
      run_campaign(bundle, store, parse_fault_spec(spec_text), CampaignConfig{});
    } catch (const pdr::Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of("seu D9 rate 10\n"), "run_campaign: fault spec names unknown region 'D9'");
  EXPECT_EQ(error_of("fetch corrupt ghost prob 0.5\n"),
            "run_campaign: fault spec names unknown module 'ghost'");
  EXPECT_EQ(error_of("store damage ghost at_ms 1\n"),
            "run_campaign: fault spec names unknown module 'ghost'");
  EXPECT_EQ(error_of("store repair ghost at_ms 1\n"),
            "run_campaign: fault spec names unknown module 'ghost'");
}

// --- shared fault wiring ----------------------------------------------------

synth::DesignBundle two_region_bundle() {
  synth::ModularDesignFlow flow(fabric::xc2v2000());
  flow.add_region("D1", {{"qpsk", "qpsk_mapper", {}},
                         {"qam16", "qam16_mapper", {}},
                         {"qam64", "qam64_mapper", {}}});
  flow.add_region("D2", {{"lut_a", "custom", {{"luts", 200}, {"ffs", 100}}},
                         {"lut_b", "custom", {{"luts", 100}, {"ffs", 50}}}});
  return flow.run();
}

using SafeMap = std::map<std::string, std::string>;

TEST(FaultWiring, SafeModuleIsTheFirstUntargetedVariant) {
  // Fetch faults and store damages disqualify a variant; an SEU process or
  // a store repair does not.
  const FaultSpec spec = parse_fault_spec(
      "seu D1 rate 10\n"
      "fetch corrupt qpsk prob 0.5\n"
      "store damage qam16 at_ms 1\n"
      "store repair qam64 at_ms 2\n"
      "fetch corrupt lut_a prob 0.1\n");
  EXPECT_EQ(safe_modules(spec, two_region_bundle()), (SafeMap{{"D1", "qam64"}, {"D2", "lut_b"}}));
}

TEST(FaultWiring, SafeModuleIsTheFirstVariantWhenEveryVariantIsTargeted) {
  const FaultSpec spec = parse_fault_spec(
      "fetch corrupt qpsk prob 0.5\n"
      "store damage qam16 at_ms 1\n"
      "fetch corrupt qam64 prob 0.5\n"
      "store damage lut_a at_ms 1\n"
      "store damage lut_b at_ms 3\n");
  EXPECT_EQ(safe_modules(spec, two_region_bundle()), (SafeMap{{"D1", "qpsk"}, {"D2", "lut_a"}}));
}

TEST(FaultWiring, EmptySpecPicksEachRegionsFirstVariant) {
  EXPECT_EQ(safe_modules(FaultSpec{}, two_region_bundle()),
            (SafeMap{{"D1", "qpsk"}, {"D2", "lut_a"}}));
}

}  // namespace
}  // namespace pdr::fault
