// pdr::verify contracts:
//
//  - Soundness on the positive side: every schedule the adequation engine
//    produces certifies (zero false positives), and a certified schedule
//    replays through the executive player with zero hazard faults — the
//    differential oracle, fuzz-tested over seeded generator DAGs.
//  - Completeness on the seeded-hazard side: a mutation corpus plants one
//    hazard of each PDR1xx class into a certified schedule and asserts
//    the verifier reports exactly that rule with a correct witness
//    (the mutated items, genuinely overlapping intervals).
//  - The runtime half: rtr::ReconfigManager::enable_certified_replay()
//    accepts the certified load sequence and throws on divergence, with
//    maintenance loads (blank/scrub) exempt.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/constraints.hpp"
#include "aaa/macrocode.hpp"
#include "bench/generators.hpp"
#include "rtr/bitstream_store.hpp"
#include "rtr/manager.hpp"
#include "rtr/prefetch.hpp"
#include "schedule_corpus.hpp"
#include "sim/executive_player.hpp"
#include "synth/flow.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "verify/verify.hpp"

namespace pdr {
namespace {

using namespace pdr::literals;
using aaa::ItemKind;
using aaa::ScheduledItem;
using verify::Certificate;
using verify::Violation;

// --- fixture: one conditioned vertex forced through a dynamic region --------

aaa::DurationTable region_durations() {
  aaa::DurationTable t;
  for (const char* kind : {"src", "sink"}) t.set(kind, aaa::OperatorKind::Processor, 1'000);
  for (const char* kind : {"alt_a", "alt_b"}) {
    t.set(kind, aaa::OperatorKind::Processor, 50'000);
    t.set(kind, aaa::OperatorKind::FpgaRegion, 2'000);
  }
  return t;
}

aaa::ArchitectureGraph region_arch(int regions = 1) {
  aaa::ArchitectureGraph arch;
  arch.add_operator(aaa::OperatorNode{"CPU", aaa::OperatorKind::Processor, 1.0, "", ""});
  for (int i = 1; i <= regions; ++i) {
    const std::string name = strprintf("D%d", i);
    arch.add_operator(aaa::OperatorNode{name, aaa::OperatorKind::FpgaRegion, 1.0, "XC2V2000", name});
  }
  arch.add_medium(aaa::MediumNode{"BUS", 100e6, 100});
  arch.connect("CPU", "BUS");
  for (int i = 1; i <= regions; ++i) arch.connect(strprintf("D%d", i), "BUS");
  return arch;
}

aaa::AlgorithmGraph conditioned_chain() {
  aaa::AlgorithmGraph g;
  g.add_operation({"a", "src", {}, aaa::OpClass::Sensor, {}});
  g.add_conditioned("m", {{"alt_a", "alt_a", {}}, {"alt_b", "alt_b", {}}});
  g.add_operation({"c", "sink", {}, aaa::OpClass::Actuator, {}});
  g.add_dependency("a", "m", 100);
  g.add_dependency("m", "c", 100);
  return g;
}

/// Schedules the conditioned chain with sensor/actuator pinned on the CPU
/// so the region's input and output both cross the bus: one reconfig, one
/// region compute, two transfers — every timeline the verifier sweeps.
aaa::Schedule region_schedule(const aaa::AlgorithmGraph& g, const aaa::ArchitectureGraph& arch,
                              const aaa::DurationTable& t,
                              aaa::AdequationOptions options = {}) {
  aaa::Adequation adequation(g, arch, t);
  adequation.pin("a", "CPU");
  adequation.pin("c", "CPU");
  options.reconfig_cost = [](const std::string&, const std::string&) { return 1_us; };
  return adequation.run(options);
}

constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

std::size_t find_item(const aaa::Schedule& s, ItemKind kind, const std::string& resource,
                      std::size_t skip = 0) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.kind(i) != kind || s.resource(i) != resource) continue;
    if (skip == 0) return i;
    --skip;
  }
  return kNoItem;
}

const Violation* find_violation(const Certificate& cert, lint::Rule rule) {
  for (const auto& v : cert.violations)
    if (v.rule == rule) return &v;
  return nullptr;
}

// --- certification of valid schedules ----------------------------------------

TEST(Certificate, AdequationScheduleCertifies) {
  const aaa::AlgorithmGraph g = conditioned_chain();
  const aaa::ArchitectureGraph arch = region_arch();
  const aaa::DurationTable t = region_durations();
  const aaa::Schedule s = region_schedule(g, arch, t);
  ASSERT_GT(s.reconfig_count, 0);

  const Certificate cert = verify::verify_schedule(s, g, arch);
  EXPECT_TRUE(cert.certified()) << cert.first_error();
  EXPECT_TRUE(cert.violations.empty());
  EXPECT_EQ(cert.error_count(), 0u);
  EXPECT_EQ(cert.first_error(), "");
  EXPECT_NE(cert.summary().find("certified"), std::string::npos);

  // The positive artifact: one port booking, loads sequence {alt_a}, a
  // residency interval stretching from the load to the horizon.
  ASSERT_EQ(cert.port_bookings.size(), 1u);
  EXPECT_EQ(cert.port_bookings.front().module, "alt_a");
  const auto loads = cert.expected_loads();
  ASSERT_EQ(loads.count("D1"), 1u);
  EXPECT_EQ(loads.at("D1"), (std::vector<std::string>{"alt_a"}));
  ASSERT_EQ(cert.residencies.size(), 1u);
  EXPECT_EQ(cert.residencies.front().region, "D1");
  EXPECT_EQ(cert.residencies.front().module, "alt_a");
  EXPECT_EQ(cert.residencies.front().from, cert.port_bookings.front().end);
  EXPECT_GE(cert.residencies.front().to, s.makespan);
}

TEST(Certificate, SelectionChangesTheExpectedLoadSequence) {
  const aaa::AlgorithmGraph g = conditioned_chain();
  const aaa::ArchitectureGraph arch = region_arch();
  const aaa::DurationTable t = region_durations();
  aaa::AdequationOptions options;
  options.selection["m"] = "alt_b";
  const aaa::Schedule s = region_schedule(g, arch, t, options);
  const Certificate cert = verify::verify_schedule(s, g, arch);
  ASSERT_TRUE(cert.certified()) << cert.first_error();
  EXPECT_EQ(cert.expected_loads().at("D1"), (std::vector<std::string>{"alt_b"}));
}

TEST(Certificate, PreloadAssumptionsMustMirrorTheSchedulers) {
  const aaa::AlgorithmGraph g = conditioned_chain();
  const aaa::ArchitectureGraph arch = region_arch();
  const aaa::DurationTable t = region_durations();
  aaa::AdequationOptions options;
  options.preloaded["D1"] = "alt_a";
  const aaa::Schedule s = region_schedule(g, arch, t, options);
  ASSERT_EQ(s.reconfig_count, 0);  // the preload made the region's load free

  // Verified against the same assumption: certified, residency from t=0.
  verify::VerifyOptions mirrored;
  mirrored.preloaded["D1"] = "alt_a";
  const Certificate good = verify::verify_schedule(s, g, arch, mirrored);
  EXPECT_TRUE(good.certified()) << good.first_error();
  ASSERT_EQ(good.residencies.size(), 1u);
  EXPECT_EQ(good.residencies.front().from, 0);

  // Verified with the assumption dropped: the variant executes in a region
  // the schedule never configures — use-before-configure.
  const Certificate bad = verify::verify_schedule(s, g, arch);
  EXPECT_FALSE(bad.certified());
  const Violation* v = find_violation(bad, lint::Rule::UseBeforeConfigure);
  ASSERT_NE(v, nullptr) << bad.first_error();
  EXPECT_FALSE(v->pair);
}

// --- mutation corpus: each seeded hazard is caught with its witness ----------

struct Mutant {
  aaa::AlgorithmGraph g;
  aaa::ArchitectureGraph arch;
  aaa::DurationTable t;
  aaa::Schedule s;

  explicit Mutant(int regions = 1)
      : g(conditioned_chain()), arch(region_arch(regions)), t(region_durations()),
        s(region_schedule(g, arch, t)) {}

  Certificate verify(const verify::VerifyOptions& options = {}) const {
    return verify::verify_schedule(s, g, arch, options);
  }
};

TEST(MutationCorpus, Pdr100ReconfigDuringExecute) {
  Mutant m;
  const std::size_t load = find_item(m.s, ItemKind::Reconfig, "D1");
  const std::size_t compute = find_item(m.s, ItemKind::Compute, "D1");
  ASSERT_NE(load, kNoItem);
  ASSERT_NE(compute, kNoItem);
  // Slide the load into the middle of the computation it precedes.
  const TimeNs duration = m.s.end(load) - m.s.start(load);
  m.s.set_start(load, m.s.start(compute) + 500);
  m.s.set_end(load, m.s.start(load) + duration);

  const Certificate cert = m.verify();
  EXPECT_FALSE(cert.certified());
  const Violation* v = find_violation(cert, lint::Rule::ReconfigDuringExecute);
  ASSERT_NE(v, nullptr) << cert.first_error();
  EXPECT_TRUE(v->pair);
  EXPECT_EQ(v->resource, "D1");
  EXPECT_EQ(v->first.label, m.s.label(compute));
  EXPECT_EQ(v->second.label, m.s.label(load));
  EXPECT_LT(v->overlap_from(), v->overlap_to());  // a genuine overlap window
  EXPECT_EQ(v->overlap_from(), m.s.start(load));
  EXPECT_EQ(v->overlap_to(), std::min(m.s.end(load), m.s.end(compute)));
}

TEST(MutationCorpus, Pdr101ExecuteDuringReconfig) {
  Mutant m;
  const std::size_t load = find_item(m.s, ItemKind::Reconfig, "D1");
  const std::size_t compute = find_item(m.s, ItemKind::Compute, "D1");
  ASSERT_NE(load, kNoItem);
  ASSERT_NE(compute, kNoItem);
  // Start the computation while the region's frames are being rewritten.
  const TimeNs duration = m.s.end(compute) - m.s.start(compute);
  m.s.set_start(compute, m.s.start(load) + 1);
  m.s.set_end(compute, m.s.start(compute) + duration);

  const Certificate cert = m.verify();
  EXPECT_FALSE(cert.certified());
  const Violation* v = find_violation(cert, lint::Rule::ExecuteDuringReconfig);
  ASSERT_NE(v, nullptr) << cert.first_error();
  EXPECT_TRUE(v->pair);
  EXPECT_EQ(v->first.label, m.s.label(load));
  EXPECT_EQ(v->second.label, m.s.label(compute));
  EXPECT_LT(v->overlap_from(), v->overlap_to());
}

TEST(MutationCorpus, Pdr102UseBeforeConfigure) {
  Mutant m;
  m.s.erase_items_if([](const ScheduledItem& i) { return i.kind == ItemKind::Reconfig; });
  const Certificate cert = m.verify();
  EXPECT_FALSE(cert.certified());
  const Violation* v = find_violation(cert, lint::Rule::UseBeforeConfigure);
  ASSERT_NE(v, nullptr) << cert.first_error();
  EXPECT_FALSE(v->pair);  // the defect is an absent load: one-item witness
  EXPECT_EQ(v->resource, "D1");
  EXPECT_EQ(v->first.variant, "alt_a");
  EXPECT_TRUE(cert.port_bookings.empty());
}

TEST(MutationCorpus, Pdr103StaleModuleExecution) {
  Mutant m;
  const std::size_t load = find_item(m.s, ItemKind::Reconfig, "D1");
  ASSERT_NE(load, kNoItem);
  m.s.set_module(load, "alt_b");  // the schedule loads the wrong personality
  m.s.set_label(load, "load alt_b");

  const Certificate cert = m.verify();
  EXPECT_FALSE(cert.certified());
  const Violation* v = find_violation(cert, lint::Rule::StaleModuleExecution);
  ASSERT_NE(v, nullptr) << cert.first_error();
  EXPECT_TRUE(v->pair);
  EXPECT_EQ(v->first.label, "load alt_b");  // witness: the stale load...
  EXPECT_EQ(v->second.variant, "alt_a");    // ...and the starved operation
  EXPECT_NE(v->message.find("holds module 'alt_b'"), std::string::npos);
}

TEST(MutationCorpus, Pdr104MediumTransferOverlap) {
  Mutant m;
  const std::size_t first = find_item(m.s, ItemKind::Transfer, "BUS");
  const std::size_t second = find_item(m.s, ItemKind::Transfer, "BUS", 1);
  ASSERT_NE(first, kNoItem);
  ASSERT_NE(second, kNoItem);
  // Slide the later transfer onto the earlier one.
  const TimeNs duration = m.s.end(second) - m.s.start(second);
  m.s.set_start(second, m.s.start(first));
  m.s.set_end(second, m.s.start(second) + duration);

  const Certificate cert = m.verify();
  EXPECT_FALSE(cert.certified());
  const Violation* v = find_violation(cert, lint::Rule::MediumTransferOverlap);
  ASSERT_NE(v, nullptr) << cert.first_error();
  EXPECT_EQ(v->resource, "BUS");
  EXPECT_LT(v->overlap_from(), v->overlap_to());
}

TEST(MutationCorpus, Pdr105PortDoubleBooking) {
  Mutant m(/*regions=*/2);
  const std::size_t load = find_item(m.s, ItemKind::Reconfig, "D1");
  ASSERT_NE(load, kNoItem);
  // A second region's load booked over the same port window.
  ScheduledItem twin = m.s.item(load);
  twin.resource = "D2";
  twin.module = "alt_b";
  twin.label = "load alt_b";
  m.s.push_item(twin);

  const Certificate cert = m.verify();
  EXPECT_FALSE(cert.certified());
  const Violation* v = find_violation(cert, lint::Rule::PortDoubleBooking);
  ASSERT_NE(v, nullptr) << cert.first_error();
  EXPECT_EQ(v->resource, "configuration port");
  EXPECT_LT(v->overlap_from(), v->overlap_to());
  EXPECT_NE(v->message.find("D1"), std::string::npos);
  EXPECT_NE(v->message.find("D2"), std::string::npos);
  // Both loads still appear in the booking sequence, in canonical order.
  EXPECT_EQ(cert.port_bookings.size(), 2u);
}

TEST(MutationCorpus, Pdr106ProducerDataCrossesReconfig) {
  Mutant m;
  const std::size_t compute = find_item(m.s, ItemKind::Compute, "D1");
  ASSERT_NE(compute, kNoItem);
  // Delay the region's outbound transfer, then rewrite the region while
  // the produced data still sits in it.
  const TimeNs compute_end = m.s.end(compute);
  for (std::size_t i = 0; i < m.s.size(); ++i) {
    if (m.s.kind(i) == ItemKind::Transfer && m.s.start(i) >= compute_end) {
      m.s.set_start(i, m.s.start(i) + 5'000);
      m.s.set_end(i, m.s.end(i) + 5'000);
    }
  }
  ScheduledItem rewrite;
  rewrite.kind = ItemKind::Reconfig;
  rewrite.resource = "D1";
  rewrite.module = "alt_b";
  rewrite.label = "load alt_b";
  rewrite.start = compute_end + 1'000;
  rewrite.end = compute_end + 2'000;
  m.s.push_item(rewrite);

  const Certificate cert = m.verify();
  const Violation* v = find_violation(cert, lint::Rule::DataCrossesReconfig);
  ASSERT_NE(v, nullptr) << cert.summary();
  // A warning, not an error: the executive's static-part buffering makes
  // this runnable, so certification must not reject it (else every
  // media-delayed transfer would prune a valid design point).
  EXPECT_EQ(v->severity, lint::Severity::Warning);
  EXPECT_TRUE(cert.certified()) << cert.first_error();
  EXPECT_EQ(v->first.label, m.s.label(compute));
  EXPECT_EQ(v->second.label, "load alt_b");
  EXPECT_NE(cert.summary().find("warning"), std::string::npos);
}

TEST(MutationCorpus, Pdr106ConsumerSideExemptsItsOwnLoad) {
  const aaa::AlgorithmGraph g = conditioned_chain();
  const aaa::ArchitectureGraph arch = region_arch();

  // Hand-built timeline: data for 'm' arrives at t=2000, 'm' starts at
  // t=5000. In between the region is configured twice: a foreign module
  // (displaces the waiting data -> warning) then m's own variant (the
  // normal on-demand pattern -> exempt).
  graph::EdgeId edge_am = graph::kNoEdge;
  const auto& dg = g.digraph();
  for (graph::EdgeId e : dg.edge_ids())
    if (dg[dg.edge_from(e)].name == "a") edge_am = e;
  ASSERT_NE(edge_am, graph::kNoEdge);

  aaa::Schedule s;
  ScheduledItem a;
  a.kind = ItemKind::Compute;
  a.label = "a";
  a.resource = "CPU";
  a.start = 0;
  a.end = 1'000;
  a.op = g.by_name("a");
  ScheduledItem hop;
  hop.kind = ItemKind::Transfer;
  hop.label = "a -> m";
  hop.resource = "BUS";
  hop.start = 1'000;
  hop.end = 2'000;
  hop.edge = edge_am;
  ScheduledItem foreign;
  foreign.kind = ItemKind::Reconfig;
  foreign.label = "load alt_b";
  foreign.resource = "D1";
  foreign.module = "alt_b";
  foreign.start = 2'500;
  foreign.end = 3'500;
  ScheduledItem own;
  own.kind = ItemKind::Reconfig;
  own.label = "load alt_a";
  own.resource = "D1";
  own.module = "alt_a";
  own.start = 3'500;
  own.end = 4'500;
  ScheduledItem consumer;
  consumer.kind = ItemKind::Compute;
  consumer.label = "m(alt_a)";
  consumer.resource = "D1";
  consumer.variant = "alt_a";
  consumer.start = 5'000;
  consumer.end = 7'000;
  consumer.op = g.by_name("m");
  for (const auto& it : {a, hop, foreign, own, consumer}) s.push_item(it);
  s.makespan = 7'000;

  const Certificate cert = verify::verify_schedule(s, g, arch);
  EXPECT_TRUE(cert.certified()) << cert.first_error();
  std::size_t crossings = 0;
  for (const auto& v : cert.violations)
    if (v.rule == lint::Rule::DataCrossesReconfig) ++crossings;
  ASSERT_EQ(crossings, 1u);  // the foreign load only; alt_a's own is exempt
  EXPECT_EQ(find_violation(cert, lint::Rule::DataCrossesReconfig)->first.label, "load alt_b");
}

TEST(MutationCorpus, Pdr107OperatorOverlap) {
  Mutant m;
  const std::size_t first = find_item(m.s, ItemKind::Compute, "CPU");
  const std::size_t second = find_item(m.s, ItemKind::Compute, "CPU", 1);
  ASSERT_NE(first, kNoItem);
  ASSERT_NE(second, kNoItem);
  const TimeNs duration = m.s.end(second) - m.s.start(second);
  m.s.set_start(second, m.s.start(first));
  m.s.set_end(second, m.s.start(second) + duration);

  const Certificate cert = m.verify();
  EXPECT_FALSE(cert.certified());
  const Violation* v = find_violation(cert, lint::Rule::OperatorOverlap);
  ASSERT_NE(v, nullptr) << cert.first_error();
  EXPECT_EQ(v->resource, "CPU");
  EXPECT_LT(v->overlap_from(), v->overlap_to());
}

TEST(MutationCorpus, Pdr108ForeignModuleLoad) {
  Mutant m;
  // Constraints declaring alt_a implemented for a *different* region: the
  // partial bitstream cannot fit D1.
  const aaa::ConstraintSet foreign = aaa::parse_constraints(R"(
    device XC2V2000
    region DX { }
    dynamic alt_a { region DX kind alt_a }
  )");
  verify::VerifyOptions options;
  options.constraints = &foreign;
  const Certificate bad = m.verify(options);
  EXPECT_FALSE(bad.certified());
  const Violation* v = find_violation(bad, lint::Rule::ForeignModuleLoad);
  ASSERT_NE(v, nullptr) << bad.first_error();
  EXPECT_EQ(v->resource, "D1");
  EXPECT_NE(v->message.find("'DX'"), std::string::npos);

  // The same schedule with constraints that match the floorplan certifies.
  const aaa::ConstraintSet matching = aaa::parse_constraints(R"(
    device XC2V2000
    region D1 { }
    dynamic alt_a { region D1 kind alt_a }
  )");
  options.constraints = &matching;
  EXPECT_TRUE(m.verify(options).certified());
}

TEST(MutationCorpus, ViolationsFlowThroughLintReport) {
  Mutant m;
  const std::size_t load = find_item(m.s, ItemKind::Reconfig, "D1");
  ASSERT_NE(load, kNoItem);
  m.s.set_module(load, "alt_b");
  m.s.set_label(load, "load alt_b");

  const lint::Report report = m.verify().to_report();
  EXPECT_TRUE(report.has(lint::Rule::StaleModuleExecution));
  EXPECT_GT(report.errors(), 0u);
  EXPECT_NE(report.to_text().find("PDR103"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"PDR103\""), std::string::npos);
  EXPECT_NE(report.to_text().find("[resource D1]"), std::string::npos);
}

// --- differential oracle ------------------------------------------------------

TEST(DifferentialOracle, FuzzedCertifiedSchedulesReplayWithZeroHazards) {
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= 54; ++seed) {
    // Generated DAGs over bench_architecture(2, 2), prefetch on even
    // seeds, D1 preloaded every fourth (schedule_corpus.hpp).
    const auto problem = corpus::oracle_problem(seed);
    const aaa::AlgorithmGraph& g = problem->algorithm;
    const aaa::ArchitectureGraph& arch = problem->architecture;
    aaa::AdequationOptions options = problem->options;
    options.reconfig_cost = [](const std::string&, const std::string&) { return 100_us; };
    const aaa::Schedule schedule = aaa::Adequation(g, arch, problem->durations).run(options);

    verify::VerifyOptions vo;
    vo.preloaded = options.preloaded;
    const Certificate cert = verify::verify_schedule(schedule, g, arch, vo);
    ASSERT_TRUE(cert.certified()) << "seed " << seed << ": " << cert.first_error();

    const aaa::Executive executive = aaa::generate_executive(schedule, g, arch);
    sim::ExecutivePlayer player(executive, arch);
    player.set_reconfig_cost([](const std::string&, const std::string&) { return 100_us; });
    player.set_initial_residency(options.preloaded);
    const sim::PlayResult result = player.run(2);
    EXPECT_EQ(result.hazard_faults, 0)
        << "seed " << seed << ": " << (result.hazards.empty() ? "" : result.hazards.front());
    ++verified;
  }
  EXPECT_EQ(verified, 54);
}

TEST(DifferentialOracle, BothHalvesAgreeOnAMutatedSchedule) {
  // Drop every load from a schedule that needs them: the static verifier
  // must reject (PDR102) and the player's runtime monitor must fault on
  // the very hazard the verifier predicted.
  bench::GeneratorConfig cfg;
  cfg.shape = bench::GraphShape::Layered;
  cfg.n_ops = 40;
  cfg.width = 6;
  cfg.fanout = 3;
  cfg.conditioned_every = 3;
  cfg.seed = 7;
  const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
  const aaa::ArchitectureGraph arch = bench::bench_architecture(2, 2);
  const aaa::DurationTable durations = bench::bench_durations();
  aaa::AdequationOptions options;
  options.reconfig_cost = [](const std::string&, const std::string&) { return 100_us; };
  aaa::Schedule schedule = aaa::Adequation(g, arch, durations).run(options);
  ASSERT_GT(schedule.reconfig_count, 0);

  schedule.erase_items_if([](const ScheduledItem& i) { return i.kind == ItemKind::Reconfig; });

  const Certificate cert = verify::verify_schedule(schedule, g, arch);
  EXPECT_FALSE(cert.certified());
  EXPECT_NE(find_violation(cert, lint::Rule::UseBeforeConfigure), nullptr);

  const aaa::Executive executive = aaa::generate_executive(schedule, g, arch);
  sim::ExecutivePlayer player(executive, arch);
  player.set_reconfig_cost([](const std::string&, const std::string&) { return 100_us; });
  const sim::PlayResult result = player.run(1);
  EXPECT_GT(result.hazard_faults, 0);
  ASSERT_FALSE(result.hazards.empty());
  EXPECT_NE(result.hazards.front().find("never configured"), std::string::npos);
}

// --- rtr certified replay -----------------------------------------------------

synth::DesignBundle replay_bundle() {
  synth::ModularDesignFlow flow(fabric::device_by_name("XC2V2000"));
  flow.add_region("D1", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  return flow.run();
}

TEST(CertifiedReplay, ConsumesDemandLoadsInOrderAndRejectsOverflow) {
  const synth::DesignBundle bundle = replay_bundle();
  rtr::BitstreamStore store(40e6, 1'000);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, rtr::ManagerConfig{}, store, policy);
  manager.enable_certified_replay({{"D1", {"qpsk", "qam16", "qpsk"}}});

  TimeNs now = 0;
  now = manager.request("D1", "qpsk", now).ready_at;   // load 1 of 3
  now = manager.request("D1", "qpsk", now).ready_at;   // resident: consumes nothing
  now = manager.request("D1", "qam16", now).ready_at;  // load 2 of 3
  now = manager.request("D1", "qpsk", now).ready_at;   // load 3 of 3
  try {
    manager.request("D1", "qam16", now);
    FAIL() << "a demand past the certified sequence must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the certified schedule"), std::string::npos)
        << e.what();
  }
}

TEST(CertifiedReplay, DivergingModuleThrowsWithBothNames) {
  const synth::DesignBundle bundle = replay_bundle();
  rtr::BitstreamStore store(40e6, 1'000);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, rtr::ManagerConfig{}, store, policy);
  manager.enable_certified_replay({{"D1", {"qam16"}}});
  try {
    manager.request("D1", "qpsk", 0);
    FAIL() << "a diverging demand must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("diverges"), std::string::npos) << what;
    EXPECT_NE(what.find("'qpsk'"), std::string::npos) << what;
    EXPECT_NE(what.find("'qam16'"), std::string::npos) << what;
  }
}

TEST(CertifiedReplay, MaintenanceLoadsAreExempt) {
  const synth::DesignBundle bundle = replay_bundle();
  rtr::BitstreamStore store(40e6, 1'000);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, rtr::ManagerConfig{}, store, policy);
  manager.enable_certified_replay({{"D1", {"qpsk", "qam16"}}});

  TimeNs now = manager.request("D1", "qpsk", 0).ready_at;  // load 1 of 2
  now = manager.scrub("D1", now);   // rewrites qpsk: repair, not schedule
  now = manager.blank("D1", now);   // eager unload: also exempt
  // The blank cleared residency, so re-demanding qpsk would be a real
  // (diverging) load; the certified sequence continues with qam16.
  EXPECT_NO_THROW(manager.request("D1", "qam16", now));
}

TEST(CertifiedReplay, StartupResidencyConsumesItsEntry) {
  const synth::DesignBundle bundle = replay_bundle();
  rtr::BitstreamStore store(40e6, 1'000);
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, rtr::ManagerConfig{}, store, policy);
  manager.enable_certified_replay({{"D1", {"qpsk"}}});
  manager.set_resident("D1", "qpsk");  // the `load startup` path
  EXPECT_THROW(manager.request("D1", "qam16", 0), Error);
}

}  // namespace
}  // namespace pdr
