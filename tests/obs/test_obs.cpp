// Unit tests for the observability layer (src/obs): session lifecycle,
// phase/counter attribution, per-thread tracks, trace export, and the
// deterministic-merge guarantee.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/dag_mapper.hpp"
#include "cutmap/cut_mapper.hpp"
#include "gen/circuits.hpp"
#include "io/genlib.hpp"
#include "libcache/compiled_library.hpp"
#include "library/standard_libs.hpp"

namespace dagmap {
namespace {

// Every test owns its session; make sure a crashed predecessor cannot
// leak an enabled flag into the next test.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::stop(); }
};

TEST_F(ObsTest, DisabledProbesRecordNothing) {
  obs::stop();
  ASSERT_FALSE(obs::enabled());
  {
    obs::Scope scope("ghost");
    obs::counter_add("ghost.counter", 42);
  }
  // A later session must not see anything from the disabled period.
  obs::start();
  obs::stop();
  obs::ProfileData prof = obs::collect();
  EXPECT_TRUE(prof.collected);
  EXPECT_TRUE(prof.events.empty());
  EXPECT_TRUE(prof.counters.empty());
  EXPECT_TRUE(prof.phases.empty());
}

TEST_F(ObsTest, NullScopeNameIsNoOpEvenWhenEnabled) {
  obs::start();
  {
    obs::Scope scope(nullptr);
  }
  obs::stop();
  EXPECT_TRUE(obs::collect().events.empty());
}

TEST_F(ObsTest, PhasesFollowOwnerDepthZeroScopes) {
  obs::start();
  {
    obs::Scope scope("alpha");
    obs::counter_add("widgets", 3);
  }
  {
    obs::Scope scope("beta");
    obs::Scope inner("beta.inner");
    obs::counter_add("inner.items", 7);
  }
  {
    obs::Scope scope("alpha");  // second call of the same phase
    obs::counter_add("widgets", 2);
  }
  obs::stop();
  obs::ProfileData prof = obs::collect();

  // Two phases in first-start order; "beta.inner" is depth 1, not a phase.
  ASSERT_EQ(prof.phases.size(), 2u);
  EXPECT_EQ(prof.phases[0].name, "alpha");
  EXPECT_EQ(prof.phases[0].calls, 2u);
  EXPECT_EQ(prof.phases[1].name, "beta");
  EXPECT_EQ(prof.phases[1].calls, 1u);

  // Counter attribution: to the innermost open scope.
  EXPECT_EQ(prof.phases[0].counters.at("widgets"), 5u);
  EXPECT_EQ(prof.phases[1].counters.count("inner.items"), 0u);
  // ...but the global counter map sees everything.
  EXPECT_EQ(prof.counters.at("widgets"), 5u);
  EXPECT_EQ(prof.counters.at("inner.items"), 7u);

  // All four scopes (alpha twice) are events; the nested one is depth 1.
  ASSERT_EQ(prof.events.size(), 4u);
  bool saw_inner = false;
  for (const obs::ProfileEvent& e : prof.events) {
    if (e.name == "beta.inner") {
      saw_inner = true;
      EXPECT_EQ(e.depth, 1u);
    } else {
      EXPECT_EQ(e.depth, 0u);
    }
    EXPECT_GE(e.dur_us, 0.0);
  }
  EXPECT_TRUE(saw_inner);

  // Phase wall times are bounded by the session total.
  double phase_sum = 0;
  for (const obs::PhaseSummary& p : prof.phases) phase_sum += p.seconds;
  EXPECT_LE(phase_sum, prof.total_seconds + 1e-6);

  std::string text = prof.summary();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("widgets"), std::string::npos);
  EXPECT_NE(text.find("(phases sum)"), std::string::npos);
}

TEST_F(ObsTest, WorkerThreadsGetOwnTracksNotPhases) {
  obs::start();
  {
    obs::Scope scope("label");  // owner phase
    std::thread worker([] {
      obs::set_thread_name("pool worker 1");
      obs::Scope work("label.wave");
      obs::counter_add("label.nodes", 11);
    });
    worker.join();
  }
  obs::stop();
  obs::ProfileData prof = obs::collect();

  // Only the owner's scope is a phase.
  ASSERT_EQ(prof.phases.size(), 1u);
  EXPECT_EQ(prof.phases[0].name, "label");

  // The worker's scope is an event on a different tid, with its name.
  const obs::ProfileEvent* wave = nullptr;
  std::uint32_t owner_tid = 0;
  for (const obs::ProfileEvent& e : prof.events) {
    if (e.name == "label") owner_tid = e.tid;
    if (e.name == "label.wave") wave = &e;
  }
  ASSERT_NE(wave, nullptr);
  EXPECT_NE(wave->tid, owner_tid);
  EXPECT_EQ(prof.thread_names.at(wave->tid), "pool worker 1");

  // Counters cross thread boundaries into the global map; a worker
  // counter inside a "label.wave" scope does not attribute to "label".
  EXPECT_EQ(prof.counters.at("label.nodes"), 11u);
}

TEST_F(ObsTest, CollectIsRepeatableAndDeterministic) {
  obs::start();
  {
    obs::Scope a("one");
    obs::counter_add("c", 1);
  }
  {
    obs::Scope b("two");
  }
  obs::stop();
  obs::ProfileData first = obs::collect();
  obs::ProfileData second = obs::collect();

  ASSERT_EQ(first.events.size(), second.events.size());
  for (std::size_t i = 0; i < first.events.size(); ++i) {
    EXPECT_EQ(first.events[i].name, second.events[i].name);
    EXPECT_EQ(first.events[i].tid, second.events[i].tid);
    EXPECT_EQ(first.events[i].start_us, second.events[i].start_us);
    EXPECT_EQ(first.events[i].dur_us, second.events[i].dur_us);
  }
  ASSERT_EQ(first.phases.size(), second.phases.size());
  for (std::size_t i = 0; i < first.phases.size(); ++i) {
    EXPECT_EQ(first.phases[i].name, second.phases[i].name);
    EXPECT_EQ(first.phases[i].seconds, second.phases[i].seconds);
    EXPECT_EQ(first.phases[i].calls, second.phases[i].calls);
  }
  EXPECT_EQ(first.counters, second.counters);
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  obs::start();
  obs::set_thread_name("main \"quoted\"");  // exercises escaping
  {
    obs::Scope scope("phase.a");
    obs::counter_add("k", 2);
  }
  obs::stop();
  obs::ProfileData prof = obs::collect();
  std::string json = prof.chrome_trace_json();

  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name meta
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete event
  EXPECT_NE(json.find("\"name\":\"phase.a\""), std::string::npos);
  EXPECT_NE(json.find("main \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");

  // Structural balance: every opened brace/bracket closes.
  long braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(ObsTest, StartClearsThePreviousSession) {
  obs::start();
  {
    obs::Scope scope("old");
  }
  obs::stop();
  obs::start();
  {
    obs::Scope scope("new");
  }
  obs::stop();
  obs::ProfileData prof = obs::collect();
  ASSERT_EQ(prof.phases.size(), 1u);
  EXPECT_EQ(prof.phases[0].name, "new");
}

TEST_F(ObsTest, DefaultConstructedProfileIsMarkedUncollected) {
  obs::ProfileData prof;
  EXPECT_FALSE(prof.collected);
  EXPECT_TRUE(prof.phases.empty());
}

// compile_library's sub-phases (parse, tt, isop, patterns, index) nest
// one level under the caller's library.build scope and account for at
// least 95 % of its wall time; without a session they record nothing.
TEST_F(ObsTest, LibraryBuildSubPhasesNestAndCoverTheBuild) {
  const std::string text = write_genlib(make_44_genlib(3));
  CompiledLibrary lib;  // destroyed outside the timed build
  obs::start();
  {
    obs::Scope build("library.build");
    lib = compile_library(text, {}, "44-3-like");
  }
  obs::stop();
  obs::ProfileData prof = obs::collect();

  const obs::ProfileEvent* whole = nullptr;
  for (const obs::ProfileEvent& e : prof.events)
    if (e.name == "library.build") whole = &e;
  ASSERT_NE(whole, nullptr);
  EXPECT_EQ(whole->depth, 0u);
  double covered_us = 0.0;
  for (const char* sub : {"library.parse", "library.tt", "library.isop",
                          "library.patterns", "library.index"}) {
    int seen = 0;
    for (const obs::ProfileEvent& e : prof.events) {
      if (e.name != sub) continue;
      ++seen;
      EXPECT_EQ(e.depth, 1u) << sub;
      EXPECT_EQ(e.tid, whole->tid) << sub;
      EXPECT_GE(e.start_us, whole->start_us) << sub;
      EXPECT_LE(e.start_us + e.dur_us, whole->start_us + whole->dur_us) << sub;
      covered_us += e.dur_us;
    }
    EXPECT_EQ(seen, 1) << sub;
  }
  EXPECT_GE(covered_us, 0.95 * whole->dur_us);
  EXPECT_EQ(prof.events.size(), 6u);

  compile_library(text, {}, "44-3-like");  // no session: inert
  EXPECT_EQ(obs::collect().events.size(), prof.events.size());
}

// The top-level phases of one `map` call (match.build, schedule, label,
// cover, stats) account for at least 98 % of its wall time on a
// subject large enough that per-node work outside a phase would show.
TEST_F(ObsTest, MapPhasesCoverTheMapping) {
  Network subject = make_random_subject_graph(100000, 64, 32, 0x0B5);
  GateLibrary lib = make_lib2_library();
  MapOptions o;
  o.profile = true;
  MapResult r = dag_map(subject, lib, o);
  ASSERT_TRUE(r.profile.collected);
  double phased = 0.0;
  for (const obs::PhaseSummary& p : r.profile.phases) phased += p.seconds;
  for (const char* name : {"match.build", "schedule", "label", "cover"}) {
    bool seen = false;
    for (const obs::PhaseSummary& p : r.profile.phases)
      seen = seen || p.name == name;
    EXPECT_TRUE(seen) << name;
  }
  EXPECT_GE(phased, 0.98 * r.cpu_seconds)
      << "phases " << phased << " s of " << r.cpu_seconds << " s";
}

// Label counters of the cut source: every labeled node's pick is either
// a pattern match or an NPN cut match, and the NPN table is process-wide,
// so a second identical map finds every entry it needs already filled.
TEST_F(ObsTest, CutSourceWinCountersAndWarmNpnTable) {
  Network subject = make_random_subject_graph(3000, 32, 16, 0xC07);
  GateLibrary lib = make_44_library(3);
  MapOptions o;
  o.profile = true;
  o.num_threads = 2;
  MapResult first = cut_map(subject, lib, o);
  ASSERT_TRUE(first.profile.collected);
  const auto& c1 = first.profile.counters;
  EXPECT_EQ(c1.at("label.wins_structural") + c1.at("label.wins_npn"),
            c1.at("label.nodes"));
  EXPECT_GT(c1.at("label.wins_npn"), 0u);

  MapResult second = cut_map(subject, lib, o);
  const auto& c2 = second.profile.counters;
  EXPECT_EQ(c2.at("cutmap.npn_fills"), 0u);
  EXPECT_EQ(c2.at("label.wins_npn"), c1.at("label.wins_npn"));
  EXPECT_EQ(c2.at("label.wins_structural"), c1.at("label.wins_structural"));
}

}  // namespace
}  // namespace dagmap
