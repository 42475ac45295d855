// Parallel wavefront labeling: thread-count invariance of dag_map — on
// the small suite, crafted reconvergent and shared-fanout subjects, a
// sequential circuit and the golden corpus — and the ThreadPool
// primitive itself.  This binary carries the `tsan` CTest label; build
// with -DDAGMAP_SANITIZE=thread and run `ctest -L tsan` to exercise the
// parallel labeler under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <initializer_list>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "check/fuzz_pipeline.hpp"
#include "core/dag_mapper.hpp"
#include "core/parallel.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "io/blif.hpp"
#include "io/genlib.hpp"
#include "library/standard_libs.hpp"
#include "mapnet/write.hpp"
#include "supergate/supergate.hpp"
#include "treemap/tree_mapper.hpp"

namespace dagmap {
namespace {

// ---- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  // Counts on both sides of every chunk-size step: one index, one per
  // worker, around eight per worker (where chunks grow past one index),
  // and a prime large enough for the chunk cap.
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const std::size_t w = pool.num_workers();
    for (std::size_t count :
         {std::size_t{1}, w, 8 * w - 1, 8 * w, 8 * w + 1, std::size_t{1000},
          std::size_t{10007}}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " count=" << count);
      std::vector<std::atomic<int>> hits(count);
      pool.parallel_for(count, [&](std::size_t i, unsigned worker) {
        EXPECT_LT(worker, pool.num_workers());
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPool, ChunkSizeFollowsCountAndWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.chunk_size(1), 1u);
  EXPECT_EQ(pool.chunk_size(32), 1u);   // 8 chunks per worker
  EXPECT_EQ(pool.chunk_size(33), 2u);
  EXPECT_EQ(pool.chunk_size(10007), ThreadPool::kMaxChunk);
  EXPECT_EQ(ThreadPool(1).chunk_size(10007), ThreadPool::kMaxChunk);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  for (int job = 0; job < 50; ++job)
    pool.parallel_for(10, [&](std::size_t i, unsigned) {
      sum.fetch_add(static_cast<std::int64_t>(i), std::memory_order_relaxed);
    });
  EXPECT_EQ(sum.load(), 50 * 45);
}

TEST(ThreadPool, PropagatesBodyException) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    // 10007 indices run in chunks of kMaxChunk; the throwing index sits
    // in the middle of one, so the rest of that chunk is abandoned.
    const std::size_t count = 10007;
    const std::size_t chunk = pool.chunk_size(count);
    ASSERT_GT(chunk, 2u);
    const std::size_t bad = 40 * chunk + chunk / 2;
    EXPECT_THROW(
        pool.parallel_for(count,
                          [&](std::size_t i, unsigned) {
                            if (i == bad) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool survives a throwing job.
    std::atomic<int> ran{0};
    pool.parallel_for(8, [&](std::size_t, unsigned) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(resolve_num_threads(1), 1u);
  EXPECT_EQ(resolve_num_threads(7), 7u);
  EXPECT_GE(resolve_num_threads(0), 1u);  // hardware concurrency
}

// ---- dag_map thread-count invariance ------------------------------------

void expect_identical_maps(const Network& subject, const GateLibrary& lib,
                           DagMapOptions base,
                           std::initializer_list<unsigned> thread_counts = {
                               2u, 4u, 8u}) {
  base.num_threads = 1;
  MapResult seq = dag_map(subject, lib, base);
  const std::string seq_blif = write_mapped_blif(seq.netlist);
  for (unsigned threads : thread_counts) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    DagMapOptions o = base;
    o.num_threads = threads;
    MapResult par = dag_map(subject, lib, o);
    // Bit-identical labels and delay.
    ASSERT_EQ(par.label.size(), seq.label.size());
    for (std::size_t i = 0; i < seq.label.size(); ++i)
      EXPECT_EQ(par.label[i], seq.label[i]) << "label of node " << i;
    EXPECT_EQ(par.optimal_delay, seq.optimal_delay);
    // Identical selected gates: same netlist size, area, and histogram.
    EXPECT_EQ(par.netlist.num_gates(), seq.netlist.num_gates());
    EXPECT_EQ(par.netlist.total_area(), seq.netlist.total_area());
    EXPECT_EQ(par.netlist.gate_histogram(), seq.netlist.gate_histogram());
    EXPECT_EQ(par.netlist.structural_hash(), seq.netlist.structural_hash());
    EXPECT_EQ(write_mapped_blif(par.netlist), seq_blif);
    // Identical work: the same matches were enumerated.
    EXPECT_EQ(par.matches_enumerated, seq.matches_enumerated);
    EXPECT_EQ(par.match_attempts, seq.match_attempts);
    EXPECT_EQ(par.match_prunes, seq.match_prunes);
  }
}

TEST(ParallelDagMap, DeterministicAcrossThreadCountsOnSuite) {
  GateLibrary lib = make_lib2_library();
  for (const BenchmarkCircuit& bc : make_small_suite()) {
    Network subject = tech_decompose(bc.network);
    expect_identical_maps(subject, lib, {});
  }
}

TEST(ParallelDagMap, DeterministicAcrossOddWorkerCountsOnSuite) {
  // The chunk size is derived from a wave's width and the worker count,
  // so 3, 5 and 6 workers cut every wave at other chunk boundaries than
  // the power-of-two counts above.
  GateLibrary lib = make_lib2_library();
  for (const BenchmarkCircuit& bc : make_small_suite()) {
    SCOPED_TRACE(bc.name);
    expect_identical_maps(tech_decompose(bc.network), lib, {}, {3u, 5u, 6u});
  }
}

TEST(ParallelDagMap, DeterministicAcrossThreadCountsOnRandomSubjectGraph) {
  // Unstructured reconvergence; BLIF bytes are compared, which the 100k
  // scale test leaves to its structural hash.
  Network subject = make_random_subject_graph(2000, 24, 8, 0xBEEF);
  expect_identical_maps(subject, make_lib2_library(), {});
}

TEST(ParallelDagMap, DeterministicAcrossThreadCountsOnReconvergentDiamonds) {
  // Chained diamonds: every apex reconverges two fanout branches, and
  // each diamond spans several depth waves.
  Network n("diamonds");
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId cur = n.add_nand2(a, b);
  for (int i = 0; i < 12; ++i) {
    NodeId l = n.add_nand2(cur, a);
    NodeId r = n.add_inv(cur);
    NodeId rr = n.add_nand2(r, b);
    cur = n.add_nand2(l, rr);
  }
  n.add_output(cur, "y");
  ASSERT_TRUE(n.is_subject_graph());
  expect_identical_maps(n, make_lib2_library(), {});
}

TEST(ParallelDagMap, DeterministicAcrossThreadCountsOnSharedFanoutLadder) {
  // A wide multi-fanout hub read by one whole wave of nodes.
  Network n("ladder");
  NodeId x = n.add_input("x");
  NodeId y = n.add_input("y");
  NodeId hub = n.add_nand2(x, y);
  std::vector<NodeId> tips;
  for (int i = 0; i < 16; ++i) {
    NodeId t = n.add_nand2(hub, i % 2 ? x : y);
    tips.push_back(n.add_inv(t));
  }
  NodeId acc = tips[0];
  for (std::size_t i = 1; i < tips.size(); ++i)
    acc = n.add_nand2(acc, tips[i]);
  n.add_output(acc, "z");
  ASSERT_TRUE(n.is_subject_graph());
  expect_identical_maps(n, make_lib2_library(), {});
}

TEST(ParallelDagMap, DeterministicAcrossThreadCountsOnSequentialCircuit) {
  Network subject = tech_decompose(make_sequential_pipeline(2, 8, 5, 2));
  ASSERT_GT(subject.num_latches(), 0u);
  expect_identical_maps(subject, make_lib2_library(), {});
}

std::string golden_path(const std::string& rel) {
  return std::string(DAGMAP_TEST_DATA_DIR) + "/golden/" + rel;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ParallelDagMap, DeterministicAcrossThreadCountsOnGoldenCorpus) {
  // Every corpus pair, the supergate-augmented entries (`stem+sg`)
  // included.
  std::ifstream in(golden_path("golden.expect"));
  ASSERT_TRUE(in.good()) << "missing tests/data/golden/golden.expect";
  std::vector<std::string> names;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    ls >> name;
    names.push_back(name);
  }
  ASSERT_GE(names.size(), 4u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const std::size_t plus = name.find('+');
    const std::string stem = name.substr(0, plus);
    Network circuit = parse_blif(slurp(golden_path(stem + ".blif")));
    std::vector<GenlibGate> gates =
        parse_genlib(slurp(golden_path(stem + ".genlib")));
    GateLibrary lib =
        plus != std::string::npos
            ? std::move(generate_supergates(gates, {}, name).library)
            : GateLibrary::from_genlib(gates, name);
    expect_identical_maps(tech_decompose(circuit), lib, {});
  }
}

TEST(ParallelDagMap, DeterministicWithRichLibrary) {
  GateLibrary lib = make_44_library(2);
  Network subject = tech_decompose(make_array_multiplier(6));
  expect_identical_maps(subject, lib, {});
}

TEST(ParallelDagMap, DeterministicWithExtendedMatchesAndAreaRecovery) {
  GateLibrary lib = make_lib2_library();
  Network subject = tech_decompose(make_alu(8));
  DagMapOptions o;
  o.match_class = MatchClass::Extended;
  expect_identical_maps(subject, lib, o);
  DagMapOptions ar;
  ar.area_recovery = true;
  expect_identical_maps(subject, lib, ar);
}

TEST(ParallelDagMap, DeterministicWithExtendedMatchesAndAreaRecoveryOnRichLibrary) {
  // The same two options on 44-2, whose larger gates give each node many
  // more candidate matches to tie-break than lib2 does.
  GateLibrary lib = make_44_library(2);
  Network subject = tech_decompose(make_alu(6));
  DagMapOptions ext;
  ext.match_class = MatchClass::Extended;
  expect_identical_maps(subject, lib, ext);
  DagMapOptions ar;
  ar.area_recovery = true;
  expect_identical_maps(subject, lib, ar);
}

TEST(ParallelDagMap, FuzzInvariantSuiteAcrossThreadCounts) {
  // The metamorphic fuzz suite under this binary's `tsan` label: each
  // instance's ThreadDeterminism invariant maps with num_threads 1, 2
  // and 0 (all hardware threads) and requires bit-identical labels and
  // netlists, so `-DDAGMAP_SANITIZE=thread` sweeps the whole
  // decompose -> match -> label -> cover pipeline, not just ThreadPool.
  FuzzOptions opt;  // full invariant suite, random circuit + library
  for (std::uint64_t seed = 500; seed < 512; ++seed) {
    FuzzReport r = run_fuzz_seed(seed, opt);
    EXPECT_TRUE(r.ok) << r.to_string();
  }
}

TEST(ParallelDagMap, ParallelResultIsEquivalentAndOptimal) {
  // The parallel path must keep the mapper's semantic guarantees, not
  // just match the sequential one: verify against the tree mapper bound.
  GateLibrary lib = make_lib2_library();
  Network subject = tech_decompose(make_comparator(8));
  DagMapOptions o;
  o.num_threads = 4;
  MapResult dag = dag_map(subject, lib, o);
  MapResult tree = tree_map(subject, lib);
  EXPECT_LE(dag.optimal_delay, tree.optimal_delay + 1e-9);
}

}  // namespace
}  // namespace dagmap
