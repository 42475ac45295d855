// End-to-end benchmark of dagmap: closed-loop mapping workloads timed
// from outside the library, with a traced mode that breaks each job
// into the public calls it makes.
//
//   perfbench --workload <suite_warm|suite_best|big_subject> --seed N
//             --seconds S --trace <0|1> [--jobs N] [--setups K]
//             [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
//   perfbench --write-circuit NAME PATH
//
// One client in one process: the next job starts when the previous one
// ends.  A job is a fixed sequence of calls into the public API (see
// perfbench/README.md for each workload's steps and why it was chosen).
//
// On a shared virtual machine the vCPU itself runs slower while
// neighbours are busy, so only the fast end of a timing distribution
// measures the program.  Every call of a job is timed on its own, and
// the headline `job_ms.p10` sums, over the job's (circuit, call) steps,
// the 10th percentile of that step's time across the run's jobs: the
// job's time on an uncontended machine, estimated from many short
// samples instead of a few long ones.
//
// Output: report lines (meta, per-circuit rows, context, metrics), then
// one JSON object as the last line with `correct`, `attempted`,
// `failed` and `metrics`.  With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, and a
// Chrome trace-event file is written to --out-dir.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "boolmatch/npn_index.hpp"
#include "core/dag_mapper.hpp"
#include "cutmap/cut_mapper.hpp"
#include "decomp/choices.hpp"
#include "decomp/tech_decomp.hpp"
#include "gen/circuits.hpp"
#include "io/blif.hpp"
#include "io/genlib.hpp"
#include "libcache/compiled_library.hpp"
#include "library/standard_libs.hpp"
#include "mapnet/write.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

using namespace dagmap;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Percentile by linear interpolation between closest ranks
/// (numpy's default); `q` in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// ---- tracing ---------------------------------------------------------------

/// One completed span.  `job` is -1 for spans outside the timed jobs
/// (set-up, the post-run check, the thread-scaling probe).
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = -1;
  long job = -1;
  std::string circuit;
  double dur_ms() const { return (end_us - start_us) / 1000.0; }
};

/// In-memory span recorder around the benchmark's calls into dagmap.
/// When off it records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  bool on() const { return on_; }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  /// Opens a span under the innermost open one; returns its id.
  int begin(const char* name, long job, const std::string& circuit) {
    if (!on_) return -1;
    int id = push(name, now_us(), 0.0, job, circuit);
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }
  /// Records an already-finished child of the innermost open span.
  void add(const std::string& name, double start_us, double end_us) {
    if (!on_ || stack_.empty()) return;
    const Span& p = spans_[static_cast<std::size_t>(stack_.back())];
    push(name, start_us, end_us, p.job, p.circuit);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int push(std::string name, double start_us, double end_us, long job,
           std::string circuit) {
    Span s;
    s.name = std::move(name);
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    s.circuit = std::move(circuit);
    s.start_us = start_us;
    s.end_us = end_us;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Wall time per step name; one per (job, circuit).
using StepMs = std::map<std::string, double>;

/// RAII step: always timed into `sink` (when given), and a span when
/// tracing.
class Step {
 public:
  Step(Tracer& t, const char* name, StepMs* sink = nullptr, long job = -1,
       const std::string& circuit = {})
      : t_(t), name_(name), sink_(sink), id_(t.begin(name, job, circuit)),
        t0_(Clock::now()) {}
  ~Step() {
    if (sink_ != nullptr) (*sink_)[name_] += ms_between(t0_, Clock::now());
    t_.end(id_);
  }
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

 private:
  Tracer& t_;
  const char* name_;
  StepMs* sink_;
  int id_;
  Clock::time_point t0_;
};

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\""
        << json_escape(s.name) << "\",\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"job\":" << s.job
        << ",\"circuit\":\"" << json_escape(s.circuit) << "\"}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.str();
}

/// Self time per span name over the run: duration minus the part its
/// direct children cover.
std::map<std::string, double> self_ms(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.dur_ms();
  std::map<std::string, double> out;
  for (const Span& s : spans)
    out[s.name] += s.dur_ms() - child[static_cast<std::size_t>(s.id)];
  return out;
}

// ---- workloads -------------------------------------------------------------

enum class Kind { SuiteWarm, SuiteBest, BigSubject };

/// Circuits of `make_iscas85_like_suite()` that suite_best maps (each
/// under 0.7 s in the choices + cuts flow).
const std::vector<std::string> kBestCircuits = {
    "c432-like", "c499-like", "c880-like", "c1908-like", "c6288-like"};

constexpr std::size_t kBigNodes = 1'000'000;
constexpr unsigned kBigInputs = 256;
constexpr unsigned kBigOutputs = 256;
constexpr unsigned kBigThreads = 2;
constexpr unsigned kBigCheckRounds = 8;

/// Set-ups per run, each the first in a fresh process; setup_s is their
/// median.  Repeated set-ups in one process are no substitute: once the
/// allocator has grown its heap they skip the page faults a fresh
/// process pays, and run up to 2x faster.  The 44-3 compile takes
/// seconds, the other set-ups tens of milliseconds.
int setup_rounds(Kind k) { return k == Kind::SuiteWarm ? 3 : 9; }

unsigned workload_threads(Kind k) {
  return k == Kind::BigSubject ? kBigThreads : 1;
}

/// The name the workload's mapping call is timed under.
const char* map_step(Kind k) {
  return k == Kind::SuiteBest ? "cutmap.cut_map" : "core.dag_map";
}

/// Everything set-up builds; jobs only read it.
struct Inputs {
  std::vector<std::pair<std::string, std::string>> blif;  // name, text
  Network subject;                                        // big_subject
  std::unique_ptr<CompiledLibrary> lib;  // address-stable: npn borrows it
  std::unique_ptr<NpnLibraryIndex> npn;
};

std::string lib44_text() { return write_genlib(make_44_genlib(3)); }

/// Writes (or refreshes) the 44-3 artifact suite_best loads, before
/// anything is timed: the state a restarted server finds on disk.
void ensure_artifact(const std::string& path) {
  LibraryLoadResult loaded = load_compiled_library_file(path);
  if (loaded.ok && validate_compiled_library(loaded.lib, lib44_text(), {}))
    return;
  save_compiled_library_file(compile_library(lib44_text(), {}, "44-3-like"),
                             path);
}

Inputs setup(Kind kind, std::uint64_t seed, const std::string& artifact,
             Tracer& t) {
  Step s(t, "setup");
  Inputs in;
  {
    Step g(t, "gen.inputs");
    if (kind == Kind::BigSubject) {
      in.subject = make_random_subject_graph(kBigNodes, kBigInputs,
                                             kBigOutputs, seed);
    } else {
      for (BenchmarkCircuit& c : make_iscas85_like_suite()) {
        if (kind == Kind::SuiteBest &&
            std::find(kBestCircuits.begin(), kBestCircuits.end(), c.name) ==
                kBestCircuits.end())
          continue;
        in.blif.emplace_back(c.name, write_blif(c.network));
      }
    }
  }
  if (kind == Kind::SuiteBest) {
    {
      Step g(t, "libcache.load");
      std::ifstream f(artifact, std::ios::binary);
      std::ostringstream bytes;
      bytes << f.rdbuf();
      LibraryLoadResult r = deserialize_compiled_library(bytes.str());
      if (!r.ok) throw std::runtime_error("artifact: " + r.error);
      in.lib = std::make_unique<CompiledLibrary>(std::move(r.lib));
    }
    Step g(t, "boolmatch.npn_index");
    in.npn = std::make_unique<NpnLibraryIndex>(npn_index_from_compiled(*in.lib));
  } else {
    Step g(t, "libcache.compile");
    in.lib = std::make_unique<CompiledLibrary>(
        kind == Kind::BigSubject
            ? compile_library(lib2_genlib_text(), {}, "lib2-like")
            : compile_library(lib44_text(), {}, "44-3-like"));
  }
  return in;
}

/// Outcome of mapping one circuit in one job.
struct Row {
  std::string circuit;
  double delay = 0.0;
  double area = 0.0;
  std::uint64_t hash = 0;
  std::size_t gates = 0;
  std::size_t subject_nodes = 0;
  bool ok = true;
  /// Wall time of each call; in traced jobs also "<call>.phase.<name>"
  /// for the mapper's own top-level phases.
  StepMs ms;
  // MapResult counters.
  std::uint64_t match_attempts = 0, match_prunes = 0, matches_enumerated = 0;
  std::size_t duplicated = 0, partitions = 0, waves = 0;
  std::size_t choice_classes = 0, choice_wins = 0;
};

/// The per-circuit objects of one job, freed inside a timed step so the
/// release cost is accounted like any other.
struct Work {
  Network circuit;
  Network subject;
  std::optional<ChoiceDecomposition> choice;
  MapResult mapped;
  std::string out;
};

MapResult map_with(Kind kind, const Inputs& in, const Work& w,
                   unsigned threads, bool profile) {
  if (kind == Kind::SuiteBest) {
    CutMapOptions o;
    o.num_threads = threads;
    o.profile = profile;
    o.pattern_index = &in.lib->index;
    o.npn_index = in.npn.get();
    o.choices = &w.choice->classes;
    return cut_map(w.choice->subject, in.lib->library, o);
  }
  DagMapOptions o;
  o.num_threads = threads;
  o.profile = profile;
  o.pattern_index = &in.lib->index;
  return dag_map(kind == Kind::BigSubject ? in.subject : w.subject,
                 in.lib->library, o);
}

/// Parses and decomposes a suite circuit the way its workload does.
void decompose(Kind kind, const std::string& text, Work& w, Tracer& t,
               StepMs* ms, long job, const std::string& name) {
  {
    Step s(t, "io.parse_blif", ms, job, name);
    w.circuit = parse_blif(text);
  }
  Step s(t, "decomp.decompose", ms, job, name);
  if (kind == Kind::SuiteBest)
    w.choice = tech_decompose_choices(w.circuit);
  else
    w.subject = tech_decompose(w.circuit);
}

/// Maps one circuit the way the workload's user flow does.  Traced jobs
/// run the mapper inside an obs session (`profile`, whose netlist is
/// bit-identical), and its top-level phases become child spans.
Row map_one(Kind kind, const Inputs& in, const std::string& name,
            const std::string* text, long job, Tracer& t) {
  Row row;
  row.circuit = name;
  StepMs* ms = &row.ms;
  auto w = std::make_unique<Work>();
  if (text != nullptr) decompose(kind, *text, *w, t, ms, job, name);
  {
    Step s(t, map_step(kind), ms, job, name);
    double base_us = t.now_us();
    if (t.on()) obs::start();
    w->mapped = map_with(kind, in, *w, workload_threads(kind), t.on());
    if (t.on()) {
      obs::stop();
      const obs::ProfileData& p = w->mapped.profile;
      std::uint32_t owner = 0;
      for (const auto& [tid, thread] : p.thread_names)
        if (thread == "main") owner = tid;
      for (const obs::ProfileEvent& e : p.events)
        if (e.tid == owner && e.depth == 0) {
          t.add(e.name, base_us + e.start_us, base_us + e.start_us + e.dur_us);
          row.ms[std::string(map_step(kind)) + ".phase." + e.name] +=
              e.dur_us / 1000.0;
        }
    }
  }
  if (kind != Kind::BigSubject) {
    Step s(t, "sim.verify", ms, job, name);
    row.ok = check_equivalence(w->circuit, w->mapped.netlist.to_network())
                 .equivalent;
  }
  {
    Step s(t, "mapnet.write", ms, job, name);
    w->out = write_mapped_blif(w->mapped.netlist);
  }
  {
    Step s(t, "bench.check", ms, job, name);
    const MapResult& r = w->mapped;
    row.delay = r.optimal_delay;
    row.area = r.netlist.total_area();
    row.hash = r.netlist.structural_hash();
    row.gates = r.netlist.num_gates();
    row.subject_nodes = kind == Kind::BigSubject ? in.subject.num_internal()
                        : w->choice ? w->choice->subject.num_internal()
                                    : w->subject.num_internal();
    row.match_attempts = r.match_attempts;
    row.match_prunes = r.match_prunes;
    row.matches_enumerated = r.matches_enumerated;
    row.duplicated = r.duplicated_nodes;
    row.partitions = r.num_partitions;
    row.waves = r.partition_waves;
    row.choice_classes = r.choice_classes;
    row.choice_wins = r.choice_wins;
    if (w->out.empty()) row.ok = false;
  }
  {
    Step s(t, "job.release", ms, job, name);
    w.reset();
  }
  return row;
}

/// One job: a pass over the workload's circuits starting at `start`
/// (suites rotate the start by seed and pass), or one big-subject map.
std::vector<Row> run_job(Kind kind, const Inputs& in, std::size_t start,
                         long job, Tracer& t) {
  std::vector<Row> rows;
  Step s(t, "job", nullptr, job);
  if (kind == Kind::BigSubject) {
    rows.push_back(map_one(kind, in, "random-1M", nullptr, job, t));
    return rows;
  }
  std::size_t n = in.blif.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [name, text] = in.blif[(start + i) % n];
    rows.push_back(map_one(kind, in, name, &text, job, t));
  }
  return rows;
}

bool same_result(const Row& a, const Row& b) {
  return a.delay == b.delay && a.area == b.area && a.hash == b.hash &&
         a.gates == b.gates;
}

double step_ms(const Row& r, const std::string& key) {
  auto it = r.ms.find(key);
  return it == r.ms.end() ? 0.0 : it->second;
}

/// Sum over circuits of the 10th percentile, across `jobs`, of
/// `value(row)`: the uncontended time of that part of a job.
template <typename Fn>
double p10_sum(const std::vector<std::vector<Row>>& jobs, Fn value) {
  std::map<std::string, std::vector<double>> by_circuit;
  for (const auto& rows : jobs)
    for (const Row& r : rows) by_circuit[r.circuit].push_back(value(r));
  double sum = 0.0;
  for (auto& [name, v] : by_circuit) sum += percentile(std::move(v), 0.10);
  return sum;
}

/// The uncontended job time: p10_sum over every timed call of a job
/// (the mapper's phases are inside its call and not counted again).
double p10_job(const std::vector<std::vector<Row>>& jobs) {
  std::set<std::string> calls;
  for (const auto& rows : jobs)
    for (const Row& r : rows)
      for (const auto& [key, ms] : r.ms)
        if (key.find(".phase.") == std::string::npos) calls.insert(key);
  double sum = 0.0;
  for (const std::string& c : calls)
    sum += p10_sum(jobs, [&](const Row& r) { return step_ms(r, c); });
  return sum;
}

// ---- options & reporting ---------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  long jobs = 0;   // > 0: run exactly this many jobs, ignore --seconds
  int setups = 0;  // 0: the workload's default (setup_rounds)
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string write_circuit, write_path;  // --write-circuit NAME PATH
  bool setup_only = false;  // time one set-up, print it, exit
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val()) != 0;
    else if (k == "--jobs") a.jobs = std::stol(val());
    else if (k == "--setups") a.setups = std::stoi(val());
    else if (k == "--out-dir") a.out_dir = val();
    else if (k == "--git-sha") a.git_sha = val();
    else if (k == "--source-digest") a.source_digest = val();
    else if (k == "--setup-only") a.setup_only = true;
    else if (k == "--write-circuit") {
      a.write_circuit = val();
      a.write_path = val();
    } else throw std::runtime_error("unknown argument " + k);
  }
  if (a.setups < 0) throw std::runtime_error("--setups must be >= 0");
  return a;
}

/// Writes one suite circuit as the BLIF text the suite jobs parse, for
/// the cross-check against dagmap_cli.
int write_circuit(const Args& a) {
  for (const BenchmarkCircuit& c : make_iscas85_like_suite())
    if (c.name == a.write_circuit) {
      std::ofstream out(a.write_path);
      out << write_blif(c.network);
      if (!out) throw std::runtime_error("cannot write " + a.write_path);
      return 0;
    }
  throw std::runtime_error("no suite circuit " + a.write_circuit);
}

/// Each set-up step's time by span name ("setup" is the whole set-up).
std::map<std::string, double> setup_steps(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans)
    if (s.name == "setup" ||
        (s.parent >= 0 &&
         spans[static_cast<std::size_t>(s.parent)].name == "setup"))
      out[s.name] += s.dur_ms();
  return out;
}

/// Runs one set-up in a fresh process of this program (--setup-only)
/// and returns its step times.
std::map<std::string, double> setup_in_child(const Args& a) {
  std::string exe = std::filesystem::read_symlink("/proc/self/exe");
  for (const std::string& arg : {exe, a.workload, a.out_dir})
    if (arg.find('\'') != std::string::npos)
      throw std::runtime_error("quote in path: " + arg);
  std::string cmd = "'" + exe + "' --setup-only --workload '" + a.workload +
                    "' --seed " + std::to_string(a.seed) + " --out-dir '" +
                    a.out_dir + "'";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) throw std::runtime_error("cannot start " + exe);
  std::map<std::string, double> out;
  char line[256];
  while (std::fgets(line, sizeof line, p) != nullptr) {
    char name[128];
    double ms = 0.0;
    if (std::sscanf(line, "setup %127s %lf", name, &ms) == 2) out[name] = ms;
  }
  if (pclose(p) != 0 || out.count("setup") == 0)
    throw std::runtime_error("set-up process failed");
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Args& a) {
  if (!a.write_circuit.empty()) return write_circuit(a);
  Kind kind;
  if (a.workload == "suite_warm") kind = Kind::SuiteWarm;
  else if (a.workload == "suite_best") kind = Kind::SuiteBest;
  else if (a.workload == "big_subject") kind = Kind::BigSubject;
  else throw std::runtime_error("unknown workload '" + a.workload + "'");

  const std::string artifact = a.out_dir + "/44-3.dmlc";
  if (a.setup_only) {
    Tracer t(true);
    setup(kind, a.seed, artifact, t);
    for (const auto& [name, ms] : setup_steps(t.spans()))
      std::printf("setup %s %.6f\n", name.c_str(), ms);
    return 0;
  }

  std::printf(
      "meta {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"git_sha\":\"%s\",\"source_digest\":\"%s\",\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"hardware_concurrency\":%u,\"threads\":%u}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
      json_escape(a.git_sha).c_str(), json_escape(a.source_digest).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      std::thread::hardware_concurrency(), workload_threads(kind));

  if (kind == Kind::SuiteBest) ensure_artifact(artifact);

  // ---- set-up: this process's own, then rounds - 1 fresh processes -------
  // The other processes run one at a time between jobs, so the samples
  // span the run's machine conditions; their time is not job time.
  std::map<std::string, std::vector<double>> setup_ms;
  int children = (a.setups > 0 ? a.setups : setup_rounds(kind)) - 1;
  double child_ms = 0.0;
  auto setup_child = [&] {
    auto t0 = Clock::now();
    for (const auto& [name, ms] : setup_in_child(a))
      setup_ms[name].push_back(ms);
    child_ms += ms_between(t0, Clock::now());
    --children;
  };
  Tracer tracer(a.trace);
  Tracer setup_tracer(true);
  Inputs in = setup(kind, a.seed, artifact, a.trace ? tracer : setup_tracer);
  for (const auto& [name, ms] :
       setup_steps((a.trace ? tracer : setup_tracer).spans()))
    setup_ms[name].push_back(ms);

  // ---- timed closed loop -------------------------------------------------
  // Traced runs alternate untraced and traced jobs, so the tracing
  // overhead is measured under the same machine conditions.
  Tracer off(false);
  std::size_t n_circ = std::max<std::size_t>(in.blif.size(), 1);
  std::vector<Row> reference;  // first result per circuit
  std::vector<std::vector<Row>> jobs, traced_jobs;
  std::vector<double> whole_ms;  // untraced jobs, end to end
  std::vector<long> traced_ids;
  long attempted = 0, failed = 0;
  auto loop_start = Clock::now();
  for (long j = 0;; ++j) {
    if (j > 0 && children > 0) setup_child();
    if (a.jobs > 0 ? j >= a.jobs
                   : j > 0 && ms_between(loop_start, Clock::now()) - child_ms >=
                                  a.seconds * 1000.0)
      break;
    bool traced = a.trace && j % 2 == 1;
    std::size_t start = static_cast<std::size_t>((a.seed + j) % n_circ);
    ++attempted;
    bool ok = true;
    auto t0 = Clock::now();
    std::vector<Row> rows;
    try {
      rows = run_job(kind, in, start, j, traced ? tracer : off);
    } catch (const std::exception& e) {
      std::printf("job %ld failed: %s\n", j, e.what());
      ok = false;
    }
    double ms = ms_between(t0, Clock::now());
    for (const Row& r : rows) {
      auto it = std::find_if(reference.begin(), reference.end(),
                             [&](const Row& x) { return x.circuit == r.circuit; });
      if (!r.ok) ok = false;
      else if (it == reference.end()) reference.push_back(r);
      else if (!same_result(*it, r)) ok = false;
    }
    if (!ok) {
      ++failed;
      continue;
    }
    if (traced) {
      traced_jobs.push_back(std::move(rows));
      traced_ids.push_back(j);
    } else {
      jobs.push_back(std::move(rows));
      whole_ms.push_back(ms);
    }
  }
  while (children > 0) setup_child();
  bool correct = failed == 0 && !jobs.empty();

  // Rows in suite order, however the seed rotated the passes.
  std::vector<Row> rows_sorted;
  for (const auto& [name, text] : in.blif)
    for (const Row& r : reference)
      if (r.circuit == name) rows_sorted.push_back(r);
  if (kind == Kind::BigSubject) rows_sorted = reference;
  for (const Row& r : rows_sorted)
    std::printf("row %-12s delay %.3f area %.1f gates %zu\n",
                r.circuit.c_str(), r.delay, r.area, r.gates);

  // ---- untimed checks and probes -----------------------------------------
  // big_subject jobs skip verification (the serve default); one
  // equivalence check per run confirms the mapping.  It simulates
  // kBigCheckRounds x 64 random vectors, not check_equivalence's default
  // 64 x 64, which would take about 16 s on 1M nodes and dominate the
  // run.  Traced runs also time the mapper's label phase at 1 and 2
  // threads.
  double label_ms[3] = {0.0, 0.0, 0.0};
  for (unsigned threads : {1u, 2u}) {
    bool probe = a.trace;
    bool check = kind == Kind::BigSubject && threads == kBigThreads &&
                 !reference.empty();
    if (!probe && !check) continue;
    Step s(tracer, probe ? "probe.threads" : "check.run");
    for (std::size_t i = 0; i < n_circ; ++i) {
      Work w;
      if (kind != Kind::BigSubject)
        decompose(kind, in.blif[i].second, w, tracer, nullptr, -1,
                  in.blif[i].first);
      MapResult r = map_with(kind, in, w, threads, probe);
      for (const obs::PhaseSummary& p : r.profile.phases)
        if (p.name == "label") label_ms[threads] += p.seconds * 1e3;
      if (check) {
        Step v(tracer, "sim.verify", nullptr, -1, "random-1M");
        bool eq = r.netlist.structural_hash() == reference.front().hash &&
                  check_equivalence(in.subject, r.netlist.to_network(), 14,
                                    kBigCheckRounds)
                      .equivalent;
        std::printf("check random-1M equivalence: %s\n", eq ? "PASS" : "FAIL");
        if (!eq) correct = false;
      }
    }
  }

  // ---- metrics -----------------------------------------------------------
  std::vector<Metric> metrics;
  auto add = [&](std::string n, double v, std::string u) {
    metrics.push_back({std::move(n), v, std::move(u)});
  };
  if (!a.trace) {
    std::vector<double> delays, areas;
    for (const Row& r : reference) {
      delays.push_back(r.delay);
      areas.push_back(r.area);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    add("setup_s", median(setup_ms["setup"]) / 1e3, "s");
    add("job_ms.p10", p10_job(jobs), "ms");
    add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    add("delay.geomean", geomean(delays), "delay");
    add("area.geomean", geomean(areas), "area");
    // Percentiles of whole-job wall time, for context only.
    for (const char* q : {"p10", "p50", "p90"})
      std::printf("context job_ms.%s_whole_job %.3f ms (n=%zu)\n", q,
                  percentile(whole_ms, std::atof(q + 1) / 100.0),
                  whole_ms.size());
    std::printf("context job_ms.samples_whole_job");
    for (double ms : whole_ms) std::printf(" %.1f", ms);
    std::printf("\n");
  } else {
    // Set-up layers: median over the set-up processes.
    const std::vector<Span>& spans = tracer.spans();
    for (const char* n : {"gen.inputs", "libcache.compile", "libcache.load",
                          "boolmatch.npn_index"})
      add(std::string(n) + "_ms", median(setup_ms[n]), "ms");

    // Job layers: uncontended time (p10 per circuit, summed) and share
    // of the traced job.
    double job = p10_job(traced_jobs);
    auto step = [](const std::string& key) {
      return [key](const Row& r) { return step_ms(r, key); };
    };
    for (const char* call : {"io.parse_blif", "decomp.decompose",
                             "core.dag_map", "cutmap.cut_map", "sim.verify",
                             "mapnet.write", "job.release"}) {
      double ms = p10_sum(traced_jobs, step(call));
      add(std::string(call) + "_ms", ms, "ms");
      add(std::string(call) + "_share", job > 0 ? ms / job : 0.0, "share");
    }
    for (const char* call : {"core.dag_map", "cutmap.cut_map"}) {
      std::string c = call, layer = c.substr(0, c.find('.'));
      add(layer + ".match_build_ms",
          p10_sum(traced_jobs, step(c + ".phase.match.build")), "ms");
      add(layer + ".label_ms", p10_sum(traced_jobs, step(c + ".phase.label")),
          "ms");
      add(layer + ".cover_ms", p10_sum(traced_jobs, step(c + ".phase.cover")),
          "ms");
      add(layer + ".unphased_ms", p10_sum(traced_jobs, [&](const Row& r) {
            double un = step_ms(r, c);
            for (const auto& [k, ms] : r.ms)
              if (k.rfind(c + ".phase.", 0) == 0) un -= ms;
            return un;
          }), "ms");
    }
    // big_subject verifies once per run, outside the jobs.
    if (kind == Kind::BigSubject)
      for (Metric& m : metrics)
        if (m.name == "sim.verify_ms")
          for (const Span& s : spans)
            if (s.name == "sim.verify") m.value = s.dur_ms();

    // Counts of one job; they repeat exactly (checked per job above).
    Row sum;
    for (const Row& r : reference) {
      sum.match_attempts += r.match_attempts;
      sum.match_prunes += r.match_prunes;
      sum.matches_enumerated += r.matches_enumerated;
      sum.duplicated += r.duplicated;
      sum.partitions += r.partitions;
      sum.waves += r.waves;
      sum.choice_classes += r.choice_classes;
      sum.choice_wins += r.choice_wins;
      sum.subject_nodes += r.subject_nodes;
      sum.gates += r.gates;
    }
    auto d = [](auto x) { return static_cast<double>(x); };
    add("core.match_attempts", d(sum.match_attempts), "count");
    add("core.match_prunes", d(sum.match_prunes), "count");
    add("core.prune_ratio",
        sum.match_attempts + sum.match_prunes == 0
            ? 0.0
            : d(sum.match_prunes) / d(sum.match_attempts + sum.match_prunes),
        "ratio");
    add("core.matches_enumerated", d(sum.matches_enumerated), "count");
    add("core.duplicated_nodes", d(sum.duplicated), "count");
    add("core.partitions", d(sum.partitions), "count");
    add("core.partition_waves", d(sum.waves), "count");
    add("choices.classes", d(sum.choice_classes), "count");
    add("choices.wins", d(sum.choice_wins), "count");
    add("decomp.subject_nodes", d(sum.subject_nodes), "count");
    add("mapnet.gates", d(sum.gates), "count");
    add("core.label_ms_1t", label_ms[1], "ms");
    add("core.label_ms_2t", label_ms[2], "ms");
    add("core.label_speedup_2t",
        label_ms[2] > 0 ? label_ms[1] / label_ms[2] : 0.0, "x");
    add("trace.job_ms.p10", job, "ms");
    add("trace.overhead_ms", job - p10_job(jobs), "ms");
    // Share of each traced job's wall time its direct child spans cover.
    double coverage = 1.0;
    for (long j : traced_ids) {
      double whole = 0.0, top = 0.0;
      for (const Span& s : spans) {
        if (s.job != j) continue;
        if (s.name == "job") whole = s.dur_ms();
        else if (s.parent >= 0 &&
                 spans[static_cast<std::size_t>(s.parent)].name == "job")
          top += s.dur_ms();
      }
      coverage = std::min(coverage, whole > 0 ? top / whole : 0.0);
    }
    add("trace.coverage", traced_ids.empty() ? 0.0 : coverage, "share");

    std::printf("self-time per span name over the run (ms):\n");
    for (const auto& [name, ms] : self_ms(spans))
      std::printf("  %-24s %12.3f\n", name.c_str(), ms);
    std::string path = a.out_dir + "/trace-" + a.workload + "-seed" +
                       std::to_string(a.seed) + ".json";
    std::ofstream out(path);
    out << chrome_trace_json(spans);
    if (!out) throw std::runtime_error("cannot write " + path);
    std::printf("wrote trace %s (%zu spans)\n", path.c_str(), spans.size());
  }

  for (const Metric& m : metrics)
    std::printf("metric %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
