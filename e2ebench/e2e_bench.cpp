// e2e_bench — one run of one end-to-end screening workload.
//
// Each invocation is a fresh process that runs one workload once and prints
// one JSON object on its last stdout line.  run.py drives it (several
// processes per benchmark run) and turns the raw numbers into the reported
// metrics; see README.md for the workloads and metrics.
//
//   e2e_bench --workload W --seed N --count N --dir D --mode probe|run|traced
//             [--trace-out F.json]
//
//   probe   set up, dock the warm-up ligand, exit: setup_s and first_dock_s
//           of a fresh process.
//   run     tracing off: the workload through the program's public API
//           (vs::BatchScreener for the screens, vs::JobServer for serve),
//           timed as a whole, then checked.
//   traced  the same inputs, each layer called by this file so its wall
//           time can be attributed: every dock is recomposed from
//           meta::MetaheuristicEngine::run over a sched::MultiGpuBatchScorer
//           behind a timing evaluator.  Writes a Chrome trace of the spans.
//
// `--count` is the work size: ligands for a screen, jobs for serve.  All
// inputs are derived from `--seed`; the program only sees generated inputs.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "gpusim/runtime.h"
#include "meta/engine.h"
#include "meta/evaluator.h"
#include "meta/params.h"
#include "meta/trace.h"
#include "mol/library.h"
#include "mol/synth.h"
#include "obs/observer.h"
#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"
#include "sched/executor.h"
#include "sched/multi_gpu.h"
#include "sched/node_config.h"
#include "surface/spots.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vs/batch_screening.h"
#include "vs/job_server.h"
#include "vs/report.h"
#include "vs/screening.h"

namespace {

using namespace metadock;
namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  const char* name;
  bool serve;
  const char* dataset;  // screens only; serve alternates 2BSM / 2BXG
  const char* mh;
  const char* node;
  int population_per_spot;
  double scale;
  std::size_t batch_size;
  double top_percent;
  std::size_t min_atoms;
  std::size_t max_atoms;
};

constexpr Workload kWorkloads[] = {
    {"screen-2bxg-m3-hertz", false, "2BXG", "M3", "hertz", 16, 0.005, 4, 10.0, 20, 60},
    {"screen-2bsm-m1-jupiter", false, "2BSM", "M1", "jupiter", 64, 0.005, 4, 10.0, 20, 24},
    {"serve-mixed-resume", true, "", "M1", "hertz", 16, 0.005, 2, 25.0, 20, 24},
};

/// Serve: ligands per job, and every kResumeEvery-th job resumes from a
/// stream cut after its first batch.
constexpr std::size_t kServeLigands = 4;
constexpr std::size_t kResumeEvery = 3;

/// Relative tolerance of the rescoring check: the batched SIMD kernel and
/// the reference scalar loop sum the same pairs in a different order.
constexpr double kRescoreRelTol = 1e-4;

meta::MetaheuristicParams mh_from(const std::string& name) {
  if (name == "M1") return meta::m1_genetic();
  if (name == "M3") return meta::m3_scatter_light();
  throw std::invalid_argument("e2e_bench: unknown metaheuristic " + name);
}

sched::NodeConfig node_from(const std::string& name) {
  if (name == "hertz") return sched::hertz();
  if (name == "jupiter") return sched::jupiter();
  throw std::invalid_argument("e2e_bench: unknown node " + name);
}

mol::Dataset dataset_from(const std::string& name) {
  if (name == "2BSM") return mol::kDataset2BSM;
  if (name == "2BXG") return mol::kDataset2BXG;
  throw std::invalid_argument("e2e_bench: unknown dataset " + name);
}

/// One job file's description, as vs::parse_job_file reads it back.
struct JobInput {
  std::string path;
  std::string dataset;
  std::size_t ligands = 0;
  std::uint64_t library_seed = 0;
  std::uint64_t seed = 0;
  bool resume_prelude = false;  // serve: stream cut after one batch
};

void write_job_file(const Workload& w, const JobInput& in) {
  util::JsonWriter j;
  j.begin_object();
  j.key("dataset").value(in.dataset);
  j.key("ligands").value(static_cast<std::uint64_t>(in.ligands));
  j.key("min_atoms").value(static_cast<std::uint64_t>(w.min_atoms));
  j.key("max_atoms").value(static_cast<std::uint64_t>(w.max_atoms));
  j.key("library_seed").value(in.library_seed);
  j.key("mh").value(w.mh);
  j.key("node").value(w.node);
  j.key("strategy").value("het");
  j.key("scale").value_exact(w.scale);
  j.key("seed").value(in.seed);
  j.key("population_per_spot").value(w.population_per_spot);
  j.key("batch_size").value(static_cast<std::uint64_t>(w.batch_size));
  j.key("top_percent").value_exact(w.top_percent);
  j.key("resume").value(w.serve);
  j.end_object();
  std::ofstream out(in.path, std::ios::binary);
  out << j.str() << '\n';
  if (!out) throw std::runtime_error("e2e_bench: cannot write " + in.path);
}

/// The workload's job files, in the order the server processes them.
std::vector<JobInput> make_job_inputs(const Workload& w, std::uint64_t seed, std::size_t count,
                                      const fs::path& dir) {
  std::vector<JobInput> jobs;
  const std::size_t n_jobs = w.serve ? count : 1;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    JobInput in;
    char name[48];
    std::snprintf(name, sizeof name, "job-%03zu.job.json", j);
    in.path = (dir / name).string();
    in.dataset = w.serve ? (j % 2 == 0 ? "2BSM" : "2BXG") : w.dataset;
    in.ligands = w.serve ? kServeLigands : count;
    // Job files hold JSON numbers, exact only below 2^53: keep 32 bits.
    in.library_seed = util::hash_combine(seed, 0x11b0 + j) & 0xffffffffu;
    in.seed = util::hash_combine(seed, 0x5eed) & 0xffffffffu;
    in.resume_prelude = w.serve && j % kResumeEvery == kResumeEvery - 1;
    write_job_file(w, in);
    jobs.push_back(in);
  }
  return jobs;
}

/// Screen library: one ligand per equal-width atom-count stratum of
/// [min_atoms, max_atoms], in seeded order.  Stratifying keeps the
/// library's total work nearly equal across seeds, so the seed moves the
/// geometry and not the cost.
std::vector<mol::Molecule> stratified_library(const vs::JobSpec& spec) {
  const std::size_t n = spec.ligand_count;
  const double span = static_cast<double>(spec.max_atoms - spec.min_atoms + 1);
  auto rng = util::stream(spec.library_seed, 0x57a7u);
  std::vector<std::size_t> atoms(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
    atoms[i] = spec.min_atoms + std::min(static_cast<std::size_t>(u * span),
                                         spec.max_atoms - spec.min_atoms);
  }
  for (std::size_t i = n; i > 1; --i) std::swap(atoms[i - 1], atoms[rng.below(i)]);
  std::vector<mol::Molecule> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mol::LigandParams lp;
    lp.atom_count = atoms[i];
    lp.seed = util::hash_combine(spec.library_seed, i);
    mol::Molecule m = mol::make_ligand(lp);
    m.set_name("lig-" + std::to_string(i));
    out.push_back(std::move(m));
  }
  return out;
}

/// Serve jobs are built by the server from the spec; this mirrors it for
/// the prelude and the checks.
std::vector<mol::Molecule> spec_library(const vs::JobSpec& spec) {
  mol::LibraryParams lib;
  lib.count = spec.ligand_count;
  lib.min_atoms = spec.min_atoms;
  lib.max_atoms = spec.max_atoms;
  lib.seed = spec.library_seed;
  return mol::make_ligand_library(lib);
}

vs::ScreeningOptions screening_from(const vs::JobSpec& spec) {
  vs::ScreeningOptions o;
  o.params = mh_from(spec.mh);
  if (spec.population_per_spot > 0) o.params.population_per_spot = spec.population_per_spot;
  o.exec.strategy = sched::Strategy::kHeterogeneous;
  o.scale = spec.scale;
  o.seed = spec.seed;
  return o;
}

// ---------------------------------------------------------------------------
// Host-wall spans (traced mode).  Kept in memory, exported as a Chrome
// trace at the end.  Every span records its parent; the ligand index and
// job ordinal ride along as arguments.

struct SpanRec {
  std::string name;
  double start = 0.0;
  double dur = 0.0;
  int parent = -1;
  double ligand = -1;
  double job = -1;
};

class HostTrace {
 public:
  int open(const char* name, int parent, double ligand = -1, double job = -1) {
    spans_.push_back({name, now_s(), 0.0, parent, ligand, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    SpanRec& s = spans_[static_cast<std::size_t>(id)];
    s.dur = now_s() - s.start;
    totals_[s.name] += s.dur;
    return s.dur;
  }
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  [[nodiscard]] const std::map<std::string, double>& totals() const { return totals_; }

  /// Chrome trace_event JSON, microseconds from the first span.
  [[nodiscard]] std::string to_chrome_json() const {
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    util::JsonWriter j;
    j.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      j.begin_object();
      j.key("name").value(s.name);
      j.key("cat").value(s.name.substr(0, s.name.find('.')));
      j.key("ph").value("X");
      j.key("pid").value(1);
      j.key("tid").value(1);
      j.key("ts").value_exact((s.start - t0) * 1e6);
      j.key("dur").value_exact(s.dur * 1e6);
      j.key("args").begin_object();
      j.key("id").value(static_cast<std::int64_t>(i));
      j.key("parent").value(static_cast<std::int64_t>(s.parent));
      if (s.ligand >= 0) j.key("ligand").value(s.ligand);
      if (s.job >= 0) j.key("job").value(s.job);
      j.end_object();
      j.end_object();
    }
    j.end_array().key("displayTimeUnit").value("ms").end_object();
    return j.str();
  }

 private:
  std::vector<SpanRec> spans_;
  std::map<std::string, double> totals_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(HostTrace& t, const char* name, int parent, double ligand = -1, double job = -1)
      : t_(t), id_(t.open(name, parent, ligand, job)) {}
  ~Scoped() { t_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  HostTrace& t_;
  int id_;
};

/// Spans whose time counts as attributed to a layer (trace.coverage).  They
/// never nest inside each other.
bool is_layer_span(const std::string& name) {
  static const std::set<std::string> kLayers = {
      "setup.receptor", "setup.spots",  "setup.library",   "setup.engine",
      "serve.parse",    "sched.plan",   "meta.run",        "vs.jsonl_write",
      "vs.retain",      "vs.resume_read"};
  return kLayers.count(name) != 0;
}

/// What a TimedEvaluator measured over one engine run.
struct EvalCounts {
  std::uint64_t evaluations = 0;
  std::uint64_t batches = 0;
  double evaluate_s = 0.0;
  double kernel_s = 0.0;
};

/// Timing decorator between the metaheuristic engine and the batch scorer:
/// one sched.evaluate span per batch, plus the host kernel wall the batch
/// spent (the devices' host.scoring_wall_seconds counter).
class TimedEvaluator final : public meta::Evaluator {
 public:
  TimedEvaluator(meta::Evaluator& inner, HostTrace& trace, int parent, double ligand,
                 const obs::Counter& kernel_wall)
      : inner_(inner), trace_(trace), parent_(parent), ligand_(ligand),
        kernel_wall_(kernel_wall) {}

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    timed(poses.size(), [&] { inner_.evaluate(poses, out); });
  }
  void evaluate_soa(const scoring::PoseSoAView& poses, std::span<double> out) override {
    timed(poses.size(), [&] { inner_.evaluate_soa(poses, out); });
  }
  [[nodiscard]] double virtual_seconds() const override { return inner_.virtual_seconds(); }

  [[nodiscard]] const EvalCounts& counts() const { return counts_; }

 private:
  template <typename F>
  void timed(std::size_t n, F&& f) {
    const double k0 = kernel_wall_.value();
    const int id = trace_.open("sched.evaluate", parent_, ligand_);
    f();
    counts_.evaluate_s += trace_.close(id);
    counts_.kernel_s += kernel_wall_.value() - k0;
    counts_.evaluations += n;
    counts_.batches += 1;
  }

  meta::Evaluator& inner_;
  HostTrace& trace_;
  int parent_;
  double ligand_;
  const obs::Counter& kernel_wall_;
  EvalCounts counts_;
};

/// Per-layer sums over the docks of the measured region.
struct DockTotals {
  std::uint64_t evaluations = 0;
  std::uint64_t batches = 0;
  double evaluate_s = 0.0;
  double kernel_s = 0.0;
  std::vector<double> dock_s;
  std::size_t count_mismatches = 0;  // ligands whose evaluations != trace
};

/// One job's inputs and engine, built layer by layer.  Not movable: the
/// engine keeps a reference to the receptor.
struct JobContext {
  vs::JobSpec spec;
  mol::Molecule receptor;
  std::vector<surface::Spot> spots;
  std::vector<mol::Molecule> ligands;
  vs::ScreeningOptions options;
  std::unique_ptr<vs::VirtualScreeningEngine> engine;
};

/// Builds a job: parse, receptor, library, engine.  With `trace`, every step
/// is a span and the spots are also computed by a direct surface call (the
/// engine constructor computes them internally and untimed).
std::unique_ptr<JobContext> build_job(const std::string& job_path, bool stratified,
                                      HostTrace* trace, int parent, double job) {
  auto ctx = std::make_unique<JobContext>();
  auto step = [&](const char* name, auto&& f) {
    if (trace == nullptr) return f();
    Scoped s(*trace, name, parent, -1, job);
    return f();
  };
  step("serve.parse", [&] { ctx->spec = vs::parse_job_file(job_path); });
  step("setup.receptor",
       [&] { ctx->receptor = mol::make_dataset_receptor(dataset_from(ctx->spec.dataset)); });
  ctx->options = screening_from(ctx->spec);
  if (trace != nullptr) {
    step("setup.spots",
         [&] { ctx->spots = surface::find_spots(ctx->receptor, ctx->options.spot_params); });
  }
  step("setup.library", [&] {
    ctx->ligands = stratified ? stratified_library(ctx->spec) : spec_library(ctx->spec);
  });
  step("setup.engine", [&] {
    ctx->engine = std::make_unique<vs::VirtualScreeningEngine>(
        ctx->receptor, node_from(ctx->spec.node), ctx->options);
  });
  if (trace == nullptr) ctx->spots = ctx->engine->spots();
  return ctx;
}

/// A dock recomposed from public calls, as VirtualScreeningEngine::dock
/// runs it under the heterogeneous strategy: the problem, the Eq. 1 shares
/// (from NodeExecutor::estimate's warm-up percents), a runtime and batch
/// scorer with `observer` attached, and the engine run behind a
/// TimedEvaluator.
vs::LigandHit traced_dock(const JobContext& ctx, const mol::Molecule& ligand,
                          std::size_t ligand_index, HostTrace& trace, int parent,
                          obs::Observer& observer, DockTotals* totals) {
  const auto lig = static_cast<double>(ligand_index);
  Scoped dock_span(trace, "vs.dock", parent, lig);

  meta::DockingProblem problem;
  problem.receptor = &ctx.receptor;
  problem.ligand = &ligand;
  problem.spots = ctx.spots;
  problem.seed = ctx.options.seed + ligand_index;
  problem.ligand_radius = ligand.radius_about_centroid();
  const meta::MetaheuristicParams params = ctx.options.params.scaled(ctx.options.scale);
  const sched::NodeConfig node = node_from(ctx.spec.node);

  const int plan_id = trace.open("sched.plan", dock_span.id(), lig);
  sched::NodeExecutor planner(node, ctx.options.exec);
  const sched::ExecutionReport plan = planner.estimate(problem, params);
  sched::MultiGpuOptions mg;
  mg.kernel = ctx.options.exec.kernel;
  mg.faults = ctx.options.exec.fault_policy;
  mg.overlap = ctx.options.exec.overlap;
  mg.cpu_tail_share = ctx.options.exec.cpu_tail_share;
  mg.cpu_fallback = node.cpu;
  mg.observer = &observer;
  double inv_sum = 0.0;
  for (const sched::DeviceReport& d : plan.devices) inv_sum += 1.0 / d.percent;
  for (const sched::DeviceReport& d : plan.devices) {
    mg.shares.push_back((1.0 / d.percent) / inv_sum);
  }
  const scoring::LennardJonesScorer scorer(ctx.receptor, ligand);
  gpusim::Runtime rt(node.gpus);
  rt.attach_observer(&observer);
  sched::MultiGpuBatchScorer batch_scorer(rt, scorer, mg);
  const meta::MetaheuristicEngine engine(params, &observer);
  trace.close(plan_id);

  meta::RunResult result;
  EvalCounts counts;
  {
    Scoped run_span(trace, "meta.run", dock_span.id(), lig);
    TimedEvaluator timed(batch_scorer, trace, run_span.id(), lig,
                         observer.metrics.counter("host.scoring_wall_seconds"));
    result = engine.run(problem, timed);
    counts = timed.counts();
  }

  vs::LigandHit hit;
  hit.ligand_index = ligand_index;
  hit.ligand_name = ligand.name();
  hit.best_score = result.best.score;
  hit.best_pose = result.best.pose;
  hit.best_spot_id = result.best_spot_id;
  hit.virtual_seconds = plan.warmup_seconds + batch_scorer.node_seconds();
  hit.energy_joules = rt.total_energy_joules() + batch_scorer.cpu_energy_joules();
  hit.faults = batch_scorer.fault_report();

  if (totals != nullptr) {
    const std::uint64_t expected =
        meta::WorkloadTrace::from_params(params).evals_per_spot() * ctx.spots.size();
    if (counts.evaluations != expected || result.evaluations != expected) {
      ++totals->count_mismatches;
    }
    totals->evaluations += counts.evaluations;
    totals->batches += counts.batches;
    totals->evaluate_s += counts.evaluate_s;
    totals->kernel_s += counts.kernel_s;
  }
  return hit;
}

// ---------------------------------------------------------------------------
// Correctness checks, shared by both modes.

struct CheckLog {
  std::vector<std::string> failures;
  void fail(std::string what) { failures.push_back(std::move(what)); }
};

/// Checks one job's stream and retained list; returns the indices of the
/// ligands that failed a check (all of them when a job-level check fails).
/// Adds every stream record's best energy to `energies` keyed by
/// "<job>/<ligand>".
std::set<std::size_t> check_job(const std::string& label, const mol::Molecule& receptor,
                                const std::vector<mol::Molecule>& ligands,
                                const std::string& hits_path, double top_percent,
                                const std::vector<vs::LigandHit>& retained, CheckLog& log,
                                std::map<std::string, double>& energies) {
  std::set<std::size_t> bad;
  auto all_bad = [&] {
    for (std::size_t i = 0; i < ligands.size(); ++i) bad.insert(i);
  };
  const vs::ResumeState stream = vs::read_jsonl_hits(hits_path);
  if (stream.discarded_lines != 0 || stream.hits.size() != ligands.size()) {
    log.fail(label + ": stream holds " + std::to_string(stream.hits.size()) + " records and " +
             std::to_string(stream.discarded_lines) + " torn lines for " +
             std::to_string(ligands.size()) + " ligands");
    all_bad();
  }
  std::vector<int> seen(ligands.size(), 0);
  for (const vs::LigandHit& h : stream.hits) {
    if (h.ligand_index >= ligands.size()) {
      log.fail(label + ": stream record for unknown ligand " + std::to_string(h.ligand_index));
      all_bad();
      continue;
    }
    const std::size_t i = h.ligand_index;
    if (++seen[i] > 1) {
      log.fail(label + ": duplicate record for ligand " + std::to_string(i));
      bad.insert(i);
    }
    const mol::Molecule& lig = ligands[i];
    const double ref = scoring::LennardJonesScorer(receptor, lig).score(h.best_pose);
    if (!(std::abs(ref - h.best_score) <= kRescoreRelTol * std::max(1.0, std::abs(ref))) ||
        h.ligand_name != lig.name()) {
      char buf[160];
      std::snprintf(buf, sizeof buf, ": ligand %zu best_score %.9g, reference rescore %.9g",
                    i, h.best_score, ref);
      log.fail(label + buf);
      bad.insert(i);
    }
    energies[label + "/" + std::to_string(i)] = h.best_score;
  }
  for (std::size_t i = 0; i < ligands.size(); ++i) {
    if (seen[i] == 0) {
      log.fail(label + ": no record for ligand " + std::to_string(i));
      bad.insert(i);
    }
  }
  // Retained list: exactly the best retain_capacity records, best first.
  std::vector<vs::LigandHit> expect = stream.hits;
  vs::sort_hits(expect);
  expect.resize(std::min(expect.size(), vs::retain_capacity_for(ligands.size(), top_percent)));
  bool retained_ok = retained.size() == expect.size();
  for (std::size_t k = 0; retained_ok && k < retained.size(); ++k) {
    retained_ok = retained[k].ligand_index == expect[k].ligand_index &&
                  retained[k].best_score == expect[k].best_score &&
                  (k == 0 || vs::hit_before(retained[k - 1], retained[k]));
  }
  if (!retained_ok) {
    log.fail(label + ": retained list is not the sorted top " +
             std::to_string(expect.size()) + " of the stream");
    all_bad();
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Output helpers.

/// A fixed compute loop that uses none of the program's code, run on one
/// thread per hardware thread at once (as the program's pool runs): its
/// wall time tracks the host's speed and the contention other tenants put
/// on its cores, not the program.
double host_probe_s() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> sink(n, 0.0);
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&sink, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull + t;
      double acc = 0.0;
      for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += static_cast<double>(x >> 40) * 1e-9;
      }
      sink[t] = acc;
    });
  }
  for (std::thread& th : threads) th.join();
  const double elapsed = now_s() - t0;
  volatile double keep = sink[0];
  (void)keep;
  return elapsed;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string isa_flags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const std::pair<const char*, bool> isa[] = {
      {"sse4.2", __builtin_cpu_supports("sse4.2") != 0},
      {"avx", __builtin_cpu_supports("avx") != 0},
      {"avx2", __builtin_cpu_supports("avx2") != 0},
      {"fma", __builtin_cpu_supports("fma") != 0},
      {"avx512f", __builtin_cpu_supports("avx512f") != 0},
  };
  for (const auto& [name, on] : isa) {
    if (!on) continue;
    if (!flags.empty()) flags += ' ';
    flags += name;
  }
#endif
  return flags;
}

void write_provenance(util::JsonWriter& j, std::uint64_t seed) {
  j.key("provenance").begin_object();
  j.key("cpu_model").value(cpu_model());
  j.key("isa").value(isa_flags());
  j.key("scoring_impl")
      .value(std::string(scoring::scoring_impl_name(
          scoring::resolve_scoring_impl(scoring::ScoringImpl::kAuto))));
  j.key("simd_level").value(std::string(scoring::simd_level_name(scoring::default_simd_level())));
  j.key("threads").value(static_cast<std::uint64_t>(util::ThreadPool::global().size()));
  j.key("build_type").value(E2E_BUILD_TYPE);
  j.key("compiler").value(__VERSION__);
  j.key("seed").value(seed);
  j.end_object();
}

void write_energies(util::JsonWriter& j, const std::map<std::string, double>& energies) {
  j.key("energies").begin_object();
  for (const auto& [key, e] : energies) j.key(key).value_exact(e);
  j.end_object();
}

void write_checks(util::JsonWriter& j, const CheckLog& log, std::size_t attempted,
                  std::size_t failed) {
  j.key("attempted").value(static_cast<std::uint64_t>(attempted));
  j.key("failed").value(static_cast<std::uint64_t>(failed));
  j.key("failures").begin_array();
  for (const std::string& f : log.failures) j.value(f);
  j.end_array();
}

// ---------------------------------------------------------------------------
// Serve prelude: cut every resume job's stream after its first batch and
// tear its last line, as a crash mid-write would.  Untimed.

void serve_prelude(const std::vector<JobInput>& jobs) {
  std::map<std::string, std::unique_ptr<JobContext>> by_dataset;
  for (const JobInput& in : jobs) {
    if (!in.resume_prelude) continue;
    const vs::JobSpec spec = vs::parse_job_file(in.path);
    std::unique_ptr<JobContext>& ctx = by_dataset[spec.dataset];
    if (!ctx) ctx = build_job(in.path, false, nullptr, -1, -1);
    vs::BatchScreeningOptions b;
    b.batch_size = spec.batch_size;
    b.top_percent = spec.top_percent;
    b.hits_path = spec.hits_path;
    b.max_batches = 1;
    vs::BatchScreener screener(*ctx->engine, b);
    (void)screener.run(spec_library(spec));
    const auto size = fs::file_size(spec.hits_path);
    fs::resize_file(spec.hits_path, size - 7);  // newline + 6 bytes of the last record
  }
}

// ---------------------------------------------------------------------------
// Modes.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t count = 0;
  std::string dir;
  std::string mode;
  std::string trace_out;
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("e2e_bench: unknown workload " + name);
}

/// Setup + the warm-up dock, common to every mode.  The warm-up ligand is
/// the dataset's own ligand, which is outside every library.
struct Prepared {
  std::vector<JobInput> jobs;
  std::unique_ptr<JobContext> first;
  double setup_s = 0.0;
  double first_dock_s = 0.0;
};

Prepared prepare(const Workload& w, const Args& a, HostTrace* trace, int root,
                 obs::Observer* observer) {
  Prepared p;
  p.jobs = make_job_inputs(w, a.seed, a.count, a.dir);
  const double t0 = now_s();
  p.first = build_job(p.jobs.front().path, !w.serve, trace, root, 0);
  mol::Molecule warm = mol::make_dataset_ligand(dataset_from(p.first->spec.dataset));
  const double t1 = now_s();
  p.setup_s = t1 - t0;
  const std::size_t warm_index = p.first->ligands.size();
  if (trace != nullptr) {
    (void)traced_dock(*p.first, warm, warm_index, *trace, root, *observer, nullptr);
  } else {
    (void)p.first->engine->dock(warm, warm_index);
  }
  p.first_dock_s = now_s() - t1;
  return p;
}

int mode_probe(const Workload& w, const Args& a) {
  const Prepared p = prepare(w, a, nullptr, -1, nullptr);
  util::JsonWriter j;
  j.begin_object();
  j.key("setup_s").value_exact(p.setup_s);
  j.key("first_dock_s").value_exact(p.first_dock_s);
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int mode_run(const Workload& w, const Args& a) {
  const double probe_start = host_probe_s();
  Prepared p = prepare(w, a, nullptr, -1, nullptr);
  if (w.serve) serve_prelude(p.jobs);

  CheckLog log;
  std::map<std::string, double> energies;
  std::size_t attempted = 0, failed = 0, docked = 0;
  double model_s = 0.0, wall = 0.0;

  if (!w.serve) {
    JobContext& ctx = *p.first;
    vs::BatchScreeningOptions b;
    b.batch_size = ctx.spec.batch_size;
    b.top_percent = ctx.spec.top_percent;
    b.hits_path = ctx.spec.hits_path;
    vs::BatchScreener screener(*ctx.engine, b);
    const double t0 = now_s();
    const vs::BatchScreeningResult r = screener.run(ctx.ligands);
    wall = now_s() - t0;
    docked = r.newly_docked;
    model_s = r.virtual_seconds;
    attempted = ctx.ligands.size();
    if (r.interrupted || r.completed != attempted || r.newly_docked != attempted) {
      log.fail("screen: run interrupted or incomplete");
      failed = attempted;
    } else {
      failed = check_job("job-000", ctx.receptor, ctx.ligands, ctx.spec.hits_path,
                         ctx.spec.top_percent, r.retained, log, energies)
                   .size();
    }
  } else {
    vs::JobServerOptions so;
    so.jobs_dir = a.dir;
    so.drain = true;
    so.poll_ms = 0;
    vs::JobServer server(so);
    const double t0 = now_s();
    const std::vector<vs::JobOutcome> outcomes = server.serve_directory();
    wall = now_s() - t0;
    attempted = p.jobs.size();
    std::map<std::string, mol::Molecule> receptors;
    for (std::size_t j = 0; j < p.jobs.size(); ++j) {
      const JobInput& in = p.jobs[j];
      const std::string label = fs::path(in.path).filename().string();
      const auto it = std::find_if(outcomes.begin(), outcomes.end(),
                                   [&](const vs::JobOutcome& o) { return o.job_path == in.path; });
      if (it == outcomes.end() || !it->ok || it->interrupted || fs::exists(in.path) ||
          !fs::exists(in.path + ".done")) {
        log.fail(label + ": job did not end .done");
        ++failed;
        continue;
      }
      docked += it->result.newly_docked;
      model_s += it->result.virtual_seconds;
      const vs::JobSpec spec = vs::parse_job_file(in.path + ".done");
      auto rit = receptors.find(spec.dataset);
      if (rit == receptors.end()) {
        rit = receptors.emplace(spec.dataset, mol::make_dataset_receptor(dataset_from(spec.dataset)))
                  .first;
      }
      const std::string hits = in.path + ".hits.jsonl";
      if (!check_job(label, rit->second, spec_library(spec), hits, spec.top_percent,
                     it->result.retained, log, energies)
               .empty()) {
        ++failed;
      }
    }
  }
  const double probe_end = host_probe_s();

  double energy_sum = 0.0;
  for (const auto& [key, e] : energies) energy_sum += e;
  util::JsonWriter j;
  j.begin_object();
  j.key("setup_s").value_exact(p.setup_s);
  j.key("first_dock_s").value_exact(p.first_dock_s);
  j.key("wall_s").value_exact(wall);
  j.key("ligands").value(static_cast<std::uint64_t>(docked));
  j.key("jobs").value(static_cast<std::uint64_t>(p.jobs.size()));
  j.key("model_s").value_exact(model_s);
  j.key("best_energy_mean")
      .value_exact(energies.empty() ? 0.0 : energy_sum / static_cast<double>(energies.size()));
  j.key("peak_rss_mb").value_exact(peak_rss_mb());
  j.key("probe_start_s").value_exact(probe_start);
  j.key("probe_end_s").value_exact(probe_end);
  write_checks(j, log, attempted, failed);
  write_energies(j, energies);
  write_provenance(j, a.seed);
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// The batch loop of vs::BatchScreener::run (resume, batched docking,
/// per-batch flush, top-N% retention), with each layer call timed.
std::vector<vs::LigandHit> traced_batches(const JobContext& ctx, HostTrace& trace, int parent,
                                          double job, obs::Observer& observer,
                                          DockTotals& totals, std::uint64_t& jsonl_bytes) {
  const std::size_t n = ctx.ligands.size();
  vs::TopHitsRetainer retainer(vs::retain_capacity_for(n, ctx.spec.top_percent));
  std::vector<char> done(n, 0);
  if (ctx.spec.resume) {
    Scoped s(trace, "vs.resume_read", parent, -1, job);
    vs::ResumeState recovered = vs::read_jsonl_hits(ctx.spec.hits_path);
    for (vs::LigandHit& hit : recovered.hits) {
      if (hit.ligand_index >= n || done[hit.ligand_index] != 0) continue;
      done[hit.ligand_index] = 1;
      retainer.offer(std::move(hit));
    }
    if (fs::exists(ctx.spec.hits_path)) {
      fs::resize_file(ctx.spec.hits_path, recovered.valid_bytes);
    }
  }
  std::ofstream out(ctx.spec.hits_path, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("e2e_bench: cannot open " + ctx.spec.hits_path);
  const std::size_t bs = ctx.spec.batch_size;
  for (std::size_t begin = 0; begin < n; begin += bs) {
    const std::size_t end = std::min(begin + bs, n);
    for (std::size_t i = begin; i < end; ++i) {
      if (done[i] != 0) continue;
      const double d0 = now_s();
      vs::LigandHit hit = traced_dock(ctx, ctx.ligands[i], i, trace, parent, observer, &totals);
      totals.dock_s.push_back(now_s() - d0);
      done[i] = 1;
      {
        Scoped s(trace, "vs.jsonl_write", parent, static_cast<double>(i), job);
        const std::string line = vs::hit_to_json_line(hit);
        out << line << '\n';
        if (i + 1 == end) out.flush();
        jsonl_bytes += line.size() + 1;
      }
      Scoped s(trace, "vs.retain", parent, static_cast<double>(i), job);
      retainer.offer(std::move(hit));
    }
    out.flush();
  }
  if (!out) throw std::runtime_error("e2e_bench: write failed on " + ctx.spec.hits_path);
  Scoped s(trace, "vs.retain", parent, -1, job);
  return retainer.take_sorted();
}

double percentile_nearest_rank(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

int mode_traced(const Workload& w, const Args& a) {
  const double probe_start = host_probe_s();
  HostTrace trace;
  obs::Observer observer;
  const int root = trace.open("workload", -1);
  Prepared p = prepare(w, a, &trace, root, &observer);
  // The prelude prepares serve's inputs; its time is not the workload's.
  double prelude_s = 0.0;
  if (w.serve) {
    const int id = trace.open("bench.prelude", root);
    serve_prelude(p.jobs);
    prelude_s = trace.close(id);
  }

  CheckLog log;
  std::map<std::string, double> energies;
  std::size_t attempted = 0, failed = 0;
  DockTotals totals;
  std::uint64_t jsonl_bytes = 0;
  std::vector<double> job_s;
  std::uint64_t pairs_expected = 0;

  obs::Counter& kernel_wall = observer.metrics.counter("host.scoring_wall_seconds");
  obs::Counter& pairs = observer.metrics.counter("host.scored_pairs");
  obs::Counter& meta_evals = observer.metrics.counter("meta.evaluations");
  // Kernel launches over every device ("device.<ordinal>.kernels").
  auto launches = [&] {
    double s = 0.0;
    for (const std::string& name : observer.metrics.counter_names()) {
      if (name.rfind("device.", 0) == 0 && name.size() > 8 &&
          name.compare(name.size() - 8, 8, ".kernels") == 0) {
        s += observer.metrics.counter(name).value();
      }
    }
    return s;
  };
  const std::map<std::string, double> layer0 = trace.totals();
  const double kernel0 = kernel_wall.value(), pairs0 = pairs.value(),
               evals0 = meta_evals.value(), launches0 = launches();

  auto expected_pairs = [&](const JobContext& ctx, const std::vector<char>* skip) {
    const std::uint64_t per_lig =
        meta::WorkloadTrace::from_params(ctx.options.params.scaled(ctx.options.scale))
            .evals_per_spot() *
        ctx.spots.size();
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < ctx.ligands.size(); ++i) {
      if (skip != nullptr && (*skip)[i] != 0) continue;
      s += per_lig * ctx.receptor.size() * ctx.ligands[i].size();
    }
    return s;
  };

  // Jobs of the measured region, kept for the checks after it.
  struct DoneJob {
    std::string label;
    std::unique_ptr<JobContext> ctx;
    std::vector<vs::LigandHit> retained;
  };
  std::vector<DoneJob> done_jobs;

  const double region0 = now_s();
  if (!w.serve) {
    const double t0 = now_s();
    std::vector<vs::LigandHit> retained =
        traced_batches(*p.first, trace, root, 0, observer, totals, jsonl_bytes);
    job_s.push_back(now_s() - t0);
    pairs_expected = expected_pairs(*p.first, nullptr);
    done_jobs.push_back({"job-000", std::move(p.first), std::move(retained)});
  } else {
    for (std::size_t j = 0; j < p.jobs.size(); ++j) {
      const JobInput& in = p.jobs[j];
      const double t0 = now_s();
      Scoped job_span(trace, "serve.job", root, -1, static_cast<double>(j));
      std::unique_ptr<JobContext> ctx =
          build_job(in.path, false, &trace, job_span.id(), static_cast<double>(j));
      // Ligands the resume stream already holds are not docked again.
      std::vector<char> skip(ctx->ligands.size(), 0);
      for (const vs::LigandHit& h : vs::read_jsonl_hits(ctx->spec.hits_path).hits) {
        if (h.ligand_index < skip.size()) skip[h.ligand_index] = 1;
      }
      pairs_expected += expected_pairs(*ctx, &skip);
      std::vector<vs::LigandHit> retained = traced_batches(
          *ctx, trace, job_span.id(), static_cast<double>(j), observer, totals, jsonl_bytes);
      fs::rename(in.path, in.path + ".done");
      job_s.push_back(now_s() - t0);
      done_jobs.push_back(
          {fs::path(in.path).filename().string(), std::move(ctx), std::move(retained)});
    }
  }
  const double region_s = now_s() - region0;

  // The read that a resume performs, on the finished stream of a screen;
  // serve's resume reads happen inside its jobs.
  if (!w.serve) {
    Scoped s(trace, "vs.resume_read", root);
    (void)vs::read_jsonl_hits(done_jobs.front().ctx->spec.hits_path);
  }
  const double workload_s = trace.close(root) - prelude_s;
  const double probe_end = host_probe_s();

  attempted = w.serve ? done_jobs.size() : done_jobs.front().ctx->ligands.size();
  for (const DoneJob& d : done_jobs) {
    const std::size_t bad = check_job(d.label, d.ctx->receptor, d.ctx->ligands,
                                      d.ctx->spec.hits_path, d.ctx->spec.top_percent,
                                      d.retained, log, energies)
                                .size();
    failed += w.serve ? (bad != 0 ? 1 : 0) : bad;
  }

  // Per-layer numbers over the measured region.  The warm-up dock is
  // outside it; a screen's setup.* and serve.parse are its one setup, while
  // serve counts the setup its jobs do inside the region.
  std::map<std::string, double> layer = trace.totals();
  for (const auto& [name, v] : layer0) {
    const bool setup = name.rfind("setup.", 0) == 0 || name == "serve.parse";
    if (w.serve || !setup) layer[name] -= v;
  }
  const double kernel_s = kernel_wall.value() - kernel0;
  const double scored_pairs = pairs.value() - pairs0;
  const double meta_run_s = layer["meta.run"];
  const double meta_self_s = meta_run_s - totals.evaluate_s;

  double covered = 0.0;
  for (const SpanRec& s : trace.spans()) {
    if (is_layer_span(s.name)) covered += s.dur;
  }

  if (totals.count_mismatches != 0) {
    log.fail(std::to_string(totals.count_mismatches) +
             " ligands evaluated a different number of poses than the workload trace");
  }
  if (static_cast<std::uint64_t>(meta_evals.value() - evals0) != totals.evaluations) {
    log.fail("meta.evaluations counter disagrees with the evaluator's count");
  }
  if (static_cast<std::uint64_t>(scored_pairs) != pairs_expected) {
    log.fail("scoring.pairs " + std::to_string(static_cast<std::uint64_t>(scored_pairs)) +
             " != expected " + std::to_string(pairs_expected));
  }

  const std::size_t n_docks = totals.dock_s.size();
  // Highest nearest-rank percentile with at least ten docks above it.
  const double tail_pct =
      n_docks > 10 ? std::floor(100.0 * static_cast<double>(n_docks - 10) /
                                static_cast<double>(n_docks))
                   : 0.0;

  if (!a.trace_out.empty()) {
    std::ofstream out(a.trace_out, std::ios::binary);
    out << trace.to_chrome_json() << '\n';
  }

  util::JsonWriter j;
  j.begin_object();
  j.key("region_s").value_exact(region_s);
  j.key("workload_s").value_exact(workload_s);
  j.key("layers").begin_object();
  auto put = [&](const char* k, double v) { j.key(k).value_exact(v); };
  put("setup.receptor_s", layer["setup.receptor"]);
  put("setup.spots_s", layer["setup.spots"]);
  put("setup.library_s", layer["setup.library"]);
  put("setup.engine_s", layer["setup.engine"]);
  put("meta.run_s", meta_run_s);
  put("meta.self_s", meta_self_s);
  put("meta.self_share", meta_run_s > 0 ? meta_self_s / meta_run_s : 0.0);
  put("meta.evaluations", static_cast<double>(totals.evaluations));
  put("meta.batches", static_cast<double>(totals.batches));
  put("sched.plan_s", layer["sched.plan"]);
  put("sched.evaluate_s", totals.evaluate_s);
  put("sched.dispatch_s", totals.evaluate_s - kernel_s);
  put("sched.device_launches", launches() - launches0);
  put("scoring.kernel_s", kernel_s);
  put("scoring.kernel_share", meta_run_s > 0 ? kernel_s / meta_run_s : 0.0);
  put("scoring.pairs", scored_pairs);
  put("scoring.gpairs_per_s", kernel_s > 0 ? scored_pairs / kernel_s * 1e-9 : 0.0);
  put("vs.dock_s_p50", percentile_nearest_rank(totals.dock_s, 50.0));
  put("vs.dock_s_tail", percentile_nearest_rank(totals.dock_s, tail_pct));
  put("vs.dock_s_tail_pct", tail_pct);
  put("vs.dock_count", static_cast<double>(n_docks));
  put("vs.jsonl_write_s", layer["vs.jsonl_write"]);
  put("vs.jsonl_bytes", static_cast<double>(jsonl_bytes));
  put("vs.resume_read_s", layer["vs.resume_read"]);
  put("vs.retain_s", layer["vs.retain"]);
  put("serve.parse_s", layer["serve.parse"]);
  put("serve.job_s_p50", percentile_nearest_rank(job_s, 50.0));
  put("trace.coverage", covered / workload_s);
  put("host.probe_s", 0.5 * (probe_start + probe_end));
  j.end_object();
  j.key("probe_start_s").value_exact(probe_start);
  j.key("probe_end_s").value_exact(probe_end);
  write_checks(j, log, attempted, failed);
  write_energies(j, energies);
  write_provenance(j, a.seed);
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--count") a.count = std::stoul(v);
    else if (k == "--dir") a.dir = v;
    else if (k == "--mode") a.mode = v;
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("e2e_bench: unknown flag " + k);
  }
  if (a.workload.empty() || a.dir.empty() || a.mode.empty() || a.count == 0) {
    throw std::invalid_argument(
        "usage: e2e_bench --workload W --seed N --count N --dir D --mode probe|run|traced "
        "[--trace-out F]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const Workload& w = find_workload(a.workload);
    fs::create_directories(a.dir);
    if (a.mode == "probe") return mode_probe(w, a);
    if (a.mode == "run") return mode_run(w, a);
    if (a.mode == "traced") return mode_traced(w, a);
    throw std::invalid_argument("e2e_bench: unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
