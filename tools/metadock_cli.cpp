// metadock — the library's command-line tool: dock, screen, serve,
// cluster and tables.  `metadock` with no arguments prints the usage.
//
// Without --receptor/--ligand, the synthetic dataset structures are used,
// so the tool runs out of the box.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/transform.h"
#include "gpusim/fault_plan.h"
#include "mol/library.h"
#include "mol/pdb.h"
#include "mol/synth.h"
#include "obs/observer.h"
#include "sched/executor.h"
#include "util/args.h"
#include "util/table.h"
#include "util/json.h"
#include "vs/batch_screening.h"
#include "vs/cluster_screening.h"
#include "vs/experiment.h"
#include "vs/job_server.h"
#include "vs/report.h"
#include "vs/screening.h"

namespace {

using namespace metadock;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  metadock dock   [--receptor F.pdb] [--ligand F.pdb] [--dataset 2BSM|2BXG]\n"
               "                  [--node hertz|jupiter] [--strategy het|hom|cpu|coop]\n"
               "                  [--mh M1|M2|M3|M4|SA|TS] [--scale S] [--seed N] [--out F.pdb]\n"
               "                  [--conformers N]\n"
               "  metadock screen [--count N] [--dataset ...] [--node ...] [--mh ...]\n"
               "                  [--scale S] [--seed N] [--json F.json]\n"
               "                  [--batch-size N] [--top-percent P] [--hits-jsonl F.jsonl]\n"
               "                  [--resume]\n"
               "  metadock serve  (--jobs-dir D [--drain] [--poll-ms N] | --stdin)\n"
               "                  [--max-jobs N] [--metrics-out F.json]\n"
               "  metadock cluster [--nodes N] [--mixed | --node hertz|jupiter]\n"
               "                  [--policy static|static-prop|dynamic|stealing]\n"
               "                  [--count N] [--dataset ...] [--mh ...] [--scale S]\n"
               "                  [--seed N] [--steal-threshold S] [--node-fault-kill N@T]\n"
               "                  [--node-fault-straggle N@T:K] [--node-fault-seed N]\n"
               "                  [--screen] [--json F.json]\n"
               "  metadock tables [--which 6|7|8|9|all]\n"
               "\n"
               "multi-node campaign simulation (cluster):\n"
               "  --nodes N              simulated node count (default 8)\n"
               "  --mixed                1x jupiter : 3x hertz node pattern (default:\n"
               "                         every node is --node, default hertz)\n"
               "  --policy P             ligand distribution: static | static-prop |\n"
               "                         dynamic | stealing (default stealing)\n"
               "  --count N              synthetic library size (default 64)\n"
               "  --steal-threshold S    remaining-work level (virtual s) below which a\n"
               "                         stealing node solicits work (default 0 = auto)\n"
               "  --node-fault-kill N@T  kill node N at virtual time T s (comma list)\n"
               "  --node-fault-straggle N@T:K\n"
               "                         slow node N by factor K after T s (comma list)\n"
               "  --node-fault-seed N    seed for the node-fault schedule (default 1)\n"
               "  --screen               also dock the library (hit list bit-identical\n"
               "                         to single-node screen for every policy)\n"
               "  --json F.json          write the cluster report as JSON\n"
               "\n"
               "batch screening (screen):\n"
               "  --batch-size N         ligands docked per batch; the JSONL stream is\n"
               "                         flushed at every batch boundary (default 64)\n"
               "  --top-percent P        retain only the best P%% of the library in the\n"
               "                         ranked hit list, streaming min-heap, 0 < P <= 100\n"
               "                         (default 100)\n"
               "  --hits-jsonl F.jsonl   stream one hit record per docked ligand (JSONL);\n"
               "                         required for --resume; without --resume an\n"
               "                         existing non-empty F.jsonl is an error\n"
               "  --resume               skip ligands already recorded in --hits-jsonl\n"
               "                         (a torn trailing line is discarded); the final\n"
               "                         stream is byte-identical to an uninterrupted run\n"
               "\n"
               "serve:\n"
               "  --jobs-dir D           watch D for *.job.json files (renamed to .done /\n"
               "                         .failed after processing)\n"
               "  --drain                exit when no pending jobs remain\n"
               "  --poll-ms N            directory scan interval (default 200)\n"
               "  --stdin                read job-file paths from stdin, one per line\n"
               "  --max-jobs N           stop after N jobs (default unlimited)\n"
               "  SIGINT                 finishes the in-flight batch, flushes the JSONL\n"
               "                         stream and exits; interrupted jobs resume on the\n"
               "                         next run\n"
               "\n"
               "fault injection (dock and screen):\n"
               "  --fault-seed N         seed for the fault schedule (default 1)\n"
               "  --fault-kill D@T       kill device D at virtual time T s (comma list)\n"
               "  --fault-transient D@P  transient failure probability P on device D\n"
               "  --fault-straggle D@T:K slow device D by factor K after T s\n"
               "  --fault-retries N      retries per transient failure (default 3)\n"
               "  --fault-rebalance N    re-derive shares every N batches (default off)\n"
               "\n"
               "observability (dock and screen):\n"
               "  --trace-out F.json     Chrome trace_event JSON of the virtual-time run\n"
               "                         (open in chrome://tracing or ui.perfetto.dev)\n"
               "  --metrics-out F.json   counters/gauges/histograms summary\n"
               "                         (includes host.pairs_per_second, the real host\n"
               "                         scoring throughput)\n"
               "\n"
               "batch dispatch (dock and screen):\n"
               "  --overlap on|off       double-buffered stream overlap per device slice\n"
               "                         (default on; off reproduces the fully synchronous\n"
               "                         Algorithm 2 round; scores are bit-identical)\n"
               "  --cpu-tail-share F     fraction of each batch the host CPU scores\n"
               "                         concurrently with the GPU pipelines (default 0;\n"
               "                         requires --overlap on; 0 <= F < 1)\n");
  std::exit(2);
}

/// Reads a count flag (an integer in [0, max]); a value out of range is a
/// usage error naming the flag instead of wrapping to a huge size_t or int.
std::size_t count_flag(const util::ArgParser& args, const char* flag, std::int64_t fallback,
                       std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  const std::int64_t n = args.get(flag, fallback);
  if (n < 0) usage(("--" + std::string(flag) + ": expected a count >= 0, got " +
                    std::to_string(n)).c_str());
  if (n > max) usage(("--" + std::string(flag) + ": expected a count <= " +
                      std::to_string(max) + ", got " + std::to_string(n)).c_str());
  return static_cast<std::size_t>(n);
}

/// One "D@X" or "D@X:Y" entry of a fault flag.
struct FaultEntry {
  int id = 0;
  double x = 0.0;
  double y = 1.0;
};

/// Parses --flag's comma list of "D@X" entries ("D@X:Y" when `with_y`).
std::vector<FaultEntry> fault_entries(const util::ArgParser& args, const std::string& flag,
                                      bool with_y = false) {
  const std::string name = "--" + flag;
  std::vector<FaultEntry> out;
  const std::string list = args.get(flag, std::string());
  std::size_t start = 0;
  while (!list.empty() && start <= list.size()) {
    const std::size_t comma = std::min(list.find(',', start), list.size());
    const std::string entry = list.substr(start, comma - start);
    start = comma + 1;
    const std::size_t at = entry.find('@');
    if (at == std::string::npos || at == 0) usage((name + ": expected D@...").c_str());
    FaultEntry e;
    try {
      e.id = std::stoi(entry.substr(0, at));
      std::string rest = entry.substr(at + 1);
      if (with_y) {
        const std::size_t colon = rest.find(':');
        if (colon == std::string::npos) usage((name + ": expected D@T:K").c_str());
        e.y = std::stod(rest.substr(colon + 1));
        rest.resize(colon);
      }
      e.x = std::stod(rest);
    } catch (const std::exception&) {
      usage((name + ": malformed entry '" + entry + "'").c_str());
    }
    out.push_back(e);
  }
  return out;
}

/// True when either --trace-out or --metrics-out asks for an observer.
bool observability_requested(const util::ArgParser& args) {
  return args.has("trace-out") || args.has("metrics-out");
}

/// The executor options dock and screen read from their flags: fault
/// injection, batch dispatch and observability.
sched::ExecutorOptions exec_flags(const util::ArgParser& args, obs::Observer& observer) {
  sched::ExecutorOptions exec;
  gpusim::FaultPlan& plan = exec.fault_plan;
  plan.set_seed(static_cast<std::uint64_t>(args.get("fault-seed", std::int64_t{1})));
  for (const FaultEntry& e : fault_entries(args, "fault-kill")) plan.kill(e.id, e.x);
  for (const FaultEntry& e : fault_entries(args, "fault-transient")) plan.transient(e.id, e.x);
  for (const FaultEntry& e : fault_entries(args, "fault-straggle", true)) {
    plan.straggle(e.id, e.x, e.y);
  }
  exec.fault_policy.max_retries =
      static_cast<int>(count_flag(args, "fault-retries", 3, std::numeric_limits<int>::max()));
  exec.fault_policy.rebalance_batches = count_flag(args, "fault-rebalance", 0);

  const std::string overlap = args.get("overlap", std::string("on"));
  if (overlap == "on") {
    exec.overlap = true;
  } else if (overlap == "off") {
    exec.overlap = false;
  } else {
    usage("--overlap: expected on|off");
  }
  const double tail = args.get("cpu-tail-share", 0.0);
  if (!(0.0 <= tail && tail < 1.0)) usage("--cpu-tail-share: expected 0 <= F < 1");
  exec.cpu_tail_share = tail;

  if (observability_requested(args)) exec.observer = &observer;
  return exec;
}

/// Writes the trace/metrics files requested on the command line.
void write_observability(const util::ArgParser& args, const obs::Observer& observer) {
  if (args.has("trace-out")) {
    const std::string path = args.get("trace-out");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    out << observer.tracer.to_chrome_json() << '\n';
    std::printf("wrote %s (%zu spans)\n", path.c_str(), observer.tracer.size());
  }
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    out << observer.metrics.to_json() << '\n';
    std::printf("wrote %s\n", path.c_str());
  }
}

void print_fault_summary(const sched::FaultReport& f) {
  if (!f.any()) return;
  std::printf("faults: %llu transient (%llu retries), %llu device(s) lost, %llu re-splits, "
              "%llu rebalances, %.4f s lost%s\n",
              static_cast<unsigned long long>(f.transient_faults),
              static_cast<unsigned long long>(f.retries),
              static_cast<unsigned long long>(f.devices_lost),
              static_cast<unsigned long long>(f.resplits),
              static_cast<unsigned long long>(f.rebalances), f.time_lost_seconds,
              f.degraded_to_cpu ? " — degraded to CPU" : "");
}

sched::DistributionPolicy policy_from(const std::string& name) {
  if (name == "static") return sched::DistributionPolicy::kStatic;
  if (name == "static-prop") return sched::DistributionPolicy::kStaticProportional;
  if (name == "dynamic") return sched::DistributionPolicy::kDynamic;
  if (name == "stealing") return sched::DistributionPolicy::kWorkStealing;
  usage("unknown --policy (expected static, static-prop, dynamic or stealing)");
}

int cmd_dock(const util::ArgParser& args) {
  const mol::Dataset ds = vs::dataset_from(args.get("dataset", std::string("2BSM")));
  const mol::Molecule receptor = args.has("receptor")
                                     ? mol::read_pdb_file(args.get("receptor"))
                                     : mol::make_dataset_receptor(ds);
  mol::Molecule ligand = args.has("ligand") ? mol::read_pdb_file(args.get("ligand"))
                                            : mol::make_dataset_ligand(ds);
  ligand.center_at_origin();
  const std::size_t n_conformers = count_flag(args, "conformers", 1);

  obs::Observer observer;
  vs::ScreeningOptions options;
  options.exec = exec_flags(args, observer);
  options.params = vs::mh_from(args.get("mh", std::string("M3")));
  options.exec.strategy = vs::strategy_from(args.get("strategy", std::string("het")));
  options.scale = args.get("scale", 0.02);
  options.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{42}));

  vs::VirtualScreeningEngine engine(receptor, vs::node_from(args.get("node", std::string("hertz"))),
                                    options);
  std::printf("docking %s (%zu atoms) against %s (%zu atoms), %zu spots, %s/%s\n",
              ligand.name().c_str(), ligand.size(), receptor.name().c_str(), receptor.size(),
              engine.spots().size(), args.get("node", std::string("hertz")).c_str(),
              options.params.name.c_str());

  vs::LigandHit hit;
  if (n_conformers > 1) {
    mol::ConformerParams cp;
    cp.count = n_conformers;
    std::vector<double> per_conformer;
    hit = engine.dock_ensemble(ligand, cp, &per_conformer);
    std::printf("ensemble of %zu conformers; per-conformer best energies:", per_conformer.size());
    for (double e : per_conformer) std::printf(" %.2f", e);
    std::printf("\n");
  } else {
    hit = engine.dock(ligand);
  }
  std::printf("best energy %.4f kcal/mol at spot %d, pose (%.2f, %.2f, %.2f)\n",
              hit.best_score, hit.best_spot_id, static_cast<double>(hit.best_pose.position.x),
              static_cast<double>(hit.best_pose.position.y),
              static_cast<double>(hit.best_pose.position.z));
  std::printf("virtual time %.3f s, modeled energy %.0f J\n", hit.virtual_seconds,
              hit.energy_joules);
  print_fault_summary(hit.faults);
  write_observability(args, observer);

  if (args.has("out")) {
    mol::Molecule posed = ligand;
    posed.transform({hit.best_pose.orientation, hit.best_pose.position});
    std::ofstream out(args.get("out"));
    if (!out) throw std::runtime_error("cannot open " + args.get("out"));
    mol::write_complex_pdb(out, receptor, posed);
    std::printf("wrote %s\n", args.get("out").c_str());
  }
  return 0;
}

/// True once SIGINT fired; `serve` and `screen` finish the
/// in-flight batch, flush the stream and exit cleanly.
volatile std::sig_atomic_t g_interrupted = 0;

void handle_sigint(int) { g_interrupted = 1; }

void install_sigint_handler() {
  g_interrupted = 0;
  std::signal(SIGINT, handle_sigint);
}

int cmd_screen(const util::ArgParser& args) {
  // Every default not set here is the job-file default (vs::JobSpec).  The
  // CLI-only differences: 4 ligands, --seed sets both seeds, no resume
  // unless asked, and --receptor replaces the dataset receptor.
  vs::JobSpec spec;
  spec.ligand_count = count_flag(args, "count", 4);
  if (args.has("seed")) {
    spec.seed = spec.library_seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{0}));
  }
  spec.dataset = args.get("dataset", spec.dataset);
  spec.mh = args.get("mh", spec.mh);
  spec.node = args.get("node", spec.node);
  spec.strategy = args.get("strategy", spec.strategy);
  spec.scale = args.get("scale", spec.scale);
  spec.batch_size = count_flag(args, "batch-size", static_cast<std::int64_t>(spec.batch_size));
  spec.top_percent = args.get("top-percent", spec.top_percent);
  spec.hits_path = args.get("hits-jsonl", std::string());
  spec.resume = args.has("resume");
  const mol::Molecule receptor = args.has("receptor") ? mol::read_pdb_file(args.get("receptor"))
                                                      : vs::job_receptor(spec);

  obs::Observer observer;
  install_sigint_handler();
  const vs::BatchScreeningResult result =
      vs::run_job(spec, receptor, exec_flags(args, observer), [] { return g_interrupted != 0; });
  std::printf("batch screening: %zu admitted, %zu completed (%zu new, %zu resumed), "
              "%zu retained (top %.1f%%)%s\n",
              result.admitted, result.completed, result.newly_docked, result.resumed_skips,
              result.retained.size(), spec.top_percent,
              result.interrupted ? " — INTERRUPTED (stream flushed, rerun with --resume)" : "");
  if (!spec.hits_path.empty()) std::printf("hits stream: %s\n", spec.hits_path.c_str());
  const std::vector<vs::LigandHit>& hits = result.retained;

  util::Table t("Hit list");
  t.header({"rank", "ligand", "best energy", "spot", "virtual s"});
  int rank = 1;
  for (const vs::LigandHit& h : hits) {
    t.row({std::to_string(rank++), h.ligand_name, util::Table::num(h.best_score, 3),
           std::to_string(h.best_spot_id), util::Table::num(h.virtual_seconds, 3)});
  }
  t.print();
  sched::FaultReport screen_faults;
  for (const vs::LigandHit& h : hits) screen_faults.merge(h.faults);
  print_fault_summary(screen_faults);
  write_observability(args, observer);

  if (args.has("json")) {
    std::ofstream out(args.get("json"));
    if (!out) throw std::runtime_error("cannot open " + args.get("json"));
    out << vs::hits_to_json(receptor.name(), spec.node, hits) << '\n';
    std::printf("wrote %s\n", args.get("json").c_str());
  }
  return 0;
}

int cmd_serve(const util::ArgParser& args) {
  const bool use_stdin = args.has("stdin");
  const std::string jobs_dir = args.get("jobs-dir", std::string());
  if (use_stdin == !jobs_dir.empty()) {
    usage("serve: pass exactly one of --jobs-dir or --stdin");
  }
  install_sigint_handler();

  obs::Observer observer;
  vs::JobServerOptions options;
  options.jobs_dir = jobs_dir;
  options.drain = args.has("drain");
  options.poll_ms =
      static_cast<int>(count_flag(args, "poll-ms", 200, std::numeric_limits<int>::max()));
  options.max_jobs = count_flag(args, "max-jobs", 0);
  options.observer = &observer;
  options.should_stop = [] { return g_interrupted != 0; };
  options.log = &std::cout;
  vs::JobServer server(options);

  if (use_stdin) {
    std::printf("serving jobs from stdin (one job-file path per line)\n");
  } else {
    std::printf("serving jobs from %s%s\n", jobs_dir.c_str(),
                options.drain ? " (drain mode)" : "");
  }
  const std::vector<vs::JobOutcome> outcomes =
      use_stdin ? server.serve_stream(std::cin) : server.serve_directory();

  std::size_t ok = 0, failed = 0, interrupted = 0;
  for (const vs::JobOutcome& o : outcomes) {
    if (!o.ok) {
      ++failed;
    } else if (o.interrupted) {
      ++interrupted;
    } else {
      ++ok;
    }
  }
  std::printf("serve: %zu job(s) completed, %zu failed, %zu interrupted%s\n", ok, failed,
              interrupted, g_interrupted != 0 ? " (SIGINT)" : "");
  write_observability(args, observer);
  return failed == 0 ? 0 : 1;
}

int cmd_cluster(const util::ArgParser& args) {
  const auto n_nodes = args.get("nodes", std::int64_t{8});
  if (n_nodes < 1) usage("--nodes: expected >= 1");
  const std::string base_node = args.get("node", std::string("hertz"));
  std::vector<sched::NodeConfig> nodes;
  nodes.reserve(static_cast<std::size_t>(n_nodes));
  for (std::int64_t i = 0; i < n_nodes; ++i) {
    nodes.push_back(args.has("mixed") ? (i % 4 == 0 ? sched::jupiter() : sched::hertz())
                                      : vs::node_from(base_node));
  }

  const mol::Dataset ds = vs::dataset_from(args.get("dataset", std::string("2BSM")));
  const mol::Molecule receptor = args.has("receptor")
                                     ? mol::read_pdb_file(args.get("receptor"))
                                     : mol::make_dataset_receptor(ds);
  const auto library = mol::make_ligand_library(
      {.count = count_flag(args, "count", 64),
       .seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{7}))});

  vs::ScreeningOptions options;
  options.params = vs::mh_from(args.get("mh", std::string("M3")));
  options.scale = args.get("scale", 0.01);
  options.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{42}));

  sched::ClusterOptions copt;
  copt.steal_threshold_s = args.get("steal-threshold", 0.0);
  copt.node_faults.set_seed(
      static_cast<std::uint64_t>(args.get("node-fault-seed", std::int64_t{1})));
  for (const FaultEntry& e : fault_entries(args, "node-fault-kill")) {
    copt.node_faults.kill(e.id, e.x);
  }
  for (const FaultEntry& e : fault_entries(args, "node-fault-straggle", true)) {
    copt.node_faults.straggle(e.id, e.x, e.y);
  }
  obs::Observer observer;
  if (observability_requested(args)) copt.observer = &observer;

  vs::VirtualScreeningEngine engine(receptor, vs::node_from(base_node), options);
  vs::ClusterScreener screener(engine, nodes, copt);
  const sched::DistributionPolicy policy =
      policy_from(args.get("policy", std::string("stealing")));

  std::printf("simulating a %lld-node %s cluster, %zu-ligand library, policy %s\n",
              static_cast<long long>(n_nodes), args.has("mixed") ? "mixed" : base_node.c_str(),
              library.size(), sched::policy_name(policy).data());

  sched::ClusterReport report;
  if (args.has("screen")) {
    const vs::ClusterScreeningResult result = screener.screen(library, policy);
    report = result.report;
    util::Table hits("Hit list (bit-identical to single-node screen)");
    hits.header({"rank", "ligand", "best energy", "spot", "docked on"});
    int rank = 1;
    for (const vs::LigandHit& h : result.hits) {
      hits.row({std::to_string(rank++), h.ligand_name, util::Table::num(h.best_score, 3),
                std::to_string(h.best_spot_id),
                "node " + std::to_string(report.docked_on[h.ligand_index])});
    }
    hits.print();
  } else {
    report = screener.estimate(library, policy);
  }

  util::Table t("Per-node campaign attribution");
  t.header({"node", "ligands", "busy s", "last result s"});
  for (std::size_t n = 0; n < report.node_seconds.size(); ++n) {
    t.row({std::to_string(n), std::to_string(report.ligands_per_node[n]),
           util::Table::num(report.node_busy_seconds[n], 3),
           util::Table::num(report.node_seconds[n], 3)});
  }
  t.print();
  std::printf("makespan %.3f s, comm %.3f s, balance %.2f, %llu messages\n",
              report.makespan_seconds, report.comm_seconds, report.balance_efficiency,
              static_cast<unsigned long long>(report.messages.total_count()));
  if (report.steals + report.failed_steals + report.handoffs > 0) {
    std::printf("steals: %zu granted (%zu ligands, %zu in-flight handoffs), %zu came up empty\n",
                report.steals, report.stolen_ligands, report.handoffs, report.failed_steals);
  }
  if (report.nodes_lost > 0) {
    std::printf("faults: %zu node(s) lost, %zu ligand(s) reassigned, %zu re-docked\n",
                report.nodes_lost, report.reassigned_ligands, report.redocked_ligands);
  }
  write_observability(args, observer);

  if (args.has("json")) {
    util::JsonWriter jw;
    jw.begin_object();
    jw.key("nodes").value(static_cast<std::uint64_t>(report.node_seconds.size()));
    jw.key("policy").value(std::string(sched::policy_name(report.policy)));
    jw.key("ligands").value(static_cast<std::uint64_t>(library.size()));
    jw.key("makespan_seconds").value(report.makespan_seconds);
    jw.key("comm_seconds").value(report.comm_seconds);
    jw.key("balance_efficiency").value(report.balance_efficiency);
    jw.key("messages").value(report.messages.total_count());
    jw.key("steals").value(static_cast<std::uint64_t>(report.steals));
    jw.key("stolen_ligands").value(static_cast<std::uint64_t>(report.stolen_ligands));
    jw.key("handoffs").value(static_cast<std::uint64_t>(report.handoffs));
    jw.key("failed_steals").value(static_cast<std::uint64_t>(report.failed_steals));
    jw.key("nodes_lost").value(static_cast<std::uint64_t>(report.nodes_lost));
    jw.key("reassigned_ligands").value(static_cast<std::uint64_t>(report.reassigned_ligands));
    jw.key("redocked_ligands").value(static_cast<std::uint64_t>(report.redocked_ligands));
    jw.key("node_seconds").begin_array();
    for (double s : report.node_seconds) jw.value(s);
    jw.end_array();
    jw.key("node_busy_seconds").begin_array();
    for (double s : report.node_busy_seconds) jw.value(s);
    jw.end_array();
    jw.key("ligands_per_node").begin_array();
    for (std::size_t c : report.ligands_per_node) jw.value(static_cast<std::uint64_t>(c));
    jw.end_array();
    jw.end_object();
    std::ofstream out(args.get("json"));
    if (!out) throw std::runtime_error("cannot open " + args.get("json"));
    out << jw.str() << '\n';
    std::printf("wrote %s\n", args.get("json").c_str());
  }
  return 0;
}

int cmd_tables(const util::ArgParser& args) {
  const std::string which = args.get("which", std::string("all"));
  if (which == "6" || which == "all") {
    vs::print_experiment_table(vs::run_jupiter_table(mol::kDataset2BSM));
  }
  if (which == "7" || which == "all") {
    vs::print_experiment_table(vs::run_jupiter_table(mol::kDataset2BXG));
  }
  if (which == "8" || which == "all") {
    vs::print_experiment_table(vs::run_hertz_table(mol::kDataset2BSM));
  }
  if (which == "9" || which == "all") {
    vs::print_experiment_table(vs::run_hertz_table(mol::kDataset2BXG));
  }
  return 0;
}

/// A subcommand and every flag it reads; any other flag is a usage error,
/// so a stale or misspelled flag is never dropped silently.
struct Command {
  std::string name;
  int (*run)(const util::ArgParser&);
  std::vector<std::string> flags;
};

std::vector<Command> commands() {
  const std::vector<std::string> obs = {"trace-out", "metrics-out"};
  // Fault injection and batch dispatch: dock and screen.
  std::vector<std::string> exec = {"fault-seed", "fault-kill", "fault-transient",
                                   "fault-straggle", "fault-retries", "fault-rebalance",
                                   "overlap", "cpu-tail-share"};
  exec.insert(exec.end(), obs.begin(), obs.end());
  const auto with = [](std::vector<std::string> own, const std::vector<std::string>& shared) {
    own.insert(own.end(), shared.begin(), shared.end());
    return own;
  };
  return {
      {"dock", cmd_dock,
       with({"dataset", "receptor", "ligand", "node", "strategy", "mh", "scale", "seed",
             "conformers", "out"},
            exec)},
      {"screen", cmd_screen,
       with({"dataset", "receptor", "count", "node", "strategy", "mh", "scale", "seed", "json",
             "batch-size", "top-percent", "hits-jsonl", "resume"},
            exec)},
      {"serve", cmd_serve, with({"jobs-dir", "stdin", "drain", "poll-ms", "max-jobs"}, obs)},
      {"cluster", cmd_cluster,
       with({"nodes", "node", "mixed", "policy", "dataset", "receptor", "count", "mh", "scale",
             "seed", "steal-threshold", "node-fault-kill", "node-fault-straggle",
             "node-fault-seed", "screen", "json"},
            obs)},
      {"tables", cmd_tables, {"which"}},
  };
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    if (args.positionals().empty()) usage();
    const std::string cmd = args.positionals().front();
    for (const Command& c : commands()) {
      if (cmd != c.name) continue;
      const std::vector<std::string> unknown = args.unknown_keys(c.flags);
      if (!unknown.empty()) usage(("unknown flag --" + unknown.front() + " for " + cmd).c_str());
      return c.run(args);
    }
    usage("unknown command");
  } catch (const std::invalid_argument& e) {
    // The library's report of a bad input: an unknown name or an
    // out-of-range value, which on the command line is a usage error.
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metadock: %s\n", e.what());
    return 1;
  }
}
