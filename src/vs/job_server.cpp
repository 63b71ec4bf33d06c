#include "vs/job_server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "mol/library.h"
#include "mol/synth.h"
#include "sched/node_config.h"
#include "util/json.h"

namespace metadock::vs {

namespace fs = std::filesystem;

namespace {

constexpr const char* kJobSuffix = ".job.json";

mol::Dataset dataset_from(const std::string& name) {
  if (name == "2BSM") return mol::kDataset2BSM;
  if (name == "2BXG") return mol::kDataset2BXG;
  throw std::invalid_argument("job: unknown dataset '" + name + "' (expected 2BSM or 2BXG)");
}

sched::NodeConfig node_from(const std::string& name) {
  if (name == "hertz") return sched::hertz();
  if (name == "jupiter") return sched::jupiter();
  throw std::invalid_argument("job: unknown node '" + name + "' (expected hertz or jupiter)");
}

sched::Strategy strategy_from(const std::string& name) {
  if (name == "het") return sched::Strategy::kHeterogeneous;
  if (name == "hom") return sched::Strategy::kHomogeneous;
  if (name == "cpu") return sched::Strategy::kCpu;
  if (name == "coop") return sched::Strategy::kCooperative;
  throw std::invalid_argument("job: unknown strategy '" + name + "'");
}

meta::MetaheuristicParams mh_from(const std::string& name) {
  if (name == "M1") return meta::m1_genetic();
  if (name == "M2") return meta::m2_scatter_full();
  if (name == "M3") return meta::m3_scatter_light();
  if (name == "M4") return meta::m4_local_search();
  if (name == "SA") return meta::sa_annealing();
  if (name == "TS") return meta::tabu_search();
  throw std::invalid_argument("job: unknown metaheuristic '" + name + "'");
}

/// Every key a job file may set.  Any other key is an error, so a typo
/// such as "ligand" never silently falls back to a default.
constexpr std::array<std::string_view, 18> kJobKeys = {
    "name",
    "ligands", "min_atoms", "max_atoms", "library_seed",                  // library
    "dataset", "receptor_atoms", "receptor_seed",                         // receptor
    "mh", "node", "strategy", "scale", "seed", "population_per_spot",     // engine
    "batch_size", "top_percent", "hits", "resume"};                       // batching

[[noreturn]] void wrong_type(std::string_view key, const char* expected) {
  throw std::invalid_argument("job: key '" + std::string(key) + "' expects " + expected);
}

// Typed reads with a fallback for an absent key.  A present key of the
// wrong type throws std::invalid_argument naming the key.

std::string string_or(const util::JsonValue& v, std::string_view key, std::string fallback) {
  const util::JsonValue* m = v.find(key);
  if (m == nullptr) return fallback;
  if (!m->is_string()) wrong_type(key, "a string");
  return m->as_string();
}

double number_or(const util::JsonValue& v, std::string_view key, double fallback) {
  const util::JsonValue* m = v.find(key);
  if (m == nullptr) return fallback;
  if (!m->is_number()) wrong_type(key, "a number");
  return m->as_double();
}

bool bool_or(const util::JsonValue& v, std::string_view key, bool fallback) {
  const util::JsonValue* m = v.find(key);
  if (m == nullptr) return fallback;
  if (!m->is_bool()) wrong_type(key, "true or false");
  return m->as_bool();
}

std::uint64_t u64_or(const util::JsonValue& v, std::string_view key, std::uint64_t fallback) {
  const util::JsonValue* m = v.find(key);
  if (m == nullptr) return fallback;
  // Integers are exact in a JSON double only up to 2^53.
  const double d = m->is_number() ? m->as_double() : -1.0;
  if (d < 0.0 || d > 0x1p53 || d != std::floor(d)) wrong_type(key, "an integer in [0, 2^53]");
  return m->as_uint64();
}

}  // namespace

JobSpec parse_job_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("job: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const util::JsonValue doc = util::JsonValue::parse(buffer.str());
  if (!doc.is_object()) throw std::runtime_error("job: " + path + " is not a JSON object");

  for (const util::JsonValue::Member& m : doc.as_object()) {
    if (std::find(kJobKeys.begin(), kJobKeys.end(), m.first) == kJobKeys.end()) {
      throw std::invalid_argument("job: unknown key '" + m.first + "'");
    }
  }

  JobSpec spec;
  spec.job_path = path;
  std::string stem = fs::path(path).filename().string();
  if (stem.size() > std::strlen(kJobSuffix) &&
      stem.compare(stem.size() - std::strlen(kJobSuffix), std::string::npos, kJobSuffix) == 0) {
    stem.resize(stem.size() - std::strlen(kJobSuffix));
  } else {
    stem = fs::path(path).stem().string();
  }
  spec.name = string_or(doc, "name", stem);

  spec.ligand_count = u64_or(doc, "ligands", spec.ligand_count);
  spec.min_atoms = u64_or(doc, "min_atoms", spec.min_atoms);
  spec.max_atoms = u64_or(doc, "max_atoms", spec.max_atoms);
  spec.library_seed = u64_or(doc, "library_seed", spec.library_seed);

  spec.dataset = string_or(doc, "dataset", spec.dataset);
  spec.receptor_atoms = u64_or(doc, "receptor_atoms", spec.receptor_atoms);
  spec.receptor_seed = u64_or(doc, "receptor_seed", spec.receptor_seed);

  spec.mh = string_or(doc, "mh", spec.mh);
  spec.node = string_or(doc, "node", spec.node);
  spec.strategy = string_or(doc, "strategy", spec.strategy);
  spec.scale = number_or(doc, "scale", spec.scale);
  spec.seed = u64_or(doc, "seed", spec.seed);
  const std::uint64_t population = u64_or(doc, "population_per_spot",
                                          static_cast<std::uint64_t>(spec.population_per_spot));
  if (population > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument("job: key 'population_per_spot' out of range");
  }
  spec.population_per_spot = static_cast<int>(population);

  spec.batch_size = u64_or(doc, "batch_size", spec.batch_size);
  spec.top_percent = number_or(doc, "top_percent", spec.top_percent);
  spec.hits_path = string_or(doc, "hits", std::string());
  if (spec.hits_path.empty()) spec.hits_path = path + ".hits.jsonl";
  spec.resume = bool_or(doc, "resume", spec.resume);

  if (spec.ligand_count == 0) throw std::invalid_argument("job: ligands must be >= 1");
  if (spec.min_atoms < 4 || spec.max_atoms < spec.min_atoms) {
    throw std::invalid_argument("job: need 4 <= min_atoms <= max_atoms");
  }
  return spec;
}

JobServer::JobServer(JobServerOptions options) : options_(std::move(options)) {
  const util::ScopedSerial own(serial_);
  if (options_.poll_ms < 0) throw std::invalid_argument("JobServer: poll_ms must be >= 0");
}

std::vector<std::string> JobServer::scan_jobs_dir() const {
  std::vector<std::string> pending;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(options_.jobs_dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > std::strlen(kJobSuffix) &&
        name.compare(name.size() - std::strlen(kJobSuffix), std::string::npos, kJobSuffix) ==
            0) {
      pending.push_back(entry.path().string());
    }
  }
  if (ec) throw std::runtime_error("JobServer: cannot scan " + options_.jobs_dir + ": " +
                                   ec.message());
  std::sort(pending.begin(), pending.end());
  return pending;
}

JobOutcome JobServer::process_job(const std::string& path) {
  const util::ScopedSerial own(serial_);
  return process_job_impl(path);
}

JobOutcome JobServer::process_job_impl(const std::string& path) {
  JobOutcome outcome;
  outcome.job_path = path;
  try {
    const JobSpec spec = parse_job_file(path);
    outcome.name = spec.name;
    outcome.hits_path = spec.hits_path;
    if (options_.log != nullptr) {
      *options_.log << "job " << spec.name << ": " << spec.ligand_count << " ligands, batch "
                    << spec.batch_size << ", top " << spec.top_percent << "%"
                    << (spec.resume ? ", resumable" : "") << "\n";
    }

    const mol::Molecule receptor = [&spec] {
      if (spec.receptor_atoms > 0) {
        mol::ReceptorParams rp;
        rp.atom_count = spec.receptor_atoms;
        rp.seed = spec.receptor_seed;
        return mol::make_receptor(rp);
      }
      return mol::make_dataset_receptor(dataset_from(spec.dataset));
    }();

    mol::LibraryParams lib;
    lib.count = spec.ligand_count;
    lib.min_atoms = spec.min_atoms;
    lib.max_atoms = spec.max_atoms;
    lib.seed = spec.library_seed;
    const std::vector<mol::Molecule> ligands = mol::make_ligand_library(lib);

    ScreeningOptions screening;
    screening.params = mh_from(spec.mh);
    if (spec.population_per_spot > 0) {
      screening.params.population_per_spot = spec.population_per_spot;
    }
    screening.exec.strategy = strategy_from(spec.strategy);
    screening.exec.observer = options_.observer;
    screening.scale = spec.scale;
    screening.seed = spec.seed;
    VirtualScreeningEngine engine(receptor, node_from(spec.node), screening);

    BatchScreeningOptions batch;
    batch.batch_size = spec.batch_size;
    batch.top_percent = spec.top_percent;
    batch.hits_path = spec.hits_path;
    batch.resume = spec.resume;
    batch.job_name = spec.name;
    batch.observer = options_.observer;
    batch.should_stop = options_.should_stop;
    BatchScreener screener(engine, batch);
    outcome.result = screener.run(ligands);
    outcome.interrupted = outcome.result.interrupted;
    outcome.ok = true;

    std::error_code ec;
    if (outcome.interrupted) {
      // Keep the job file: the next serve run resumes it from the stream.
      if (options_.log != nullptr) {
        *options_.log << "job " << spec.name << ": interrupted after "
                      << outcome.result.completed << "/" << outcome.result.admitted
                      << " ligands (stream flushed, job kept for resume)\n";
      }
    } else {
      fs::rename(path, path + ".done", ec);
      if (ec && options_.log != nullptr) {
        *options_.log << "job " << spec.name << ": warning: cannot rename to .done: "
                      << ec.message() << "\n";
      }
      if (options_.log != nullptr) {
        *options_.log << "job " << spec.name << ": done — " << outcome.result.retained.size()
                      << "/" << outcome.result.admitted << " hits retained";
        if (outcome.result.resumed_skips > 0) {
          *options_.log << " (" << outcome.result.resumed_skips << " resumed)";
        }
        *options_.log << ", " << outcome.hits_path << "\n";
      }
    }
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
    std::error_code ec;
    fs::rename(path, path + ".failed", ec);  // never reprocess a bad job
    if (options_.log != nullptr) {
      *options_.log << "job " << (outcome.name.empty() ? path : outcome.name)
                    << ": FAILED: " << outcome.error << "\n";
    }
  }
  if (obs::Observer* o = options_.observer) {
    o->metrics.counter(outcome.ok ? "vs.serve.jobs_completed" : "vs.serve.jobs_failed").add();
  }
  return outcome;
}

std::vector<JobOutcome> JobServer::serve_directory() {
  const util::ScopedSerial own(serial_);
  if (options_.jobs_dir.empty()) {
    throw std::invalid_argument("JobServer: directory mode needs jobs_dir");
  }
  std::vector<JobOutcome> outcomes;
  while (!stop_requested()) {
    const std::vector<std::string> pending = scan_jobs_dir();
    if (pending.empty()) {
      if (options_.drain) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
      continue;
    }
    for (const std::string& path : pending) {
      if (stop_requested()) return outcomes;
      outcomes.push_back(process_job_impl(path));
      if (outcomes.back().interrupted) return outcomes;
      if (options_.max_jobs != 0 && outcomes.size() >= options_.max_jobs) return outcomes;
    }
  }
  return outcomes;
}

std::vector<JobOutcome> JobServer::serve_stream(std::istream& in) {
  const util::ScopedSerial own(serial_);
  std::vector<JobOutcome> outcomes;
  std::string line;
  while (!stop_requested() && std::getline(in, line)) {
    // Trim whitespace; blank lines keep the protocol newline-tolerant.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    const std::string path = line.substr(first, last - first + 1);
    outcomes.push_back(process_job_impl(path));
    if (outcomes.back().interrupted) break;
    if (options_.max_jobs != 0 && outcomes.size() >= options_.max_jobs) break;
  }
  return outcomes;
}

}  // namespace metadock::vs
