// perfbench: the repository's end-to-end benchmark, one workload per
// process.
//
//   perfbench --workload dag-file|indep-1m|serve-mixed --seed N
//             --seconds S --trace 0|1 --workdir DIR
//             [--source-digest HEX] [--git-commit SHA]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics, the span rollup and the
// tracing overhead, and write the spans to DIR. Stdout ends with one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exit status: 0
// when every op was correct, 1 when one was not, 2 on bad arguments or an
// unoptimized build, 3 when the workload cannot run here.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"latency_ms.min", "ms"},
    {"makespan_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"e2e.latency_ms.p50", "ms"},
    {"e2e.latency_ms.p90", "ms"},
    {"e2e.tasks_per_s", "tasks/s"},
    {"io.load_ms", "ms"},
    {"io.parse_ms", "ms"},
    {"io.parse_mb_per_s", "MB/s"},
    {"io.bytes", "bytes"},
    {"dag.rank_ms", "ms"},
    {"dag.tasks", "count"},
    {"dag.edges", "count"},
    {"bounds.dag_lb_ms", "ms"},
    {"bounds.area_lb_ms", "ms"},
    {"core.engine_ms", "ms"},
    {"core.key_build_ms", "ms"},
    {"core.sort_ms", "ms"},
    {"core.dispatch_ms", "ms"},
    {"core.ready_update_ms", "ms"},
    {"core.spoliation_scan_ms", "ms"},
    {"core.spoliations", "count"},
    {"sched.check_ms", "ms"},
    {"sched.metrics_ms", "ms"},
    {"serve.submit_us", "us"},
    {"serve.in_service_ms", "ms"},
    {"serve.exec_ms", "ms"},
    {"serve.wait_ms.p50", "ms"},
    {"serve.wait_ms.p90", "ms"},
    {"serve.reply_us", "us"},
    {"serve.completed", "count"},
    {"serve.rejected", "count"},
    {"model.generate_ms", "ms"},
    {"proc.cpu_cores", "cores"},
    {"proc.minor_faults_per_op", "faults/op"},
    {"self.io_ms", "ms"},
    {"self.dag_ms", "ms"},
    {"self.bounds_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.sched_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"trace.e2e_ms", "ms"},
    {"trace.untraced_e2e_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.accounted_pct", "%"},
};

/// Span name -> per-layer metric holding the median duration of its spans.
const std::map<std::string, std::string>& span_medians() {
  static const std::map<std::string, std::string> names = {
      {"io.load", "io.load_ms"},         {"io.parse", "io.parse_ms"},
      {"dag.rank", "dag.rank_ms"},       {"bounds.dag_lb", "bounds.dag_lb_ms"},
      {"sched.check", "sched.check_ms"}, {"sched.metrics", "sched.metrics_ms"},
  };
  return names;
}

/// Layers whose self time the traced run reports; "bench" is the
/// benchmark's own share of an op (glue and span recording).
constexpr const char* kLayers[] = {"io",    "dag",   "bounds", "core",
                                   "sched", "serve", "bench"};

struct Args {
  RunConfig config;
  std::string source_digest = "unknown";
  std::string git_commit = "unknown";
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->config.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args->config.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->config.seconds = std::stod(value);
      } else if (key == "--trace") {
        args->config.trace = value == "1";
      } else if (key == "--workdir") {
        args->config.workdir = value;
      } else if (key == "--source-digest") {
        args->source_digest = value;
      } else if (key == "--git-commit") {
        args->git_commit = value;
      } else {
        std::cerr << "unknown option " << key << '\n';
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << key << ": " << value << '\n';
      return false;
    }
  }
  return have_workload && !args->config.workdir.empty() &&
         args->config.seconds > 0.0 && argc % 2 == 1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the launcher's footprint: it survives execve.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Compare this run's exact counts with every earlier run of the same
/// source, workload and seed recorded in `path`, then record them. Returns
/// one message per count that differs.
std::vector<std::string> check_exact_counts(const std::string& path,
                                            const Args& args,
                                            const std::map<std::string, double>& counts) {
  const std::string prefix = args.source_digest + '\t' + args.config.workload +
                             '\t' + std::to_string(args.config.seed) + '\t';
  std::map<std::string, std::string> earlier;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind(prefix, 0) != 0) continue;
      const std::string rest = line.substr(prefix.size());
      const auto tab = rest.find('\t');
      if (tab != std::string::npos) earlier[rest.substr(0, tab)] = rest.substr(tab + 1);
    }
  }
  std::vector<std::string> mismatches;
  std::ofstream out(path, std::ios::app);
  for (const auto& [name, value] : counts) {
    const std::string text = number(value);
    const auto it = earlier.find(name);
    if (it == earlier.end()) {
      out << prefix << name << '\t' << text << '\n';
    } else if (it->second != text) {
      mismatches.push_back("exact count " + name + " is " + text +
                           ", an earlier run with this seed had " + it->second);
    }
  }
  return mismatches;
}

/// Per-layer metrics of a traced run: directly measured figures, span
/// medians, the self-time rollup, the tracing overhead and the counts.
std::map<std::string, double> layer_metrics(const WorkloadResult& result) {
  std::map<std::string, double> layer = result.layer;
  const std::vector<Span>& spans = result.spans.spans();

  std::map<std::string, std::vector<double>> durations;
  for (const Span& s : spans) {
    const auto it = span_medians().find(s.name);
    if (it != span_medians().end()) {
      durations[it->second].push_back(ms_between(s.start, s.end));
    }
  }
  for (const auto& [metric, values] : durations) layer[metric] = median(values);
  for (const auto& [name, value] : result.exact_counts) layer[name] = value;
  if (layer.count("io.bytes") && layer["io.parse_ms"] > 0.0) {
    layer["io.parse_mb_per_s"] =
        layer["io.bytes"] * 1e-6 / (layer["io.parse_ms"] * 1e-3);
  }

  const LayerRollup roll = rollup(spans);
  const double ops = static_cast<double>(roll.roots);
  if (ops > 0.0) {
    double named = 0.0;
    for (const char* name : kLayers) {
      const auto it = roll.self_ns.find(name);
      const double ms = it == roll.self_ns.end() ? 0.0 : it->second * 1e-6 / ops;
      layer[std::string("self.") + name + "_ms"] = ms;
      if (std::string(name) != "bench") named += ms;
    }
    const double traced = static_cast<double>(roll.root_ns) * 1e-6 / ops;
    const double untraced = mean(result.latency_ms);
    layer["trace.e2e_ms"] = traced;
    layer["trace.untraced_e2e_ms"] = untraced;
    layer["trace.overhead_ms"] = traced - untraced;
    layer["trace.accounted_pct"] = 100.0 * (named + traced - untraced) / traced;
  }

  // End-to-end figures that move with the machine's other load by more
  // than a gate could allow (see README.md): reported, not gated.
  layer["e2e.latency_ms.p50"] = quantile(result.latency_ms, 0.5);
  layer["e2e.latency_ms.p90"] = quantile(result.latency_ms, 0.9);
  layer["e2e.tasks_per_s"] = result.validated_tasks / result.timed_wall_s;
  const double timed_ops = static_cast<double>(result.timed_ops) + ops;
  if (result.timed_wall_s > 0.0) {
    layer["proc.cpu_cores"] = result.cpu_s / result.timed_wall_s;
  }
  if (timed_ops > 0.0) {
    layer["proc.minor_faults_per_op"] = result.minor_faults / timed_ops;
  }
  return layer;
}

int run(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to measure an unoptimized build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 2;
#endif
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--source-digest HEX] "
                 "[--git-commit SHA]\n";
    return 2;
  }
  const RunConfig& config = args.config;
  std::filesystem::create_directories(config.workdir);

  WorkloadResult result;
  try {
    if (config.workload == "dag-file") {
      result = run_dag_file(config);
    } else if (config.workload == "indep-1m") {
      result = run_indep_1m(config);
    } else if (config.workload == "serve-mixed") {
      result = run_serve_mixed(config);
    } else {
      std::cerr << "unknown workload '" << config.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 3;
  }

  for (const std::string& why : check_exact_counts(
           config.workdir + "/exact-counts.tsv", args, result.exact_counts)) {
    result.fail(why);
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!config.trace) {
    const std::map<std::string, double> values = {
        {"latency_ms.min", mean(result.fastest_ms)},
        {"makespan_ratio", result.makespan_ratio},
        {"peak_rss_mb", peak_rss_mb()},
        {"setup_s", quantile(result.setup_s, 0.0)},
    };
    for (const MetricDef& def : kEndToEnd) metrics.emplace_back(def, values.at(def.name));
  } else {
    const std::string spans_path = config.workdir + "/spans-" + config.workload +
                                   "-" + std::to_string(config.seed) + ".tsv";
    if (!result.spans.write_tsv(spans_path)) {
      result.fail("cannot write " + spans_path);
    }
    const std::map<std::string, double> layer = layer_metrics(result);
    for (const MetricDef& def : kPerLayer) {
      const auto it = layer.find(def.name);
      metrics.emplace_back(def, it == layer.end() ? 0.0 : it->second);
    }
  }
  for (const auto& [def, value] : metrics) {
    if (!std::isfinite(value)) result.fail(std::string("metric ") + def.name + " is not finite");
  }
  if (result.timed_ops == 0) result.fail("no timed op completed");
  const bool correct = result.failed == 0;

  std::cout << "workload " << config.workload << " seed " << config.seed
            << (config.trace ? " traced" : "") << ": "
            << result.timed_ops << " untraced timed ops, "
            << result.attempted << " attempted, " << result.failed
            << " failed\n";
  for (const std::string& why : result.errors) std::cout << "  FAILED: " << why << '\n';
  for (const auto& [def, value] : metrics) {
    std::printf("  %-26s %14.6g %s\n", def.name, value, def.unit);
  }
  std::cout << "provenance {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu_model\": \"" << json_escape(cpu_model())
            << "\", \"compiler\": \"" << json_escape(__VERSION__)
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"git_commit\": \"" << json_escape(args.git_commit)
            << "\", \"source_digest\": \"" << json_escape(args.source_digest)
            << "\"}\n";

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(result.attempted, 1)
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    json << (i ? ", " : "") << '"' << def.name << "\": {\"value\": "
         << number(std::isfinite(value) ? value : 0.0) << ", \"unit\": \""
         << def.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
