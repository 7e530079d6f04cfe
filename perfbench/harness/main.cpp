// Repository benchmark harness binary. Normally launched by run.py:
//
//   perfbench --workload reproduce|serve_open|cluster_mixed --seed N
//             --seconds S --trace 0|1 [--setup-only] [--trace-out PATH]
//
// Prints human-readable notes, then one JSON line:
//   {"workload": ..., "correct": ..., "attempted": ..., "failed": ...,
//    "first_op_ns": ..., "metrics": {...}}
// Exit status: 0 when every correctness check passed, 1 on a mismatch,
// 2 on a usage error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"
#include "exec/thread_pool.h"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, RunOptions& o, std::string& trace_out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      std::cerr << "perfbench: unknown or incomplete argument '" << a << "'\n";
      return false;
    }
  }
  if (!(o.seconds > 0.0) || o.seconds > 600.0) {
    std::cerr << "perfbench: --seconds must be in (0, 600]\n";
    return false;
  }
  return o.workload == "reproduce" || o.workload == "serve_open" ||
         o.workload == "cluster_mixed";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string trace_out;
  if (!parse(argc, argv, options, trace_out)) {
    std::cerr << "usage: perfbench --workload reproduce|serve_open|"
                 "cluster_mixed --seed N --seconds S --trace 0|1 "
                 "[--setup-only] [--trace-out PATH]\n";
    return 2;
  }
  // Every workload runs the exec pool at nproc, whatever DWI_THREADS
  // says, so the benchmark measures the same configuration everywhere.
  dwi::exec::set_thread_count(host_threads());

  Tracer tracer;
  if (options.trace) options.tracer = &tracer;

  Report report;
  try {
    if (options.workload == "reproduce") {
      run_reproduce(options, report);
    } else if (options.workload == "serve_open") {
      run_serve_open(options, report);
    } else {
      run_cluster_mixed(options, report);
    }
    if (options.trace && !options.setup_only) {
      if (options.workload != "reproduce") reproduce_layer_metrics(options, report);
      if (options.workload != "serve_open") {
        serve_layer_metrics(options, 1.5, report);
      }
      if (options.workload != "cluster_mixed") {
        cluster_layer_metrics(options, 1.5, report);
      }
      run_layer_probes(options, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  if (options.trace && !trace_out.empty()) {
    write_chrome_trace(trace_out, tracer.spans());
    report.note("spans written to " + trace_out);
  }

  for (const auto& [name, m] : report.metrics.all()) {
    if (!valid_metric_name(name)) report.mismatch("invalid metric name " + name);
  }
  for (const std::string& line : report.notes) std::cout << line << "\n";
  std::cout << "{\"workload\": \"" << options.workload
            << "\", \"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"first_op_ns\": " << report.first_op_ns
            << ", \"metrics\": " << report.metrics.to_json() << "}"
            << std::endl;
  return report.correct ? 0 : 1;
}
