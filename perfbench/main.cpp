// End-to-end benchmark of the A4NN workflow: one workload per process.
//
//   perfbench --workload <search-serial|search-parallel|serve|stream>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints a context line (pinned environment, protocol, breakdown tables)
// and then, as the last line of standard output, one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// timed untraced; with --trace 1 they are its per-layer metrics from a
// traced run. Every workload reports every metric of the list: a per-layer
// metric of a module the workload never calls reads 0 and is named in the
// context line. A failed correctness check exits 1; bad arguments exit 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "util/fsutil.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Json;

bool parse(int argc, char** argv, perfbench::Options& opt) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!end || *end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed;
}

/// Numbers printed with every digit, so repeated runs never read alike by
/// rounding.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return Json(s).dump(); }

/// Orders the report's metrics as the manifest lists them and checks each
/// name and unit against it. Per-layer metrics the workload did not report
/// are modules it bypasses: they read 0 and are returned. A missing
/// end-to-end metric, or a metric the manifest lacks, throws.
std::vector<std::string> complete_metrics(const Json& manifest, bool trace,
                                          perfbench::Report& report) {
  std::vector<perfbench::Metric> ordered;
  std::vector<std::string> bypassed;
  std::size_t found = 0;
  for (const Json& m : manifest.at(trace ? "per_layer" : "end_to_end")
                           .as_array()) {
    const std::string& name = m.at("name").as_string();
    const std::string& unit = m.at("unit").as_string();
    const auto it =
        std::find_if(report.metrics.begin(), report.metrics.end(),
                     [&](const perfbench::Metric& r) { return r.name == name; });
    if (it == report.metrics.end()) {
      if (!trace) throw std::runtime_error("no value for metric " + name);
      ordered.push_back({name, 0.0, unit});
      bypassed.push_back(name);
      continue;
    }
    if (it->unit != unit)
      throw std::runtime_error("metric " + name + " measured in " + it->unit +
                               ", listed in " + unit);
    ordered.push_back(*it);
    ++found;
  }
  if (found != report.metrics.size())
    throw std::runtime_error("the workload reports metrics BENCHMARK.json "
                             "does not list");
  report.metrics = std::move(ordered);
  return bypassed;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <search-serial|search-parallel|"
                 "serve|stream> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const Json env = perfbench::pin_environment();

  perfbench::Report report;
  std::vector<std::string> bypassed;
  try {
    // The metric list is the manifest beside the sources, read first so a
    // checkout without it fails before any work.
    const Json manifest =
        Json::parse(a4nn::util::read_file("BENCHMARK.json"));
    if (opt.workload == "search-serial") {
      report = perfbench::run_search(opt, /*parallel=*/false);
    } else if (opt.workload == "search-parallel") {
      report = perfbench::run_search(opt, /*parallel=*/true);
    } else if (opt.workload == "serve") {
      report = perfbench::run_serve(opt);
    } else if (opt.workload == "stream") {
      report = perfbench::run_stream(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    bypassed = complete_metrics(manifest, opt.trace, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  Json context = report.context;
  context["workload"] = opt.workload;
  context["seed"] = static_cast<double>(opt.seed);
  context["environment"] = env;
  context["errors"] = Json(report.errors);
  if (opt.trace) context["not_exercised"] = Json(bypassed);
  std::printf("context %s\n", context.dump().c_str());

  std::string line = "{\"correct\": ";
  line += report.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i) line += ", ";
    line += quoted(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.errors.empty() ? 0 : 1;
}
