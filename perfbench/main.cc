// floq_perfbench: runs one benchmark workload and prints every metric it
// measured, one "name value unit" line each, then a JSON summary line
// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
// this binary and selects the metrics BENCHMARK.json names.
//
//   floq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --floq PATH --work-dir DIR
//
// Exits 1 when any answer was wrong, 2 on a usage or set-up error.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

int Usage() {
  std::fprintf(stderr,
               "usage: floq_perfbench --workload classify_batch|"
               "serve_registry_growth|serve_mixed --seed N --seconds S "
               "--trace 0|1 --floq PATH --work-dir DIR\n");
  return 2;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string work_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--floq") {
      options.floq_binary = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || work_dir.empty() || options.seconds <= 0) {
    return Usage();
  }

  // Registry directories and sockets live in a private directory under
  // the work dir; socket paths stay relative, hence short.
  const std::string run_dir = work_dir + "/" + options.workload + "-" +
                              std::to_string(options.seed) + "-" +
                              std::to_string(::getpid());
  std::error_code error;
  std::filesystem::remove_all(run_dir, error);
  std::filesystem::create_directories(run_dir, error);
  if (error || ::chdir(run_dir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot use %s\n", run_dir.c_str());
    return 2;
  }

  Report (*run)(const RunOptions&) = nullptr;
  if (options.workload == "classify_batch") {
    run = options.trace ? TraceClassify : RunClassify;
  } else if (options.workload == "serve_registry_growth") {
    run = options.trace ? TraceGrowth : RunGrowth;
  } else if (options.workload == "serve_mixed") {
    run = options.trace ? TraceMixed : RunMixed;
  } else {
    return Usage();
  }
  Report report = run(options);

  if (!report.spans.empty()) {
    const std::string path = work_dir + "/spans-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    if (!WriteSpans(report.spans, path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("spans: %zu written to %s\n", report.spans.size(),
                path.c_str());
  }

  const double error_rate =
      report.attempted == 0 ? 0.0
                            : double(report.failed) / double(report.attempted);
  report.Set("error_rate", error_rate, "failed/attempted",
             std::to_string(report.failed) + " of " +
                 std::to_string(report.attempted));

  std::string json = "{\"correct\": " +
                     std::string(report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-40s %16.6f %s%s%s%s\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.empty() ? "" : "  (",
                metric.note.c_str(), metric.note.empty() ? "" : ")");
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": " +
            JsonString(metric.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);

  ::chdir(work_dir.c_str());
  std::filesystem::remove_all(run_dir, error);
  return report.correct ? 0 : 1;
}
