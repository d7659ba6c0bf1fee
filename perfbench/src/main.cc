// perfbench: the repository benchmark program. One process runs one
// workload for --seconds and prints, as its last stdout line, one JSON
// object {correct, attempted, failed, metrics}. See README.md.
//
//   perfbench --workload <paper_sweep|huge_stream|live_ramp|twin_flash>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--source <id>] [--spans <path>]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--source <id>] [--spans <path>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed must be an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--source") {
      args.source = value;
    } else if (flag == "--spans") {
      args.span_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

/// The host stamp of the result: what a pinned-revision A/B must match.
void PrintHost(const Args& args) {
  std::printf("{\"host\": {\"source\": ");
  PrintJsonString(args.source);
  std::printf(", \"nproc\": %u, \"compiler\": ", NumCpus());
  PrintJsonString(__VERSION__);
  std::printf(", \"build_type\": ");
  PrintJsonString(PERFBENCH_BUILD_TYPE);
  std::printf(", \"workload\": ");
  PrintJsonString(args.workload);
  std::printf(", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d}}\n",
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  SpanLog span_log;
  SpanLog* spans = args.trace ? &span_log : nullptr;
  Result result;
  if (args.workload == "paper_sweep") {
    result = RunPaperSweep(args, spans);
  } else if (args.workload == "huge_stream") {
    result = RunHugeStream(args, spans);
  } else if (args.workload == "live_ramp") {
    result = RunLiveRamp(args, spans);
  } else if (args.workload == "twin_flash") {
    result = RunTwinFlash(args, spans);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (spans != nullptr && !args.span_path.empty() &&
      !span_log.WriteJsonl(args.span_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.span_path.c_str());
    return 1;
  }

  // A metric the workload could not measure fails the run.
  const auto& expected = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  result.Check(result.metrics.size() == expected.size(),
               "metric list does not match the benchmark's table");
  for (size_t i = 0; i < result.metrics.size() && i < expected.size(); ++i) {
    const Metric& m = result.metrics[i];
    result.Check(m.name == expected[i].first && std::isfinite(m.value),
                 "bad metric " + m.name);
  }
  for (const std::string& v : result.violations) {
    std::fprintf(stderr, "perfbench: violation: %s\n", v.c_str());
  }

  PrintHost(args);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s", i ? ", " : "");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
