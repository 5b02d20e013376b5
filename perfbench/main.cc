// The end-to-end benchmark. One process runs one workload:
//
//   perfbench --workload capture|lineage|serve|ooc --seed N --seconds S
//             --trace 0|1 [--size full|smoke] [--out-dir DIR]
//             [--references FILE] [--commit SHA] [--emit-digests FILE]
//
// The last line of standard output is the result object; diagnostics go
// to standard error. See README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "capture|lineage|serve|ooc --seed N --seconds S --trace 0|1 "
               "[--size full|smoke] [--out-dir DIR] [--references FILE] "
               "[--commit SHA] [--emit-digests FILE]\n",
               why);
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0) {
        return Usage("--seed takes a non-negative integer");
      }
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0) {
        return Usage("--seconds takes a positive number");
      }
      options.seconds = number;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") {
        return Usage("--size takes full or smoke");
      }
      options.size =
          value == "smoke" ? perfbench::Size::kSmoke : perfbench::Size::kFull;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--references") {
      options.references = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--emit-digests") {
      options.emit_digests = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  void (*workload)(perfbench::Run&) = nullptr;
  if (options.workload == "capture") workload = perfbench::RunCapture;
  if (options.workload == "lineage") workload = perfbench::RunLineage;
  if (options.workload == "serve") workload = perfbench::RunServe;
  if (options.workload == "ooc") workload = perfbench::RunOoc;
  if (workload == nullptr) return Usage("unknown workload");

  std::filesystem::create_directories(options.out_dir);
  perfbench::Run run(options);
  workload(run);
  const double attempted = static_cast<double>(run.attempted());
  run.EndToEnd("ok_frac",
               attempted > 0 ? 1.0 - static_cast<double>(run.failed()) /
                                         attempted
                             : 0.0);
  run.Layer("failed_frac", attempted > 0 ? static_cast<double>(run.failed()) /
                                               attempted
                                         : 1.0);
  run.Check(run.attempted() > 0, "no operation was attempted");
  return run.Finish();
}
