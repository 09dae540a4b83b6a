// End-to-end benchmark of bdbms.
//
//   e2ebench --workload <curation|sequence_search|durable_ingest>
//            --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// One closed-loop caller drives Database::Execute in process. With
// --trace 0 the last line of stdout is a JSON object with the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, and the spans
// are written to <workdir>/trace-<workload>-<seed>.jsonl. Lines before it
// starting with '#' are reference figures (plain whole-run numbers).
// A failed check prints the reason on stderr and exits 2 without a
// result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "oracle.h"
#include "workloads.h"

namespace {

using e2ebench::Metrics;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
               why);
  std::exit(1);
}

void PrintMetrics(const Metrics& metrics) {
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = e2ebench::Clock::now();
  e2ebench::HostProbe probe;
  e2ebench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) Usage("flags take one value each");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");

  e2ebench::oracle::SelfTest();
  e2ebench::FreshDir(args.workdir);
  e2ebench::Tracer tracer;
  e2ebench::Tracer* t = args.trace ? &tracer : nullptr;
  e2ebench::Outcome out;
  if (args.workload == "curation") {
    out = e2ebench::RunCuration(args, process_start, probe, t);
  } else if (args.workload == "sequence_search") {
    out = e2ebench::RunSequenceSearch(args, process_start, probe, t);
  } else if (args.workload == "durable_ingest") {
    out = e2ebench::RunDurableIngest(args, process_start, probe, t);
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (t != nullptr) {
    std::string path = args.workdir + "/../trace-" + args.workload + "-" +
                       std::to_string(args.seed) + ".jsonl";
    e2ebench::Check(tracer.WriteJsonLines(path), "write " + path);
  }
  e2ebench::RemoveDir(args.workdir);

  std::printf("# reference (plain whole-run figures): {");
  PrintMetrics(out.reference);
  std::printf("}\n{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  PrintMetrics(out.metrics);
  std::printf("}}\n");
  return 0;
}
