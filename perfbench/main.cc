// Seeded end-to-end benchmark driver. One run measures one workload for a
// fixed time and prints, as its last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with every
// span off; with --trace 1 they are the per-layer ones (see METRICS.md).
// A PERFBENCH_INFO line before it records the data sizes and the host.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  // Timed runs keep the program's tracer off; the traced run turns it on
  // only inside its traced blocks.
  perfbench::SpanLog::Get().Enable(false);

  perfbench::Report report;
  perfbench::AddHostInfo(&report);
  report.Info("workload", args.workload);
  report.Info("seed", static_cast<double>(args.seed));

  const std::string& w = args.workload;
  if (w == "fig07_cold_pbsm") {
    perfbench::RunFig07(args, pbsm::JoinMethod::kPbsm, &report);
  } else if (w == "fig07_cold_rtree") {
    perfbench::RunFig07(args, pbsm::JoinMethod::kRtree, &report);
  } else if (w == "fig07_cold_inl") {
    perfbench::RunFig07(args, pbsm::JoinMethod::kInl, &report);
  } else if (w == "service_read") {
    perfbench::RunService(args, /*sharded=*/false, &report);
  } else if (w == "service_sharded") {
    perfbench::RunService(args, /*sharded=*/true, &report);
  } else if (w == "view_churn") {
    perfbench::RunViewChurn(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
    return 2;
  }

  if (args.trace) {
    std::filesystem::create_directories(args.workdir);
    perfbench::SpanLog::Get().Dump(args.workdir + "/trace-" + w + ".json");
  }
  std::printf("PERFBENCH_INFO %s\n", report.InfoJson().c_str());
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return 0;
}
