// BenchReport integration for the google-benchmark micro binaries.
//
// The micro_* binaries historically were plain BENCHMARK_MAIN() programs:
// useful interactively, invisible to the JSON report pipeline. MicroBenchMain
// gives them the same contract as the fig*/abl_* binaries —
//
//   micro_foo [--json <path>] [--smoke] [--benchmark_* flags...]
//
// --json / --smoke are consumed here (BenchReport::Init aborts on flags it
// does not know, so the benchmark library's own flags must never reach it);
// everything else is forwarded to benchmark::Initialize. --smoke appends
// --benchmark_min_time=0.01 so CI smoke runs finish in seconds. Each run is
// captured into the report as named scalars:
//
//   <sanitized run name>_ns_per_iter
//   <sanitized run name>_items_per_sec   (when SetItemsProcessed was used)
//
// alongside the normal console table, then FinishBench writes the JSON.
// A benchmark that calls SkipWithError (e.g. a failed correctness check
// before timing) makes the binary exit nonzero.

#ifndef IMAGEPROOF_BENCH_MICRO_UTIL_H_
#define IMAGEPROOF_BENCH_MICRO_UTIL_H_

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace imageproof::bench {

// Console output plus BenchReport capture. Aggregate rows (mean/median from
// --benchmark_repetitions) are skipped: the per-iteration rows are the data.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) errored_ = true;
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string key = Sanitize(run.benchmark_name());
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      BenchReport::Global().AddValue(
          key + "_ns_per_iter", run.real_accumulated_time / iters * 1e9);
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        BenchReport::Global().AddValue(key + "_items_per_sec",
                                       it->second.value);
      }
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  bool errored() const { return errored_; }

 private:
  bool errored_ = false;

  static std::string Sanitize(const std::string& name) {
    std::string out = name;
    for (char& c : out) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
    }
    return out;
  }
};

inline int MicroBenchMain(int argc, char** argv, const char* name) {
  // Split argv: BenchReport flags stay here, the rest goes to benchmark.
  std::vector<char*> own = {argv[0]}, fwd = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      own.push_back(argv[i]);
      own.push_back(argv[i + 1]);
      ++i;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      own.push_back(argv[i]);
    } else {
      fwd.push_back(argv[i]);
    }
  }
  int own_argc = static_cast<int>(own.size());
  BenchReport::Global().Init(own_argc, own.data(), name);
  static char smoke_min_time[] = "--benchmark_min_time=0.01";
  if (SmokeMode()) fwd.push_back(smoke_min_time);

  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data())) {
    return FinishBench(1);
  }
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return FinishBench(reporter.errored() ? 1 : 0);
}

}  // namespace imageproof::bench

// Drop-in replacement for BENCHMARK_MAIN() in the micro binaries.
#define IMAGEPROOF_MICRO_BENCH_MAIN(name)                         \
  int main(int argc, char** argv) {                               \
    return imageproof::bench::MicroBenchMain(argc, argv, (name)); \
  }

#endif  // IMAGEPROOF_BENCH_MICRO_UTIL_H_
