// Ablation: cold-start latency and peak memory of the mmap package store
// (storage/package_store.h) served straight from the mapping, versus the
// same file opened and then materialized in memory (core::ClonePackage:
// every payload copied to the heap, every posting chain and MRKD digest
// re-derived — what an engine update's clone costs), at 10x-100x the image
// count of the unit-test corpora.
//
// Each measurement runs in a freshly forked+exec'd child so "cold start"
// and "peak RSS" (VmHWM from /proc/self/status) are per-scenario process
// facts, not residue of whatever ran before in the same address space. The
// child loads the deployment from disk with one backend, serves and
// verifies one query, and reports ready/first-query wall time plus its
// high-water mark on stdout.
//
// What the numbers must show (checked at the largest scale in full mode):
//   * store cold start >= 10x faster than materializing — the store opens
//     by digest-checking the mapped metadata sections and never touches
//     image payload pages, while the materialized copy reads and copies
//     the whole corpus and rebuilds every posting chain digest;
//   * store peak RSS below the corpus payload size — payloads stay in
//     evictable page cache and only fault in for the top-k actually
//     served, while the materialized copy puts the entire corpus on the
//     process heap.
//
// Usage: abl_store [--smoke] [--json <path>]   (the internal --worker mode
// is exec'd by the binary itself; not for direct use)

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/update.h"
#include "storage/format.h"
#include "storage/package_store.h"

namespace imageproof::bench {
namespace {

struct Scale {
  size_t num_images;
  size_t blob_bytes;
};

std::string StorePath(const std::string& dir) { return dir + "/package.ipk"; }
std::string ParamsPath(const std::string& dir) { return dir + "/params.bin"; }

// Peak resident set of this process, from /proc/self/status (kB).
size_t VmHwmKb() {
  FILE* f = std::fopen("/proc/self/status", "rb");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

// --- worker modes (run in a fresh process per measurement) --------------

int WorkerBuild(const std::string& dir, size_t num_images, size_t blob_bytes) {
  (void)system(("mkdir -p " + dir).c_str());
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = num_images;
  cp.num_clusters = 1024;
  cp.seed = 7;
  auto corpus = workload::GenerateCorpus(cp);
  size_t corpus_bytes = 0;
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) {
    blobs[id] = workload::GenerateImageBlob(id, blob_bytes);
    corpus_bytes += blob_bytes;
  }
  workload::CodebookParams cbp;
  cbp.num_clusters = 1024;
  cbp.dims = 32;
  cbp.seed = 8;
  core::OwnerOutput owner = core::BuildDeployment(
      config, workload::GenerateCodebook(cbp), std::move(corpus),
      std::move(blobs), 9);
  if (!storage::PackageStore::Write(StorePath(dir), *owner.package).ok() ||
      !storage::SavePublicParams(ParamsPath(dir), owner.public_params).ok()) {
    std::fprintf(stderr, "abl_store: build write failed\n");
    return 1;
  }
  std::printf("WORKER corpus_bytes=%zu\n", corpus_bytes);
  return 0;
}

// Loads with one backend, serves + verifies one query, reports timings and
// the process high-water mark.
int WorkerLoad(const std::string& dir, const std::string& backend) {
  auto params = storage::LoadPublicParams(ParamsPath(dir));
  if (!params.ok()) {
    std::fprintf(stderr, "abl_store: %s\n", params.status().message().c_str());
    return 1;
  }
  Stopwatch ready;
  storage::OpenOptions opts;
  opts.params = &*params;
  auto loaded = storage::PackageStore::Open(StorePath(dir), opts);
  if (!loaded.ok()) {
    std::fprintf(stderr, "abl_store: %s\n", loaded.status().message().c_str());
    return 1;
  }
  std::unique_ptr<core::SpPackage> pkg = std::move(*loaded);
  if (backend == "materialized") {
    auto clone = core::ClonePackage(*pkg);
    if (!clone.ok()) {
      std::fprintf(stderr, "abl_store: %s\n",
                   clone.status().message().c_str());
      return 1;
    }
    pkg = std::move(*clone);  // drops the mapping: serve from the heap only
  }
  const double ready_ms = ready.ElapsedMillis();

  Stopwatch first;
  core::ServiceProvider sp(pkg.get());
  core::Client client(*params);
  auto features = workload::FeaturesFromBovw(pkg->codebook,
                                             pkg->corpus[3].second, 20, 0.25,
                                             0.2, 17);
  core::QueryResponse resp = sp.Query(features, 5);
  auto verified = client.Verify(features, 5, resp.vo);
  if (!verified.ok()) {
    std::fprintf(stderr, "abl_store: query did not verify: %s\n",
                 verified.status().message().c_str());
    return 1;
  }
  std::printf("WORKER ready_ms=%.3f first_query_ms=%.3f vmhwm_kb=%zu\n",
              ready_ms, first.ElapsedMillis(), VmHwmKb());
  return 0;
}

// --- parent: fork/exec one worker and parse its WORKER line -------------

struct WorkerResult {
  double ready_ms = 0;
  double first_query_ms = 0;
  size_t vmhwm_kb = 0;
  size_t corpus_bytes = 0;
  bool ok = false;
};

WorkerResult RunWorker(const char* self, std::vector<std::string> args) {
  WorkerResult res;
  int fds[2];
  if (pipe(fds) != 0) return res;
  pid_t pid = fork();
  if (pid < 0) return res;
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], 1);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(self));
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(self, argv.data());
    std::fprintf(stderr, "abl_store: execv failed\n");
    _exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fds[0]);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "abl_store: worker failed: %s\n", out.c_str());
    return res;
  }
  size_t at = out.find("WORKER ");
  if (at == std::string::npos) return res;
  std::string line = out.substr(at);
  (void)std::sscanf(line.c_str(),
                    "WORKER ready_ms=%lf first_query_ms=%lf vmhwm_kb=%zu",
                    &res.ready_ms, &res.first_query_ms, &res.vmhwm_kb);
  (void)std::sscanf(line.c_str(), "WORKER corpus_bytes=%zu",
                    &res.corpus_bytes);
  res.ok = true;
  return res;
}

int Main(int argc, char** argv) {
  // Worker dispatch happens before BenchReport flag parsing: these argv
  // shapes are produced only by RunWorker.
  if (argc >= 3 && std::strcmp(argv[1], "--worker") == 0) {
    std::string mode = argv[2];
    if (mode == "build" && argc == 6) {
      return WorkerBuild(argv[3], std::strtoul(argv[4], nullptr, 10),
                         std::strtoul(argv[5], nullptr, 10));
    }
    if (mode == "load" && argc == 5) return WorkerLoad(argv[3], argv[4]);
    std::fprintf(stderr, "abl_store: bad worker invocation\n");
    return 2;
  }

  InitBench(argc, argv, "abl_store");
  const bool smoke = SmokeMode();
  // Full mode: 10x to 100x the 100-image unit-test corpora, 128 KiB
  // payloads (a small stored image; 1.2 GiB of corpus at the top end).
  // Smoke: one small scale so CI exercises every code path in seconds.
  std::vector<Scale> scales = smoke
                                  ? std::vector<Scale>{{200, 4096}}
                                  : std::vector<Scale>{{1000, 131072},
                                                       {4000, 131072},
                                                       {10000, 131072}};

  std::printf("====================================================================\n");
  std::printf(
      "abl_store — cold start + peak RSS: mmap store vs materialized\n");
  std::printf("%8s %12s | %13s %13s %9s | %12s %12s %11s\n", "images",
              "corpus_MB", "mater_ms", "store_ms", "speedup", "mater_MB",
              "store_MB", "rss<corpus");
  std::printf("--------------------------------------------------------------------\n");

  bool criteria_ok = true;
  for (size_t i = 0; i < scales.size(); ++i) {
    const Scale& s = scales[i];
    std::string dir = "/tmp/imageproof_abl_store_" + std::to_string(s.num_images);
    auto built = RunWorker(argv[0], {"--worker", "build", dir,
                                     std::to_string(s.num_images),
                                     std::to_string(s.blob_bytes)});
    if (!built.ok) return FinishBench(1);
    auto mater = RunWorker(argv[0], {"--worker", "load", dir, "materialized"});
    auto store = RunWorker(argv[0], {"--worker", "load", dir, "store"});
    if (!mater.ok || !store.ok) return FinishBench(1);

    const double speedup =
        store.ready_ms > 0 ? mater.ready_ms / store.ready_ms : 0;
    const bool rss_below =
        store.vmhwm_kb * 1024.0 < static_cast<double>(built.corpus_bytes);
    std::printf("%8zu %12.1f | %13.1f %13.1f %8.1fx | %12.1f %12.1f %11s\n",
                s.num_images, built.corpus_bytes / (1024.0 * 1024.0),
                mater.ready_ms, store.ready_ms, speedup,
                mater.vmhwm_kb / 1024.0, store.vmhwm_kb / 1024.0,
                rss_below ? "yes" : "NO");

    const std::string prefix = "images_" + std::to_string(s.num_images) + ".";
    auto& report = BenchReport::Global();
    report.AddValue(prefix + "corpus_bytes", (double)built.corpus_bytes);
    report.AddValue(prefix + "materialized_ready_ms", mater.ready_ms);
    report.AddValue(prefix + "store_ready_ms", store.ready_ms);
    report.AddValue(prefix + "materialized_first_query_ms",
                    mater.first_query_ms);
    report.AddValue(prefix + "store_first_query_ms", store.first_query_ms);
    report.AddValue(prefix + "materialized_vmhwm_kb", (double)mater.vmhwm_kb);
    report.AddValue(prefix + "store_vmhwm_kb", (double)store.vmhwm_kb);
    report.AddValue(prefix + "cold_start_speedup", speedup);
    // Scale-independent copies at the largest scale of this run, so a smoke
    // report and the committed full-run baseline share keys and
    // scripts/bench_delta.py has something to compare (the smoke "largest"
    // is of course a much smaller corpus — the delta line labels the mode).
    if (i + 1 == scales.size()) {
      report.AddValue("largest.cold_start_speedup", speedup);
      report.AddValue("largest.materialized_ready_ms", mater.ready_ms);
      report.AddValue("largest.store_ready_ms", store.ready_ms);
      report.AddValue("largest.store_vmhwm_kb", (double)store.vmhwm_kb);
    }

    // The tentpole's acceptance bar, checked at the largest full scale.
    // Smoke scales are too small for the RSS claim (the process baseline
    // alone exceeds a 800 KiB corpus), so there the run just exercises the
    // machinery.
    if (!smoke && i + 1 == scales.size()) {
      if (speedup < 10.0) {
        std::fprintf(stderr,
                     "abl_store: FAIL cold-start speedup %.1fx < 10x\n",
                     speedup);
        criteria_ok = false;
      }
      if (!rss_below) {
        std::fprintf(stderr, "abl_store: FAIL store peak RSS %zu kB >= "
                             "corpus %zu bytes\n",
                     store.vmhwm_kb, built.corpus_bytes);
        criteria_ok = false;
      }
    }
    (void)system(("rm -rf " + dir).c_str());
  }
  if (!smoke) {
    std::printf("%s: cold-start speedup >= 10x and store RSS below corpus "
                "at the largest scale\n",
                criteria_ok ? "PASS" : "FAIL");
  }
  return FinishBench(criteria_ok ? 0 : 1);
}

}  // namespace
}  // namespace imageproof::bench

int main(int argc, char** argv) { return imageproof::bench::Main(argc, argv); }
