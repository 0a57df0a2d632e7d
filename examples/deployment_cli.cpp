// Command-line deployment tool: the owner/SP/client lifecycle as separate
// process invocations with on-disk state — what an operational rollout of
// ImageProof looks like. A deployment directory is an epoch directory of the
// package store (storage/package_store.h): pkg-<epoch>.ipk files, a CURRENT
// pointer naming the served one, plus params.bin (the public parameters
// clients trust) and owner.key.
//
//   deployment_cli build <dir>    owner: build ADSs over a synthetic corpus
//                                 and publish them as epoch 1, verified
//                                 before the CURRENT flip
//   deployment_cli insert <dir>   owner: add one image through a
//                                 core::QueryEngine persisting to <dir>
//                                 (clone, re-sign, write the next epoch,
//                                 reopen and verify it, flip CURRENT), then
//                                 rewrite params.bin with the new signature
//   deployment_cli query <dir>    SP+client: mmap the CURRENT epoch (root
//                                 signature checked against the mapped
//                                 bytes), answer a query, verify it with
//                                 the stored params
//   deployment_cli inspect <file> print the on-disk layout of one .ipk file
//                                 (header/TOC facts)
//
// Sharded modes (src/shard — scatter-gather serving):
//
//   deployment_cli build-shards <dir> [n]   owner: partition the corpus
//                                     into n shards (default 4), each its
//                                     own epoch directory, plus the signed
//                                     shard manifest
//   deployment_cli query-shards <dir>       coordinator+client: fan a query
//                                     across all shards, assemble the
//                                     composite VO, verify the merge
//
// Exit codes follow the wire error taxonomy (net::ExitCodeForStatus), so a
// wrapper script can tell operational failure modes apart: 0 OK, 11
// rejected/bad input, 14 unavailable, 15 corrupted on-disk state, 16
// internal; 2 is usage error. A verification REJECT is 11 (kError: the
// check failed, the bytes were well-formed), a package that fails to parse
// is 15 (kCorrupted).
//
// Run without arguments for a self-contained demo of all three steps.
// Pass --metrics (any position) to dump the process metrics registry as
// JSON to stdout after the command finishes — SP stage timings, client
// verify timings, and VO size histograms for whatever the invocation ran.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "shard/composite_client.h"
#include "shard/coordinator.h"
#include "shard/planner.h"
#include "storage/format.h"
#include "storage/package_store.h"
#include "workload/synthetic.h"

using namespace imageproof;

namespace {

// Prints the taxonomy code alongside the message and converts to the shared
// exit-code mapping, so `deployment_cli query corrupt_dir; echo $?` is
// distinguishable from a verification reject.
int FailWith(const char* step, const Status& status) {
  std::printf("%s: [%s] %s\n", step, StatusCodeToString(status.code()),
              status.message().c_str());
  return net::ExitCodeForStatus(status);
}

std::string ParamsPath(const std::string& dir) { return dir + "/params.bin"; }
std::string KeyPath(const std::string& dir) { return dir + "/owner.key"; }

// The synthetic deployment `build` publishes: 500 images over a 256-word
// codebook, 512-bit RSA (toy-sized for demo speed).
core::OwnerOutput BuildOwner() {
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = 500;
  cp.num_clusters = 256;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 256;
  cbp.dims = 32;
  return core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                               std::move(corpus), std::move(blobs));
}

Status SaveKey(const std::string& dir, const crypto::RsaPrivateKey& key) {
  ByteWriter w;
  w.PutBlob(key.n.ToBytes());
  w.PutBlob(key.d.ToBytes());
  FILE* f = std::fopen(KeyPath(dir).c_str(), "wb");
  if (!f) return Status::Error("cannot open key file");
  std::fwrite(w.bytes().data(), 1, w.size(), f);
  std::fclose(f);
  return Status::Ok();
}

int Build(const std::string& dir) {
  (void)system(("mkdir -p " + dir).c_str());
  core::OwnerOutput owner = BuildOwner();

  // Clone/verify/swap, on disk: write epoch 1 crash-safely, reopen it from
  // the mapping with the root signature checked against the mapped bytes,
  // and only then flip CURRENT to publish it.
  constexpr uint64_t kEpoch = 1;
  auto path = storage::PackageStore::WriteEpoch(dir, kEpoch, *owner.package);
  if (!path.ok()) return FailWith("build: write epoch", path.status());
  storage::OpenOptions open_opts;
  open_opts.params = &owner.public_params;
  auto reopened = storage::PackageStore::Open(*path, open_opts);
  if (!reopened.ok()) return FailWith("build: verify epoch", reopened.status());
  if (Status st = storage::PackageStore::SetCurrentEpoch(dir, kEpoch);
      !st.ok()) {
    return FailWith("build: flip CURRENT", st);
  }
  if (Status st = storage::SavePublicParams(ParamsPath(dir),
                                            owner.public_params);
      !st.ok()) {
    return FailWith("build: write params", st);
  }
  // The private key stays with the owner (toy storage for the demo; a real
  // deployment would keep it in an HSM).
  if (Status st = SaveKey(dir, owner.private_key); !st.ok()) {
    return FailWith("build: write key", st);
  }
  std::printf("build: %zu images, %zu words -> %s (epoch %llu)\n",
              owner.package->corpus.size(), owner.package->codebook.size(),
              dir.c_str(), static_cast<unsigned long long>(kEpoch));
  return 0;
}

Result<crypto::RsaPrivateKey> LoadKey(const std::string& dir) {
  FILE* f = std::fopen(KeyPath(dir).c_str(), "rb");
  if (!f) return Result<crypto::RsaPrivateKey>::Error("missing owner.key");
  Bytes data;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  ByteReader r(data);
  Bytes nb, db;
  if (!r.GetBlob(&nb).ok() || !r.GetBlob(&db).ok()) {
    return Result<crypto::RsaPrivateKey>::Error("corrupt owner.key");
  }
  crypto::RsaPrivateKey key;
  key.n = crypto::BigInt::FromBytes(nb);
  key.d = crypto::BigInt::FromBytes(db);
  return key;
}

// Opens the CURRENT epoch of `dir` under the stored params (root signature
// checked against the mapped bytes).
Result<std::unique_ptr<core::SpPackage>> OpenServed(
    const std::string& dir, const core::PublicParams& params, uint64_t* epoch) {
  storage::OpenOptions open_opts;
  open_opts.params = &params;
  return storage::PackageStore::OpenCurrent(dir, open_opts, epoch);
}

int Insert(const std::string& dir) {
  auto params = storage::LoadPublicParams(ParamsPath(dir));
  if (!params.ok()) return FailWith("insert: load params", params.status());
  auto key = LoadKey(dir);
  if (!key.ok()) return FailWith("insert: load key", key.status());
  uint64_t epoch = 0;
  auto pkg = OpenServed(dir, *params, &epoch);
  if (!pkg.ok()) return FailWith("insert: open epoch", pkg.status());
  bovw::ImageId new_id = 1000000 + (*pkg)->corpus.size();
  bovw::BovwVector v = (*pkg)->corpus[3].second;  // near-duplicate of image 3

  // The engine's update path is the publish protocol: clone the served
  // epoch, apply and re-sign, write the next epoch, reopen and verify it,
  // and only then flip CURRENT.
  core::EngineOptions eo;
  eo.num_workers = 1;
  eo.persist_dir = dir;
  eo.initial_version = epoch;
  core::QueryEngine engine(std::shared_ptr<const core::SpPackage>(
                               std::move(pkg).value()),
                           *params, eo);
  auto stats = engine.InsertImage(*key, new_id, std::move(v),
                                  workload::GenerateImageBlob(new_id));
  if (!stats.ok()) return FailWith("insert", stats.status());
  std::shared_ptr<const core::Snapshot> snap = engine.CurrentSnapshot();
  // CURRENT already names the new epoch; clients need its signature.
  if (Status st = storage::SavePublicParams(ParamsPath(dir), snap->params);
      !st.ok()) {
    return FailWith("insert: rewrite params", st);
  }
  std::printf("insert: image %llu added as epoch %llu (%zu lists updated, "
              "%zu MRKD nodes rehashed), root re-signed\n",
              static_cast<unsigned long long>(new_id),
              static_cast<unsigned long long>(snap->version),
              stats->lists_updated, stats->mrkd_nodes_rehashed);
  return 0;
}

// The SP+client round: query image 3's neighborhood, verify the VO
// against the published params.
int RunQuery(const core::SpPackage* pkg, const core::PublicParams& params,
             const char* tag) {
  core::ServiceProvider sp(pkg);
  core::Client client(params);
  const auto& source = pkg->corpus[3].second;
  auto features =
      workload::FeaturesFromBovw(pkg->codebook, source, 40, 0.2, 0.1, 99);
  core::QueryResponse resp = sp.Query(features, 5);
  auto verified = client.Verify(features, 5, resp.vo);
  if (!verified.ok()) {
    std::string step = std::string(tag) + ": REJECTED";
    return FailWith(step.c_str(), verified.status());
  }
  std::printf("%s: verified top-%zu (VO %zu bytes):\n", tag,
              verified->topk.size(), resp.vo.TotalBytes());
  for (const auto& si : verified->topk) {
    std::printf("  image %-8llu similarity >= %.4f\n",
                static_cast<unsigned long long>(si.id), si.score);
  }
  return 0;
}

int Query(const std::string& dir) {
  auto params = storage::LoadPublicParams(ParamsPath(dir));
  if (!params.ok()) return FailWith("query: load params", params.status());
  uint64_t epoch = 0;
  auto pkg = OpenServed(dir, *params, &epoch);
  if (!pkg.ok()) return FailWith("query: open epoch", pkg.status());
  std::printf("query: serving epoch %llu from mmap\n",
              static_cast<unsigned long long>(epoch));
  return RunQuery(pkg->get(), *params, "query");
}

int Inspect(const std::string& file) {
  auto layout = storage::PackageStore::Inspect(file);
  if (!layout.ok()) return FailWith("inspect", layout.status());
  std::printf("inspect: %s\n", file.c_str());
  std::printf("  page_size   %u\n", layout->page_size);
  std::printf("  file_size   %llu\n",
              static_cast<unsigned long long>(layout->file_size));
  std::printf("  toc         offset %llu, %llu bytes, %zu sections\n",
              static_cast<unsigned long long>(layout->toc_offset),
              static_cast<unsigned long long>(layout->toc_size),
              layout->sections.size());
  static const char* kNames[] = {"?",        "config",   "codebook",
                                 "corpus",   "weights",  "filter_geo",
                                 "trees",    "postings", "image_index",
                                 "image_blobs"};
  for (const auto& s : layout->sections) {
    const char* name = s.id < sizeof(kNames) / sizeof(kNames[0])
                           ? kNames[s.id]
                           : "?";
    std::printf("  section %-12s offset %-10llu size %llu\n", name,
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size));
  }
  return 0;
}

// --- sharded modes (src/shard) ------------------------------------------

int BuildShards(const std::string& dir, uint32_t num_shards) {
  (void)system(("mkdir -p " + dir).c_str());
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = 500;
  cp.num_clusters = 256;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 256;
  cbp.dims = 32;
  shard::ShardedDeployment deployment = shard::ShardPlanner::Build(
      config, workload::GenerateCodebook(cbp), corpus, blobs, num_shards);

  if (Status st = shard::WriteShardedDeployment(dir, deployment); !st.ok()) {
    return FailWith("build-shards: write deployment", st);
  }
  if (Status st = storage::SavePublicParams(
          ParamsPath(dir), deployment.shards[0].public_params);
      !st.ok()) {
    return FailWith("build-shards: write params", st);
  }
  if (Status st = SaveKey(dir, deployment.keys.private_key); !st.ok()) {
    return FailWith("build-shards: write key", st);
  }
  std::printf("build-shards: %zu images across %u shards -> %s "
              "(manifest epoch %llu)\n",
              corpus.size(), deployment.manifest.num_shards, dir.c_str(),
              static_cast<unsigned long long>(deployment.manifest.epoch));
  for (uint32_t sid = 0; sid < deployment.manifest.num_shards; ++sid) {
    std::printf("  %s: %zu images\n", shard::ShardDirName(sid).c_str(),
                deployment.shards[sid].package->corpus.size());
  }
  return 0;
}

int QueryShards(const std::string& dir) {
  auto params = storage::LoadPublicParams(ParamsPath(dir));
  if (!params.ok()) {
    return FailWith("query-shards: load params", params.status());
  }
  auto key = LoadKey(dir);
  if (!key.ok()) return FailWith("query-shards: load key", key.status());
  auto opened = shard::OpenShardedDeployment(dir, *params);
  if (!opened.ok()) {
    return FailWith("query-shards: open deployment", opened.status());
  }

  // Pick the query target before the packages move into their backends.
  const uint32_t home =
      shard::ShardManifest::ShardOf(3, opened->manifest.num_shards);
  const core::SpPackage& home_pkg = *opened->shards[home].package;
  std::vector<std::vector<float>> features;
  for (const auto& [id, v] : home_pkg.corpus) {
    if (id == 3) {
      features =
          workload::FeaturesFromBovw(home_pkg.codebook, v, 40, 0.2, 0.1, 99);
      break;
    }
  }
  if (features.empty()) {
    return FailWith("query-shards", Status::Error("image 3 not found"));
  }

  std::vector<std::unique_ptr<shard::ShardBackend>> backends;
  for (auto& s : opened->shards) {
    backends.push_back(std::make_unique<shard::LocalShardBackend>(
        std::move(s.package), s.params, *key));
  }
  shard::Coordinator coordinator(std::move(backends),
                                 opened->manifest, *key);
  auto composite = coordinator.Query(features, 5);
  if (!composite.ok()) {
    return FailWith("query-shards: fan-out", composite.status());
  }
  shard::CompositeClient client(*params);
  auto verified = client.VerifyComposite(features, 5, *composite);
  if (!verified.ok()) {
    return FailWith("query-shards: REJECTED", verified.status());
  }
  std::printf("query-shards: verified global top-%zu over %u shards "
              "(manifest epoch %llu, composite %zu bytes):\n",
              verified->topk.size(), verified->num_shards,
              static_cast<unsigned long long>(verified->manifest_epoch),
              composite->size());
  for (const auto& si : verified->topk) {
    std::printf("  image %-8llu similarity = %.4f (shard %u)\n",
                static_cast<unsigned long long>(si.id), si.score,
                shard::ShardManifest::ShardOf(si.id, verified->num_shards));
  }
  return 0;
}

}  // namespace

namespace {

int DumpMetricsAndReturn(int code, bool metrics) {
  if (metrics) {
    std::string json = obs::Registry::Global().ToJson();
    std::printf("%s\n", json.c_str());
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  bool metrics = false;
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() >= 2) {
    std::string cmd = args[0], dir = args[1];
    if (cmd == "build") return DumpMetricsAndReturn(Build(dir), metrics);
    if (cmd == "insert") return DumpMetricsAndReturn(Insert(dir), metrics);
    if (cmd == "query") return DumpMetricsAndReturn(Query(dir), metrics);
    if (cmd == "inspect") return DumpMetricsAndReturn(Inspect(dir), metrics);
    if (cmd == "build-shards") {
      uint32_t n = 4;
      if (args.size() >= 3) {
        long parsed = std::strtol(args[2], nullptr, 10);
        if (parsed <= 0 || parsed > 1024) {
          std::printf("build-shards: shard count must be in [1, 1024]\n");
          return 2;
        }
        n = static_cast<uint32_t>(parsed);
      }
      return DumpMetricsAndReturn(BuildShards(dir, n), metrics);
    }
    if (cmd == "query-shards") {
      return DumpMetricsAndReturn(QueryShards(dir), metrics);
    }
    std::printf(
        "usage: %s {build|insert|query} <dir> [--metrics]\n"
        "       %s build-shards <dir> [num_shards] | query-shards <dir>\n"
        "       %s inspect <file.ipk> [--metrics]\n",
        argv[0], argv[0], argv[0]);
    return 2;
  }
  // Demo: full lifecycle in a temp directory.
  std::string dir = "/tmp/imageproof_deployment";
  (void)system(("mkdir -p " + dir).c_str());
  std::printf("--- build ---\n");
  if (int rc = Build(dir)) return DumpMetricsAndReturn(rc, metrics);
  std::printf("--- query (initial) ---\n");
  if (int rc = Query(dir)) return DumpMetricsAndReturn(rc, metrics);
  std::printf("--- insert (near-duplicate of image 3) ---\n");
  if (int rc = Insert(dir)) return DumpMetricsAndReturn(rc, metrics);
  std::printf("--- query (after update; new image should appear) ---\n");
  return DumpMetricsAndReturn(Query(dir), metrics);
}
