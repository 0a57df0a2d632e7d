// Coordinator: parallel scatter-gather over N shard backends with an
// authenticated merge.
//
// A query fans out to every shard on the coordinator's fan-out pool, each
// shard answering a settled (exact-score) local top-k with an ordinary
// QueryVO, and the replies are bundled into a composite VO
// (shard/composite.h) together with the current signed manifest. The
// coordinator never verifies and never merges — it is part of the
// untrusted SP; the client's VerifyComposite (shard/composite_client.h)
// recomputes the merge from per-shard proofs.
//
// Manifest pinning vs. update races: the manifest to ship is chosen AFTER
// every shard reply is in, and each reply's root signature is checked
// against that manifest's {current, prev} entry for its slot. A shard that
// epoch-swapped once mid-fan-out still matches (its old root is the
// manifest's prev after the coordinator re-signed); only a shard that
// swapped TWICE during one fan-out misses, and that query fails
// kUnavailable — a retryable transient, deliberately distinct from a
// verification failure, which always means tampering.
//
// Update ordering (Insert/Delete): route to the owning shard backend →
// backend applies the engine update (clone/verify/swap) and reports the new
// root + signature → coordinator clones the manifest, shifts that slot's
// current to prev, installs the new root, bumps the epoch, re-signs, and
// atomically publishes the new manifest (shared_ptr swap). Queries pinning
// the old manifest still compose: the updated shard's new root is not in
// the old manifest, but such queries fanned out BEFORE the swap and carry
// the old root. Writers are serialized; one shard updating never blocks
// queries or the other shards.
//
// Thread-pool DAG (deadlock freedom): QueryAsync tasks run on the serve
// pool and block on fan-out futures, which run on the distinct fan-out
// pool; local backends' engine work runs on each engine's own pool. No
// task ever waits on a task of its own pool.

#ifndef IMAGEPROOF_SHARD_COORDINATOR_H_
#define IMAGEPROOF_SHARD_COORDINATOR_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/query_engine.h"
#include "net/retry.h"
#include "shard/composite.h"
#include "shard/manifest.h"

namespace imageproof::shard {

// One shard's (unverified) answer: the serialized QueryVO, the root
// signature it replays to, and the snapshot version it was served from.
struct ShardQueryResult {
  uint64_t snapshot_version = 0;
  Bytes root_signature;
  Bytes vo_bytes;
};

// The root a shard settled on after applying an update.
struct ShardRootInfo {
  crypto::Digest root = crypto::Digest::Zero();
  Bytes signature;
};

// One shard as the coordinator sees it. Implementations must be safe for
// concurrent Query calls (the fan-out pool issues them in parallel);
// updates are serialized by the coordinator.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  // A settled (exact-score) authenticated query against this shard.
  // deadline_ms 0 = none.
  virtual Result<ShardQueryResult> Query(
      const std::vector<std::vector<float>>& features, size_t k,
      bool compress_vo, uint32_t deadline_ms) = 0;

  // Owner updates; the returned root info feeds the manifest re-sign.
  virtual Result<ShardRootInfo> Insert(bovw::ImageId id,
                                       bovw::BovwVector bovw,
                                       Bytes image_data) = 0;
  virtual Result<ShardRootInfo> Delete(bovw::ImageId id) = 0;

  // Health check; kOk means the shard is answering.
  virtual Status Probe() = 0;
};

// In-process shard: owns a QueryEngine over the shard's package. Queries
// always run settled (SubmitOptions::settle_exact_topk) — a shard behind a
// coordinator has no other mode.
class LocalShardBackend : public ShardBackend {
 public:
  LocalShardBackend(std::shared_ptr<const core::SpPackage> package,
                    core::PublicParams params,
                    crypto::RsaPrivateKey owner_key,
                    core::EngineOptions options = {});

  Result<ShardQueryResult> Query(
      const std::vector<std::vector<float>>& features, size_t k,
      bool compress_vo, uint32_t deadline_ms) override;
  Result<ShardRootInfo> Insert(bovw::ImageId id, bovw::BovwVector bovw,
                               Bytes image_data) override;
  Result<ShardRootInfo> Delete(bovw::ImageId id) override;
  Status Probe() override;

  core::QueryEngine& engine() { return engine_; }

 private:
  crypto::RsaPrivateKey owner_key_;
  core::QueryEngine engine_;
};

// Remote shard behind a net::NetServer (which must run with
// ServerOptions::settle_exact_topk). Queries relay unverified response
// frames via RetryingClient::QueryForRelay; Probe is the client's
// keepalive probe. Updates are not routed over the wire by this backend
// (kError) — remote-shard deployments apply updates owner-side where the
// key lives.
class RemoteShardBackend : public ShardBackend {
 public:
  RemoteShardBackend(std::string host, uint16_t port,
                     core::PublicParams trusted_params,
                     net::RetryPolicy policy = {});

  Result<ShardQueryResult> Query(
      const std::vector<std::vector<float>>& features, size_t k,
      bool compress_vo, uint32_t deadline_ms) override;
  Result<ShardRootInfo> Insert(bovw::ImageId id, bovw::BovwVector bovw,
                               Bytes image_data) override;
  Result<ShardRootInfo> Delete(bovw::ImageId id) override;
  Status Probe() override;

  const net::RetryStats& stats() const { return client_.stats(); }

 private:
  // RetryingClient owns one socket; concurrent composite queries hitting
  // the same remote shard serialize here.
  std::mutex mu_;
  net::RetryingClient client_;
};

struct CoordinatorOptions {
  unsigned fanout_threads = 0;  // per-shard query tasks; 0 = one per shard
};

struct CoordinatorStats {
  uint64_t queries = 0;          // composite queries completed OK
  uint64_t fanout_failures = 0;  // queries failed by a shard error
  uint64_t manifest_races = 0;   // kUnavailable from a double epoch swap
  uint64_t updates = 0;          // manifest re-signs published
};

class Coordinator {
 public:
  // `backends[i]` serves shard i; their count must equal
  // manifest.num_shards. `owner_key` re-signs the manifest on updates.
  Coordinator(std::vector<std::unique_ptr<ShardBackend>> backends,
              ShardManifest manifest, crypto::RsaPrivateKey owner_key,
              CoordinatorOptions options = {});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Scatter-gather: fans out, gathers, pins the manifest, and returns the
  // serialized CompositeVO. Blocking; safe for concurrent callers.
  Result<Bytes> Query(const std::vector<std::vector<float>>& features,
                      size_t k, bool compress_vo = false,
                      uint32_t deadline_ms = 0);

  // Non-blocking form matching net::NetServer::CompositeHandler: enqueues
  // the scatter-gather on the serve pool and invokes `done` exactly once
  // from a serve-pool thread.
  void QueryAsync(std::vector<std::vector<float>> features, size_t k,
                  bool compress_vo, uint32_t deadline_ms,
                  std::function<void(Result<Bytes>)> done);

  // Owner updates: routed to shard id mod num_shards, then the manifest is
  // re-signed and published. On success returns the new manifest epoch.
  // Serialized with each other; on failure the old manifest stays
  // published.
  Result<uint64_t> Insert(bovw::ImageId id, bovw::BovwVector bovw,
                          Bytes image_data);
  Result<uint64_t> Delete(bovw::ImageId id);

  // The manifest new queries will be pinned against.
  std::shared_ptr<const ShardManifest> CurrentManifest() const;

  // Probes every backend; returns the first failure (annotated with the
  // shard id) or kOk when all answer.
  Status ProbeAll();

  uint32_t num_shards() const { return num_shards_; }
  CoordinatorStats Stats() const;

 private:
  Result<ShardRootInfo> RouteUpdate(
      bovw::ImageId id,
      const std::function<Result<ShardRootInfo>(ShardBackend&)>& apply,
      uint32_t* shard_out);
  Result<uint64_t> PublishRoot(uint32_t shard_id, const ShardRootInfo& info);

  std::vector<std::unique_ptr<ShardBackend>> backends_;
  uint32_t num_shards_;
  crypto::RsaPrivateKey owner_key_;
  CoordinatorOptions options_;

  mutable std::mutex manifest_mu_;  // guards manifest_ swaps/reads
  std::shared_ptr<const ShardManifest> manifest_;
  std::mutex update_mu_;  // serializes writers end to end

  mutable std::mutex stats_mu_;
  CoordinatorStats stats_;

  ThreadPool fanout_pool_;
  ThreadPool serve_pool_;
};

}  // namespace imageproof::shard

#endif  // IMAGEPROOF_SHARD_COORDINATOR_H_
