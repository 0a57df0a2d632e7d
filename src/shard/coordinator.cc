#include "shard/coordinator.h"

#include <utility>

namespace imageproof::shard {

namespace {

// Threads running outer QueryAsync tasks (each blocks on its fan-out).
constexpr unsigned kServeThreads = 2;

Status AnnotateShard(uint32_t shard_id, const Status& s) {
  return Status::WithCode(
      s.code(), "shard " + std::to_string(shard_id) + ": " + s.message());
}

}  // namespace

// --- LocalShardBackend ------------------------------------------------------

LocalShardBackend::LocalShardBackend(
    std::shared_ptr<const core::SpPackage> package, core::PublicParams params,
    crypto::RsaPrivateKey owner_key, core::EngineOptions options)
    : owner_key_(std::move(owner_key)),
      engine_(std::move(package), std::move(params), std::move(options)) {}

Result<ShardQueryResult> LocalShardBackend::Query(
    const std::vector<std::vector<float>>& features, size_t k,
    bool compress_vo, uint32_t deadline_ms) {
  core::SubmitOptions opts;
  opts.deadline = std::chrono::milliseconds(deadline_ms);
  opts.compress_vo = compress_vo;
  opts.settle_exact_topk = true;
  core::EngineResponse r = engine_.Submit(features, k, opts).get();
  if (!r.ok()) return r.status;
  ShardQueryResult out;
  out.snapshot_version = r.snapshot->version;
  out.root_signature = r.snapshot->params.root_signature;
  out.vo_bytes = r.response.vo.Serialize();
  return out;
}

Result<ShardRootInfo> LocalShardBackend::Insert(bovw::ImageId id,
                                                bovw::BovwVector bovw,
                                                Bytes image_data) {
  auto applied = engine_.InsertImage(owner_key_, id, std::move(bovw),
                                     std::move(image_data));
  if (!applied.ok()) return applied.status();
  std::shared_ptr<const core::Snapshot> snap = engine_.CurrentSnapshot();
  ShardRootInfo info;
  info.root = snap->package->RootDigest();
  info.signature = snap->params.root_signature;
  return info;
}

Result<ShardRootInfo> LocalShardBackend::Delete(bovw::ImageId id) {
  auto applied = engine_.DeleteImage(owner_key_, id);
  if (!applied.ok()) return applied.status();
  std::shared_ptr<const core::Snapshot> snap = engine_.CurrentSnapshot();
  ShardRootInfo info;
  info.root = snap->package->RootDigest();
  info.signature = snap->params.root_signature;
  return info;
}

Status LocalShardBackend::Probe() {
  return engine_.stopped() ? Status::Unavailable("shard engine stopped")
                           : Status::Ok();
}

// --- RemoteShardBackend -----------------------------------------------------

RemoteShardBackend::RemoteShardBackend(std::string host, uint16_t port,
                                       core::PublicParams trusted_params,
                                       net::RetryPolicy policy)
    : client_(std::move(host), port, std::move(trusted_params), policy) {}

Result<ShardQueryResult> RemoteShardBackend::Query(
    const std::vector<std::vector<float>>& features, size_t k,
    bool compress_vo, uint32_t deadline_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  client_.set_compress_vo(compress_vo);
  Result<net::ResponseFrame> resp =
      client_.QueryForRelay(features, k, deadline_ms);
  if (!resp.ok()) return resp.status();
  ShardQueryResult out;
  out.snapshot_version = resp->snapshot_version;
  out.root_signature = std::move(resp->root_signature);
  out.vo_bytes = std::move(resp->vo_bytes);
  return out;
}

Result<ShardRootInfo> RemoteShardBackend::Insert(bovw::ImageId, bovw::BovwVector,
                                                 Bytes) {
  return Status::Error(
      "remote shard backend: updates are applied owner-side, not relayed");
}

Result<ShardRootInfo> RemoteShardBackend::Delete(bovw::ImageId) {
  return Status::Error(
      "remote shard backend: updates are applied owner-side, not relayed");
}

Status RemoteShardBackend::Probe() {
  std::lock_guard<std::mutex> lock(mu_);
  return client_.Probe();
}

// --- Coordinator ------------------------------------------------------------

Coordinator::Coordinator(std::vector<std::unique_ptr<ShardBackend>> backends,
                         ShardManifest manifest,
                         crypto::RsaPrivateKey owner_key,
                         CoordinatorOptions options)
    : backends_(std::move(backends)),
      num_shards_(manifest.num_shards),
      owner_key_(std::move(owner_key)),
      options_(options),
      manifest_(std::make_shared<const ShardManifest>(std::move(manifest))),
      fanout_pool_(options.fanout_threads != 0 ? options.fanout_threads
                                               : num_shards_),
      serve_pool_(kServeThreads) {}

Coordinator::~Coordinator() {
  // Outer tasks block on fan-out futures; drain them first so no serve task
  // is left waiting on a pool that is already gone.
  serve_pool_.Shutdown();
  fanout_pool_.Shutdown();
}

std::shared_ptr<const ShardManifest> Coordinator::CurrentManifest() const {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  return manifest_;
}

Result<Bytes> Coordinator::Query(
    const std::vector<std::vector<float>>& features, size_t k,
    bool compress_vo, uint32_t deadline_ms) {
  std::vector<std::future<Result<ShardQueryResult>>> futures;
  futures.reserve(num_shards_);
  for (uint32_t sid = 0; sid < num_shards_; ++sid) {
    ShardBackend* backend = backends_[sid].get();
    futures.push_back(
        fanout_pool_.Submit([backend, &features, k, compress_vo, deadline_ms] {
          return backend->Query(features, k, compress_vo, deadline_ms);
        }));
  }
  // Gather everything before acting on failures: every future must be
  // drained regardless (the tasks borrow `features`).
  std::vector<Result<ShardQueryResult>> replies;
  replies.reserve(num_shards_);
  for (auto& f : futures) replies.push_back(f.get());
  for (uint32_t sid = 0; sid < num_shards_; ++sid) {
    if (!replies[sid].ok()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.fanout_failures;
      return AnnotateShard(sid, replies[sid].status());
    }
  }

  // Pin the manifest AFTER the fan-out: a shard that epoch-swapped once
  // while we were gathering shows up as this manifest's prev for its slot.
  std::shared_ptr<const ShardManifest> manifest = CurrentManifest();
  CompositeVO vo;
  vo.manifest_bytes = manifest->Serialize();
  vo.entries.resize(num_shards_);
  for (uint32_t sid = 0; sid < num_shards_; ++sid) {
    ShardQueryResult& reply = *replies[sid];
    const ShardRoots& roots = manifest->shards[sid];
    const bool known = reply.root_signature == roots.current_signature ||
                       (roots.has_prev &&
                        reply.root_signature == roots.prev_signature);
    if (!known) {
      // Two swaps of one shard inside a single fan-out window. Nobody
      // misbehaved; the composite just cannot be assembled consistently.
      // kUnavailable is retryable — crucially NOT a verification failure.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.manifest_races;
      return Status::Unavailable(
          "shard " + std::to_string(sid) +
          ": root swapped twice during fan-out; retry the query");
    }
    CompositeEntry& entry = vo.entries[sid];
    entry.shard_id = sid;
    entry.snapshot_version = reply.snapshot_version;
    entry.root_signature = std::move(reply.root_signature);
    entry.vo_bytes = std::move(reply.vo_bytes);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries;
  }
  return vo.Serialize();
}

void Coordinator::QueryAsync(std::vector<std::vector<float>> features,
                             size_t k, bool compress_vo, uint32_t deadline_ms,
                             std::function<void(Result<Bytes>)> done) {
  serve_pool_.Submit([this, features = std::move(features), k, compress_vo,
                      deadline_ms, done = std::move(done)]() mutable {
    done(Query(features, k, compress_vo, deadline_ms));
  });
}

Result<uint64_t> Coordinator::PublishRoot(uint32_t shard_id,
                                          const ShardRootInfo& info) {
  std::shared_ptr<const ShardManifest> cur = CurrentManifest();
  auto next = std::make_shared<ShardManifest>(*cur);
  ShardRoots& roots = next->shards[shard_id];
  if (!(info.root == roots.current)) {
    roots.prev = roots.current;
    roots.prev_signature = roots.current_signature;
    roots.has_prev = true;
    roots.current = info.root;
    roots.current_signature = info.signature;
  }
  next->epoch = cur->epoch + 1;
  next->Sign(owner_key_);
  {
    std::lock_guard<std::mutex> lock(manifest_mu_);
    manifest_ = next;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.updates;
  }
  return next->epoch;
}

Result<uint64_t> Coordinator::Insert(bovw::ImageId id, bovw::BovwVector bovw,
                                     Bytes image_data) {
  std::lock_guard<std::mutex> lock(update_mu_);
  const uint32_t sid = ShardManifest::ShardOf(id, num_shards_);
  auto info =
      backends_[sid]->Insert(id, std::move(bovw), std::move(image_data));
  if (!info.ok()) return AnnotateShard(sid, info.status());
  return PublishRoot(sid, *info);
}

Result<uint64_t> Coordinator::Delete(bovw::ImageId id) {
  std::lock_guard<std::mutex> lock(update_mu_);
  const uint32_t sid = ShardManifest::ShardOf(id, num_shards_);
  auto info = backends_[sid]->Delete(id);
  if (!info.ok()) return AnnotateShard(sid, info.status());
  return PublishRoot(sid, *info);
}

Status Coordinator::ProbeAll() {
  for (uint32_t sid = 0; sid < num_shards_; ++sid) {
    if (Status s = backends_[sid]->Probe(); !s.ok()) {
      return AnnotateShard(sid, s);
    }
  }
  return Status::Ok();
}

CoordinatorStats Coordinator::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace imageproof::shard
