#include "core/query_engine.h"

#include <algorithm>
#include <thread>

#include <cstdio>

#include "common/fault.h"
#include "crypto/rsa.h"
#include "obs/registry.h"
#include "storage/epoch_janitor.h"
#include "storage/package_store.h"

namespace imageproof::core {

namespace {

// First retry's pause after a kCorrupted update attempt; doubled per retry.
constexpr std::chrono::milliseconds kUpdateRetryBackoff{1};

// The queued task's continuation for future-returning admission.
constexpr auto kReturnResponse = [](EngineResponse r) { return r; };

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const SpPackage> package,
                         PublicParams params, EngineOptions options)
    : options_(options),
      num_workers_(options.num_workers == 0 ? 1 : options.num_workers),
      per_worker_queries_(new obs::Counter[num_workers_]),
      worker_scratch_(new QueryScratch[num_workers_]),
      cache_(options.cache_capacity > 0
                 ? std::make_unique<QueryCache>(options.cache_capacity)
                 : nullptr),
      pool_(num_workers_, options.queue_capacity) {
  auto snap = std::make_shared<Snapshot>();
  snap->package = std::move(package);
  snap->params = std::move(params);
  snap->version = options.initial_version;
  // The initial epoch is already wherever the caller loaded it from: no
  // write, so this publish cannot fail.
  (void)Publish(std::move(snap), "engine", /*write=*/false);
  if (!options_.persist_dir.empty() &&
      (options_.retain_epochs > 0 || options_.scrub_interval.count() > 0)) {
    storage::JanitorOptions jo;
    jo.dir = options_.persist_dir;
    jo.retain_epochs = options_.retain_epochs;
    jo.scrub = options_.scrub_interval.count() > 0;
    // GC-only configurations still need a thread cadence.
    jo.scrub_interval = jo.scrub ? options_.scrub_interval
                                 : std::chrono::milliseconds(1000);
    janitor_ = std::make_unique<storage::EpochJanitor>(
        std::move(jo),
        [this](uint64_t epoch) { return RollbackFromCorruptEpoch(epoch); });
    janitor_->Start();
  }
}

QueryEngine::~QueryEngine() { Shutdown(); }

void QueryEngine::Shutdown() {
  stopped_.store(true, std::memory_order_release);
  // Join the janitor before the pool: its rollback callback re-enters the
  // engine, and after stopped_ is set that callback exits early.
  if (janitor_) janitor_->Stop();
  pool_.Shutdown();  // drains accepted queries, joins workers; idempotent
}

std::shared_ptr<const Snapshot> QueryEngine::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

EngineResponse QueryEngine::Serve(
    const std::shared_ptr<const Snapshot>& snap,
    const std::vector<std::vector<float>>& features, size_t k,
    const SubmitOptions& options, obs::TimePoint enqueued,
    Clock::time_point deadline) {
  queue_wait_us_.Record(obs::ElapsedUs(enqueued));
  EngineResponse out;
  out.snapshot = snap;
  const bool has_deadline = deadline != Clock::time_point{};
  // A query whose deadline expired while it waited in the queue is dropped
  // before any pipeline work: the client already gave up on it, so serving
  // it would burn capacity the still-live queries need.
  if (has_deadline && Clock::now() > deadline) {
    deadline_exceeded_.Add();
    out.status = Status::DeadlineExceeded("engine: deadline expired in queue");
    return out;
  }
  fault::InjectLatency("engine.query.latency");
  in_flight_.Add();
  int worker = ThreadPool::CurrentWorkerIndex();
  QueryScratch* scratch = nullptr;
  if (worker >= 0 && static_cast<unsigned>(worker) < num_workers_) {
    per_worker_queries_[worker].Add();
    // The worker's warm scratch: exclusively ours for the whole call (one
    // query runs per worker at a time; inline fallback runs get none).
    scratch = &worker_scratch_[worker];
  }
  obs::ScopedTimer latency_timer(latency_us_);

  // Result cache: the key pins the snapshot version, so a hit is always
  // from this query's own epoch — an entry cached before an update can
  // never answer a query admitted after the swap. Hits are byte-identical
  // to a cold serve (deterministic pipeline), so nothing downstream can
  // tell the difference except the clock.
  crypto::Digest cache_key;
  const bool use_cache = cache_ != nullptr;
  if (use_cache) {
    cache_key = QueryCache::Key(snap->version, options.compress_vo, k,
                                features, options.settle_exact_topk);
    if (std::shared_ptr<const QueryResponse> hit = cache_->Lookup(cache_key)) {
      out.response = *hit;
      out.status = Status::Ok();
      latency_timer.Stop();
      in_flight_.Sub();
      queries_served_.Add();
      return out;
    }
  }

  ServiceProvider sp(snap->package.get());
  QueryParallelism par;
  par.threads = options_.intra_query_threads;
  QueryControl control =
      has_deadline ? QueryControl(deadline) : QueryControl();
  ServeOptions serve;
  serve.compress_vo = options.compress_vo;
  serve.settle_exact_topk = options.settle_exact_topk;
  out.status =
      sp.Query(features, k, par, control, serve, &out.response, scratch);
  latency_timer.Stop();
  in_flight_.Sub();
  if (out.status.ok()) {
    queries_served_.Add();
    (options.compress_vo ? vo_bytes_compressed_ : vo_bytes_raw_)
        .Add(out.response.vo.inv_vo.size());
    partial_reveals_.Add(out.response.stats.partial_reveals);
    if (use_cache) {
      cache_->Insert(cache_key,
                     std::make_shared<const QueryResponse>(out.response));
    }
  } else {
    // Only deadline expiry can surface here; the partial response must not
    // leak (a half-built VO would fail verification in confusing ways).
    deadline_exceeded_.Add();
    out.response = QueryResponse{};
  }
  return out;
}

template <typename Then>
Status QueryEngine::Admit(
    std::vector<std::vector<float>> features, size_t k,
    const SubmitOptions& submit_options, bool block, Then then,
    std::future<std::invoke_result_t<Then, EngineResponse>>* out) {
  if (stopped_.load(std::memory_order_acquire)) {
    rejected_unavailable_.Add();
    return Status::Unavailable("engine: stopped");
  }
  const Clock::time_point deadline =
      submit_options.deadline.count() > 0
          ? Clock::now() + submit_options.deadline
          : Clock::time_point{};
  // The snapshot is pinned at submission time, not at execution time: a
  // query admitted before an update is answered from the state the caller
  // observed, even if it sits in the queue across the swap.
  std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  obs::TimePoint enqueued = obs::Now();
  auto task = [this, snap = std::move(snap), features = std::move(features),
               k, submit_options, enqueued, deadline,
               then = std::move(then)] {
    return then(Serve(snap, features, k, submit_options, enqueued, deadline));
  };
  if (block) {
    // Backpressure: a full queue blocks the submitter. If the pool shut
    // down between the stopped_ check above and here, the task runs inline
    // — the future is still satisfied, never dropped.
    *out = pool_.Submit(std::move(task));
    return Status::Ok();
  }
  switch (pool_.TrySubmit(std::move(task), out)) {
    case ThreadPool::TrySubmitResult::kAccepted:
      return Status::Ok();
    case ThreadPool::TrySubmitResult::kQueueFull:
      queries_shed_.Add();
      return Status::Overloaded("engine: submission queue full, query shed");
    case ThreadPool::TrySubmitResult::kShutdown:
      break;
  }
  rejected_unavailable_.Add();
  return Status::Unavailable("engine: stopped");
}

std::future<EngineResponse> QueryEngine::Submit(
    std::vector<std::vector<float>> features, size_t k,
    SubmitOptions submit_options) {
  std::future<EngineResponse> fut;
  Status admitted = Admit(std::move(features), k, submit_options,
                          /*block=*/false, kReturnResponse, &fut);
  if (!admitted.ok()) {
    std::promise<EngineResponse> ready;
    ready.set_value(EngineResponse{std::move(admitted), {}, nullptr});
    fut = ready.get_future();
  }
  return fut;
}

void QueryEngine::SubmitAsync(std::vector<std::vector<float>> features,
                              size_t k, SubmitOptions submit_options,
                              std::function<void(EngineResponse)> done) {
  // The callback lives in a shared_ptr because TrySubmit constructs its
  // task object before the admission check: on a shed the task (and
  // everything it captured) is destroyed unrun, and the rejection below
  // still needs `done` alive to deliver the immediate decision inline.
  auto shared_done =
      std::make_shared<std::function<void(EngineResponse)>>(std::move(done));
  std::future<void> fut;
  Status admitted = Admit(
      std::move(features), k, submit_options, /*block=*/false,
      [shared_done](EngineResponse r) { (*shared_done)(std::move(r)); },
      &fut);
  if (!admitted.ok()) {
    (*shared_done)(EngineResponse{std::move(admitted), {}, nullptr});
  }
}

std::vector<EngineResponse> QueryEngine::QueryBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    SubmitOptions submit_options) {
  // The batch caller waits for every result anyway, so a full queue means
  // backpressure (block), not shedding — shedding is for callers that need
  // an immediate admission decision.
  std::vector<EngineResponse> out(queries.size());
  std::vector<std::future<EngineResponse>> futures(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i].status = Admit(queries[i], k, submit_options, /*block=*/true,
                          kReturnResponse, &futures[i]);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (futures[i].valid()) out[i] = futures[i].get();
  }
  return out;
}

template <typename Apply>
Result<UpdateStats> QueryEngine::TryApplyUpdate(
    const std::shared_ptr<const Snapshot>& base, Apply&& apply) {
  if (fault::InjectFault("engine.update.clone")) {
    return Result<UpdateStats>(
        Status::Corrupted("engine update: injected clone fault"));
  }
  fault::InjectLatency("engine.update.latency");

  // Deep-clone by re-deriving every digest from raw data (ClonePackage), so
  // a corrupted in-memory package fails the checks below instead of being
  // silently republished under a fresh signature.
  Result<std::unique_ptr<SpPackage>> clone = ClonePackage(*base->package);
  if (!clone.ok()) {
    return Result<UpdateStats>(
        Status::WithCode(clone.status().code(), "engine update: clone failed: " +
                                                    clone.status().message()));
  }
  // The clone's re-derived root must match the root the served snapshot was
  // signed under, or we would be about to sign corrupted state. The root
  // transitively covers the codebook (cluster commitments), tree shapes,
  // corpus/posting chains, weights, and filter geometry — but NOT the
  // config, image payloads, or per-image signatures, so those are compared
  // against the base directly. Together the two checks cover everything
  // the clone copied.
  if ((*clone)->RootDigest() != base->package->RootDigest()) {
    return Result<UpdateStats>(Status::Corrupted(
        "engine update: cloned package root diverges from served snapshot"));
  }
  // The corpus comparison additionally catches corruption the digests are
  // blind to only in degenerate data (a frequency on a zero-weight cluster
  // contributes nothing to any impact, so no digest sees it change).
  if ((*clone)->config != base->package->config ||
      (*clone)->corpus != base->package->corpus ||
      !(*clone)->ImagesEqual(*base->package)) {
    return Result<UpdateStats>(Status::Corrupted(
        "engine update: cloned package content diverges outside the root"));
  }

  auto next = std::make_shared<Snapshot>();
  next->params = base->params;
  Result<UpdateStats> result = apply(clone->get(), &next->params);
  if (!result.ok()) {
    return result;  // logical failure (duplicate id, ...): not retryable
  }

  if (fault::InjectFault("engine.update.sign") &&
      !next->params.root_signature.empty()) {
    next->params.root_signature[0] ^= 0x01;  // simulated signing fault
  }
  // The signature the update produced must verify over the clone's new
  // root before anyone is asked to trust it. On mismatch the swap is
  // skipped — rollback is simply not publishing.
  if (!crypto::RsaVerify(next->params.public_key, (*clone)->RootDigest(),
                         next->params.root_signature)) {
    return Result<UpdateStats>(Status::Corrupted(
        "engine update: fresh root signature failed verification"));
  }

  next->package = std::shared_ptr<const SpPackage>(std::move(*clone));
  next->version = base->version + 1;
  Status published = Publish(std::move(next), "engine update", /*write=*/true);
  if (!published.ok()) return Result<UpdateStats>(std::move(published));
  return result;
}

Status QueryEngine::Publish(std::shared_ptr<Snapshot> next, const char* what,
                            bool write) {
  const bool persist = !options_.persist_dir.empty();
  // Disk-backed epochs: the clone/verify/swap protocol extended to disk.
  // The new epoch file is written crash-safely, REOPENED from its mapping
  // with every section digest checked and the root signature RsaVerify'd
  // over the mapped bytes, and only then published — first the CURRENT
  // pointer (a restart now serves the new epoch), then the served
  // snapshot, which is the reopened disk-backed package itself, so what we
  // serve is byte-for-byte what we persisted. Any failure leaves CURRENT
  // on the old epoch and the old snapshot serving.
  if (write && persist) {
    Result<std::string> path = storage::PackageStore::WriteEpoch(
        options_.persist_dir, next->version, *next->package);
    if (!path.ok()) {
      return Status::WithCode(path.status().code(),
                              std::string(what) + ": epoch write failed: " +
                                  path.status().message());
    }
    storage::OpenOptions open_opts;
    open_opts.params = &next->params;
    Result<std::unique_ptr<SpPackage>> reopened =
        storage::PackageStore::Open(*path, open_opts);
    if (!reopened.ok()) {
      return Status::Corrupted(std::string(what) +
                               ": persisted epoch failed verification: " +
                               reopened.status().message());
    }
    Status flip = storage::PackageStore::SetCurrentEpoch(options_.persist_dir,
                                                         next->version);
    if (!flip.ok()) {
      return Status::WithCode(
          flip.code(), std::string(what) + ": CURRENT flip failed: " +
                           flip.message());
    }
    next->package = std::shared_ptr<const SpPackage>(std::move(*reopened));
    // If a rollback once quarantined this epoch number, the number has now
    // been rewritten with freshly verified bytes — the marker is stale.
    (void)std::remove(
        storage::EpochJanitor::QuarantineMarkerPath(options_.persist_dir,
                                                    next->version)
            .c_str());
  }

  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (persist) {
    epoch_params_[next->version] = next->params;
    while (epoch_params_.size() > kEpochParamsRetained) {
      epoch_params_.erase(epoch_params_.begin());
    }
  }
  snapshot_ = std::move(next);
  return Status::Ok();
}

template <typename Apply>
Result<UpdateStats> QueryEngine::ApplyUpdate(Apply&& apply) {
  std::lock_guard<std::mutex> writer_lock(update_mu_);
  if (stopped_.load(std::memory_order_acquire)) {
    rejected_unavailable_.Add();
    return Result<UpdateStats>(Status::Unavailable("engine: stopped"));
  }
  obs::ScopedTimer update_timer(update_us_);
  std::shared_ptr<const Snapshot> base = CurrentSnapshot();

  const int max_attempts = std::max(options_.update_max_attempts, 1);
  std::chrono::milliseconds backoff = kUpdateRetryBackoff;
  Result<UpdateStats> result =
      Result<UpdateStats>(Status::Error("engine update: not attempted"));
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    result = TryApplyUpdate(base, apply);
    if (result.ok()) {
      updates_applied_.Add();
      return result;
    }
    // Only corruption is transient (storage/signing faults); logical
    // failures would fail identically on every attempt.
    if (result.status().code() != StatusCode::kCorrupted ||
        attempt == max_attempts) {
      break;
    }
    update_retries_.Add();
    std::this_thread::sleep_for(backoff);
    backoff *= 2;
  }
  update_failures_.Add();
  return result;
}

Result<UpdateStats> QueryEngine::InsertImage(
    const crypto::RsaPrivateKey& owner_key, ImageId id, bovw::BovwVector bovw,
    Bytes image_data) {
  // The captures stay intact across retry attempts: core::InsertImage takes
  // its arguments by value, so each call below copies from the captures
  // rather than consuming them.
  return ApplyUpdate([&owner_key, id, bovw = std::move(bovw),
                      image_data = std::move(image_data)](
                         SpPackage* pkg, PublicParams* params) {
    return core::InsertImage(pkg, owner_key, params, id, bovw, image_data);
  });
}

Result<UpdateStats> QueryEngine::DeleteImage(
    const crypto::RsaPrivateKey& owner_key, ImageId id) {
  return ApplyUpdate([&](SpPackage* pkg, PublicParams* params) {
    return core::DeleteImage(pkg, owner_key, params, id);
  });
}

Status QueryEngine::RollbackFromCorruptEpoch(uint64_t corrupt_epoch) {
  std::lock_guard<std::mutex> writer_lock(update_mu_);
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::Unavailable("engine rollback: stopped");
  }
  if (options_.persist_dir.empty()) {
    return Status::Error("engine rollback: engine has no persist_dir");
  }
  std::shared_ptr<const Snapshot> base = CurrentSnapshot();
  if (base->version != corrupt_epoch) {
    // An update published a newer epoch while the scrubber was reporting;
    // the corruption verdict is about history, and GC will reap it.
    return Status::Error("engine rollback: stale corruption report (epoch " +
                         std::to_string(corrupt_epoch) + ", serving " +
                         std::to_string(base->version) + ")");
  }
  // Candidate prior epochs we still hold params for, newest first.
  std::vector<std::pair<uint64_t, PublicParams>> candidates;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    for (auto it = epoch_params_.rbegin(); it != epoch_params_.rend(); ++it) {
      if (it->first < corrupt_epoch) candidates.emplace_back(*it);
    }
  }
  for (auto& [epoch, params] : candidates) {
    if (storage::EpochJanitor::IsQuarantined(options_.persist_dir, epoch)) {
      continue;  // known-bad; keep walking back
    }
    const std::string path = options_.persist_dir + "/" +
                             storage::PackageStore::EpochFileName(epoch);
    storage::OpenOptions open_opts;
    open_opts.params = &params;
    Result<std::unique_ptr<SpPackage>> pkg =
        storage::PackageStore::Open(path, open_opts);
    if (!pkg.ok()) continue;  // GC'd or rotted too; keep walking back
    // Re-publish the last-good content as a NEW epoch through the same
    // write → reopen-verify → flip → swap discipline as an update, so
    // versions stay monotonic (cache keys and client-visible versions
    // never repeat with different bytes). Identical content has an
    // identical root, so the prior epoch's signature carries over.
    auto next = std::make_shared<Snapshot>();
    next->package = std::shared_ptr<const SpPackage>(std::move(*pkg));
    next->params = params;
    next->version = corrupt_epoch + 1;
    Status published =
        Publish(std::move(next), "engine rollback", /*write=*/true);
    if (!published.ok()) return published;
    epoch_rollbacks_.Add();
    return Status::Ok();
  }
  return Status::Error(
      "engine rollback: no verifiable prior epoch on disk for epoch " +
      std::to_string(corrupt_epoch));
}

EngineStats QueryEngine::Stats() const {
  EngineStats s;
  s.queries_served = queries_served_.Value();
  s.queries_shed = queries_shed_.Value();
  s.deadline_exceeded = deadline_exceeded_.Value();
  s.rejected_unavailable = rejected_unavailable_.Value();
  s.updates_applied = updates_applied_.Value();
  s.update_failures = update_failures_.Value();
  s.update_retries = update_retries_.Value();
  s.in_flight = static_cast<uint64_t>(std::max<int64_t>(in_flight_.Value(), 0));
  s.queue_depth = pool_.QueueDepth();
  std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  s.snapshot_version = snap->version;
  s.stopped = stopped();
  if (cache_) {
    QueryCacheStats cs = cache_->Stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_evictions = cs.evictions;
    s.cache_entries = cs.entries;
  }
  s.memo_hits = partial_reveals_.Value();
  s.memo_builds = snap->package->dim_trees.size();
  s.vo_bytes_compressed = vo_bytes_compressed_.Value();
  s.vo_bytes_raw = vo_bytes_raw_.Value();
  if (janitor_) {
    storage::JanitorStats js = janitor_->stats();
    s.epochs_gced = js.epochs_deleted;
    s.scrub_passes = js.scrub_passes;
    s.scrub_corruptions = js.scrub_corruptions;
    s.epochs_quarantined = js.epochs_quarantined;
  }
  s.epoch_rollbacks = epoch_rollbacks_.Value();
  obs::HistogramSnapshot lat = latency_us_.Snapshot();
  if (lat.count > 0) {
    s.p50_latency_ms = lat.p50 / 1000.0;
    s.p99_latency_ms = lat.p99 / 1000.0;
  }
  return s;
}

std::string QueryEngine::MetricsSnapshot() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("metrics_enabled").Bool(obs::kMetricsEnabled);
  w.Key("engine").BeginObject();
  w.Key("num_workers").U64(num_workers_);
  w.Key("intra_query_threads").U64(options_.intra_query_threads);
  w.Key("snapshot_version").U64(CurrentSnapshot()->version);
  w.Key("queue_depth").U64(pool_.QueueDepth());
  w.Key("in_flight").I64(in_flight_.Value());
  w.Key("stopped").Bool(stopped());
  w.Key("queries_served").U64(queries_served_.Value());
  w.Key("shed").U64(queries_shed_.Value());
  w.Key("deadline_exceeded").U64(deadline_exceeded_.Value());
  w.Key("rejected_unavailable").U64(rejected_unavailable_.Value());
  w.Key("updates_applied").U64(updates_applied_.Value());
  w.Key("update_failures").U64(update_failures_.Value());
  w.Key("update_retries").U64(update_retries_.Value());
  {
    QueryCacheStats cs = cache_ ? cache_->Stats() : QueryCacheStats{};
    w.Key("cache").BeginObject();
    w.Key("enabled").Bool(cache_ != nullptr);
    w.Key("capacity").U64(cache_ ? cache_->capacity() : 0);
    w.Key("hits").U64(cs.hits);
    w.Key("misses").U64(cs.misses);
    w.Key("evictions").U64(cs.evictions);
    w.Key("entries").U64(cs.entries);
    w.EndObject();
    const uint64_t mh = partial_reveals_.Value();
    const uint64_t mb = CurrentSnapshot()->package->dim_trees.size();
    w.Key("proof_memo").BeginObject();
    w.Key("hits").U64(mh);
    w.Key("builds").U64(mb);
    w.Key("share_rate").Double(mh + mb > 0
                                   ? static_cast<double>(mh) / (mh + mb)
                                   : 0.0);
    w.EndObject();
    w.Key("vo_bytes_compressed").U64(vo_bytes_compressed_.Value());
    w.Key("vo_bytes_raw").U64(vo_bytes_raw_.Value());
    storage::JanitorStats js =
        janitor_ ? janitor_->stats() : storage::JanitorStats{};
    w.Key("janitor").BeginObject();
    w.Key("enabled").Bool(janitor_ != nullptr);
    w.Key("gc_passes").U64(js.gc_passes);
    w.Key("epochs_gced").U64(js.epochs_deleted);
    w.Key("scrub_passes").U64(js.scrub_passes);
    w.Key("scrub_bytes").U64(js.scrub_bytes);
    w.Key("scrub_corruptions").U64(js.scrub_corruptions);
    w.Key("epochs_quarantined").U64(js.epochs_quarantined);
    w.Key("rollbacks_requested").U64(js.rollbacks_requested);
    w.Key("rollbacks_failed").U64(js.rollbacks_failed);
    w.Key("epoch_rollbacks").U64(epoch_rollbacks_.Value());
    w.EndObject();
  }
  w.Key("per_worker_queries").BeginArray();
  for (unsigned i = 0; i < num_workers_; ++i) {
    w.U64(per_worker_queries_[i].Value());
  }
  w.EndArray();
  w.Key("latency_us");
  obs::AppendHistogramJson(w, latency_us_);
  w.Key("queue_wait_us");
  obs::AppendHistogramJson(w, queue_wait_us_);
  w.Key("update_us");
  obs::AppendHistogramJson(w, update_us_);
  w.EndObject();
  w.Key("process");
  obs::Registry::Global().AppendJson(w);
  w.EndObject();
  return w.Take();
}

}  // namespace imageproof::core
