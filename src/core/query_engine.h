// Concurrent query-serving engine with snapshot isolation and explicit
// fault tolerance.
//
// The paper's SP is a single verifier-facing endpoint, but the workload it
// targets — large-scale image retrieval — is many clients hitting one
// authenticated index at once, with the owner occasionally pushing
// incremental updates (core/update.h). QueryEngine turns the serial
// ServiceProvider::Query path into a serving layer:
//
//   * Inter-query parallelism: a fixed-size worker pool (common/
//     thread_pool.h) with a bounded submission queue. Submit() returns a
//     future; QueryBatch() is the blocking convenience.
//   * Intra-query parallelism: each worker runs Query with
//     QueryParallelism{intra_query_threads}, splitting the per-feature AKM
//     loop, the per-tree MRKD searches, and the exact-nearest scan across
//     ParallelFor workers. Single-query latency drops without changing a
//     single VO byte (see below).
//   * Load shedding instead of unbounded blocking: a Submit() or
//     SubmitAsync() against a full queue resolves immediately with Status
//     kOverloaded (counted in `engine.shed`); only QueryBatch(), whose
//     caller waits for every result anyway, blocks for queue room. All
//     three admit through one routine. Per-query deadlines
//     (SubmitOptions::deadline) are enforced at worker pickup and between
//     query stages (core::QueryControl), resolving as kDeadlineExceeded.
//     A stopped engine (Shutdown()) resolves every later submission as
//     kUnavailable. The engine degrades to *explicit errors*; it never
//     blocks a caller indefinitely and never crashes on overload.
//   * Snapshot isolation for updates: the engine serves from an immutable
//     `shared_ptr<const Snapshot>` (package + the PublicParams whose root
//     signature covers it). InsertImage/DeleteImage clone the current
//     package (core::ClonePackage, which re-derives and thereby
//     integrity-checks every digest), apply the update to the clone,
//     re-sign, and atomically swap the pointer. In-flight queries keep
//     verifying against the root they started under; their responses carry
//     that snapshot so clients check the matching signature. Writers are
//     serialized; readers never block writers or each other.
//   * Update validation + rollback: before publishing, the engine checks
//     (1) the clone's root digest equals the served snapshot's (corrupted
//     in-memory state cannot sneak into a fresh signature) and (2) the
//     freshly signed root signature actually verifies over the
//     cloned package's new root. Any corruption (kCorrupted) is retried
//     with exponential backoff (1 ms, doubling) up to
//     EngineOptions::update_max_attempts;
//     logical failures (duplicate id, ...) are returned immediately. On
//     every failure path the old snapshot stays published — queries racing
//     a faulty update always verify against a consistently signed root.
//     Fault-injection tests (tests/fault_test.cc + common/fault.h) drive
//     clone/sign failures, epoch-file write faults, and latency through
//     these paths.
//
// Determinism invariant: for a fixed snapshot, the engine's response —
// VO bytes and top-k — is byte-identical to the serial
// ServiceProvider::Query at ANY worker count and ANY intra-query thread
// count. Every parallel loop writes disjoint per-index slots and merges in
// index order; there are no cross-thread floating-point reductions. The
// golden determinism tests (tests/golden_test.cc) lock this in. Shedding
// never alters accepted queries' bytes: a shed/expired query returns no VO
// at all.

#ifndef IMAGEPROOF_CORE_QUERY_ENGINE_H_
#define IMAGEPROOF_CORE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/thread_pool.h"
#include "core/query_cache.h"
#include "core/server.h"
#include "core/update.h"
#include "obs/metrics.h"

namespace imageproof::storage {
class EpochJanitor;
}  // namespace imageproof::storage

namespace imageproof::core {

struct EngineOptions {
  unsigned num_workers = 4;          // pool size (inter-query parallelism)
  size_t queue_capacity = 128;       // bounded submission queue, 0 = unbounded
  unsigned intra_query_threads = 1;  // ParallelFor width inside one query
  // Update fault tolerance: total attempts per InsertImage/DeleteImage when
  // the failure is kCorrupted (transient storage/signing faults).
  int update_max_attempts = 3;
  // Non-empty = disk-backed epochs: every applied update is written to
  // persist_dir as pkg-<version>.ipk (crash-safe temp + fsync + rename),
  // reopened from the mapping with its fresh root signature verified, and
  // only then published — both to dir/CURRENT and as the served snapshot,
  // which from then on serves image payloads from the mapped file. A fault
  // at any step leaves CURRENT on the old epoch and the old snapshot
  // serving (kCorrupted, retryable).
  std::string persist_dir;
  // Version of the initial snapshot — the epoch it was opened from, so a
  // restarted engine keeps numbering epochs monotonically.
  uint64_t initial_version = 0;
  // Result-cache capacity in entries (core/query_cache.h). 0 (the default)
  // disables caching entirely; a positive capacity turns on the
  // epoch-keyed LRU consulted before ServiceProvider::Query. Hits are
  // byte-identical to cold serves, so this is purely a latency/CPU knob.
  size_t cache_capacity = 0;
  // Epoch housekeeping (storage/epoch_janitor.h), meaningful only with a
  // persist_dir. retain_epochs > 0 keeps the newest N pkg-*.ipk files and
  // GCs the rest (never the one CURRENT names). A nonzero scrub_interval
  // runs a background scrubber at that cadence, re-walking the current
  // epoch's full digest chain (including the lazily-faulted image blobs);
  // a detected divergence quarantines the epoch and rolls the engine back
  // to the newest verifiable prior epoch via RollbackFromCorruptEpoch().
  // Both run on one engine-owned janitor thread.
  size_t retain_epochs = 0;
  std::chrono::milliseconds scrub_interval{0};
};

// Per-submission options. A zero deadline means none.
struct SubmitOptions {
  std::chrono::milliseconds deadline{0};
  // Serve the inverted-index/frequency-group VO section group-varint
  // compressed (invindex/vo_compress.h). Set by the net server only for
  // clients that negotiated compression in the query frame; the client
  // decompresses before digest verification, so authentication is
  // unchanged.
  bool compress_vo = false;
  // Settle the inverted-index/frequency-group search until every claimed
  // top-k score is provably exact (ServeOptions::settle_exact_topk). Set by
  // the shard coordinator: the authenticated merge of per-shard results is
  // only sound when each shard's scores are exact, not lower bounds.
  bool settle_exact_topk = false;
};

// One immutable published state of the deployment. `params.root_signature`
// signs exactly `package->RootDigest()`; both are replaced together on
// update, never mutated.
struct Snapshot {
  std::shared_ptr<const SpPackage> package;
  PublicParams params;
  uint64_t version = 0;  // 0 = the snapshot the engine was constructed with
};

// A query response plus the snapshot it was served under, plus the serving
// outcome. `status` is OK for served queries; kOverloaded /
// kDeadlineExceeded / kUnavailable responses carry no VO (and a shed or
// unavailable response also no snapshot). Verification must use
// `snapshot->params` — a response served before an update is only valid
// against the root signature of its own snapshot.
struct EngineResponse {
  Status status;
  QueryResponse response;
  std::shared_ptr<const Snapshot> snapshot;

  bool ok() const { return status.ok(); }
};

// Point-in-time engine counters (Stats()). Latency percentiles come from a
// fixed log-scale histogram (obs::Histogram) and are upper-bound bucket
// estimates. In an IMAGEPROOF_NO_METRICS build, snapshot_version,
// queue_depth, and stopped remain live (they are engine state, not
// metrics) while every other field reads zero.
struct EngineStats {
  uint64_t queries_served = 0;
  uint64_t queries_shed = 0;        // kOverloaded at admission
  uint64_t deadline_exceeded = 0;   // expired in queue or between stages
  uint64_t rejected_unavailable = 0;  // submitted against a stopped engine
  uint64_t updates_applied = 0;
  uint64_t update_failures = 0;
  uint64_t update_retries = 0;      // transient-fault attempts that repeated
  uint64_t in_flight = 0;      // queries currently executing
  uint64_t queue_depth = 0;    // submitted, not yet picked up by a worker
  uint64_t snapshot_version = 0;
  bool stopped = false;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  // Result cache (all zero when EngineOptions::cache_capacity == 0).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  // Dim trees (SpPackage::dim_trees): hits counts the partial reveals that
  // cold serves proved from them; builds is the trees the CURRENT
  // snapshot's package built at decoration, one per cluster. Both read 0
  // under kFullVector, which has no such trees.
  uint64_t memo_hits = 0;
  uint64_t memo_builds = 0;
  // Cumulative inv/fg VO section bytes served with and without group-varint
  // compression, for bytes-on-the-wire accounting.
  uint64_t vo_bytes_compressed = 0;
  uint64_t vo_bytes_raw = 0;
  // Epoch janitor (all zero without persist_dir + retain/scrub options).
  uint64_t epochs_gced = 0;          // old epoch files deleted
  uint64_t scrub_passes = 0;         // digest-chain re-walks completed
  uint64_t scrub_corruptions = 0;    // divergences detected on disk
  uint64_t epochs_quarantined = 0;   // .quarantined markers written
  uint64_t epoch_rollbacks = 0;      // successful last-good republishes
};

class QueryEngine {
 public:
  // Takes shared ownership of the package. `params` must be the public
  // parameters published for exactly this package state.
  QueryEngine(std::shared_ptr<const SpPackage> package, PublicParams params,
              EngineOptions options = {});
  ~QueryEngine();  // equivalent to Shutdown(): drains all submitted queries

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Enqueues one query. Never blocks: the returned future is immediately
  // ready with kOverloaded when the queue is full, or kUnavailable after
  // Shutdown(). With a deadline set, the future resolves with
  // kDeadlineExceeded if the deadline passes before a worker picks the
  // query up or between query stages.
  std::future<EngineResponse> Submit(std::vector<std::vector<float>> features,
                                     size_t k,
                                     SubmitOptions submit_options = {});

  // Callback-based admission for event-loop callers (the src/net poll
  // server). Admits exactly like Submit() and never blocks. `done` runs on
  // the worker thread that served the query, or inline on the calling
  // thread when the admission decision is immediate (shed / unavailable).
  // It is invoked exactly once, must not throw, and must not re-enter the
  // engine's submit paths from a worker (the thread-pool self-deadlock
  // rule).
  void SubmitAsync(std::vector<std::vector<float>> features, size_t k,
                   SubmitOptions submit_options,
                   std::function<void(EngineResponse)> done);

  // Submits every query, then blocks until all are served. Results are in
  // input order. Since the caller waits for every result anyway, a full
  // queue applies backpressure (blocks the submitter) rather than shedding;
  // per-query deadlines still apply, so entries may carry
  // kDeadlineExceeded, and after Shutdown() every entry is kUnavailable.
  std::vector<EngineResponse> QueryBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      SubmitOptions submit_options = {});

  // Owner-side updates. Each clones the current package, applies the
  // update, re-signs, validates the signed root against the clone, and
  // publishes a new snapshot; concurrent queries are unaffected (they
  // finish on the snapshot they started with). On failure nothing is
  // published and the old snapshot keeps serving; kCorrupted failures are
  // retried with exponential backoff (see EngineOptions). Writers are
  // serialized with each other.
  Result<UpdateStats> InsertImage(const crypto::RsaPrivateKey& owner_key,
                                  ImageId id, bovw::BovwVector bovw,
                                  Bytes image_data);
  Result<UpdateStats> DeleteImage(const crypto::RsaPrivateKey& owner_key,
                                  ImageId id);

  // Self-healing path, invoked by the epoch janitor (or an operator) when
  // the on-disk bytes of `corrupt_epoch` no longer match their digests.
  // Scans remembered prior epochs newest-first, opens the first one that
  // still fully verifies, and re-publishes its content as a NEW epoch
  // (version corrupt_epoch + 1) through the ordinary write → reopen-verify
  // → CURRENT-flip → snapshot-swap path: versions stay monotonic, the
  // result cache stays consistent (new version, so no stale hits), and a
  // restart serves the republished good state. The same content signs the
  // same root, so the prior epoch's signature carries over unchanged — and
  // served VOs are byte-identical to that epoch's cold serves. Returns
  // kError when the report is stale (a newer epoch is already serving) or
  // no prior epoch verifies; serializes with updates via the writer lock.
  Status RollbackFromCorruptEpoch(uint64_t corrupt_epoch);

  // Stops admission and drains: already-accepted queries finish (their
  // futures are satisfied), then the workers join. Every submission at or
  // after this point resolves immediately with kUnavailable; updates
  // return kUnavailable as well. Idempotent and safe to call concurrently
  // with Submit() from any thread.
  void Shutdown();

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // The snapshot new queries will be served under.
  std::shared_ptr<const Snapshot> CurrentSnapshot() const;

  EngineStats Stats() const;

  // Full observability dump as stable JSON: the engine's own metrics
  // (serving/queue-wait/update latency histograms, shed and deadline
  // counters, per-worker query counts, in-flight gauge, snapshot version)
  // plus the process-wide registry (sp.* stage timers, client.* verify
  // metrics) under "process". Safe to call concurrently with serving;
  // values are relaxed-atomic reads. Under IMAGEPROOF_NO_METRICS the
  // histograms/counters read zero and "process" is {}.
  std::string MetricsSnapshot() const;

  const EngineOptions& options() const { return options_; }

 private:
  using Clock = QueryControl::Clock;

  // Executes one query on a worker thread against `snap`, with the
  // submission's VO options. `enqueued` is the Submit() timestamp, for the
  // queue-wait histogram; `deadline` is the absolute per-query deadline
  // (time_point{} = none), which replaces `options.deadline`. Consults the
  // result cache (if enabled) before running the pipeline.
  EngineResponse Serve(const std::shared_ptr<const Snapshot>& snap,
                       const std::vector<std::vector<float>>& features,
                       size_t k, const SubmitOptions& options,
                       obs::TimePoint enqueued, Clock::time_point deadline);

  // Clone-apply-validate-swap core of both update entry points, with the
  // transient-fault retry loop. `apply` receives the cloned package and the
  // params copy to update in place.
  template <typename Apply>
  Result<UpdateStats> ApplyUpdate(Apply&& apply);

  // One clone-apply-validate attempt; publishes on success.
  template <typename Apply>
  Result<UpdateStats> TryApplyUpdate(
      const std::shared_ptr<const Snapshot>& base, Apply&& apply);

  // The one admission routine behind Submit, SubmitAsync and QueryBatch:
  // the stopped check, the deadline, the snapshot pin and the hand-off to
  // the pool. The queued task returns `then(response)` through `*out`.
  // Returns OK once the query is queued; otherwise the (counted) immediate
  // decision — kUnavailable when stopped, kOverloaded when the queue is
  // full and `block` is false. With `block` the caller waits for room.
  template <typename Then>
  Status Admit(std::vector<std::vector<float>> features, size_t k,
               const SubmitOptions& submit_options, bool block, Then then,
               std::future<std::invoke_result_t<Then, EngineResponse>>* out);

  // The one publish routine. With `write` and a persist_dir, first writes
  // `next->package` as epoch next->version, reopens it verified under
  // next->params, flips CURRENT, clears a stale quarantine marker and
  // serves the reopened mapping. Then records the epoch's params and swaps
  // snapshot_. On a failed step nothing is published; `what` prefixes the
  // error message.
  Status Publish(std::shared_ptr<Snapshot> next, const char* what, bool write);

  EngineOptions options_;
  unsigned num_workers_;            // options_.num_workers, 0 resolved to 1
  mutable std::mutex snapshot_mu_;  // guards snapshot_ swaps/reads
  std::shared_ptr<const Snapshot> snapshot_;
  std::mutex update_mu_;  // serializes writers (clone → apply → swap)
  std::atomic<bool> stopped_{false};
  // Params for recent on-disk epochs, recorded at construction and on
  // every persisted publish (guarded by snapshot_mu_). Needed for
  // rollback: .ipk files deliberately store no root signature (params
  // travel out of band), so a prior epoch can only be re-verified with
  // the params it was published under. Bounded to the newest
  // kEpochParamsRetained entries.
  static constexpr size_t kEpochParamsRetained = 64;
  std::map<uint64_t, PublicParams> epoch_params_;

  // Engine-scoped metrics (obs/metrics.h; no-ops when compiled out).
  obs::Counter queries_served_;
  obs::Counter queries_shed_;
  obs::Counter deadline_exceeded_;
  obs::Counter rejected_unavailable_;
  obs::Counter updates_applied_;
  obs::Counter update_failures_;
  obs::Counter update_retries_;
  obs::Gauge in_flight_;
  obs::Histogram latency_us_;     // Serve() wall time
  obs::Histogram queue_wait_us_;  // Submit() -> worker pickup
  obs::Histogram update_us_;      // clone + apply + re-sign + swap
  obs::Counter vo_bytes_compressed_;  // inv/fg VO bytes, compressed serves
  obs::Counter vo_bytes_raw_;         // inv/fg VO bytes, uncompressed serves
  obs::Counter partial_reveals_;      // reveals proved from a dim tree
  obs::Counter epoch_rollbacks_;      // successful RollbackFromCorruptEpoch
  std::unique_ptr<obs::Counter[]> per_worker_queries_;  // [num_workers_]
  // One reusable search scratch per pool worker (indexed by
  // ThreadPool::CurrentWorkerIndex()), so steady-state serving reuses warm
  // buffers: after each worker's first query, the search stages of
  // ServiceProvider::Query allocate nothing. Workers never share a scratch,
  // and output is byte-identical with or without one.
  std::unique_ptr<QueryScratch[]> worker_scratch_;  // [num_workers_]
  // Epoch-keyed result cache; null iff cache_capacity == 0. Shared across
  // snapshots (version lives in the key), so an update needs no flush.
  std::unique_ptr<QueryCache> cache_;
  // Engine-owned GC + scrubber thread; null unless persist_dir plus
  // retain_epochs/scrub_interval are set. Stopped first in Shutdown().
  std::unique_ptr<storage::EpochJanitor> janitor_;

  ThreadPool pool_;  // last member: destroyed (drained) first
};

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_QUERY_ENGINE_H_
