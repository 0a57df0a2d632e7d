// Background housekeeping for an epoch directory: retain-last-N garbage
// collection of pkg-<epoch>.ipk files, plus a cancellable scrubber that
// re-walks the digest chain of the epoch CURRENT names — triggering a
// rollback when the bytes on disk no longer match — and of every retained
// non-current epoch, so rollback candidates are known-good before rollback
// ever needs one (corrupt candidates are quarantined, nothing more).
//
// GC safety argument (the invariant, then why each rule preserves it):
// after any interleaving of GC with concurrent epoch publication, CURRENT
// names a file that exists and verifies.
//   1. Only epochs strictly below the newest `retain` are candidates —
//      recent epochs stay as rollback targets for the scrubber.
//   2. An epoch >= the CURRENT value read at scan time is never deleted:
//      a number above CURRENT may be a publication mid-flight (file
//      written, pointer flip pending) — deleting it would race the flip.
//   3. CURRENT is re-read immediately before each unlink and the unlink is
//      skipped if the pointer moved onto that epoch meanwhile. Together
//      with (2) this makes GC safe against a concurrent flip in either
//      direction — forward (normal publication) or onto any retained epoch
//      (operator intervention): the only way to lose the race would be a
//      flip onto an epoch below both the retain window and the CURRENT
//      value at scan time, i.e. onto a file old enough that rule 1 already
//      aged it out — and such a flip would be unserveable the moment GC
//      runs again, so the store never promises it.
//   4. A quarantine marker (pkg-<e>.ipk.quarantined) travels with its
//      file: deleted together, and a quarantined epoch is never a rollback
//      candidate.
//
// Scrub protocol: Scrub(CURRENT) re-hashes header, TOC, and all nine
// sections (including the lazily-faulted image blobs that open-time
// verification skips). On divergence the janitor (a) writes the
// quarantine marker for the epoch, (b) invokes the rollback callback —
// core::QueryEngine wires this to a re-publish of the newest verifiable
// prior epoch through its ordinary clone/verify/swap path — and counts
// both. The janitor itself never mutates CURRENT: rollback is the
// engine's atomic publication, or an operator's, never a side effect of
// scanning.
//
// Threading: Start() runs one background thread that alternates scrub and
// GC passes at `scrub_interval`; GcOnce()/ScrubOnce() are also callable
// directly (tests, tooling) and are safe concurrently with the thread —
// all state transitions go through atomics or the filesystem.

#ifndef IMAGEPROOF_STORAGE_EPOCH_JANITOR_H_
#define IMAGEPROOF_STORAGE_EPOCH_JANITOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace imageproof::storage {

struct JanitorOptions {
  std::string dir;
  // Keep the newest N epoch files (0 disables GC). When scrubbing is on
  // this is clamped to >= 2: rollback needs a prior epoch to exist.
  size_t retain_epochs = 0;
  // Cadence of the background thread (0 disables it; manual *Once() calls
  // still work).
  std::chrono::milliseconds scrub_interval{0};
  bool scrub = true;  // false: background thread only GCs
};

struct JanitorStats {
  uint64_t gc_passes = 0;
  uint64_t epochs_deleted = 0;
  uint64_t scrub_passes = 0;
  uint64_t scrub_bytes = 0;
  uint64_t scrub_corruptions = 0;   // divergences detected
  uint64_t epochs_quarantined = 0;  // markers written
  uint64_t rollbacks_requested = 0;
  uint64_t rollbacks_failed = 0;  // callback returned an error
};

class EpochJanitor {
 public:
  // `on_corruption(corrupt_epoch)` runs on the janitor thread after the
  // epoch is quarantined; it must republish a verifiable epoch (or fail).
  // May be empty: detection + quarantine still happen.
  using RollbackFn = std::function<Status(uint64_t corrupt_epoch)>;

  EpochJanitor(JanitorOptions options, RollbackFn on_corruption);
  ~EpochJanitor();  // Stop()

  EpochJanitor(const EpochJanitor&) = delete;
  EpochJanitor& operator=(const EpochJanitor&) = delete;

  // Spawns the background thread (no-op when scrub_interval is 0).
  void Start();
  // Cancels any in-progress scrub and joins the thread. Idempotent.
  void Stop();

  // One GC pass; returns the number of epoch files deleted.
  Result<size_t> GcOnce();
  // One scrub pass: first the epoch CURRENT names, then every retained,
  // not-yet-quarantined epoch file (rollback candidates rot silently
  // otherwise — and a rotted candidate discovered during rollback is the
  // worst possible time). Returns the number of corruptions detected. Each
  // corrupt epoch gets a quarantine marker; the rollback callback fires
  // only for the CURRENT epoch — a rotted retained epoch endangers nothing
  // live, so it is struck from the candidate list and nothing else. A
  // missing CURRENT (fresh directory) is Ok(0).
  Result<uint64_t> ScrubOnce();

  JanitorStats stats() const;

  static std::string QuarantineMarkerPath(const std::string& dir,
                                          uint64_t epoch);
  static bool IsQuarantined(const std::string& dir, uint64_t epoch);
  // Sorted ascending epoch numbers parsed from pkg-*.ipk names in `dir`.
  static Result<std::vector<uint64_t>> ListEpochs(const std::string& dir);

 private:
  void Loop();
  // Scrubs one epoch file: on divergence writes its quarantine marker and,
  // for the current epoch only, invokes the rollback callback. Returns the
  // number of corruptions (0 or 1); non-kCorrupted scrub failures
  // (cancel, IO) pass through as errors.
  Result<uint64_t> ScrubEpoch(uint64_t epoch, bool is_current);

  JanitorOptions options_;
  RollbackFn on_corruption_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> cancel_scrub_{false};
  bool started_ = false;
  std::mutex lifecycle_mu_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  std::atomic<uint64_t> gc_passes_{0};
  std::atomic<uint64_t> epochs_deleted_{0};
  std::atomic<uint64_t> scrub_passes_{0};
  std::atomic<uint64_t> scrub_bytes_{0};
  std::atomic<uint64_t> scrub_corruptions_{0};
  std::atomic<uint64_t> epochs_quarantined_{0};
  std::atomic<uint64_t> rollbacks_requested_{0};
  std::atomic<uint64_t> rollbacks_failed_{0};
};

}  // namespace imageproof::storage

#endif  // IMAGEPROOF_STORAGE_EPOCH_JANITOR_H_
