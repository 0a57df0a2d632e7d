#include "storage/epoch_janitor.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "storage/file_io.h"
#include "storage/package_store.h"

namespace imageproof::storage {

EpochJanitor::EpochJanitor(JanitorOptions options, RollbackFn on_corruption)
    : options_(std::move(options)), on_corruption_(std::move(on_corruption)) {}

EpochJanitor::~EpochJanitor() { Stop(); }

void EpochJanitor::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || options_.scrub_interval.count() <= 0) return;
  stop_.store(false, std::memory_order_release);
  cancel_scrub_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  started_ = true;
}

void EpochJanitor::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  cancel_scrub_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  thread_.join();
  started_ = false;
}

void EpochJanitor::Loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait_for(lock, options_.scrub_interval, [this] {
        return stop_.load(std::memory_order_acquire);
      });
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (options_.scrub) (void)ScrubOnce();
    if (stop_.load(std::memory_order_acquire)) return;
    (void)GcOnce();
  }
}

std::string EpochJanitor::QuarantineMarkerPath(const std::string& dir,
                                               uint64_t epoch) {
  return dir + "/" + PackageStore::EpochFileName(epoch) + ".quarantined";
}

bool EpochJanitor::IsQuarantined(const std::string& dir, uint64_t epoch) {
  return ::access(QuarantineMarkerPath(dir, epoch).c_str(), F_OK) == 0;
}

Result<std::vector<uint64_t>> EpochJanitor::ListEpochs(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Result<std::vector<uint64_t>>(
        Status::Error("janitor: cannot open directory " + dir));
  }
  std::vector<uint64_t> epochs;
  while (dirent* ent = ::readdir(d)) {
    const char* name = ent->d_name;
    const size_t len = std::strlen(name);
    // pkg-<20 digits>.ipk and nothing else (markers end differently).
    if (len != 4 + 20 + 4 || std::strncmp(name, "pkg-", 4) != 0 ||
        std::strcmp(name + 24, ".ipk") != 0) {
      continue;
    }
    uint64_t epoch = 0;
    bool digits = true;
    for (size_t i = 4; i < 24; ++i) {
      if (name[i] < '0' || name[i] > '9') {
        digits = false;
        break;
      }
      epoch = epoch * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    if (digits) epochs.push_back(epoch);
  }
  ::closedir(d);
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Result<size_t> EpochJanitor::GcOnce() {
  gc_passes_.fetch_add(1, std::memory_order_relaxed);
  if (options_.retain_epochs == 0) return size_t{0};
  size_t retain = options_.retain_epochs;
  if (options_.scrub && retain < 2) retain = 2;  // rollback needs a target
  Result<std::vector<uint64_t>> epochs = ListEpochs(options_.dir);
  if (!epochs.ok()) return epochs.status();
  if (epochs->size() <= retain) return size_t{0};
  // A missing/unreadable CURRENT means a fresh or torn directory; deleting
  // anything while the pointer is broken would destroy the evidence an
  // operator needs, so GC declines the pass instead.
  Result<uint64_t> scan_current = PackageStore::CurrentEpoch(options_.dir);
  if (!scan_current.ok()) return size_t{0};
  size_t deleted = 0;
  const size_t candidates = epochs->size() - retain;
  for (size_t i = 0; i < candidates; ++i) {
    const uint64_t e = (*epochs)[i];
    if (e >= *scan_current) continue;  // possibly a publication mid-flight
    // Re-read the pointer right before the unlink: a flip onto this epoch
    // since the scan (rollback, operator) must win the race.
    Result<uint64_t> now = PackageStore::CurrentEpoch(options_.dir);
    if (!now.ok() || *now == e) continue;
    const std::string path =
        options_.dir + "/" + PackageStore::EpochFileName(e);
    if (std::remove(path.c_str()) == 0) {
      ++deleted;
      epochs_deleted_.fetch_add(1, std::memory_order_relaxed);
    }
    (void)std::remove(QuarantineMarkerPath(options_.dir, e).c_str());
  }
  return deleted;
}

Result<uint64_t> EpochJanitor::ScrubEpoch(uint64_t epoch, bool is_current) {
  const std::string path =
      options_.dir + "/" + PackageStore::EpochFileName(epoch);
  ScrubReport report;
  Status s = PackageStore::Scrub(path, &cancel_scrub_, &report);
  scrub_bytes_.fetch_add(report.bytes_hashed, std::memory_order_relaxed);
  if (s.ok()) return uint64_t{0};
  if (s.code() != StatusCode::kCorrupted) return s;  // cancelled / IO error
  scrub_corruptions_.fetch_add(1, std::memory_order_relaxed);
  Bytes marker(s.message().begin(), s.message().end());
  marker.push_back('\n');
  if (AtomicWriteFile(QuarantineMarkerPath(options_.dir, epoch), marker)
          .ok()) {
    epochs_quarantined_.fetch_add(1, std::memory_order_relaxed);
  }
  // Rollback is only meaningful for the serving epoch: a rotted retained
  // epoch endangers nothing that is live — the marker simply strikes it
  // from the rollback-candidate list before anyone tries to trust it.
  if (is_current && on_corruption_) {
    rollbacks_requested_.fetch_add(1, std::memory_order_relaxed);
    Status rb = on_corruption_(epoch);
    if (!rb.ok()) rollbacks_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  return uint64_t{1};
}

Result<uint64_t> EpochJanitor::ScrubOnce() {
  Result<uint64_t> current = PackageStore::CurrentEpoch(options_.dir);
  if (!current.ok()) return uint64_t{0};  // fresh directory: nothing to scrub
  scrub_passes_.fetch_add(1, std::memory_order_relaxed);

  // CURRENT first — it is the epoch whose rot matters most, and its
  // detection must not wait behind a pile of retained files.
  Result<uint64_t> corruptions = ScrubEpoch(*current, /*is_current=*/true);
  if (!corruptions.ok()) return corruptions;
  uint64_t found = *corruptions;

  // Then every retained, not-yet-quarantined epoch: bit rot in a rollback
  // candidate is invisible until the exact moment rollback needs it, which
  // is the worst time to find out. Re-read CURRENT afterwards — the
  // current-epoch scrub above may itself have triggered a rollback that
  // republished a new epoch, and retained-epoch rules apply to the rest.
  Result<std::vector<uint64_t>> epochs = ListEpochs(options_.dir);
  if (!epochs.ok()) return found;
  Result<uint64_t> now = PackageStore::CurrentEpoch(options_.dir);
  for (uint64_t e : *epochs) {
    if (cancel_scrub_.load(std::memory_order_acquire)) break;
    if (now.ok() && e == *now) continue;  // already covered (or fresh)
    if (IsQuarantined(options_.dir, e)) continue;
    Result<uint64_t> r = ScrubEpoch(e, /*is_current=*/false);
    if (!r.ok()) break;  // cancelled / IO error; keep what we found
    found += *r;
  }
  return found;
}

JanitorStats EpochJanitor::stats() const {
  JanitorStats s;
  s.gc_passes = gc_passes_.load(std::memory_order_relaxed);
  s.epochs_deleted = epochs_deleted_.load(std::memory_order_relaxed);
  s.scrub_passes = scrub_passes_.load(std::memory_order_relaxed);
  s.scrub_bytes = scrub_bytes_.load(std::memory_order_relaxed);
  s.scrub_corruptions = scrub_corruptions_.load(std::memory_order_relaxed);
  s.epochs_quarantined = epochs_quarantined_.load(std::memory_order_relaxed);
  s.rollbacks_requested = rollbacks_requested_.load(std::memory_order_relaxed);
  s.rollbacks_failed = rollbacks_failed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace imageproof::storage
