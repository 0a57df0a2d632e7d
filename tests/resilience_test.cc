// End-to-end resilience: the PR-9 failure-handling stack exercised as a
// system. Drain keeps every admitted query's response intact while new
// work gets a clean kUnavailable; RetryingClient turns a drain/restart
// cycle into latency instead of an error; the epoch janitor GC never
// deletes anything CURRENT could name; and the scrubber detects bytes
// rotting under a live engine and rolls it back onto the newest verifiable
// epoch — with the served VO bytes identical to a cold open of the
// original content. The common thread: no failure mode may weaken
// authentication, so every recovery path ends in Client::Verify.

#include <gtest/gtest.h>

#include <filesystem>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "common/fault.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/query_engine.h"
#include "core/server.h"
#include "net/client.h"
#include "net/retry.h"
#include "net/server.h"
#include "net/wire.h"
#include "storage/epoch_janitor.h"
#include "storage/file_io.h"
#include "storage/package_store.h"
#include "test_support.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

using std::chrono::milliseconds;

core::OwnerOutput BuildSmallDeployment(uint64_t seed = 7,
                                       size_t num_images = 150) {
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = num_images;
  cp.num_clusters = 64;
  cp.seed = seed;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) {
    blobs[id] = workload::GenerateImageBlob(id);
  }
  workload::CodebookParams cbp;
  cbp.num_clusters = 64;
  cbp.dims = 8;
  return core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                               std::move(corpus), std::move(blobs));
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Global().DisarmAll(); }
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  // A fresh directory `name` inside this test's scratch directory.
  std::string TempDir(const char* name) {
    std::string dir = tmp_.Path(name);
    std::filesystem::create_directories(dir);
    return dir;
  }

  testing_support::ScopedTestDir tmp_;
};

// ---------------------------------------------------------------------------
// Drain + retry
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, DrainFlushesInFlightRejectsNewAndRetryRecovers) {
  core::OwnerOutput owner = BuildSmallDeployment();
  auto package = std::shared_ptr<const core::SpPackage>(std::move(owner.package));
  auto features = workload::GenerateQueryFeatures(package->codebook, 8, 0.3, 3);

  core::EngineOptions eo;
  eo.num_workers = 2;
  core::QueryEngine engine(package, owner.public_params, eo);
  net::NetServer server(&engine);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // Slow queries down so the drain demonstrably overlaps an in-flight one.
  fault::FaultInjector::Global().ArmLatencyMs("engine.query.latency", 300);

  net::RetryPolicy policy;
  policy.base_backoff = milliseconds(20);
  policy.max_backoff = milliseconds(100);
  net::RetryingClient retrier("127.0.0.1", port, owner.public_params, policy);
  auto warm = retrier.Query(features, 5, /*deadline_ms=*/30000);
  ASSERT_TRUE(warm.ok()) << warm.status().message();

  // A second plain client, connected before the drain begins, to probe the
  // rejection path while the first query is still in flight.
  auto probe =
      net::NetClient::Connect("127.0.0.1", port, owner.public_params);
  ASSERT_TRUE(probe.ok());

  Result<net::NetQueryResult> in_flight(Status::Error("not run"));
  std::thread querier([&] {
    auto c = net::NetClient::Connect("127.0.0.1", port, owner.public_params);
    ASSERT_TRUE(c.ok());
    in_flight = c->Query(features, 5, /*deadline_ms=*/30000);
  });
  std::this_thread::sleep_for(milliseconds(80));  // let the query admit

  Status probe_status = Status::Ok();
  std::thread prober([&] {
    // Sent after draining starts, on a pre-drain connection: must get the
    // explicit kUnavailable error frame, not a hang or a reset.
    std::this_thread::sleep_for(milliseconds(60));
    probe_status = probe->Query(features, 5, /*deadline_ms=*/30000).status();
  });

  server.Drain(std::chrono::seconds(10));
  querier.join();
  prober.join();

  // The admitted query rode out the drain and verified.
  ASSERT_TRUE(in_flight.ok()) << in_flight.status().message();
  EXPECT_EQ(in_flight->verified.topk.size(), 5u);
  // The post-drain query was refused with the draining taxonomy.
  EXPECT_EQ(probe_status.code(), StatusCode::kUnavailable);
  EXPECT_NE(probe_status.message().find("draining"), std::string::npos);
  EXPECT_EQ(server.counters().drains, 1u);
  EXPECT_GE(server.counters().frames_rejected_draining, 1u);

  // Restart on the same port; the retrying client's dead connection heals
  // transparently.
  fault::FaultInjector::Global().DisarmAll();
  net::ServerOptions so;
  so.port = port;
  net::NetServer server2(&engine, so);
  ASSERT_TRUE(server2.Start().ok());
  auto after = retrier.Query(features, 5, /*deadline_ms=*/30000);
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_EQ(after->verified.topk.size(), 5u);
  EXPECT_GE(retrier.stats().reconnects, 1u);
  engine.Shutdown();
}

// ---------------------------------------------------------------------------
// EOF taxonomy (satellite 1): clean close at a frame boundary is transient,
// a mid-frame close is evidence.
// ---------------------------------------------------------------------------

// A one-shot fake server: accepts one connection, reads the request, sends
// `reply_bytes` bytes of the client's own request back (a valid frame
// prefix when nonzero), then closes.
uint16_t OneShotServer(std::thread* out, size_t reply_bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  EXPECT_EQ(::listen(fd, 1), 0);
  *out = std::thread([fd, reply_bytes] {
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0) {
      uint8_t buf[256];
      ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
      if (reply_bytes > 0 && n > 0) {
        (void)!::send(conn, buf,
                      std::min(reply_bytes, static_cast<size_t>(n)),
                      MSG_NOSIGNAL);
      }
      ::close(conn);
    }
    ::close(fd);
  });
  return ntohs(addr.sin_port);
}

TEST_F(ResilienceTest, EofAtFrameBoundaryIsUnavailable) {
  std::thread server;
  uint16_t port = OneShotServer(&server, /*reply_bytes=*/0);
  auto client =
      net::NetClient::Connect("127.0.0.1", port, core::PublicParams{});
  ASSERT_TRUE(client.ok());
  auto reply = client->ServerStatus();
  server.join();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(net::IsRetryableStatus(reply.status()));
}

TEST_F(ResilienceTest, EofMidFrameIsCorrupted) {
  std::thread server;
  // 5 bytes of the client's own request = valid magic + version + one more
  // byte, i.e. an incomplete frame, not a parse error.
  uint16_t port = OneShotServer(&server, /*reply_bytes=*/5);
  auto client =
      net::NetClient::Connect("127.0.0.1", port, core::PublicParams{});
  ASSERT_TRUE(client.ok());
  auto reply = client->ServerStatus();
  server.join();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kCorrupted);
  EXPECT_FALSE(net::IsRetryableStatus(reply.status()));
}

// ---------------------------------------------------------------------------
// Epoch GC
// ---------------------------------------------------------------------------

class JanitorGcTest : public ResilienceTest {
 protected:
  // Publishes the same small package as epochs 1..n.
  std::string WriteEpochs(const char* name, size_t n) {
    std::string dir = TempDir(name);
    owner_ = BuildSmallDeployment(11, 60);
    for (size_t e = 1; e <= n; ++e) {
      auto w = storage::PackageStore::WriteEpoch(dir, e, *owner_.package);
      EXPECT_TRUE(w.ok()) << w.status().message();
    }
    return dir;
  }

  bool EpochExists(const std::string& dir, uint64_t e) {
    return ::access(
               (dir + "/" + storage::PackageStore::EpochFileName(e)).c_str(),
               F_OK) == 0;
  }

  core::OwnerOutput owner_;
};

TEST_F(JanitorGcTest, RetainsNewestAndDeletesTheRest) {
  std::string dir = WriteEpochs("gc_retain", 6);
  ASSERT_TRUE(storage::PackageStore::SetCurrentEpoch(dir, 6).ok());
  // A quarantine marker on an aged-out epoch travels with its file.
  ASSERT_TRUE(storage::AtomicWriteFile(
                  storage::EpochJanitor::QuarantineMarkerPath(dir, 1),
                  Bytes{'x', '\n'})
                  .ok());

  storage::JanitorOptions jo;
  jo.dir = dir;
  jo.retain_epochs = 3;
  jo.scrub = false;
  storage::EpochJanitor janitor(jo, nullptr);
  auto deleted = janitor.GcOnce();
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 3u);
  for (uint64_t e : {1u, 2u, 3u}) EXPECT_FALSE(EpochExists(dir, e));
  for (uint64_t e : {4u, 5u, 6u}) EXPECT_TRUE(EpochExists(dir, e));
  EXPECT_FALSE(storage::EpochJanitor::IsQuarantined(dir, 1));
  EXPECT_EQ(janitor.stats().epochs_deleted, 3u);
}

TEST_F(JanitorGcTest, NeverDeletesCurrentOrAnythingAbove) {
  std::string dir = WriteEpochs("gc_current", 6);
  // CURRENT points BELOW the retain window (operator rollback): the GC
  // must keep epoch 2 and everything above it, whatever retain says.
  ASSERT_TRUE(storage::PackageStore::SetCurrentEpoch(dir, 2).ok());
  storage::JanitorOptions jo;
  jo.dir = dir;
  jo.retain_epochs = 3;
  jo.scrub = false;
  storage::EpochJanitor janitor(jo, nullptr);
  auto deleted = janitor.GcOnce();
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);  // only epoch 1 is both aged out and below CURRENT
  EXPECT_FALSE(EpochExists(dir, 1));
  for (uint64_t e : {2u, 3u, 4u, 5u, 6u}) EXPECT_TRUE(EpochExists(dir, e));
}

TEST_F(JanitorGcTest, DeclinesThePassWhenCurrentIsUnreadable) {
  std::string dir = WriteEpochs("gc_nocurrent", 5);  // no CURRENT at all
  storage::JanitorOptions jo;
  jo.dir = dir;
  jo.retain_epochs = 2;
  jo.scrub = false;
  storage::EpochJanitor janitor(jo, nullptr);
  auto deleted = janitor.GcOnce();
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 0u);
  for (uint64_t e = 1; e <= 5; ++e) EXPECT_TRUE(EpochExists(dir, e));
}

TEST_F(JanitorGcTest, GcRacesCurrentFlipWithoutBreakingThePointer) {
  std::string dir = WriteEpochs("gc_race", 8);
  ASSERT_TRUE(storage::PackageStore::SetCurrentEpoch(dir, 8).ok());
  storage::JanitorOptions jo;
  jo.dir = dir;
  jo.retain_epochs = 2;
  jo.scrub = false;
  storage::EpochJanitor janitor(jo, nullptr);

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    // Flip CURRENT between the two epochs the retain window protects.
    uint64_t e = 7;
    while (!stop.load()) {
      ASSERT_TRUE(storage::PackageStore::SetCurrentEpoch(dir, e).ok());
      e = (e == 7) ? 8 : 7;
    }
  });
  for (int i = 0; i < 50; ++i) {
    auto r = janitor.GcOnce();
    ASSERT_TRUE(r.ok());
  }
  stop.store(true);
  flipper.join();

  // Invariant: CURRENT still names a file that exists and verifies.
  auto cur = storage::PackageStore::CurrentEpoch(dir);
  ASSERT_TRUE(cur.ok());
  EXPECT_TRUE(EpochExists(dir, *cur));
  storage::OpenOptions opts;
  opts.params = &owner_.public_params;
  auto reopened = storage::PackageStore::OpenCurrent(dir, opts);
  EXPECT_TRUE(reopened.ok()) << reopened.status().message();
}

// ---------------------------------------------------------------------------
// Scrub + rollback
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, ScrubDetectsFlippedByteInSectionData) {
  std::string dir = TempDir("scrub_detect");
  core::OwnerOutput owner = BuildSmallDeployment(13, 60);
  auto path = storage::PackageStore::WriteEpoch(dir, 1, *owner.package);
  ASSERT_TRUE(path.ok());

  storage::ScrubReport report;
  ASSERT_TRUE(storage::PackageStore::Scrub(*path, {}, &report).ok());
  EXPECT_GT(report.sections_checked, 0u);
  EXPECT_GT(report.bytes_hashed, 0u);

  // Flip one byte in the middle of the file — deep inside section data,
  // far past the header/TOC region open-time verification covers.
  FILE* f = std::fopen(path->c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long mid = std::ftell(f) / 2;
  ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  Status s = storage::PackageStore::Scrub(*path);
  EXPECT_EQ(s.code(), StatusCode::kCorrupted) << s.message();
}

TEST_F(JanitorGcTest, ScrubCoversRetainedEpochsWithoutRollback) {
  // Bit rot in a RETAINED (non-CURRENT) epoch must be found by the scrub
  // pass — a rollback candidate that rots silently is discovered at the
  // worst possible moment otherwise — but it endangers nothing live, so
  // the only consequence is its quarantine marker: no rollback callback.
  std::string dir = WriteEpochs("scrub_retained", 3);
  ASSERT_TRUE(storage::PackageStore::SetCurrentEpoch(dir, 3).ok());

  const std::string p1 = dir + "/" + storage::PackageStore::EpochFileName(1);
  {
    FILE* f = std::fopen(p1.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long mid = std::ftell(f) / 2;
    ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
    std::fputc(c ^ 0x20, f);
    std::fclose(f);
  }

  storage::JanitorOptions jo;
  jo.dir = dir;
  jo.retain_epochs = 3;
  std::atomic<int> rollbacks{0};
  storage::EpochJanitor janitor(jo, [&](uint64_t) {
    rollbacks.fetch_add(1);
    return Status::Ok();
  });

  auto found = janitor.ScrubOnce();
  ASSERT_TRUE(found.ok()) << found.status().message();
  EXPECT_EQ(*found, 1u);
  EXPECT_TRUE(storage::EpochJanitor::IsQuarantined(dir, 1));
  EXPECT_FALSE(storage::EpochJanitor::IsQuarantined(dir, 2));
  EXPECT_FALSE(storage::EpochJanitor::IsQuarantined(dir, 3));
  EXPECT_EQ(rollbacks.load(), 0);  // CURRENT is healthy; nothing to roll back
  auto cur = storage::PackageStore::CurrentEpoch(dir);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(*cur, 3u);

  // A second pass skips the quarantined epoch instead of re-counting it.
  auto again = janitor.ScrubOnce();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
  EXPECT_EQ(janitor.stats().scrub_corruptions, 1u);
  EXPECT_EQ(janitor.stats().epochs_quarantined, 1u);
}

TEST_F(ResilienceTest, ScrubberQuarantinesAndEngineRollsForward) {
  std::string dir = TempDir("scrub_rollback");
  core::OwnerOutput owner = BuildSmallDeployment(17, 80);
  auto package = std::shared_ptr<const core::SpPackage>(std::move(owner.package));
  auto features = workload::GenerateQueryFeatures(package->codebook, 8, 0.3, 5);
  bovw::BovwVector insert_vec = package->corpus[0].second;

  core::EngineOptions eo;
  eo.num_workers = 1;
  eo.persist_dir = dir;
  eo.retain_epochs = 4;
  eo.scrub_interval = milliseconds(25);
  core::QueryEngine engine(package, owner.public_params, eo);

  // Publish epoch 1, then epoch 2; epoch 2 is CURRENT and being scrubbed.
  auto ins = engine.InsertImage(owner.private_key, 500000, insert_vec,
                                workload::GenerateImageBlob(500000));
  ASSERT_TRUE(ins.ok()) << ins.status().message();
  auto del = engine.DeleteImage(owner.private_key, 500000);
  ASSERT_TRUE(del.ok()) << del.status().message();
  ASSERT_EQ(engine.CurrentSnapshot()->version, 2u);

  // Rot one byte of epoch 2 on disk, mid-file (section data).
  const std::string p2 = dir + "/" + storage::PackageStore::EpochFileName(2);
  {
    FILE* f = std::fopen(p2.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long mid = std::ftell(f) / 2;
    ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }

  // The background scrubber must detect it and the engine must re-publish.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.Stats().epoch_rollbacks == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "scrubber never rolled back";
    std::this_thread::sleep_for(milliseconds(10));
  }

  core::EngineStats stats = engine.Stats();
  EXPECT_GE(stats.scrub_corruptions, 1u);
  EXPECT_GE(stats.epochs_quarantined, 1u);
  EXPECT_EQ(stats.epoch_rollbacks, 1u);
  EXPECT_TRUE(storage::EpochJanitor::IsQuarantined(dir, 2));

  // Rollback is roll-FORWARD: epoch-1 content republished as epoch 3, so
  // versions stay monotonic and the epoch-keyed cache stays coherent.
  auto cur = storage::PackageStore::CurrentEpoch(dir);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(*cur, 3u);
  auto snap = engine.CurrentSnapshot();
  EXPECT_EQ(snap->version, 3u);

  // Queries keep serving and verifying after the rollback...
  auto fut = engine.Submit(features, 5);
  auto resp = fut.get();
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  core::Client client(resp.snapshot->params);
  ASSERT_TRUE(client.Verify(features, 5, resp.response.vo).ok());

  // ...and serve byte-identical VOs to a cold open of the republished
  // epoch: recovery restored content, not something content-like.
  storage::OpenOptions opts;
  opts.params = &snap->params;
  auto cold = storage::PackageStore::OpenCurrent(dir, opts);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  core::ServiceProvider sp(cold->get());
  EXPECT_EQ(resp.response.vo.Serialize(), sp.Query(features, 5).vo.Serialize());

  engine.Shutdown();
}

TEST_F(ResilienceTest, PublishClearsStaleMarkerAndFlipsCurrent) {
  // Both ways the engine publishes a new epoch — an update and a rollback —
  // run the same write, reopen-verify, CURRENT flip and snapshot swap. A
  // `.quarantined` marker left on the epoch number about to be written is
  // stale once verified bytes replace it, so each publish must clear it.
  core::OwnerOutput owner = BuildSmallDeployment(19, 80);
  auto package =
      std::shared_ptr<const core::SpPackage>(std::move(owner.package));
  auto features = workload::GenerateQueryFeatures(package->codebook, 8, 0.3, 9);
  bovw::BovwVector insert_vec = package->corpus[0].second;
  auto insert = [&](core::QueryEngine& engine) {
    return engine
        .InsertImage(owner.private_key, 500000, insert_vec,
                     workload::GenerateImageBlob(500000))
        .status();
  };

  struct Row {
    const char* name;
    uint64_t published;  // the epoch the row's publish writes
    std::function<Status(core::QueryEngine&)> publish;
  };
  const std::vector<Row> rows = {
      {"insert", 1, insert},
      {"rollback", 3,
       [&](core::QueryEngine& engine) {
         // Epochs 1 and 2 on disk, then roll epoch 2 back onto epoch 1's
         // content, republished as epoch 3.
         Status s = insert(engine);
         if (!s.ok()) return s;
         s = engine.DeleteImage(owner.private_key, 500000).status();
         if (!s.ok()) return s;
         return engine.RollbackFromCorruptEpoch(2);
       }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    std::string dir = TempDir(row.name);
    const std::string marker =
        storage::EpochJanitor::QuarantineMarkerPath(dir, row.published);
    ASSERT_TRUE(storage::AtomicWriteFile(marker, Bytes{'x', '\n'}).ok());
    ASSERT_TRUE(storage::EpochJanitor::IsQuarantined(dir, row.published));

    core::EngineOptions eo;
    eo.num_workers = 1;
    eo.persist_dir = dir;
    core::QueryEngine engine(package, owner.public_params, eo);
    Status s = row.publish(engine);
    ASSERT_TRUE(s.ok()) << s.message();

    EXPECT_FALSE(storage::EpochJanitor::IsQuarantined(dir, row.published));
    auto cur = storage::PackageStore::CurrentEpoch(dir);
    ASSERT_TRUE(cur.ok()) << cur.status().message();
    EXPECT_EQ(*cur, row.published);
    core::EngineResponse resp = engine.Submit(features, 5).get();
    ASSERT_TRUE(resp.ok()) << resp.status.message();
    EXPECT_EQ(resp.snapshot->version, row.published);
    core::Client client(resp.snapshot->params);
    EXPECT_TRUE(client.Verify(features, 5, resp.response.vo).ok());
  }
}

// ---------------------------------------------------------------------------
// Fault-site vocabulary (satellite 2)
// ---------------------------------------------------------------------------

TEST_F(ResilienceTest, ArmingUnknownFaultSiteAbortsLoudly) {
  EXPECT_DEATH(
      fault::FaultInjector::Global().ArmAlways("engine.query.latencyy"),
      "fault: unknown site");
}

}  // namespace
}  // namespace imageproof
