// Network serving demo: core::QueryEngine behind the src/net wire protocol.
//
//   net_server <dir> [port]   serve the CURRENT epoch of a deployment_cli-
//                             built deployment dir over TCP (port 0/omitted
//                             = ephemeral, printed on stdout); runs until
//                             stdin closes. If the dir contains owner.key,
//                             kInsert/kDelete frames are accepted (applied
//                             in memory; the dir is not rewritten).
//
// Run without arguments for a self-contained loopback demo: build a tiny
// deployment in memory, serve it on an ephemeral port, then act as a remote
// client against ourselves — query + verify, status, an owner insert over
// the wire, and a re-query that must verify under the re-signed root. Exits
// nonzero if any step (above all Client::Verify) fails.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/owner.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/format.h"
#include "storage/package_store.h"
#include "workload/synthetic.h"

using namespace imageproof;

namespace {

int Fail(const char* step, const Status& status) {
  std::printf("net_server: %s failed: [%s] %s\n", step,
              StatusCodeToString(status.code()), status.message().c_str());
  return net::ExitCodeForStatus(status);
}

// Self-pipe for SIGTERM/SIGINT: the handler only writes a byte; the serve
// loop polls the read end alongside stdin and turns it into a graceful
// Drain() — in-flight queries finish and flush, new frames get a clean
// kUnavailable error, then the listener closes.
int g_signal_pipe[2] = {-1, -1};

extern "C" void OnShutdownSignal(int) {
  const char byte = 1;
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

int ServeDir(const std::string& dir, uint16_t port) {
  auto params = storage::LoadPublicParams(dir + "/params.bin");
  if (!params.ok()) return Fail("load params", params.status());
  storage::OpenOptions open_opts;
  open_opts.params = &*params;
  uint64_t epoch = 0;
  auto pkg = storage::PackageStore::OpenCurrent(dir, open_opts, &epoch);
  if (!pkg.ok()) return Fail("open epoch", pkg.status());

  core::EngineOptions eo;
  eo.initial_version = epoch;
  core::QueryEngine engine(
      std::shared_ptr<const core::SpPackage>(std::move(pkg).value()),
      std::move(params).value(), eo);
  net::ServerOptions opts;
  opts.port = port;
  net::NetServer server(&engine, opts);

  // Owner key on disk => this instance also accepts update frames.
  crypto::RsaPrivateKey owner_key;
  bool updates = false;
  if (FILE* f = std::fopen((dir + "/owner.key").c_str(), "rb")) {
    Bytes data;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      data.insert(data.end(), buf, buf + n);
    }
    std::fclose(f);
    ByteReader r(data);
    Bytes nb, db;
    if (r.GetBlob(&nb).ok() && r.GetBlob(&db).ok()) {
      owner_key.n = crypto::BigInt::FromBytes(nb);
      owner_key.d = crypto::BigInt::FromBytes(db);
      server.EnableUpdates(&owner_key);
      updates = true;
    }
  }

  Status st = server.Start();
  if (!st.ok()) return Fail("start", st);
  std::printf("net_server: serving %s on 127.0.0.1:%u (updates %s)\n",
              dir.c_str(), server.port(), updates ? "enabled" : "disabled");
  std::fflush(stdout);
  // Park until stdin closes (lets a shell script stop us with `echo | ...`
  // or ctrl-D) or SIGTERM/SIGINT arrives via the self-pipe. EOF stops hard;
  // a signal drains first so connected clients see a graceful goodbye.
  if (::pipe(g_signal_pipe) == 0) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = OnShutdownSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
  }
  bool drain = false;
  for (;;) {
    struct pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0},
                            {g_signal_pipe[0], POLLIN, 0}};
    const int nfds = g_signal_pipe[0] >= 0 ? 2 : 1;
    if (::poll(fds, nfds, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (nfds == 2 && (fds[1].revents & POLLIN) != 0) {
      drain = true;
      break;
    }
    if ((fds[0].revents & (POLLIN | POLLHUP)) != 0) {
      char buf[256];
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
      if (n <= 0) break;  // EOF: stop without drain (old behaviour)
    }
  }
  if (drain) {
    std::printf("net_server: draining...\n");
    std::fflush(stdout);
    server.Drain();
    std::printf("net_server: drained, %llu frames rejected while draining\n",
                static_cast<unsigned long long>(
                    server.counters().frames_rejected_draining));
  } else {
    server.Stop();
  }
  return 0;
}

int Demo() {
  core::Config config = core::Config::ImageProof();
  config.rsa_bits = 512;
  workload::CorpusParams cp;
  cp.num_images = 300;
  cp.num_clusters = 128;
  auto corpus = workload::GenerateCorpus(cp);
  std::unordered_map<bovw::ImageId, Bytes> blobs;
  for (const auto& [id, v] : corpus) blobs[id] = workload::GenerateImageBlob(id);
  workload::CodebookParams cbp;
  cbp.num_clusters = 128;
  cbp.dims = 16;
  core::OwnerOutput owner = core::BuildDeployment(
      config, workload::GenerateCodebook(cbp), std::move(corpus),
      std::move(blobs));
  // Keep a handle on package internals for query synthesis before handing
  // ownership to the engine.
  const core::SpPackage* pkg = owner.package.get();

  core::QueryEngine engine(
      std::shared_ptr<const core::SpPackage>(std::move(owner.package)),
      owner.public_params);
  net::NetServer server(&engine);
  server.EnableUpdates(&owner.private_key);
  Status st = server.Start();
  if (!st.ok()) return Fail("start", st);
  std::printf("--- serving on 127.0.0.1:%u ---\n", server.port());

  auto client = net::NetClient::Connect("127.0.0.1", server.port(),
                                        owner.public_params);
  if (!client.ok()) return Fail("connect", client.status());

  auto features =
      workload::FeaturesFromBovw(pkg->codebook, pkg->corpus[3].second, 30,
                                 0.2, 0.1, 7);
  auto result = client->Query(features, 5, /*deadline_ms=*/5000);
  if (!result.ok()) return Fail("query", result.status());
  std::printf("--- query: verified top-%zu over the wire "
              "(frame %zu bytes, VO %zu bytes, snapshot v%llu) ---\n",
              result->verified.topk.size(), result->response_frame_bytes,
              result->vo_bytes.size(),
              static_cast<unsigned long long>(result->snapshot_version));
  for (const auto& si : result->verified.topk) {
    std::printf("  image %-8llu similarity >= %.4f\n",
                static_cast<unsigned long long>(si.id), si.score);
  }

  auto status = client->ServerStatus();
  if (!status.ok()) return Fail("status", status.status());
  std::printf("--- status: v%llu, %llu served, %llu shed ---\n",
              static_cast<unsigned long long>(status->snapshot_version),
              static_cast<unsigned long long>(status->queries_served),
              static_cast<unsigned long long>(status->queries_shed));

  // Owner insert over the wire: near-duplicate of image 3, then re-query —
  // the response now verifies under the NEW root signature the frame
  // carries, and the inserted image should rank.
  auto ack = client->Insert(1000000, pkg->corpus[3].second,
                            workload::GenerateImageBlob(1000000));
  if (!ack.ok()) return Fail("insert", ack.status());
  std::printf("--- insert: snapshot v%llu (%llu lists, %llu nodes) ---\n",
              static_cast<unsigned long long>(ack->new_version),
              static_cast<unsigned long long>(ack->lists_updated),
              static_cast<unsigned long long>(ack->nodes_rehashed));

  auto after = client->Query(features, 5, /*deadline_ms=*/5000);
  if (!after.ok()) return Fail("re-query", after.status());
  bool found = false;
  for (const auto& si : after->verified.topk) found |= (si.id == 1000000);
  std::printf("--- re-query: verified under snapshot v%llu, inserted image "
              "%s ---\n",
              static_cast<unsigned long long>(after->snapshot_version),
              found ? "ranked in top-k" : "not in top-k");
  if (after->snapshot_version != ack->new_version) {
    std::printf("net_server: re-query served from stale snapshot\n");
    return 1;
  }

  server.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    uint16_t port = 0;
    if (argc >= 3) port = static_cast<uint16_t>(std::atoi(argv[2]));
    return ServeDir(argv[1], port);
  }
  return Demo();
}
