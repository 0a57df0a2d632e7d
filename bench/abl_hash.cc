// Ablation — the fast hashing core (optimized Keccak, 4-lane batch digest
// API, level-parallel Merkle construction, O(log n) incremental update).
//
// Four sections compare the serial strategy against the batched/parallel
// one on identical inputs and check the outputs are byte-identical (the
// whole point of the optimization is that only the schedule changes, never
// the digests):
//
//   keccak    one-at-a-time Sha3() vs HashBatch() over a message set
//   merkle    the old serial recursion (replicated here verbatim) vs the
//             level-parallel batched MerkleTree build
//   update    full rebuild vs UpdateLeaf per single-leaf change, with the
//             O(log n) hash bound asserted via the invocation counter
//   chain     a serial backward digest chain vs invindex::WalkChains, the
//             walker the inverted index's build, deep verify and client
//             verifier all run
//
// The permutation section times Keccak-f[1600] itself on each path: the
// scalar and 2-way instantiations of the shared round body, the 4-lane
// dispatch with four busy lanes (AVX2 where the CPU has it, else two
// portable pairs) and with one (the lone-lane scalar path). It first checks
// every path against the scalar permutation bit for bit on random states.
//
// The verify section times Client::Verify end to end over two fixed
// deployments and checks every response is accepted: one shaped like
// perfbench's remote-uniform workload (ImageProof, 10-feature queries,
// k = 10, full-vector reveals) and one like remote-zipf-hot
// (OptimizedBoth: Dim-Merkle partial reveals and frequency-grouped
// entries, 8-feature queries, k = 32). Each row also splits a verify into
// the client's stage timers (obs registry, mean µs per verify): the five
// caller-thread stages, which sum to the verify, and the inverted VO's
// parse step on its helper thread, which overlaps steps 1-3. Run it with
// IMAGEPROOF_NO_AVX2=1 to time the portable lane path.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "crypto/hasher.h"
#include "crypto/keccak_impl.h"
#include "crypto/sha3.h"
#include "invindex/chain.h"
#include "merkle/merkle_tree.h"
#include "obs/registry.h"
#include "workload/synthetic.h"

using namespace imageproof;
using namespace imageproof::bench;
using crypto::Digest;

namespace {

std::vector<Bytes> RandomMessages(size_t n, size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> msgs(n);
  for (auto& m : msgs) {
    m.resize(len);
    for (auto& b : m) b = static_cast<uint8_t>(rng.NextU64());
  }
  return msgs;
}

// The pre-PR MerkleTree construction, kept here as the baseline: serial
// leaf hashing plus the recursive largest-power-of-two-split root, no
// digest memoization beyond the leaves.
size_t SerialSplitPoint(size_t n) {
  size_t p = 1;
  while (p * 2 < n) p *= 2;
  return p;
}

Digest SerialSubtree(const std::vector<Digest>& leaves, size_t begin,
                     size_t end) {
  if (end - begin == 1) return leaves[begin];
  size_t mid = begin + SerialSplitPoint(end - begin);
  return crypto::DigestBuilder()
      .AddU8(0x01)
      .AddDigest(SerialSubtree(leaves, begin, mid))
      .AddDigest(SerialSubtree(leaves, mid, end))
      .Finalize();
}

Digest SerialMerkleRoot(const std::vector<Bytes>& payloads) {
  std::vector<Digest> leaves(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    leaves[i] = merkle::MerkleTree::HashLeaf(payloads[i]);
  }
  return SerialSubtree(leaves, 0, payloads.size());
}

Digest SerialChain(const std::vector<invindex::Posting>& postings) {
  Digest next = Digest::Zero();
  for (size_t i = postings.size(); i-- > 0;) {
    next = invindex::EntryDigest(postings[i], next);
  }
  return next;
}

bool g_ok = true;

void Check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "abl_hash: CHECK FAILED: %s\n", what);
    g_ok = false;
  }
}

// Mean ns per call of each of `fs` over `iters` calls, median over
// `rounds`. The calls interleave round by round, so drift on a shared host
// hits every path alike.
template <size_t N, typename F>
std::vector<double> MedianNs(int rounds, int iters, const F (&fs)[N]) {
  std::vector<std::vector<double>> ns(N);
  for (int r = 0; r < rounds; ++r) {
    for (size_t k = 0; k < N; ++k) {
      Stopwatch t;
      for (int i = 0; i < iters; ++i) fs[k]();
      ns[k].push_back(t.ElapsedMillis() * 1e6 / iters);
    }
  }
  std::vector<double> out;
  for (auto& v : ns) {
    std::sort(v.begin(), v.end());
    out.push_back(v[v.size() / 2]);
  }
  return out;
}

// Times Client::Verify over one query per pool entry, in rounds; the
// median round's mean stands for the verifier. Reports <key>_us,
// <key>_hashes and <key>_queries.
void VerifyRow(const char* label, const std::string& key,
               const core::Config& config, const DeploymentSpec& spec,
               const workload::QueryMixParams& mp, size_t k, int rounds) {
  BenchReport& report = BenchReport::Global();
  Deployment d(config, spec);
  workload::ZipfQueryMix mix(d.owner.package->codebook,
                             d.owner.package->corpus, mp);
  std::vector<core::QueryResponse> responses;
  for (size_t q = 0; q < mix.pool_size(); ++q) {
    responses.push_back(d.sp->Query(mix.query(q), k));
  }
  std::vector<double> round_us;
  uint64_t hashes = 0;
  bool accepted = true;
  obs::Registry::Global().Reset();
  for (int round = 0; round < rounds; ++round) {
    const uint64_t before = crypto::HashInvocations();
    Stopwatch t;
    for (size_t q = 0; q < responses.size(); ++q) {
      accepted = d.client->Verify(mix.query(q), k, responses[q].vo).ok() &&
                 accepted;
    }
    round_us.push_back(t.ElapsedMillis() * 1000.0 / responses.size());
    hashes = (crypto::HashInvocations() - before) / responses.size();
  }
  std::sort(round_us.begin(), round_us.end());
  const double median_us = round_us[round_us.size() / 2];
  Check(accepted, "Client::Verify accepts every honest response");
  std::printf("%-28s %14s %11.0f us %9s\n", label, "", median_us, "");
  std::printf("%-28s %14s %14llu\n", "  hashes/verify", "",
              static_cast<unsigned long long>(hashes));
  for (const char* stage :
       {"reveal_verify_us", "mrkd_replay_us", "bovw_check_us",
        "inv_prepare_us", "inv_verify_us", "sig_verify_us"}) {
    const obs::HistogramSnapshot h =
        obs::Registry::Global()
            .GetHistogram(std::string("client.stage.") + stage)
            .Snapshot();
    const double mean = h.count == 0 ? 0.0
                                     : static_cast<double>(h.sum) /
                                           static_cast<double>(h.count);
    std::printf("  %-26s %14s %11.0f us\n", stage, "", mean);
    report.AddValue(key + "_" + stage, mean);
  }
  report.AddValue(key + "_queries", static_cast<double>(responses.size()));
  report.AddValue(key + "_us", median_us);
  report.AddValue(key + "_hashes", static_cast<double>(hashes));
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv, "abl_hash");
  BenchReport& report = BenchReport::Global();
  const bool smoke = SmokeMode();
  std::printf("Ablation — fast hashing core (batch Keccak + parallel ADS build)\n");
  std::printf("%-28s %14s %14s %9s\n", "section", "serial", "optimized",
              "speedup");
  std::printf("-------------------------------------------------------------------\n");

  // --- keccak: one-at-a-time vs 4-lane batch -------------------------------
  {
    const size_t n = smoke ? 4096 : 65536;
    const size_t len = 512;
    auto msgs = RandomMessages(n, len, 42);
    std::vector<BytesView> views(msgs.begin(), msgs.end());
    std::vector<Digest> serial_out(n), batch_out(n);
    Stopwatch t1;
    for (size_t i = 0; i < n; ++i) {
      serial_out[i] = crypto::Sha3(msgs[i].data(), msgs[i].size());
    }
    const double serial_ms = t1.ElapsedMillis();
    Stopwatch t2;
    crypto::HashBatch(views.data(), batch_out.data(), n);
    const double batch_ms = t2.ElapsedMillis();
    Check(serial_out == batch_out, "keccak batch digests match serial");
    const double mb = static_cast<double>(n * len) / (1024.0 * 1024.0);
    std::printf("%-28s %11.1f MB/s %11.1f MB/s %8.2fx\n", "keccak (512B msgs)",
                mb / (serial_ms / 1000.0), mb / (batch_ms / 1000.0),
                serial_ms / batch_ms);
    report.AddValue("keccak_single_mbps", mb / (serial_ms / 1000.0));
    report.AddValue("keccak_batch_mbps", mb / (batch_ms / 1000.0));
    report.AddValue("keccak_batch_speedup", serial_ms / batch_ms);
  }

  // --- merkle: serial recursion vs level-parallel batched build ------------
  {
    const size_t n = smoke ? 20000 : 400000;
    auto payloads = RandomMessages(n, 64, 7);
    Stopwatch t1;
    Digest serial_root = SerialMerkleRoot(payloads);
    const double serial_ms = t1.ElapsedMillis();
    Stopwatch t2;
    merkle::MerkleTree tree(payloads);
    const double parallel_ms = t2.ElapsedMillis();
    Check(serial_root == tree.root(), "parallel merkle root matches serial");
    std::printf("%-28s %11.1f ms %13.1f ms %8.2fx\n", "merkle build", serial_ms,
                parallel_ms, serial_ms / parallel_ms);
    report.AddValue("merkle_leaves", static_cast<double>(n));
    report.AddValue("merkle_serial_ms", serial_ms);
    report.AddValue("merkle_parallel_ms", parallel_ms);
    report.AddValue("merkle_build_speedup", serial_ms / parallel_ms);

    // --- update: full rebuild vs O(log n) UpdateLeaf -----------------------
    const int ops = 32;
    const size_t depth = std::bit_width(n - 1);
    Rng rng(11);
    uint64_t max_hashes = 0;
    Stopwatch t3;
    for (int i = 0; i < ops; ++i) {
      const size_t idx = rng.NextBounded(n);
      payloads[idx][0] ^= static_cast<uint8_t>(i + 1);
      const uint64_t before = crypto::HashInvocations();
      tree.UpdateLeaf(idx, payloads[idx]);
      const uint64_t spent = crypto::HashInvocations() - before;
      if (spent > max_hashes) max_hashes = spent;
    }
    const double incr_ms = t3.ElapsedMillis() / ops;
    Stopwatch t4;
    merkle::MerkleTree rebuilt(payloads);
    const double rebuild_ms = t4.ElapsedMillis();
    Check(rebuilt.root() == tree.root(), "incremental root matches rebuild");
    Check(max_hashes <= 1 + depth, "UpdateLeaf within 1 + ceil(log2 n) hashes");
    std::printf("%-28s %11.3f ms %13.3f ms %8.0fx\n", "update (rebuild/incr)",
                rebuild_ms, incr_ms, rebuild_ms / incr_ms);
    std::printf("%-28s %11llu %16zu\n", "  hashes/update (max, bound)",
                static_cast<unsigned long long>(max_hashes), 1 + depth);
    report.AddValue("update_rebuild_ms", rebuild_ms);
    report.AddValue("update_incremental_ms", incr_ms);
    report.AddValue("update_speedup", rebuild_ms / incr_ms);
    report.AddValue("update_max_hashes", static_cast<double>(max_hashes));
    report.AddValue("update_hash_bound", static_cast<double>(1 + depth));
  }

  // --- chain: serial backward chain vs the shared 4-lane walker ----------
  {
    const size_t len = smoke ? 20000 : 200000;
    Rng rng(23);
    std::vector<invindex::Posting> lists[4];
    for (auto& list : lists) {
      list.resize(len);
      for (auto& p : list) {
        p.id = rng.NextU64();
        p.impact = static_cast<double>(rng.NextU64() % 1000) / 7.0;
      }
    }
    Digest serial_heads[4], x4_heads[4];
    Stopwatch t1;
    for (int j = 0; j < 4; ++j) serial_heads[j] = SerialChain(lists[j]);
    const double serial_ms = t1.ElapsedMillis();
    invindex::ChainSpan<invindex::Posting> chains[4];
    for (int j = 0; j < 4; ++j) chains[j] = {lists[j].data(), lists[j].size()};
    Stopwatch t2;
    invindex::WalkChains(chains, 4, [&](size_t k, size_t i, const Digest& d) {
      if (i == 0) x4_heads[k] = d;
    });
    const double x4_ms = t2.ElapsedMillis();
    Check(std::equal(serial_heads, serial_heads + 4, x4_heads),
          "walked chain heads match serial");
    std::printf("%-28s %11.1f ms %13.1f ms %8.2fx\n", "chain (4 lists)",
                serial_ms, x4_ms, serial_ms / x4_ms);
    report.AddValue("chain_serial_ms", serial_ms);
    report.AddValue("chain_x4_ms", x4_ms);
    report.AddValue("chain_x4_speedup", serial_ms / x4_ms);
  }

  // --- permutation: Keccak-f[1600] on each path ---------------------------
  {
    using crypto::internal::KeccakF4;
    using crypto::internal::KeccakPermute;
    using crypto::internal::U64x2;
    Rng rng(1600);
    bool same = true;
    for (int trial = 0; trial < 16; ++trial) {
      alignas(32) uint64_t x4[25][4];
      alignas(32) uint64_t lone[25][4];
      uint64_t lanes[4][25];
      U64x2 pair[25];
      for (int i = 0; i < 25; ++i) {
        for (int j = 0; j < 4; ++j) {
          lanes[j][i] = x4[i][j] = lone[i][j] = rng.NextU64();
        }
        pair[i] = {lanes[0][i], lanes[3][i]};
      }
      for (auto& lane : lanes) KeccakPermute(lane);
      KeccakPermute(pair);
      KeccakF4(x4, 0xF);
      KeccakF4(lone, 0x4);
      for (int i = 0; i < 25; ++i) {
        same = same && pair[i].v0 == lanes[0][i] && pair[i].v1 == lanes[3][i];
        same = same && lone[i][2] == lanes[2][i];
        for (int j = 0; j < 4; ++j) same = same && x4[i][j] == lanes[j][i];
      }
    }
    Check(same, "pair, 4-lane and lone-lane permutations match scalar");

    uint64_t a[25] = {};
    U64x2 p[25] = {};
    alignas(32) uint64_t st[25][4] = {};
    const std::function<void()> paths[] = {
        [&] { KeccakPermute(a); },
        [&] { KeccakPermute(p); },
        [&] { KeccakF4(st, 0xF); },
        [&] { KeccakF4(st, 0x1); },
    };
    const std::vector<double> ns =
        MedianNs(smoke ? 3 : 41, smoke ? 1000 : 5000, paths);
    const double scalar_ns = ns[0], pair_ns = ns[1], x4_ns = ns[2],
                 lone_ns = ns[3];
    // Keeps the timed permutations observable.
    volatile uint64_t sink = a[0] ^ p[0].v0 ^ st[0][0];
    (void)sink;
    const bool avx2 = crypto::internal::KeccakF4UsesAvx2();
    std::printf("%-28s %11.0f ns %14s %9s\n", "permutation scalar", scalar_ns,
                "", "");
    std::printf("%-28s %11.0f ns %14s %8.2fx\n", "permutation pair (2 lanes)",
                pair_ns, "", pair_ns / scalar_ns);
    std::printf("%-28s %11.0f ns %14s %8.2fx\n",
                avx2 ? "permutation 4-way (avx2)" : "permutation 4-way (pairs)",
                x4_ns, "", x4_ns / scalar_ns);
    std::printf("%-28s %11.0f ns %14s %8.2fx\n", "permutation lone lane",
                lone_ns, "", lone_ns / scalar_ns);
    report.AddValue("perm_scalar_ns", scalar_ns);
    report.AddValue("perm_pair_ns", pair_ns);
    report.AddValue("perm_x4_ns", x4_ns);
    report.AddValue("perm_lone_lane_ns", lone_ns);
    report.AddValue("perm_x4_avx2", avx2 ? 1.0 : 0.0);
  }

  // --- verify: Client::Verify end to end ----------------------------------
  {
    const int rounds = smoke ? 3 : 9;
    DeploymentSpec uniform;  // 10k images, 4096 clusters, 64 dims
    if (smoke) {
      uniform.num_images = 1000;
      uniform.num_clusters = 512;
    }
    workload::QueryMixParams mp;
    mp.pool_size = smoke ? 16 : 128;
    mp.num_features = 10;
    mp.zipf_s = 0.0;
    mp.coord_noise = 0.25;
    VerifyRow("verify (per query)", "verify", core::Config::ImageProof(),
              uniform, mp, 10, rounds);

    DeploymentSpec hot;
    hot.num_images = smoke ? 2000 : 20000;
    hot.num_clusters = smoke ? 128 : 512;
    mp.pool_size = smoke ? 16 : 64;
    mp.num_features = 8;
    VerifyRow("verify zipf-hot shape", "verify_zipf",
              core::Config::OptimizedBoth(), hot, mp, 32, rounds);
  }

  return FinishBench(g_ok ? 0 : 1);
}
