// Retrying wrapper around NetClient: bounded retries with
// decorrelated-jitter exponential backoff and automatic reconnect, so a
// server drain/restart or a dropped connection costs a caller latency, not
// an error.
//
// Retry taxonomy — the part that carries security weight. Only failures
// that mean "the server, or the path to it, was not available to serve
// this request" are retried:
//
//   kUnavailable       retried   connect refused, clean EOF at a frame
//                                boundary, draining server, stopped engine
//   kOverloaded        retried   explicit shed; backoff is the whole point
//   kDeadlineExceeded  NOT       the caller's time budget is spent; retrying
//                                past it just lies about latency
//   kCorrupted         NOT       torn frame / tampered bytes — an
//                                adversarial SP must not get free retries
//                                to re-probe a verifier
//   kError             NOT       verification rejected or a local bug;
//                                neither improves on a second attempt
//
// Idempotency: Query() and ServerStatus() are read-only, so they retry
// automatically. Insert()/Delete() are NOT idempotent (a duplicated insert
// re-applies); for them only the *connect* is retried — once the request
// has been written, any failure is returned to the caller, who alone knows
// whether re-issuing is safe.
//
// Determinism: backoff jitter comes from a splitmix64 stream seeded by
// RetryPolicy::seed, so a soak run replays the same sleep schedule.

#ifndef IMAGEPROOF_NET_RETRY_H_
#define IMAGEPROOF_NET_RETRY_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/client.h"

namespace imageproof::net {

struct RetryPolicy {
  int max_attempts = 5;  // total tries per operation, including the first
  std::chrono::milliseconds base_backoff{10};
  std::chrono::milliseconds max_backoff{2000};
  uint64_t seed = 0x9E3779B97F4A7C15ULL;  // jitter stream seed
};

struct RetryStats {
  uint64_t attempts = 0;    // operations issued over the wire
  uint64_t retries = 0;     // attempts after the first, per operation
  uint64_t reconnects = 0;  // sockets re-established after a failure
  uint64_t exhausted = 0;   // operations that ran out of attempts
};

// True when `s` is a failure a retrying client may re-issue an idempotent
// request after (see the taxonomy above).
bool IsRetryableStatus(const Status& s);

class RetryingClient {
 public:
  // Does not connect; the first operation does (and retries the connect
  // under the same policy). `trusted_params` as in NetClient::Connect.
  RetryingClient(std::string host, uint16_t port,
                 core::PublicParams trusted_params, RetryPolicy policy = {});

  Result<NetQueryResult> Query(const std::vector<std::vector<float>>& features,
                               size_t k, uint32_t deadline_ms = 0);
  Result<StatusReply> ServerStatus();

  // Relay / composite forms of Query (see NetClient): read-only, so both
  // retry like Query. Results are UNVERIFIED bytes for a downstream
  // verifier (the shard coordinator or shard::CompositeClient).
  Result<ResponseFrame> QueryForRelay(
      const std::vector<std::vector<float>>& features, size_t k,
      uint32_t deadline_ms = 0);
  Result<Bytes> QueryComposite(const std::vector<std::vector<float>>& features,
                               size_t k, uint32_t deadline_ms = 0);

  // Keepalive / health probe: ONE kStatusRequest round trip, no retries and
  // no backoff — a probe exists to report the link's health now, not to
  // nurse it back. kOk means the server answered (a draining server still
  // does); any failure tears the cached connection down so the next
  // operation reconnects from scratch. `reply` (optional) receives the
  // server's counters on success. The shard coordinator uses this to
  // health-check remote shard backends between queries.
  Status Probe(StatusReply* reply = nullptr);

  // Owner updates: connect retried, request issued at most once (see
  // header comment). A kUnavailable after the write means "unknown whether
  // applied" and is the caller's call.
  Result<UpdateAck> Insert(uint64_t id, const bovw::BovwVector& bovw,
                           const Bytes& image_data);
  Result<UpdateAck> Delete(uint64_t id);

  void set_compress_vo(bool on) { compress_vo_ = on; }
  const RetryStats& stats() const { return stats_; }
  const RetryPolicy& policy() const { return policy_; }
  bool connected() const { return client_.has_value(); }

 private:
  // Connects if needed. Failures come back kUnavailable (retryable).
  Status EnsureConnected();
  void Disconnect();
  // Decorrelated jitter: next sleep is uniform in [base, prev*3], capped.
  std::chrono::milliseconds NextBackoff();
  uint64_t NextRand();
  // Shared retry loop. `op` runs one attempt against a connected client;
  // `retry_op` false = only the connect is retried (non-idempotent ops).
  template <typename T, typename Op>
  Result<T> WithRetries(bool retry_op, Op op);

  std::string host_;
  uint16_t port_;
  core::PublicParams params_;
  RetryPolicy policy_;
  bool compress_vo_ = false;
  bool ever_connected_ = false;
  std::optional<NetClient> client_;
  std::chrono::milliseconds prev_backoff_;
  uint64_t rng_state_;
  RetryStats stats_;
};

}  // namespace imageproof::net

#endif  // IMAGEPROOF_NET_RETRY_H_
