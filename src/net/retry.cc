#include "net/retry.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace imageproof::net {

bool IsRetryableStatus(const Status& s) {
  // kCorrupted and kError are deliberately absent: a torn/tampered reply or
  // a failed verification must surface, not be papered over by a retry.
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kOverloaded;
}

RetryingClient::RetryingClient(std::string host, uint16_t port,
                               core::PublicParams trusted_params,
                               RetryPolicy policy)
    : host_(std::move(host)),
      port_(port),
      params_(std::move(trusted_params)),
      policy_(policy),
      prev_backoff_(policy.base_backoff),
      rng_state_(policy.seed) {}

uint64_t RetryingClient::NextRand() {
  rng_state_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::chrono::milliseconds RetryingClient::NextBackoff() {
  const uint64_t base =
      static_cast<uint64_t>(std::max<int64_t>(0, policy_.base_backoff.count()));
  const uint64_t cap = std::max(
      base, static_cast<uint64_t>(
                std::max<int64_t>(0, policy_.max_backoff.count())));
  // Decorrelated jitter (uniform in [base, 3 * previous]): successive
  // failures spread out exponentially, but two clients hammered by the
  // same outage desynchronize instead of thundering back together.
  const uint64_t prev =
      static_cast<uint64_t>(std::max<int64_t>(0, prev_backoff_.count()));
  const uint64_t hi = std::max(base, prev * 3);
  uint64_t pick = base + NextRand() % (hi - base + 1);
  pick = std::min(pick, cap);
  prev_backoff_ = std::chrono::milliseconds(pick);
  return prev_backoff_;
}

Status RetryingClient::EnsureConnected() {
  if (client_.has_value()) return Status::Ok();
  Result<NetClient> c = NetClient::Connect(host_, port_, params_);
  if (!c.ok()) {
    Status st = c.status();
    // A connect failure is transport unavailability whatever errno said.
    if (st.code() != StatusCode::kUnavailable) {
      return Status::Unavailable(st.message());
    }
    return st;
  }
  client_.emplace(std::move(*c));
  client_->set_compress_vo(compress_vo_);
  if (ever_connected_) ++stats_.reconnects;
  ever_connected_ = true;
  return Status::Ok();
}

void RetryingClient::Disconnect() { client_.reset(); }

template <typename T, typename Op>
Result<T> RetryingClient::WithRetries(bool retry_op, Op op) {
  prev_backoff_ = policy_.base_backoff;
  Status last = Status::Unavailable("net: no attempt made");
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(NextBackoff());
      ++stats_.retries;
    }
    Status conn = EnsureConnected();
    if (!conn.ok()) {
      last = conn;
      continue;
    }
    ++stats_.attempts;
    Result<T> r = op(*client_);
    if (r.ok()) return r;
    last = r.status();
    // Transport failure or lost framing poisons the socket; the next
    // attempt reconnects. (kOverloaded arrives as a well-formed error
    // frame — that connection is still good.)
    if (last.code() == StatusCode::kUnavailable ||
        last.code() == StatusCode::kCorrupted) {
      Disconnect();
    }
    if (!retry_op || !IsRetryableStatus(last)) return r;
  }
  ++stats_.exhausted;
  return Result<T>(last);
}

Result<NetQueryResult> RetryingClient::Query(
    const std::vector<std::vector<float>>& features, size_t k,
    uint32_t deadline_ms) {
  return WithRetries<NetQueryResult>(
      /*retry_op=*/true, [&](NetClient& c) {
        return c.Query(features, k, deadline_ms);
      });
}

Result<StatusReply> RetryingClient::ServerStatus() {
  return WithRetries<StatusReply>(
      /*retry_op=*/true, [&](NetClient& c) { return c.ServerStatus(); });
}

Result<ResponseFrame> RetryingClient::QueryForRelay(
    const std::vector<std::vector<float>>& features, size_t k,
    uint32_t deadline_ms) {
  return WithRetries<ResponseFrame>(
      /*retry_op=*/true, [&](NetClient& c) {
        return c.QueryForRelay(features, k, deadline_ms);
      });
}

Result<Bytes> RetryingClient::QueryComposite(
    const std::vector<std::vector<float>>& features, size_t k,
    uint32_t deadline_ms) {
  return WithRetries<Bytes>(
      /*retry_op=*/true, [&](NetClient& c) {
        return c.QueryComposite(features, k, deadline_ms);
      });
}

Status RetryingClient::Probe(StatusReply* reply) {
  Status conn = EnsureConnected();
  if (!conn.ok()) return conn;
  ++stats_.attempts;
  Result<StatusReply> r = client_->ServerStatus();
  if (!r.ok()) {
    // Whatever went wrong, the cached socket is no longer trusted to be
    // healthy; drop it so the next operation starts clean.
    Disconnect();
    return r.status();
  }
  if (reply != nullptr) *reply = *r;
  return Status::Ok();
}

Result<UpdateAck> RetryingClient::Insert(uint64_t id,
                                         const bovw::BovwVector& bovw,
                                         const Bytes& image_data) {
  return WithRetries<UpdateAck>(
      /*retry_op=*/false,
      [&](NetClient& c) { return c.Insert(id, bovw, image_data); });
}

Result<UpdateAck> RetryingClient::Delete(uint64_t id) {
  return WithRetries<UpdateAck>(
      /*retry_op=*/false, [&](NetClient& c) { return c.Delete(id); });
}

}  // namespace imageproof::net
