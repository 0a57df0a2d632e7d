#include "net/client.h"

#include <utility>

#include "core/vo.h"

namespace imageproof::net {

namespace {
constexpr size_t kReadChunk = 64 * 1024;
}  // namespace

Result<NetClient> NetClient::Connect(const std::string& host, uint16_t port,
                                     core::PublicParams trusted_params) {
  Result<Socket> sock = ConnectTcp(host, port);
  if (!sock.ok()) return sock.status();
  return NetClient(std::move(sock).value(), std::move(trusted_params));
}

Result<FrameHeader> NetClient::RoundTrip(FrameType type, const Bytes& payload,
                                         uint8_t flags, uint16_t version) {
  Bytes frame = EncodeFrame(type, payload, flags, version);
  Status st = SendAll(sock_.fd(), frame.data(), frame.size());
  if (!st.ok()) return st;

  FrameHeader header;
  for (;;) {
    Status err;
    // The payload lands in the member reply_buf_: vector::assign reuses its
    // capacity, so after the first response of a size class the receive
    // path performs no allocation per request.
    switch (TryExtractFrame(&read_buf_, &header, &reply_buf_, &err)) {
      case ExtractResult::kFrame:
        return header;
      case ExtractResult::kCorrupt:
        return err;
      case ExtractResult::kNeedMore:
        break;
    }
    const size_t old = read_buf_.size();
    read_buf_.resize(old + kReadChunk);
    Result<size_t> got = RecvSome(sock_.fd(), read_buf_.data() + old,
                                  kReadChunk);
    read_buf_.resize(old + (got.ok() ? got.value() : 0));
    if (!got.ok()) return got.status();
    if (got.value() == 0) {
      // EOF taxonomy matters for retries. At a frame boundary (no partial
      // frame buffered) an orderly close is a draining/restarting server:
      // kUnavailable, safe to retry elsewhere. Mid-frame it is a torn
      // reply — indistinguishable from tampering, so kCorrupted, which a
      // retry policy must NOT retry (an adversarial server doesn't get
      // free re-probes by cutting the stream).
      if (read_buf_.empty()) {
        return Status::Unavailable(
            "net: server closed connection at a frame boundary");
      }
      return Status::Corrupted("net: connection closed mid-frame");
    }
  }
}

Status NetClient::UnexpectedOrError(const FrameHeader& header,
                                    const Bytes& payload, FrameType expected) {
  if (header.type == FrameType::kError) {
    ErrorFrame err;
    Status st = DecodeError(payload, &err);
    if (!st.ok()) return st;  // malformed error frame -> kCorrupted
    return StatusFromWireError(static_cast<uint8_t>(err.code),
                               std::move(err.message));
  }
  if (header.type != expected) {
    return Status::Corrupted("net: unexpected frame type from server");
  }
  return Status::Ok();
}

Status NetClient::QueryRoundTrip(
    const std::vector<std::vector<float>>& features, size_t k,
    uint32_t deadline_ms, bool composite) {
  QueryRequest req;
  req.deadline_ms = deadline_ms;
  req.k = k;
  req.features = features;
  uint8_t flags = compress_vo_ ? kFrameFlagCompressVo : 0;
  if (composite) flags |= kFrameFlagComposite;
  auto reply = RoundTrip(FrameType::kQuery, EncodeQueryRequest(req), flags,
                         composite ? kWireVersionComposite : kWireVersion);
  if (!reply.ok()) return reply.status();
  return UnexpectedOrError(reply.value(), reply_buf_,
                           composite ? FrameType::kCompositeResponse
                                     : FrameType::kResponse);
}

Result<NetQueryResult> NetClient::Query(
    const std::vector<std::vector<float>>& features, size_t k,
    uint32_t deadline_ms) {
  Result<ResponseFrame> resp = QueryForRelay(features, k, deadline_ms);
  if (!resp.ok()) return resp.status();
  const size_t frame_bytes = kFrameHeaderBytes + reply_buf_.size();

  core::QueryVO vo;
  Status st = core::QueryVO::Deserialize(resp->vo_bytes, &vo);
  if (!st.ok()) return st;

  // Verify under the trusted params, substituting only the wire-delivered
  // root signature: updates re-sign, and the signature is checked against
  // the owner public key the client already holds, so it cannot be forged —
  // a server lying here fails verification, not the client.
  core::PublicParams params = params_;
  params.root_signature = resp->root_signature;
  core::Client verifier(std::move(params));
  auto verified = verifier.Verify(features, k, vo);
  if (!verified.ok()) return verified.status();

  NetQueryResult out;
  out.verified = std::move(verified.value());
  out.snapshot_version = resp->snapshot_version;
  out.vo_bytes = std::move(resp->vo_bytes);
  out.response_frame_bytes = frame_bytes;
  return out;
}

Result<ResponseFrame> NetClient::QueryForRelay(
    const std::vector<std::vector<float>>& features, size_t k,
    uint32_t deadline_ms) {
  Status st = QueryRoundTrip(features, k, deadline_ms, /*composite=*/false);
  if (!st.ok()) return st;
  ResponseFrame resp;
  st = DecodeResponse(reply_buf_, &resp);
  if (!st.ok()) return st;
  return resp;
}

Result<Bytes> NetClient::QueryComposite(
    const std::vector<std::vector<float>>& features, size_t k,
    uint32_t deadline_ms) {
  Status st = QueryRoundTrip(features, k, deadline_ms, /*composite=*/true);
  if (!st.ok()) return st;
  return reply_buf_;
}

Result<UpdateAck> NetClient::Insert(uint64_t id, const bovw::BovwVector& bovw,
                                    const Bytes& image_data) {
  InsertRequest req;
  req.id = id;
  req.bovw = bovw;
  req.image_data = image_data;
  auto reply =
      RoundTrip(FrameType::kInsert, EncodeInsertRequest(req));
  if (!reply.ok()) return reply.status();
  Status st =
      UnexpectedOrError(reply.value(), reply_buf_, FrameType::kUpdateAck);
  if (!st.ok()) return st;
  UpdateAck ack;
  st = DecodeUpdateAck(reply_buf_, &ack);
  if (!st.ok()) return st;
  return ack;
}

Result<UpdateAck> NetClient::Delete(uint64_t id) {
  DeleteRequest req;
  req.id = id;
  auto reply =
      RoundTrip(FrameType::kDelete, EncodeDeleteRequest(req));
  if (!reply.ok()) return reply.status();
  Status st =
      UnexpectedOrError(reply.value(), reply_buf_, FrameType::kUpdateAck);
  if (!st.ok()) return st;
  UpdateAck ack;
  st = DecodeUpdateAck(reply_buf_, &ack);
  if (!st.ok()) return st;
  return ack;
}

Result<StatusReply> NetClient::ServerStatus() {
  auto reply = RoundTrip(FrameType::kStatusRequest, Bytes{});
  if (!reply.ok()) return reply.status();
  Status st =
      UnexpectedOrError(reply.value(), reply_buf_, FrameType::kStatusReply);
  if (!st.ok()) return st;
  StatusReply status;
  st = DecodeStatusReply(reply_buf_, &status);
  if (!st.ok()) return st;
  return status;
}

}  // namespace imageproof::net
