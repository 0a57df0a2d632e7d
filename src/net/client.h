// Verifying network client: the remote counterpart of core::Client.
//
// NetClient frames requests, parses every inbound byte through the hardened
// wire decoders (any parse failure -> kCorrupted, allocation caps vs bytes
// actually received), and — the part that matters — runs the paper's full
// Client::Verify on every query response before handing results to the
// caller. A NetClient never returns unverified retrieval results.
//
// Trust model: the client is constructed with the owner-published
// PublicParams it obtained out of band (config, RSA public key, dims).
// Responses carry the serving snapshot's root signature, because updates
// re-sign — the wire-delivered signature is accepted only if it RsaVerifies
// over the roots the VO replay reconstructs, exactly the check an
// in-process client performs against params it already held. Nothing else
// in a response frame is trusted: the snapshot version is advisory
// metadata, and the VO bytes prove themselves or are rejected.

#ifndef IMAGEPROOF_NET_CLIENT_H_
#define IMAGEPROOF_NET_CLIENT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/client.h"
#include "net/socket.h"
#include "net/wire.h"

namespace imageproof::net {

struct NetQueryResult {
  core::VerifiedResults verified;     // Client::Verify output — trustworthy
  uint64_t snapshot_version = 0;      // advisory (unauthenticated)
  Bytes vo_bytes;                     // exact VO bytes off the wire
  size_t response_frame_bytes = 0;    // header + payload (bytes/query metric)
};

class NetClient {
 public:
  // Connects over TCP. `trusted_params` must come from the owner, not from
  // the server being connected to (the root_signature field inside it is
  // unused; each response supplies its own, verified against public_key).
  static Result<NetClient> Connect(const std::string& host, uint16_t port,
                                   core::PublicParams trusted_params);

  NetClient(NetClient&&) = default;
  NetClient& operator=(NetClient&&) = default;

  // One framed round trip + full verification. Error statuses carry the
  // server's wire taxonomy: kOverloaded (shed), kDeadlineExceeded,
  // kUnavailable, kCorrupted (malformed bytes in either direction), kError
  // (verification rejected or server-reported request problem).
  Result<NetQueryResult> Query(const std::vector<std::vector<float>>& features,
                               size_t k, uint32_t deadline_ms = 0);

  // Relay form of Query for the shard coordinator: one round trip, hardened
  // frame/payload decoding, NO verification — the returned ResponseFrame is
  // untrusted material destined for a composite VO that the end client
  // verifies. Never hand its contents to anything that treats them as
  // retrieval results.
  Result<ResponseFrame> QueryForRelay(
      const std::vector<std::vector<float>>& features, size_t k,
      uint32_t deadline_ms = 0);

  // Composite (sharded) query: sends a version-2 query frame with
  // kFrameFlagComposite and returns the server's opaque composite-VO bytes,
  // unverified — callers hand them to shard::CompositeClient, which is the
  // only component that can (and must) verify them.
  Result<Bytes> QueryComposite(const std::vector<std::vector<float>>& features,
                               size_t k, uint32_t deadline_ms = 0);

  // Owner-side RPCs (the server must have updates enabled).
  Result<UpdateAck> Insert(uint64_t id, const bovw::BovwVector& bovw,
                           const Bytes& image_data);
  Result<UpdateAck> Delete(uint64_t id);

  Result<StatusReply> ServerStatus();

  // Opt in to group-varint VO compression: subsequent Query() calls set
  // kFrameFlagCompressVo on the request frame, and the hardened VO parsers
  // inside Client::Verify transparently decode the compressed section
  // before any digest is checked — authentication is unchanged. Off by
  // default (byte-identical to a pre-compression client on the wire).
  void set_compress_vo(bool on) { compress_vo_ = on; }
  bool compress_vo() const { return compress_vo_; }

  const core::PublicParams& params() const { return params_; }

 private:
  NetClient(Socket sock, core::PublicParams params)
      : sock_(std::move(sock)), params_(std::move(params)) {}

  // Sends one frame and blocks for exactly one frame back, leaving the
  // reply payload in reply_buf_ (reused across calls — the steady-state
  // receive path reallocates nothing, so closed-loop benches measure the
  // wire, not the allocator). `flags` goes out in the request frame
  // header.
  Result<FrameHeader> RoundTrip(FrameType type, const Bytes& payload,
                                uint8_t flags = 0,
                                uint16_t version = kWireVersion);
  // The query round trip behind Query, QueryForRelay and QueryComposite:
  // sends `features` and `k` as a query frame (composite or not, compressed
  // per compress_vo_) and checks the reply is the matching response frame,
  // whose payload stays in reply_buf_.
  Status QueryRoundTrip(const std::vector<std::vector<float>>& features,
                        size_t k, uint32_t deadline_ms, bool composite);
  // Folds an inbound kError frame into a Status; non-error frames of the
  // wrong type are a protocol violation (kCorrupted).
  static Status UnexpectedOrError(const FrameHeader& header,
                                  const Bytes& payload, FrameType expected);

  Socket sock_;
  core::PublicParams params_;
  bool compress_vo_ = false;
  Bytes read_buf_;   // carries partial frames across RoundTrip calls
  Bytes reply_buf_;  // last reply's payload; capacity reused per request
};

}  // namespace imageproof::net

#endif  // IMAGEPROOF_NET_CLIENT_H_
