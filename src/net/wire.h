// Versioned binary wire protocol for serving authenticated retrieval over a
// socket — the boundary the paper's trust model is actually about: the SP is
// untrusted, so every byte a client receives here is adversarial input until
// Client::Verify accepts it.
//
// Frame layout (all integers little-endian, common/bytes.h encodings):
//
//   offset  size  field
//   0       4     magic        0x49504E31 ("1NPI" on the wire)
//   4       2     version      1
//   6       1     frame type   FrameType
//   7       1     flags        kQuery may set kFrameFlagCompressVo (0x01) =
//                 "this client understands group-varint-compressed VO
//                 sections"; every other bit, and any flag on any other
//                 frame type, must be 0 (rejected). Servers only compress
//                 for clients that set the flag, so a v1 client that never
//                 sends it keeps receiving byte-identical uncompressed
//                 frames — the capability is negotiated per query, not
//                 versioned.
//   8       4     payload len  <= kMaxFramePayload
//   12      len   payload      per-type encoding below
//
// Frame types and payloads:
//   kQuery        u32 deadline_ms | varint k | varint n | n x (varint dims,
//                 dims x f32)                                 client -> server
//   kResponse     u64 snapshot_version | blob root_signature |
//                 blob vo_bytes (QueryVO::Serialize bytes)    server -> client
//   kError        u8 wire code | string message               server -> client
//   kStatusRequest  (empty)                                   client -> server
//   kStatusReply  8 x u64 counters | u8 stopped               server -> client
//   kInsert       varint id | varint n | n x (varint cluster, varint freq) |
//                 blob image bytes                            owner  -> server
//   kDelete       varint id                                   owner  -> server
//   kUpdateAck    u64 new_version | u64 lists_updated | u64 nodes_rehashed
//                                                             server -> owner
//
// Error taxonomy on the wire maps the engine's Status codes (PR 4) so a
// remote client degrades exactly like an in-process caller: shed admissions
// come back kOverloaded, expired queries kDeadlineExceeded, a draining
// server kUnavailable, malformed bytes in either direction kCorrupted.
//
// Parsing discipline: every decoder here follows the hardened-deserializer
// rules from storage/format.h — length prefixes are capped against the
// bytes actually present before any allocation, counts have absolute sanity
// bounds, bools decode strictly, trailing bytes reject — and every failure
// is StatusCode::kCorrupted. The wire fuzz matrix (tests/net_frame_test.cc)
// and the MITM cases (tests/security_test.cc) drive mutants through these
// paths.

#ifndef IMAGEPROOF_NET_WIRE_H_
#define IMAGEPROOF_NET_WIRE_H_

#include <string>
#include <vector>

#include "bovw/bovw.h"
#include "common/bytes.h"
#include "common/status.h"

namespace imageproof::net {

inline constexpr uint32_t kWireMagic = 0x49504E31;  // "1NPI" on the wire
inline constexpr uint16_t kWireVersion = 1;
// Protocol version 2 adds sharded scatter-gather serving: a kQuery frame may
// carry kFrameFlagComposite ("answer with a composite VO merged across
// shards"), answered by a kCompositeResponse frame. Version-1 peers never
// see either — clients only emit version-2 headers on composite queries,
// and servers reply in the version of the request — so the capability is
// gated by the frame's own version field, not silently by flags.
inline constexpr uint16_t kWireVersionComposite = 2;
inline constexpr uint16_t kMaxWireVersion = kWireVersionComposite;
inline constexpr size_t kFrameHeaderBytes = 12;
// Header flag on kQuery frames: the client opts in to group-varint VO
// compression (invindex/vo_compress.h). Valid on no other frame type.
inline constexpr uint8_t kFrameFlagCompressVo = 0x01;
// Header flag on version-2 kQuery frames: request a composite (sharded)
// response. Rejected on version-1 frames and on every other frame type.
inline constexpr uint8_t kFrameFlagComposite = 0x02;
// Response frames carry the VO plus result image payloads; 64 MiB bounds a
// hostile length prefix without constraining any realistic deployment.
inline constexpr size_t kMaxFramePayload = 64u << 20;
inline constexpr size_t kMaxQueryFeatures = 4096;
inline constexpr size_t kMaxFeatureDims = 4096;
inline constexpr size_t kMaxErrorMessage = 4096;

enum class FrameType : uint8_t {
  kQuery = 1,
  kResponse = 2,
  kError = 3,
  kStatusRequest = 4,
  kStatusReply = 5,
  kInsert = 6,
  kDelete = 7,
  kUpdateAck = 8,
  // Version-2 only: answer to a composite kQuery. Payload is an opaque
  // shard::CompositeVO byte string (self-describing, hardened parser on the
  // client side) — the wire layer does not interpret it, which keeps ip_net
  // free of a dependency on ip_shard.
  kCompositeResponse = 9,
};

// Wire error codes: the Status taxonomy plus kBadRequest for requests that
// parse but are semantically unserviceable (k = 0, unknown frame type, an
// update against a server holding no owner key).
enum class WireError : uint8_t {
  kBadRequest = 1,
  kOverloaded = 2,
  kDeadlineExceeded = 3,
  kUnavailable = 4,
  kCorrupted = 5,
  kInternal = 6,
};

const char* WireErrorToString(WireError code);
WireError WireErrorFromStatus(StatusCode code);
// The client-side inverse: reconstructs a Status carrying the taxonomy code
// an error frame named (kBadRequest/kInternal fold into kError).
Status StatusFromWireError(uint8_t code, std::string message);
// Process exit code for a Status, shared by the CLI tools so operational
// failures are distinguishable by taxonomy: 0 for OK, otherwise
// 10 + WireErrorFromStatus(code) (11 bad request/generic, 12 overloaded,
// 13 deadline, 14 unavailable, 15 corrupted, 16 internal).
int ExitCodeForStatus(const Status& status);

struct FrameHeader {
  FrameType type = FrameType::kError;
  uint8_t flags = 0;
  uint32_t payload_len = 0;
  uint16_t version = kWireVersion;
};

// Frame assembly. AppendFrame is the streaming form (write buffers);
// EncodeFrame the convenience form. `flags` must follow the per-type rules
// above (only kQuery may carry kFrameFlagCompressVo, and
// kFrameFlagComposite additionally requires `version` >= 2).
void AppendFrame(FrameType type, const Bytes& payload, Bytes* out,
                 uint8_t flags = 0, uint16_t version = kWireVersion);
Bytes EncodeFrame(FrameType type, const Bytes& payload, uint8_t flags = 0,
                  uint16_t version = kWireVersion);

// Validates magic, version, reserved flags, length bound, and the type
// byte. `data` must hold at least kFrameHeaderBytes.
Status DecodeFrameHeader(const uint8_t* data, size_t size, FrameHeader* out);

// Incremental frame extraction from a connection's read buffer.
//   kNeedMore  buffer holds a valid prefix; read more bytes
//   kFrame     one frame consumed from the buffer front into *header/*payload
//   kCorrupt   the buffer cannot begin a valid frame; *error says why, the
//              connection is beyond recovery (framing is lost)
enum class ExtractResult { kNeedMore, kFrame, kCorrupt };
ExtractResult TryExtractFrame(Bytes* buffer, FrameHeader* header,
                              Bytes* payload, Status* error);

// --- per-type payloads ------------------------------------------------------

struct QueryRequest {
  uint32_t deadline_ms = 0;  // 0 = none; propagated to SubmitOptions
  uint64_t k = 0;
  std::vector<std::vector<float>> features;
};
Bytes EncodeQueryRequest(const QueryRequest& req);
Status DecodeQueryRequest(const Bytes& payload, QueryRequest* out);

// The snapshot_version is advisory routing metadata (which snapshot served
// this response); nothing verifies it. Authenticity rests entirely on
// root_signature — checked against the owner's public key the client
// already holds — and on vo_bytes surviving Client::Verify under it.
struct ResponseFrame {
  uint64_t snapshot_version = 0;
  Bytes root_signature;
  Bytes vo_bytes;
};
Bytes EncodeResponse(const ResponseFrame& resp);
Status DecodeResponse(const Bytes& payload, ResponseFrame* out);

struct ErrorFrame {
  WireError code = WireError::kInternal;
  std::string message;
};
Bytes EncodeError(const ErrorFrame& err);
Status DecodeError(const Bytes& payload, ErrorFrame* out);

struct StatusReply {
  uint64_t snapshot_version = 0;
  uint64_t queries_served = 0;
  uint64_t queries_shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t rejected_unavailable = 0;
  uint64_t queue_depth = 0;
  uint64_t in_flight = 0;
  uint64_t updates_applied = 0;
  bool stopped = false;
};
Bytes EncodeStatusReply(const StatusReply& status);
Status DecodeStatusReply(const Bytes& payload, StatusReply* out);

struct InsertRequest {
  uint64_t id = 0;
  bovw::BovwVector bovw;
  Bytes image_data;
};
Bytes EncodeInsertRequest(const InsertRequest& req);
Status DecodeInsertRequest(const Bytes& payload, InsertRequest* out);

struct DeleteRequest {
  uint64_t id = 0;
};
Bytes EncodeDeleteRequest(const DeleteRequest& req);
Status DecodeDeleteRequest(const Bytes& payload, DeleteRequest* out);

struct UpdateAck {
  uint64_t new_version = 0;
  uint64_t lists_updated = 0;
  uint64_t nodes_rehashed = 0;
};
Bytes EncodeUpdateAck(const UpdateAck& ack);
Status DecodeUpdateAck(const Bytes& payload, UpdateAck* out);

}  // namespace imageproof::net

#endif  // IMAGEPROOF_NET_WIRE_H_
