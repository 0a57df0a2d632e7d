#include "storage/format.h"

#include "storage/file_io.h"

namespace imageproof::storage {

namespace {

constexpr uint32_t kParamsMagic = 0x49505042;  // "IPPB"
constexpr uint32_t kParamsVersion = 1;

}  // namespace

void PutConfig(ByteWriter& w, const core::Config& c) {
  w.PutU32(static_cast<uint32_t>(c.forest.num_trees));
  w.PutU32(static_cast<uint32_t>(c.forest.max_leaf_size));
  w.PutU32(static_cast<uint32_t>(c.forest.max_leaf_checks));
  w.PutU64(c.forest.seed);
  w.PutU8(c.share_nodes ? 1 : 0);
  w.PutU8(static_cast<uint8_t>(c.reveal_mode));
  w.PutU8(c.with_filters ? 1 : 0);
  w.PutU8(c.freq_grouped ? 1 : 0);
  w.PutU32(c.fingerprint_bits);
  w.PutU64(c.filter_seed);
  w.PutU64(c.check_batch);
  w.PutU32(static_cast<uint32_t>(c.rsa_bits));
  w.PutU8(c.sign_images ? 1 : 0);
}

Status GetConfig(ByteReader& r, core::Config* c) {
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  Status s;
  if (!(s = r.GetU32(&u32)).ok()) return s;
  c->forest.num_trees = static_cast<int>(u32);
  if (!(s = r.GetU32(&u32)).ok()) return s;
  c->forest.max_leaf_size = static_cast<int>(u32);
  if (!(s = r.GetU32(&u32)).ok()) return s;
  c->forest.max_leaf_checks = static_cast<int>(u32);
  if (!(s = r.GetU64(&c->forest.seed)).ok()) return s;
  // Bools decode strictly (0 or 1 only). Accepting any nonzero byte as
  // "true" would leave 7 dead bits per flag — bytes a storage fault can
  // corrupt without changing the parsed package, which the update path's
  // clone-vs-base validation could then never detect.
  if (!(s = r.GetU8(&u8)).ok()) return s;
  if (u8 > 1) return Status::Corrupted("storage: bad bool encoding");
  c->share_nodes = u8 != 0;
  if (!(s = r.GetU8(&u8)).ok()) return s;
  if (u8 > 1) return Status::Corrupted("storage: bad reveal mode");
  c->reveal_mode = static_cast<mrkd::RevealMode>(u8);
  if (!(s = r.GetU8(&u8)).ok()) return s;
  if (u8 > 1) return Status::Corrupted("storage: bad bool encoding");
  c->with_filters = u8 != 0;
  if (!(s = r.GetU8(&u8)).ok()) return s;
  if (u8 > 1) return Status::Corrupted("storage: bad bool encoding");
  c->freq_grouped = u8 != 0;
  if (!(s = r.GetU32(&c->fingerprint_bits)).ok()) return s;
  if (!(s = r.GetU64(&c->filter_seed)).ok()) return s;
  if (!(s = r.GetU64(&u64)).ok()) return s;
  c->check_batch = static_cast<size_t>(u64);
  if (!(s = r.GetU32(&u32)).ok()) return s;
  c->rsa_bits = static_cast<int>(u32);
  if (!(s = r.GetU8(&u8)).ok()) return s;
  if (u8 > 1) return Status::Corrupted("storage: bad bool encoding");
  c->sign_images = u8 != 0;
  if (c->forest.num_trees <= 0 || c->forest.num_trees > 256 ||
      c->forest.max_leaf_size <= 0) {
    return Status::Corrupted("storage: implausible forest parameters");
  }
  // The cuckoo-filter geometry shifts by fingerprint_bits; out-of-range
  // values from a corrupted config would be undefined behavior downstream.
  if (c->fingerprint_bits == 0 || c->fingerprint_bits > 16) {
    return Status::Corrupted("storage: fingerprint bits out of range");
  }
  return Status::Ok();
}

void PutPointSet(ByteWriter& w, const ann::PointSet& points) {
  w.PutVarint(points.dims());
  w.PutVarint(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const float* row = points.row(i);
    for (size_t d = 0; d < points.dims(); ++d) w.PutF32(row[d]);
  }
}

Status GetPointSet(ByteReader& r, ann::PointSet* out) {
  uint64_t dims, count;
  Status s;
  if (!(s = r.GetVarint(&dims)).ok()) return s;
  if (!(s = r.GetVarint(&count)).ok()) return s;
  if (dims == 0 || dims > 4096 || count > (1u << 26)) {
    return Status::Corrupted("storage: implausible point set shape");
  }
  // Cap the allocation against the bytes actually present: dims*count f32s
  // must fit in what remains, so a forged header cannot demand gigabytes.
  if (dims * count > r.remaining() / 4) {
    return Status::Corrupted("storage: point set exceeds input size");
  }
  *out = ann::PointSet(dims, count);
  for (size_t i = 0; i < count; ++i) {
    float* row = out->row(i);
    for (size_t d = 0; d < dims; ++d) {
      if (!(s = r.GetF32(&row[d])).ok()) return s;
    }
  }
  return Status::Ok();
}

void PutBovw(ByteWriter& w, const bovw::BovwVector& v) {
  w.PutVarint(v.entries.size());
  for (const auto& [c, f] : v.entries) {
    w.PutVarint(c);
    w.PutVarint(f);
  }
}

Status GetBovw(ByteReader& r, bovw::BovwVector* out) {
  uint64_t n;
  Status s = r.GetVarint(&n);
  if (!s.ok()) return s;
  if (n > r.remaining() / 2) {
    return Status::Corrupted("storage: BoVW size exceeds input");
  }
  out->entries.resize(n);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t c = 0, f = 0;
    if (!(s = r.GetVarint(&c)).ok()) return s;
    if (!(s = r.GetVarint(&f)).ok()) return s;
    if (i > 0 && c <= prev) return Status::Corrupted("storage: BoVW not sorted");
    if (f == 0) return Status::Corrupted("storage: zero frequency");
    // Both fields narrow to 32 bits in memory; a varint whose high bits a
    // fault set would otherwise truncate silently to the same value.
    if (c > 0xFFFFFFFFull || f > 0xFFFFFFFFull) {
      return Status::Corrupted("storage: BoVW entry out of range");
    }
    prev = c;
    out->entries[i] = {static_cast<bovw::ClusterId>(c),
                       static_cast<uint32_t>(f)};
  }
  return Status::Ok();
}

// Tree nodes are written with a kind byte and ONLY the fields that kind
// uses: a leaf's split plane and an internal node's point span are dead
// state that search and the digest tree never read. Dead wire bytes would
// be bytes a storage fault can flip without any detectable consequence —
// keeping every serialized byte live is what lets the engine's update
// validation promise "any corruption of committed state is caught".
// (The per-tree max_leaf_size is likewise omitted: it is build-time
// metadata already present in the config header.)
void PutTree(ByteWriter& w, const ann::RkdTree& tree) {
  w.PutVarint(tree.nodes().size());
  for (const ann::RkdNode& n : tree.nodes()) {
    if (n.IsLeaf()) {
      w.PutU8(1);
      w.PutU32(static_cast<uint32_t>(n.begin));
      w.PutU32(static_cast<uint32_t>(n.end));
    } else {
      w.PutU8(0);
      w.PutU32(static_cast<uint32_t>(n.split_dim));
      w.PutF32(n.split_value);
      w.PutU32(static_cast<uint32_t>(n.left));
      w.PutU32(static_cast<uint32_t>(n.right));
    }
  }
  w.PutVarint(tree.point_indices().size());
  for (int32_t i : tree.point_indices()) {
    w.PutU32(static_cast<uint32_t>(i));
  }
}

Status GetTree(ByteReader& r, const ann::PointSet& points, int max_leaf,
               std::unique_ptr<ann::RkdTree>* out) {
  uint64_t num_nodes;
  Status s;
  if (!(s = r.GetVarint(&num_nodes)).ok()) return s;
  if (num_nodes > (1u << 27)) {
    return Status::Corrupted("storage: implausible tree shape");
  }
  // A leaf occupies 9 wire bytes (the smaller node kind); cap the
  // allocation against what is actually present before resizing.
  if (num_nodes > r.remaining() / 9) {
    return Status::Corrupted("storage: tree node count exceeds input size");
  }
  std::vector<ann::RkdNode> nodes(num_nodes);
  for (auto& n : nodes) {
    uint8_t kind = 0;
    uint32_t u = 0;
    float f = 0;
    if (!(s = r.GetU8(&kind)).ok()) return s;
    if (kind > 1) return Status::Corrupted("storage: bad tree node kind");
    if (kind == 1) {  // leaf: span only; RkdNode defaults mark it a leaf
      if (!(s = r.GetU32(&u)).ok()) return s;
      n.begin = static_cast<int32_t>(u);
      if (!(s = r.GetU32(&u)).ok()) return s;
      n.end = static_cast<int32_t>(u);
    } else {  // internal: split plane + children
      if (!(s = r.GetU32(&u)).ok()) return s;
      n.split_dim = static_cast<int32_t>(u);
      if (!(s = r.GetF32(&f)).ok()) return s;
      n.split_value = f;
      if (!(s = r.GetU32(&u)).ok()) return s;
      n.left = static_cast<int32_t>(u);
      if (!(s = r.GetU32(&u)).ok()) return s;
      n.right = static_cast<int32_t>(u);
    }
  }
  uint64_t num_indices;
  if (!(s = r.GetVarint(&num_indices)).ok()) return s;
  if (num_indices != points.size()) {
    return Status::Corrupted("storage: tree index count mismatch");
  }
  std::vector<int32_t> indices(num_indices);
  std::vector<bool> seen(points.size(), false);
  for (auto& i : indices) {
    uint32_t u = 0;
    if (!(s = r.GetU32(&u)).ok()) return s;
    if (u >= points.size() || seen[u]) {
      return Status::Corrupted("storage: tree indices not a permutation");
    }
    seen[u] = true;
    i = static_cast<int32_t>(u);
  }
  // Structural sanity: children in range, leaves with valid spans. Children
  // must additionally sit at strictly larger indices than their parent (the
  // builder's preorder layout guarantees this), which rules out cycles — a
  // forged cyclic tree would otherwise recurse forever during the digest
  // rebuild and every later traversal.
  for (size_t ni = 0; ni < nodes.size(); ++ni) {
    const auto& n = nodes[ni];
    if (n.IsLeaf()) {
      if (n.begin < 0 || n.end < n.begin ||
          static_cast<size_t>(n.end) > points.size()) {
        return Status::Corrupted("storage: bad leaf span");
      }
    } else {
      if (n.left < 0 || n.right < 0 ||
          static_cast<size_t>(n.left) >= nodes.size() ||
          static_cast<size_t>(n.right) >= nodes.size() ||
          static_cast<size_t>(n.left) <= ni ||
          static_cast<size_t>(n.right) <= ni ||
          n.split_dim < 0 || static_cast<size_t>(n.split_dim) >= points.dims()) {
        return Status::Corrupted("storage: bad internal node");
      }
    }
  }
  *out = std::make_unique<ann::RkdTree>(points, max_leaf, std::move(nodes),
                                        std::move(indices));
  return Status::Ok();
}

void PutBigInt(ByteWriter& w, const crypto::BigInt& v) {
  w.PutBlob(v.ToBytes());
}

Status GetBigInt(ByteReader& r, crypto::BigInt* out) {
  Bytes b;
  Status s = r.GetBlob(&b);
  if (!s.ok()) return s;
  if (b.size() > 4096) return Status::Corrupted("storage: absurd bigint");
  *out = crypto::BigInt::FromBytes(b);
  return Status::Ok();
}

void PutFilterGeometry(ByteWriter& w, const cuckoo::CuckooParams& geo) {
  w.PutU32(geo.num_buckets);
  w.PutU32(geo.slots_per_bucket);
  w.PutU32(geo.max_kicks);
}

Status GetFilterGeometry(ByteReader& r, cuckoo::CuckooParams* geo) {
  Status s;
  if (!(s = r.GetU32(&geo->num_buckets)).ok()) return s;
  if (!(s = r.GetU32(&geo->slots_per_bucket)).ok()) return s;
  if (!(s = r.GetU32(&geo->max_kicks)).ok()) return s;
  // num_buckets must be a power of two for XOR partial-key hashing, and the
  // table allocation (num_buckets * slots_per_bucket) is capped so a forged
  // header cannot demand gigabytes.
  if (geo->num_buckets == 0 ||
      (geo->num_buckets & (geo->num_buckets - 1)) != 0 ||
      geo->num_buckets > (1u << 26)) {
    return Status::Corrupted(
        "storage: filter bucket count not a small power of two");
  }
  if (geo->slots_per_bucket == 0 || geo->slots_per_bucket > 16 ||
      geo->max_kicks == 0 || geo->max_kicks > 100000) {
    return Status::Corrupted("storage: implausible filter geometry");
  }
  return Status::Ok();
}

Bytes SerializePublicParams(const core::PublicParams& params) {
  ByteWriter w;
  w.PutU32(kParamsMagic);
  w.PutU32(kParamsVersion);
  PutConfig(w, params.config);
  PutBigInt(w, params.public_key.n);
  PutBigInt(w, params.public_key.e);
  w.PutBlob(params.root_signature);
  w.PutVarint(params.dims);
  w.PutVarint(params.num_clusters);
  return w.Take();
}

Result<core::PublicParams> DeserializePublicParams(const Bytes& data) {
  ByteReader r(data);
  uint32_t magic = 0, version = 0;
  Status s;
  if (!(s = r.GetU32(&magic)).ok()) return s;
  if (magic != kParamsMagic) {
    return Status::Corrupted("storage: bad params magic");
  }
  if (!(s = r.GetU32(&version)).ok()) return s;
  if (version != kParamsVersion) {
    return Status::Corrupted("storage: unknown version");
  }
  core::PublicParams params;
  if (!(s = GetConfig(r, &params.config)).ok()) return s;
  if (!(s = GetBigInt(r, &params.public_key.n)).ok()) return s;
  if (!(s = GetBigInt(r, &params.public_key.e)).ok()) return s;
  if (!(s = r.GetBlob(&params.root_signature)).ok()) return s;
  uint64_t v;
  if (!(s = r.GetVarint(&v)).ok()) return s;
  params.dims = v;
  if (!(s = r.GetVarint(&v)).ok()) return s;
  params.num_clusters = v;
  if (!r.AtEnd()) return Status::Corrupted("storage: trailing bytes");
  return params;
}

Status SavePublicParams(const std::string& path,
                        const core::PublicParams& params) {
  return AtomicWriteFile(path, SerializePublicParams(params));
}

Result<core::PublicParams> LoadPublicParams(const std::string& path) {
  Bytes data;
  Status s = ReadFileBytes(path, &data);
  if (!s.ok()) return s;
  return DeserializePublicParams(data);
}

}  // namespace imageproof::storage
