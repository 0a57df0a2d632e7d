#include "storage/serializer.h"

#include <cstdio>

#include "common/fault.h"
#include "storage/file_io.h"
#include "storage/format.h"

namespace imageproof::storage {

namespace {

constexpr uint32_t kPackageMagic = 0x49505031;  // "IPP1"
constexpr uint32_t kParamsMagic = 0x49505042;   // "IPPB"
constexpr uint32_t kFormatVersion = 1;

}  // namespace

Bytes SerializeSpPackage(const core::SpPackage& package) {
  ByteWriter w;
  w.PutU32(kPackageMagic);
  w.PutU32(kFormatVersion);
  PutConfig(w, package.config);
  PutPointSet(w, package.codebook);

  w.PutVarint(package.corpus.size());
  for (const auto& [id, v] : package.corpus) {
    w.PutVarint(id);
    PutBovw(w, v);
  }

  // Image payloads go through the package's uniform accessor so a
  // disk-backed package (storage/package_store.h) serializes identically to
  // an in-memory one — each mmap'd payload is integrity-checked as it is
  // read. A payload that fails its digest corrupts the whole serialization,
  // which the caller's round-trip validation then rejects.
  w.PutVarint(package.NumImages());
  Status img = package.ForEachImage(
      [&w](bovw::ImageId id, BytesView data, BytesView sig) {
        w.PutVarint(id);
        w.PutVarint(data.size);
        w.PutBytes(data.data, data.size);
        w.PutVarint(sig.size);
        w.PutBytes(sig.data, sig.size);
        return Status::Ok();
      });
  if (!img.ok()) {
    // Poison the stream deterministically: a failed payload read must not
    // produce bytes that parse as a valid (smaller) package.
    w.PutU32(0xDEADC0DE);
  }

  // Cluster weights are part of the committed state (frozen across
  // incremental updates), so they are stored rather than re-derived.
  w.PutVarint(package.codebook.size());
  for (size_t c = 0; c < package.codebook.size(); ++c) {
    w.PutF64(package.inv_index->weight(static_cast<bovw::ClusterId>(c)));
  }

  // The shared cuckoo-filter geometry is committed state too: it was sized
  // from the longest list at build time and stays frozen across incremental
  // updates, so a reload must NOT re-derive it from the (possibly grown)
  // current lists — that would change every theta digest and the root.
  PutFilterGeometry(w, package.inv_index->filter_params());

  w.PutVarint(package.mrkd_trees.size());
  for (const auto& tree : package.forest->trees()) {
    PutTree(w, *tree);
  }
  Bytes out = w.Take();
  // Robustness-test hook: when the fault injector arms the
  // storage.serialize.* sites, the emitted bytes are bit-flipped or
  // truncated here — the load path (which re-derives every digest) must
  // turn any such corruption into kCorrupted, never a crash or a silently
  // wrong package. No-op (one relaxed load) when nothing is armed.
  fault::InjectByteFaults(&out);
  return out;
}

Result<std::unique_ptr<core::SpPackage>> DeserializeSpPackage(const Bytes& data) {
  ByteReader r(data);
  uint32_t magic = 0, version = 0;
  Status s;
  if (!(s = r.GetU32(&magic)).ok()) return s;
  if (magic != kPackageMagic) {
    return Status::Corrupted("storage: bad package magic");
  }
  if (!(s = r.GetU32(&version)).ok()) return s;
  if (version != kFormatVersion) {
    return Status::Corrupted("storage: unknown version");
  }

  auto pkg = std::make_unique<core::SpPackage>();
  if (!(s = GetConfig(r, &pkg->config)).ok()) return s;
  if (!(s = GetPointSet(r, &pkg->codebook)).ok()) return s;

  uint64_t n;
  if (!(s = r.GetVarint(&n)).ok()) return s;
  if (n > r.remaining() / 2) {
    return Status::Corrupted("storage: corpus size exceeds input");
  }
  pkg->corpus.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id;
    if (!(s = r.GetVarint(&id)).ok()) return s;
    pkg->corpus[i].first = id;
    if (!(s = GetBovw(r, &pkg->corpus[i].second)).ok()) return s;
  }

  if (!(s = r.GetVarint(&n)).ok()) return s;
  // id + empty blob + empty signature = 3 wire bytes minimum per image.
  if (n > r.remaining() / 3) {
    return Status::Corrupted("storage: image count exceeds input size");
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id;
    Bytes blob, sig;
    if (!(s = r.GetVarint(&id)).ok()) return s;
    if (!(s = r.GetBlob(&blob)).ok()) return s;
    if (!(s = r.GetBlob(&sig)).ok()) return s;
    pkg->image_data[id] = std::move(blob);
    if (!sig.empty()) pkg->image_signatures[id] = std::move(sig);
  }

  // Rebuild the index deterministically from the stored corpus and the
  // stored (possibly frozen) weights — the digests are pure functions of
  // that data. Then attach the stored tree shapes.
  uint64_t num_weights;
  if (!(s = r.GetVarint(&num_weights)).ok()) return s;
  if (num_weights != pkg->codebook.size()) {
    return Status::Corrupted("storage: weight count mismatch");
  }
  std::vector<double> raw_weights(num_weights);
  for (auto& weight : raw_weights) {
    if (!(s = r.GetF64(&weight)).ok()) return s;
  }
  bovw::ClusterWeights weights = bovw::ClusterWeights::FromRaw(std::move(raw_weights));

  // The stored filter geometry (frozen at the original build; see the
  // serializer above), validated by the shared codec before use.
  cuckoo::CuckooParams geo;
  geo.fingerprint_bits = pkg->config.fingerprint_bits;
  geo.seed = pkg->config.filter_seed;
  if (!(s = GetFilterGeometry(r, &geo)).ok()) return s;

  pkg->inv_index =
      std::make_unique<invindex::InvertedIndex>(invindex::InvertedIndex::Build(
          pkg->config.freq_grouped ? invindex::EntryKind::kGroup
                                   : invindex::EntryKind::kPosting,
          pkg->codebook.size(), pkg->corpus, weights, pkg->config.with_filters,
          pkg->config.fingerprint_bits, pkg->config.filter_seed, geo));
  pkg->list_digests = pkg->inv_index->ListDigests();

  uint64_t num_trees;
  if (!(s = r.GetVarint(&num_trees)).ok()) return s;
  if (num_trees != static_cast<uint64_t>(pkg->config.forest.num_trees)) {
    return Status::Corrupted("storage: tree count does not match config");
  }
  // The forest wrapper owns the trees; rebuild it around the stored shapes.
  pkg->forest = std::make_unique<ann::RkdForest>(pkg->codebook,
                                                 pkg->config.forest);
  // Replace the freshly built trees with the persisted structures so node
  // layouts (and therefore digests) match the owner's signature even if
  // the standard library's partition order ever changes.
  std::vector<std::unique_ptr<ann::RkdTree>> trees;
  for (uint64_t i = 0; i < num_trees; ++i) {
    std::unique_ptr<ann::RkdTree> tree;
    if (!(s = GetTree(r, pkg->codebook, pkg->config.forest.max_leaf_size,
                      &tree))
             .ok()) {
      return s;
    }
    trees.push_back(std::move(tree));
  }
  pkg->forest->ReplaceTrees(std::move(trees));

  for (const auto& tree : pkg->forest->trees()) {
    pkg->mrkd_trees.push_back(std::make_unique<mrkd::MrkdTree>(
        tree.get(), pkg->config.reveal_mode, pkg->list_digests));
  }
  if (!r.AtEnd()) return Status::Corrupted("storage: trailing bytes");
  return pkg;
}

Bytes SerializePublicParams(const core::PublicParams& params) {
  ByteWriter w;
  w.PutU32(kParamsMagic);
  w.PutU32(kFormatVersion);
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
  if (magic != kParamsMagic) return Status::Corrupted("storage: bad params magic");
  if (!(s = r.GetU32(&version)).ok()) return s;
  if (version != kFormatVersion) {
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

Status SaveSpPackage(const std::string& path, const core::SpPackage& package) {
  return AtomicWriteFile(path, SerializeSpPackage(package));
}

Result<std::unique_ptr<core::SpPackage>> LoadSpPackage(const std::string& path) {
  Bytes data;
  Status s = ReadFileBytes(path, &data);
  if (!s.ok()) return s;
  return DeserializeSpPackage(data);
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
