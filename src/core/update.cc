#include "core/update.h"

#include <algorithm>

#include "crypto/hasher.h"
#include "crypto/sha3.h"

namespace imageproof::core {

namespace {

crypto::Digest ImageDigest(ImageId id, const Bytes& data) {
  return crypto::DigestBuilder()
      .AddU64(id)
      .AddDigest(crypto::Sha3(data))
      .Finalize();
}

// Propagates the changed list digests of `clusters` through every MRKD-tree
// and re-signs the new root.
size_t RefreshAndResign(SpPackage* package,
                        const crypto::RsaPrivateKey& owner_key,
                        PublicParams* public_params,
                        const std::vector<bovw::ClusterId>& clusters) {
  size_t rehashed = 0;
  for (auto& tree : package->mrkd_trees) {
    for (bovw::ClusterId c : clusters) {
      rehashed += tree->RefreshListDigest(c);
    }
  }
  public_params->root_signature =
      crypto::RsaSign(owner_key, package->RootDigest());
  return rehashed;
}

}  // namespace

Result<std::unique_ptr<SpPackage>> ClonePackage(const SpPackage& base) {
  auto pkg = std::make_unique<SpPackage>();
  pkg->config = base.config;
  pkg->codebook = base.codebook;
  pkg->corpus = base.corpus;
  pkg->image_data.reserve(base.NumImages());
  Status s = base.ForEachImage(
      [&pkg](ImageId id, BytesView data, BytesView sig) {
        pkg->image_data.emplace(id, Bytes(data.data, data.data + data.size));
        if (sig.size > 0) {
          pkg->image_signatures.emplace(id,
                                        Bytes(sig.data, sig.data + sig.size));
        }
        return Status::Ok();
      });
  if (!s.ok()) return s;

  // Rebuild the index deterministically from the corpus and the base's
  // weights — the digests are pure functions of that data. Cluster weights
  // are committed state (frozen across incremental updates), and so is the
  // shared cuckoo-filter geometry: it was sized from the longest list at
  // build time, and re-deriving it from the (possibly grown) current lists
  // would change every theta digest and the root.
  std::vector<double> raw_weights(pkg->codebook.size());
  for (size_t c = 0; c < raw_weights.size(); ++c) {
    raw_weights[c] = base.inv_index->weight(static_cast<bovw::ClusterId>(c));
  }
  pkg->inv_index =
      std::make_unique<invindex::InvertedIndex>(invindex::InvertedIndex::Build(
          pkg->config.freq_grouped ? invindex::EntryKind::kGroup
                                   : invindex::EntryKind::kPosting,
          pkg->codebook.size(), pkg->corpus,
          bovw::ClusterWeights::FromRaw(std::move(raw_weights)),
          pkg->config.with_filters, pkg->config.fingerprint_bits,
          pkg->config.filter_seed, base.inv_index->filter_params()));
  pkg->list_digests = pkg->inv_index->ListDigests();

  // Copy the committed tree shapes rather than rebuilding them, so node
  // layouts (and therefore digests) match the owner's signature even if the
  // standard library's partition order ever changes.
  std::vector<std::unique_ptr<ann::RkdTree>> trees;
  trees.reserve(base.forest->trees().size());
  for (const auto& tree : base.forest->trees()) {
    trees.push_back(std::make_unique<ann::RkdTree>(
        pkg->codebook, tree->max_leaf_size(), tree->nodes(),
        tree->point_indices()));
  }
  pkg->forest = std::make_unique<ann::RkdForest>(
      pkg->codebook, pkg->config.forest, std::move(trees));
  pkg->DecorateForest();
  return pkg;
}

Result<UpdateStats> InsertImage(SpPackage* package,
                                const crypto::RsaPrivateKey& owner_key,
                                PublicParams* public_params, ImageId id,
                                bovw::BovwVector bovw, Bytes image_data) {
  if (package->disk_backed()) {
    // Disk-backed packages are immutable views of a mapped file; the engine
    // clones them into memory (ClonePackage) before applying updates, so a
    // direct mutation here is a caller bug.
    return Result<UpdateStats>::Error(
        "update: cannot mutate a disk-backed package in place");
  }
  if (package->image_data.contains(id)) {
    return Result<UpdateStats>::Error("update: image id already exists");
  }
  if (bovw.empty()) {
    return Result<UpdateStats>::Error("update: empty BoVW vector");
  }
  const uint64_t hashes_before = crypto::HashInvocations();
  UpdateStats stats;
  double norm = bovw.L2Norm();
  std::vector<bovw::ClusterId> touched;
  for (const auto& [c, f] : bovw.entries) {
    Status s = package->inv_index->ApplyInsert(c, id, f, norm);
    if (!s.ok()) {
      // Roll back the lists already updated so the package still matches
      // the published signature.
      for (bovw::ClusterId rc : touched) {
        (void)package->inv_index->ApplyRemove(rc, id);
        package->list_digests[rc] = package->inv_index->list_digest(rc);
      }
      if (!touched.empty()) {
        RefreshAndResign(package, owner_key, public_params, touched);
      }
      return s;
    }
    package->list_digests[c] = package->inv_index->list_digest(c);
    touched.push_back(c);
    ++stats.lists_updated;
  }

  package->corpus.emplace_back(id, std::move(bovw));
  if (package->config.sign_images) {
    package->image_signatures[id] =
        crypto::RsaSign(owner_key, ImageDigest(id, image_data));
  }
  package->image_data[id] = std::move(image_data);

  stats.mrkd_nodes_rehashed =
      RefreshAndResign(package, owner_key, public_params, touched);
  stats.hash_invocations = crypto::HashInvocations() - hashes_before;
  return stats;
}

Result<UpdateStats> DeleteImage(SpPackage* package,
                                const crypto::RsaPrivateKey& owner_key,
                                PublicParams* public_params, ImageId id) {
  if (package->disk_backed()) {
    return Result<UpdateStats>::Error(
        "update: cannot mutate a disk-backed package in place");
  }
  auto corpus_it = std::find_if(
      package->corpus.begin(), package->corpus.end(),
      [id](const auto& entry) { return entry.first == id; });
  if (corpus_it == package->corpus.end()) {
    return Result<UpdateStats>::Error("update: unknown image id");
  }
  const uint64_t hashes_before = crypto::HashInvocations();
  UpdateStats stats;
  std::vector<bovw::ClusterId> touched;
  for (const auto& [c, f] : corpus_it->second.entries) {
    Status s = package->inv_index->ApplyRemove(c, id);
    if (!s.ok()) return s;  // structurally impossible for consistent data
    package->list_digests[c] = package->inv_index->list_digest(c);
    touched.push_back(c);
    ++stats.lists_updated;
  }
  package->corpus.erase(corpus_it);
  package->image_data.erase(id);
  package->image_signatures.erase(id);

  stats.mrkd_nodes_rehashed =
      RefreshAndResign(package, owner_key, public_params, touched);
  stats.hash_invocations = crypto::HashInvocations() - hashes_before;
  return stats;
}

}  // namespace imageproof::core
