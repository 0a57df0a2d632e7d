#include "core/owner.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/random.h"
#include "crypto/hasher.h"
#include "crypto/sha3.h"

namespace imageproof::core {

namespace {

crypto::Digest ImageDigest(ImageId id, const Bytes& data) {
  // h(I | h(img_I)) per Eq. (15).
  return crypto::DigestBuilder()
      .AddU64(id)
      .AddDigest(crypto::Sha3(data))
      .Finalize();
}

}  // namespace

void SpPackage::DecorateForest() {
  mrkd::ClusterCommitments(config.reveal_mode, codebook, &cluster_commitments,
                           &dim_trees);
  for (const auto& tree : forest->trees()) {
    mrkd_trees.push_back(std::make_unique<mrkd::MrkdTree>(
        tree.get(), cluster_commitments, list_digests));
  }
}

crypto::Digest SpPackage::RootDigest() const {
  crypto::DigestBuilder b;
  for (const auto& tree : mrkd_trees) b.AddDigest(tree->root_digest());
  return b.Finalize();
}

size_t SpPackage::NumImages() const {
  return image_source ? image_source->Count() : image_data.size();
}

Status SpPackage::GetImage(ImageId id, bool* found, Bytes* data,
                           Bytes* signature) const {
  *found = false;
  data->clear();
  signature->clear();
  if (image_source) return image_source->Get(id, found, data, signature);
  auto data_it = image_data.find(id);
  if (data_it == image_data.end()) return Status::Ok();
  *found = true;
  *data = data_it->second;
  auto sig_it = image_signatures.find(id);
  if (sig_it != image_signatures.end()) *signature = sig_it->second;
  return Status::Ok();
}

Status SpPackage::ForEachImage(
    const std::function<Status(ImageId, BytesView, BytesView)>& fn) const {
  if (image_source) return image_source->ForEach(fn);
  // Ascending id order even over the unordered map, so every byte stream
  // derived from a package (interchange serialization, the on-disk store)
  // is deterministic for logically identical content.
  std::vector<ImageId> ids;
  ids.reserve(image_data.size());
  for (const auto& [id, data] : image_data) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (ImageId id : ids) {
    const Bytes& data = image_data.at(id);
    auto sig_it = image_signatures.find(id);
    BytesView sig = sig_it == image_signatures.end()
                        ? BytesView{}
                        : BytesView(sig_it->second);
    if (Status s = fn(id, BytesView(data), sig); !s.ok()) return s;
  }
  return Status::Ok();
}

bool SpPackage::ImagesEqual(const SpPackage& other) const {
  if (NumImages() != other.NumImages()) return false;
  Status s = ForEachImage([&other](ImageId id, BytesView data, BytesView sig) {
    bool found = false;
    Bytes other_data, other_sig;
    Status lookup = other.GetImage(id, &found, &other_data, &other_sig);
    if (!lookup.ok() || !found) return Status::Error("mismatch");
    if (other_data.size() != data.size ||
        !std::equal(other_data.begin(), other_data.end(), data.data)) {
      return Status::Error("mismatch");
    }
    if (other_sig.size() != sig.size ||
        !std::equal(other_sig.begin(), other_sig.end(), sig.data)) {
      return Status::Error("mismatch");
    }
    return Status::Ok();
  });
  return s.ok();
}

size_t SpPackage::AdsBytes() const {
  size_t n = 0;
  // MRKD digests: one per node per tree, plus cluster commitments.
  for (const auto& tree : mrkd_trees) {
    n += tree->tree().nodes().size() * crypto::kDigestSize;
  }
  n += cluster_commitments.size() * crypto::kDigestSize;
  // Inverted-index digests and filters.
  if (inv_index) {
    inv_index->Visit([&n](const auto& index) {
      for (size_t c = 0; c < index.num_clusters(); ++c) {
        const auto& list = index.list(static_cast<bovw::ClusterId>(c));
        n += list.postings.size() * crypto::kDigestSize;
        if (list.filter.has_value()) n += list.filter->Serialize().size();
      }
    });
  }
  // Per-image signatures.
  for (const auto& [id, sig] : image_signatures) n += sig.size();
  return n;
}

OwnerOutput BuildDeployment(
    const Config& config, ann::PointSet codebook,
    std::vector<std::pair<ImageId, bovw::BovwVector>> corpus,
    std::unordered_map<ImageId, Bytes> image_data, uint64_t key_seed,
    const BuildOverrides& overrides) {
  OwnerOutput out;
  out.package = std::make_unique<SpPackage>();
  SpPackage& pkg = *out.package;
  pkg.config = config;
  pkg.codebook = std::move(codebook);
  pkg.corpus = std::move(corpus);
  pkg.image_data = std::move(image_data);

  // Keys and per-image signatures (Eq. 15).
  crypto::RsaKeyPair keys;
  if (overrides.keys) {
    keys = *overrides.keys;
  } else {
    Rng key_rng(key_seed);
    keys = crypto::RsaKeyPair::Generate(config.rsa_bits, key_rng);
  }
  if (config.sign_images) {
    // One RSA signature per image; embarrassingly parallel.
    std::vector<const std::pair<const ImageId, Bytes>*> entries;
    entries.reserve(pkg.image_data.size());
    for (const auto& entry : pkg.image_data) entries.push_back(&entry);
    std::vector<Bytes> signatures(entries.size());
    ParallelFor(entries.size(), [&](size_t i) {
      signatures[i] = crypto::RsaSign(
          keys.private_key, ImageDigest(entries[i]->first, entries[i]->second));
    });
    for (size_t i = 0; i < entries.size(); ++i) {
      pkg.image_signatures[entries[i]->first] = std::move(signatures[i]);
    }
  }

  // Weights + inverted index (plain or frequency-grouped).
  size_t num_clusters = pkg.codebook.size();
  std::vector<bovw::BovwVector> vecs;
  vecs.reserve(pkg.corpus.size());
  for (const auto& [id, v] : pkg.corpus) vecs.push_back(v);
  bovw::ClusterWeights weights =
      overrides.weights ? *overrides.weights
                        : bovw::ClusterWeights::FromCorpus(num_clusters, vecs);

  pkg.inv_index =
      std::make_unique<invindex::InvertedIndex>(invindex::InvertedIndex::Build(
          config.freq_grouped ? invindex::EntryKind::kGroup
                              : invindex::EntryKind::kPosting,
          num_clusters, pkg.corpus, weights, config.with_filters,
          config.fingerprint_bits, config.filter_seed));
  pkg.list_digests = pkg.inv_index->ListDigests();

  // Randomized k-d forest and the MRKD decorations.
  pkg.forest = std::make_unique<ann::RkdForest>(pkg.codebook, config.forest);
  pkg.DecorateForest();

  // Public parameters: signed ADS digest.
  out.public_params.config = config;
  out.public_params.public_key = keys.public_key;
  out.public_params.root_signature =
      crypto::RsaSign(keys.private_key, pkg.RootDigest());
  out.public_params.dims = pkg.codebook.dims();
  out.public_params.num_clusters = num_clusters;
  out.private_key = keys.private_key;
  return out;
}

}  // namespace imageproof::core
