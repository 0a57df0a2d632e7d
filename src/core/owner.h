// Image owner: ADS generation (Section V-A).
//
// Given the codebook, the encoded corpus, and the raw image payloads, the
// owner
//   1. signs every image:  sig_I = sign(sk, h(I | h(img_I)))      (Eq. 15)
//   2. builds the (frequency-grouped) Merkle inverted index,
//   3. builds n_t randomized k-d trees over the codebook and decorates them
//      into MRKD-trees whose leaves embed the inverted-list digests,
//   4. signs h(root_1 | ... | root_{n_t}) — the digest of ImageProof.
// The output splits into the SP package (everything the service provider
// hosts) and the public parameters clients use for verification.

#ifndef IMAGEPROOF_CORE_OWNER_H_
#define IMAGEPROOF_CORE_OWNER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ann/rkd_forest.h"
#include "core/config.h"
#include "core/vo.h"
#include "invindex/merkle_inv_index.h"
#include "merkle/merkle_tree.h"
#include "mrkd/mrkd_tree.h"

namespace imageproof::core {

// Read-only provider of image payloads for a package whose blobs live
// outside the in-memory maps — the mmap'd package store
// (storage/package_store.h) serves result images straight from the file so
// a deployment larger than RAM never materializes its corpus.
// Implementations must be safe for concurrent Get calls over an immutable
// package and must integrity-check every record before handing it out: a
// tampered or bit-rotted payload surfaces as kCorrupted, never as silently
// wrong bytes inside a VO.
class ImagePayloadSource {
 public:
  virtual ~ImagePayloadSource() = default;

  virtual size_t Count() const = 0;

  // Looks up `id`, copying its payload and signature out of the store.
  // *found = false (with an OK status) when the id is absent; kCorrupted
  // when the stored record fails its integrity check.
  virtual Status Get(ImageId id, bool* found, Bytes* data,
                     Bytes* signature) const = 0;

  // Visits every record in ascending id order. Stops at the first non-OK
  // callback result or integrity failure and returns it.
  virtual Status ForEach(
      const std::function<Status(ImageId, BytesView data, BytesView sig)>& fn)
      const = 0;
};

// Everything outsourced to the SP. Movable, not copyable (the MRKD-trees
// borrow the forest's trees).
struct SpPackage {
  Config config;
  ann::PointSet codebook;
  std::vector<std::pair<ImageId, bovw::BovwVector>> corpus;
  std::unordered_map<ImageId, Bytes> image_data;
  std::unordered_map<ImageId, Bytes> image_signatures;

  std::unique_ptr<ann::RkdForest> forest;
  // The MRKD proof material, all derived by DecorateForest: one commitment
  // per codebook cluster, the n_t MRKD-trees over the forest (they borrow
  // the commitments and list_digests) and, under kDimMerkle, every
  // cluster's coordinate-block Merkle tree (mrkd::DimTree), built with the
  // commitments (empty under kFullVector). None of it changes on an update
  // (core/update.h), so it lives as long as the package, and it is never
  // written after decoration, so concurrent queries read it freely.
  std::vector<crypto::Digest> cluster_commitments;
  std::vector<std::unique_ptr<mrkd::MrkdTree>> mrkd_trees;
  std::vector<merkle::MerkleTree> dim_trees;
  // Posting or frequency-group entries, per config.freq_grouped.
  std::unique_ptr<invindex::InvertedIndex> inv_index;
  std::vector<crypto::Digest> list_digests;

  // Set for a disk-backed package: image payloads come from here and the
  // two maps above stay empty. `backing` pins whatever owns the source
  // (the file mapping) for the package's lifetime — snapshots hand
  // shared_ptr<const SpPackage> around, so lifetime must travel with the
  // package itself.
  const ImagePayloadSource* image_source = nullptr;
  std::shared_ptr<const void> backing;

  bool disk_backed() const { return image_source != nullptr; }

  // Uniform payload access over both representations. GetImage leaves
  // *found = false for unknown ids and returns kCorrupted when a
  // disk-backed record fails its integrity check.
  size_t NumImages() const;
  Status GetImage(ImageId id, bool* found, Bytes* data, Bytes* signature) const;
  Status ForEachImage(
      const std::function<Status(ImageId, BytesView data, BytesView sig)>& fn)
      const;
  // Order-insensitive payload + signature equality (the engine's
  // clone-vs-base update validation). Any integrity failure reads as "not
  // equal".
  bool ImagesEqual(const SpPackage& other) const;

  // Derives the MRKD proof material above from config, codebook, forest
  // and list_digests. Build, clone and store open all end here.
  void DecorateForest();

  // h(root_1 | ... | root_{n_t}).
  crypto::Digest RootDigest() const;

  // Rough memory footprint of the ADS components (digests + filters), for
  // reporting.
  size_t AdsBytes() const;
};

struct OwnerOutput {
  // Heap-allocated and never moved: the forest and MRKD-trees hold pointers
  // into the package's codebook and list-digest members.
  std::unique_ptr<SpPackage> package;
  PublicParams public_params;
  // Retained by the owner (never shipped to the SP) so the deployment can
  // be updated incrementally and re-signed; see core/update.h.
  crypto::RsaPrivateKey private_key;
};

// Optional injections for builds that must agree with other builds. The
// shard planner (shard/planner.h) builds N deployments over disjoint corpus
// slices but needs them mutually comparable: idf weights frozen from the
// FULL corpus (so per-image scores are byte-identical to an unsharded
// build) and one shared owner keypair (so every shard's roots and image
// signatures verify under a single public key). Null members fall back to
// the default behavior (weights from the build's own corpus, fresh keys
// from key_seed).
struct BuildOverrides {
  const bovw::ClusterWeights* weights = nullptr;
  const crypto::RsaKeyPair* keys = nullptr;
};

// Builds the whole deployment. `corpus` pairs image ids with their BoVW
// vectors (pre-encoded; see workload/ or the sift+ann pipeline), and
// `image_data` maps each id to its raw payload.
OwnerOutput BuildDeployment(
    const Config& config, ann::PointSet codebook,
    std::vector<std::pair<ImageId, bovw::BovwVector>> corpus,
    std::unordered_map<ImageId, Bytes> image_data, uint64_t key_seed = 0x5E5,
    const BuildOverrides& overrides = {});

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_OWNER_H_
