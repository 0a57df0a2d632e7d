// The end-to-end verification object returned with every top-k query
// (Algorithm 5 line 7), and the public parameters clients hold.

#ifndef IMAGEPROOF_CORE_VO_H_
#define IMAGEPROOF_CORE_VO_H_

#include <vector>

#include "bovw/bovw.h"
#include "common/bytes.h"
#include "common/status.h"
#include "core/config.h"
#include "crypto/rsa.h"

namespace imageproof::core {

using bovw::ImageId;

// One retrieved image with its authenticity material.
struct ResultImage {
  ImageId id = 0;
  Bytes data;       // raw image bytes (what the owner signed)
  Bytes signature;  // sig_I = sign(h(I | h(img_I)))  (Eq. 15)
};

// VO for a whole query: the BoVW-step proof ({VO_C,i}, the shared candidate
// reveals, the per-feature thresholds) plus the inverted-index proof and
// the per-result signatures.
struct QueryVO {
  std::vector<double> thresholds_sq;  // squared threshold per feature vector
  Bytes reveal_section;               // shared candidate reveals (union C_i)
  std::vector<Bytes> tree_vos;        // one token stream per MRKD-tree
  Bytes inv_vo;                       // InvSearch VO
  std::vector<ResultImage> results;   // top-k images + signatures

  size_t TotalBytes() const;
  // Size excluding the raw image payloads (the paper's VO-size metric).
  size_t ProofBytes() const;

  Bytes Serialize() const;
  static Status Deserialize(const Bytes& data, QueryVO* out);
};

// Published by the owner; everything a client needs to verify queries.
struct PublicParams {
  Config config;
  crypto::RsaPublicKey public_key;
  Bytes root_signature;  // over h(root_1 | ... | root_{n_t})
  size_t dims = 0;       // descriptor dimensionality
  size_t num_clusters = 0;
};

}  // namespace imageproof::core

#endif  // IMAGEPROOF_CORE_VO_H_
