// Canonical on-disk codec for package components (the sections of the mmap
// package store, storage/package_store.cc) and for the public parameters
// clients persist (params.bin).
//
// Every encoder/decoder here follows the hardened-deserialization discipline
// of PR 4: decoders cap every allocation against the bytes actually present,
// bound all counts with absolute sanity limits, decode bools strictly (0/1
// only), validate structural invariants (tree acyclicity, sorted BoVW
// entries, filter geometry), and report every failure as
// StatusCode::kCorrupted. Encodings are the canonical little-endian forms of
// common/bytes.h.

#ifndef IMAGEPROOF_STORAGE_FORMAT_H_
#define IMAGEPROOF_STORAGE_FORMAT_H_

#include <memory>
#include <string>

#include "ann/rkd_tree.h"
#include "bovw/bovw.h"
#include "common/bytes.h"
#include "common/status.h"
#include "core/config.h"
#include "core/vo.h"
#include "crypto/bignum.h"
#include "cuckoo/cuckoo_filter.h"

namespace imageproof::storage {

// Scheme configuration (fixed-width header fields + strict bools).
void PutConfig(ByteWriter& w, const core::Config& c);
Status GetConfig(ByteReader& r, core::Config* c);

// Row-major float point set with shape prefix and allocation caps.
void PutPointSet(ByteWriter& w, const ann::PointSet& points);
Status GetPointSet(ByteReader& r, ann::PointSet* out);

// Sparse BoVW vector; entries must be strictly cluster-sorted with nonzero
// frequencies, both enforced on decode.
void PutBovw(ByteWriter& w, const bovw::BovwVector& v);
Status GetBovw(ByteReader& r, bovw::BovwVector* out);

// Randomized k-d tree structure. Nodes are written with a kind byte and only
// the fields that kind uses (no dead wire bytes); the decoder checks spans,
// child ranges, the strictly-increasing-child invariant (no cycles), and
// that point indices form a permutation.
void PutTree(ByteWriter& w, const ann::RkdTree& tree);
Status GetTree(ByteReader& r, const ann::PointSet& points, int max_leaf,
               std::unique_ptr<ann::RkdTree>* out);

// Arbitrary-precision integer as a length-prefixed magnitude blob.
void PutBigInt(ByteWriter& w, const crypto::BigInt& v);
Status GetBigInt(ByteReader& r, crypto::BigInt* out);

// Shared cuckoo-filter geometry (committed state: frozen at the original
// build). Get validates the power-of-two bucket count and allocation bounds;
// fingerprint_bits and seed ride in the config and are filled by the caller.
void PutFilterGeometry(ByteWriter& w, const cuckoo::CuckooParams& geo);
Status GetFilterGeometry(ByteReader& r, cuckoo::CuckooParams* geo);

// Public parameters (what clients persist as params.bin): magic 'IPPB',
// format version 1, config, owner public key, root signature, dims and
// cluster count. Deserialize rejects trailing bytes.
Bytes SerializePublicParams(const core::PublicParams& params);
Result<core::PublicParams> DeserializePublicParams(const Bytes& data);

// File wrappers: crash-safe write (storage/file_io.h) and whole-file read.
Status SavePublicParams(const std::string& path,
                        const core::PublicParams& params);
Result<core::PublicParams> LoadPublicParams(const std::string& path);

}  // namespace imageproof::storage

#endif  // IMAGEPROOF_STORAGE_FORMAT_H_
