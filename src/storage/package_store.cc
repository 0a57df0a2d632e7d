#include "storage/package_store.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/fault.h"
#include "crypto/rsa.h"
#include "crypto/sha3.h"
#include "storage/file_io.h"
#include "storage/format.h"

namespace imageproof::storage {

namespace {

using bovw::ImageId;
using crypto::Digest;

constexpr uint32_t kStoreMagic = 0x314B5049;  // "IPK1" as on-disk LE bytes
constexpr uint32_t kStoreVersion = 1;

// Section ids, in file order. All nine are always present (possibly empty),
// which lets the open path validate the TOC as one fixed shape instead of a
// combinatorial one.
enum SectionId : uint32_t {
  kConfig = 1,
  kCodebook = 2,
  kCorpus = 3,
  kWeights = 4,
  kFilterGeo = 5,
  kTrees = 6,
  kPostings = 7,
  kImageIndex = 8,
  kImageBlobs = 9,
};
constexpr size_t kNumSections = 9;

constexpr size_t kTocEntryBytes = 4 + 8 + 8 + crypto::kDigestSize;
// magic | version | flags | page_size | section_count (u32 each),
// toc_offset | toc_size | file_size (u64 each), root_digest.
constexpr size_t kHeaderPrefixBytes = 5 * 4 + 3 * 8 + crypto::kDigestSize;
// ... plus toc_digest, plus header_digest over everything before it.
constexpr size_t kHeaderBytes = kHeaderPrefixBytes + 2 * crypto::kDigestSize;

constexpr uint32_t kMinPageSize = 64;
constexpr uint32_t kMaxPageSize = 1u << 20;

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) & ~(align - 1);
}

Status Corrupt(const std::string& what) {
  return Status::Corrupted("store: " + what);
}

// ---------------------------------------------------------------------------
// The mapped package: owns the mmap and serves image payloads out of it.
// Published to SpPackage as its ImagePayloadSource; the package's `backing`
// shared_ptr pins this object (and therefore the mapping) for as long as
// any snapshot references the package.
// ---------------------------------------------------------------------------

class MappedPackage final : public core::ImagePayloadSource {
 public:
  struct Record {
    ImageId id = 0;
    uint64_t offset = 0;  // into the blob section
    uint64_t size = 0;
    Digest digest;  // h(payload): the lazy integrity check
    Bytes signature;
  };

  size_t Count() const override { return records_.size(); }

  Status Get(ImageId id, bool* found, Bytes* data,
             Bytes* signature) const override {
    *found = false;
    data->clear();
    signature->clear();
    auto it = std::lower_bound(
        records_.begin(), records_.end(), id,
        [](const Record& r, ImageId key) { return r.id < key; });
    if (it == records_.end() || it->id != id) return Status::Ok();
    const uint8_t* payload = BlobPtr(*it);
    // The blob section is the one region open-time digests skip (hashing it
    // would fault every page). Each access pays one hash over the payload
    // it touches instead: a flipped bit in a stored image turns the query
    // that would have served it into kCorrupted.
    if (crypto::Sha3(payload, it->size) != it->digest) {
      return Corrupt("image payload digest diverges (id " +
                     std::to_string(id) + ")");
    }
    *found = true;
    data->assign(payload, payload + it->size);
    *signature = it->signature;
    return Status::Ok();
  }

  Status ForEach(const std::function<Status(ImageId, BytesView, BytesView)>&
                     fn) const override {
    for (const Record& r : records_) {
      const uint8_t* payload = BlobPtr(r);
      if (crypto::Sha3(payload, r.size) != r.digest) {
        return Corrupt("image payload digest diverges (id " +
                       std::to_string(r.id) + ")");
      }
      if (Status s = fn(r.id, BytesView(payload, r.size),
                        BytesView(r.signature));
          !s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  const uint8_t* BlobPtr(const Record& r) const {
    return map_.data() + blobs_offset_ + r.offset;
  }

  MmapFile map_;
  std::vector<Record> records_;
  uint64_t blobs_offset_ = 0;
};

// ---------------------------------------------------------------------------
// Header + TOC
// ---------------------------------------------------------------------------

struct Header {
  uint32_t page_size = 0;
  uint64_t toc_offset = 0;
  uint64_t toc_size = 0;
  uint64_t file_size = 0;
  Digest root_digest;
};

struct TocEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  Digest digest;
};

// Parses and digest-checks header + TOC against the mapped bytes. Every
// failure is kCorrupted: the file existed, so malformed metadata is torn or
// tampered state, not an operational error.
Status ReadHeaderAndToc(const MmapFile& map, Header* header,
                        std::vector<TocEntry>* toc) {
  if (map.size() < kHeaderBytes) return Corrupt("file shorter than header");
  ByteReader r(map.data(), kHeaderBytes);
  uint32_t magic = 0, version = 0, flags = 0, section_count = 0;
  Status s;
  if (!(s = r.GetU32(&magic)).ok()) return s;
  if (magic != kStoreMagic) return Corrupt("bad magic");
  if (!(s = r.GetU32(&version)).ok()) return s;
  if (version != kStoreVersion) return Corrupt("unknown version");
  if (!(s = r.GetU32(&flags)).ok()) return s;
  if (flags != 0) return Corrupt("unknown flags");
  if (!(s = r.GetU32(&header->page_size)).ok()) return s;
  if (header->page_size < kMinPageSize || header->page_size > kMaxPageSize ||
      (header->page_size & (header->page_size - 1)) != 0) {
    return Corrupt("bad page size");
  }
  if (!(s = r.GetU32(&section_count)).ok()) return s;
  if (section_count != kNumSections) return Corrupt("bad section count");
  if (!(s = r.GetU64(&header->toc_offset)).ok()) return s;
  if (!(s = r.GetU64(&header->toc_size)).ok()) return s;
  if (!(s = r.GetU64(&header->file_size)).ok()) return s;
  if (!(s = crypto::GetDigest(r, &header->root_digest)).ok()) return s;
  Digest toc_digest, header_digest;
  if (!(s = crypto::GetDigest(r, &toc_digest)).ok()) return s;
  if (!(s = crypto::GetDigest(r, &header_digest)).ok()) return s;
  // The header digest covers everything before it (including toc_digest),
  // so a flipped bit anywhere in the metadata chain is caught before any
  // field is trusted further.
  if (crypto::Sha3(map.data(), kHeaderPrefixBytes + crypto::kDigestSize) !=
      header_digest) {
    return Corrupt("header digest diverges");
  }
  if (header->file_size != map.size()) return Corrupt("file size diverges");
  if (header->toc_offset != kHeaderBytes ||
      header->toc_size != kNumSections * kTocEntryBytes ||
      header->toc_offset + header->toc_size > map.size()) {
    return Corrupt("bad TOC extent");
  }
  if (crypto::Sha3(map.data() + header->toc_offset, header->toc_size) !=
      toc_digest) {
    return Corrupt("TOC digest diverges");
  }

  ByteReader tr(map.data() + header->toc_offset, header->toc_size);
  uint64_t prev_end = header->toc_offset + header->toc_size;
  toc->clear();
  for (size_t i = 0; i < kNumSections; ++i) {
    TocEntry e;
    if (!(s = tr.GetU32(&e.id)).ok()) return s;
    if (!(s = tr.GetU64(&e.offset)).ok()) return s;
    if (!(s = tr.GetU64(&e.size)).ok()) return s;
    if (!(s = crypto::GetDigest(tr, &e.digest)).ok()) return s;
    // Fixed shape: ids 1..9 in order, page-aligned, non-overlapping, inside
    // the file.
    if (e.id != i + 1) return Corrupt("TOC ids out of order");
    if (e.offset % header->page_size != 0) {
      return Corrupt("section not page-aligned");
    }
    if (e.offset < prev_end || e.size > map.size() ||
        e.offset > map.size() - e.size) {
      return Corrupt("section extent out of bounds");
    }
    prev_end = e.offset + e.size;
    toc->push_back(e);
  }
  // Nothing may trail the last section: appended bytes would be state no
  // digest covers.
  if (prev_end != map.size()) return Corrupt("trailing bytes after sections");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Section codecs (beyond what storage/format.h provides)
// ---------------------------------------------------------------------------

Bytes EncodePostings(const core::SpPackage& package) {
  ByteWriter w;
  const bool filters = package.config.with_filters;
  package.inv_index->Visit([&](const auto& idx) {
    w.PutVarint(idx.num_clusters());
    for (size_t c = 0; c < idx.num_clusters(); ++c) {
      const auto& list = idx.list(static_cast<bovw::ClusterId>(c));
      w.PutVarint(list.postings.size());
      for (const auto& e : list.postings) e.PutIpk(w);
      if (filters) w.PutBlob(list.filter->Serialize());
    }
  });
  return w.Take();
}

Status DecodeFilter(ByteReader& r, const cuckoo::CuckooParams& geo,
                    std::optional<cuckoo::CuckooFilter>* out) {
  Bytes blob;
  Status s = r.GetBlob(&blob);
  if (!s.ok()) return s;
  Result<cuckoo::CuckooFilter> filter = cuckoo::CuckooFilter::Deserialize(blob);
  if (!filter.ok()) return filter.status();
  if (filter->params() != geo) {
    return Corrupt("filter geometry diverges from committed geometry");
  }
  *out = std::move(*filter);
  return Status::Ok();
}

// Decodes the postings section into lists and restores the index over
// them (no chain rehash).
template <class E>
Result<invindex::InvertedIndex> DecodePostings(
    ByteReader& r, const core::SpPackage& pkg,
    const std::vector<double>& weights, const cuckoo::CuckooParams& geo) {
  uint64_t nl = 0;
  Status s;
  if (!(s = r.GetVarint(&nl)).ok()) return s;
  if (nl != weights.size()) return Corrupt("posting list count diverges");
  std::vector<invindex::InvertedList<E>> lists(nl);
  for (uint64_t c = 0; c < nl; ++c) {
    invindex::InvertedList<E>& list = lists[c];
    list.cluster = static_cast<bovw::ClusterId>(c);
    list.weight = weights[c];
    uint64_t n = 0;
    if (!(s = r.GetVarint(&n)).ok()) return s;
    // Cap the allocation against bytes actually present.
    if (n > r.remaining() / E::kMinIpkBytes) {
      return Corrupt("posting count exceeds input size");
    }
    list.postings.resize(n);
    for (E& e : list.postings) {
      if (!(s = E::GetIpk(r, &e)).ok()) return s;
    }
    if (pkg.config.with_filters) {
      if (!(s = DecodeFilter(r, geo, &list.filter)).ok()) return s;
    }
  }
  Result<invindex::MerkleInvertedIndex<E>> idx =
      invindex::MerkleInvertedIndex<E>::Restore(geo, pkg.config.with_filters,
                                                std::move(lists));
  if (!idx.ok()) return idx.status();
  return invindex::InvertedIndex(std::move(*idx));
}

// One image-index entry on the wire: id(u64) | blob offset(varint) |
// blob size(varint) | payload digest(32) | signature blob.
Status DecodeImageIndex(ByteReader& r, uint64_t blobs_size,
                        std::vector<MappedPackage::Record>* records) {
  uint64_t n = 0;
  Status s;
  if (!(s = r.GetVarint(&n)).ok()) return s;
  if (n > r.remaining() / (8 + 1 + 1 + crypto::kDigestSize + 1)) {
    return Corrupt("image count exceeds input size");
  }
  records->resize(n);
  ImageId prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    MappedPackage::Record& rec = (*records)[i];
    if (!(s = r.GetU64(&rec.id)).ok()) return s;
    if (i > 0 && rec.id <= prev) return Corrupt("image ids not ascending");
    prev = rec.id;
    if (!(s = r.GetVarint(&rec.offset)).ok()) return s;
    if (!(s = r.GetVarint(&rec.size)).ok()) return s;
    // Every payload extent must lie inside the blob section: a forged
    // extent would otherwise read (and digest-check, and possibly serve)
    // bytes of unrelated sections.
    if (rec.size > blobs_size || rec.offset > blobs_size - rec.size) {
      return Corrupt("image extent outside blob section");
    }
    if (!(s = crypto::GetDigest(r, &rec.digest)).ok()) return s;
    if (!(s = r.GetBlob(&rec.signature)).ok()) return s;
    if (rec.signature.size() > 4096) return Corrupt("absurd signature size");
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Write
// ---------------------------------------------------------------------------

Status PackageStore::Write(const std::string& path,
                           const core::SpPackage& package,
                           const WriteOptions& options) {
  const uint32_t page = options.page_size;
  if (page < kMinPageSize || page > kMaxPageSize ||
      (page & (page - 1)) != 0) {
    return Status::Error("store: page_size must be a power of two in [64, 1M]");
  }

  Bytes sections[kNumSections];
  {
    ByteWriter w;
    PutConfig(w, package.config);
    sections[kConfig - 1] = w.Take();
  }
  {
    ByteWriter w;
    PutPointSet(w, package.codebook);
    sections[kCodebook - 1] = w.Take();
  }
  {
    ByteWriter w;
    w.PutVarint(package.corpus.size());
    for (const auto& [id, v] : package.corpus) {
      w.PutVarint(id);
      PutBovw(w, v);
    }
    sections[kCorpus - 1] = w.Take();
  }
  {
    ByteWriter w;
    w.PutVarint(package.codebook.size());
    for (size_t c = 0; c < package.codebook.size(); ++c) {
      w.PutF64(package.inv_index->weight(static_cast<bovw::ClusterId>(c)));
    }
    sections[kWeights - 1] = w.Take();
  }
  {
    ByteWriter w;
    PutFilterGeometry(w, package.inv_index->filter_params());
    sections[kFilterGeo - 1] = w.Take();
  }
  {
    ByteWriter w;
    w.PutVarint(package.mrkd_trees.size());
    for (const auto& tree : package.forest->trees()) PutTree(w, *tree);
    sections[kTrees - 1] = w.Take();
  }
  sections[kPostings - 1] = EncodePostings(package);
  {
    // Image index + blobs in one pass over the uniform accessor (ascending
    // id order; disk-backed payloads are integrity-checked as they are
    // read, so a corrupted source can never be re-published clean).
    ByteWriter index;
    ByteWriter blobs;
    index.PutVarint(package.NumImages());
    Status s = package.ForEachImage(
        [&index, &blobs](ImageId id, BytesView data, BytesView sig) {
          index.PutU64(id);
          index.PutVarint(blobs.size());
          index.PutVarint(data.size);
          crypto::PutDigest(index, crypto::Sha3(data.data, data.size));
          index.PutVarint(sig.size);
          index.PutBytes(sig.data, sig.size);
          blobs.PutBytes(data.data, data.size);
          return Status::Ok();
        });
    if (!s.ok()) return s;
    sections[kImageIndex - 1] = index.Take();
    sections[kImageBlobs - 1] = blobs.Take();
  }

  // Layout: header, TOC, then each section on a page boundary.
  uint64_t offsets[kNumSections];
  uint64_t off = AlignUp(kHeaderBytes + kNumSections * kTocEntryBytes, page);
  for (size_t i = 0; i < kNumSections; ++i) {
    offsets[i] = off;
    off = AlignUp(off + sections[i].size(), page);
  }
  // The file ends exactly where the last section does — no trailing pad, so
  // every byte past it would be detectable junk.
  const uint64_t file_size =
      offsets[kNumSections - 1] + sections[kNumSections - 1].size();

  ByteWriter toc;
  for (size_t i = 0; i < kNumSections; ++i) {
    toc.PutU32(static_cast<uint32_t>(i + 1));
    toc.PutU64(offsets[i]);
    toc.PutU64(sections[i].size());
    crypto::PutDigest(toc, crypto::Sha3(sections[i]));
  }
  const Bytes toc_bytes = toc.Take();

  ByteWriter header;
  header.PutU32(kStoreMagic);
  header.PutU32(kStoreVersion);
  header.PutU32(0);  // flags
  header.PutU32(page);
  header.PutU32(kNumSections);
  header.PutU64(kHeaderBytes);
  header.PutU64(toc_bytes.size());
  header.PutU64(file_size);
  crypto::PutDigest(header, package.RootDigest());
  crypto::PutDigest(header, crypto::Sha3(toc_bytes));
  Bytes header_prefix = header.Take();
  const Digest header_digest = crypto::Sha3(header_prefix);

  Bytes file(file_size, 0);
  std::copy(header_prefix.begin(), header_prefix.end(), file.begin());
  std::copy(header_digest.bytes.begin(), header_digest.bytes.end(),
            file.begin() + static_cast<ptrdiff_t>(header_prefix.size()));
  std::copy(toc_bytes.begin(), toc_bytes.end(),
            file.begin() + static_cast<ptrdiff_t>(kHeaderBytes));
  for (size_t i = 0; i < kNumSections; ++i) {
    std::copy(sections[i].begin(), sections[i].end(),
              file.begin() + static_cast<ptrdiff_t>(offsets[i]));
  }
  return AtomicWriteFile(path, file);
}

// ---------------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------------

Result<std::unique_ptr<core::SpPackage>> PackageStore::Open(
    const std::string& path, const OpenOptions& opts) {
  Result<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();

  Header header;
  std::vector<TocEntry> toc;
  Status s = ReadHeaderAndToc(*map, &header, &toc);
  if (!s.ok()) return s;

  // Every section except the lazily-faulted blobs is digest-checked up
  // front: after this loop, a parse failure genuinely means a format bug or
  // a forged file, never silent bit rot.
  for (const TocEntry& e : toc) {
    if (e.id == kImageBlobs) continue;
    if (crypto::Sha3(map->data() + e.offset, e.size) != e.digest) {
      return Corrupt("section " + std::to_string(e.id) + " digest diverges");
    }
  }
  auto section = [&](SectionId id) {
    const TocEntry& e = toc[id - 1];
    return ByteReader(map->data() + e.offset, e.size);
  };
  auto section_done = [](ByteReader& r, const char* name) {
    return r.AtEnd() ? Status::Ok()
                     : Corrupt(std::string("trailing bytes in ") + name);
  };

  auto pkg = std::make_unique<core::SpPackage>();
  {
    ByteReader r = section(kConfig);
    if (!(s = GetConfig(r, &pkg->config)).ok()) return s;
    if (!(s = section_done(r, "config")).ok()) return s;
  }
  {
    ByteReader r = section(kCodebook);
    if (!(s = GetPointSet(r, &pkg->codebook)).ok()) return s;
    if (!(s = section_done(r, "codebook")).ok()) return s;
  }
  {
    ByteReader r = section(kCorpus);
    uint64_t n = 0;
    if (!(s = r.GetVarint(&n)).ok()) return s;
    if (n > r.remaining() / 2) return Corrupt("corpus size exceeds input");
    pkg->corpus.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t id = 0;
      if (!(s = r.GetVarint(&id)).ok()) return s;
      pkg->corpus[i].first = id;
      if (!(s = GetBovw(r, &pkg->corpus[i].second)).ok()) return s;
    }
    if (!(s = section_done(r, "corpus")).ok()) return s;
  }
  std::vector<double> raw_weights;
  {
    ByteReader r = section(kWeights);
    uint64_t n = 0;
    if (!(s = r.GetVarint(&n)).ok()) return s;
    if (n != pkg->codebook.size()) return Corrupt("weight count diverges");
    raw_weights.resize(n);
    for (auto& weight : raw_weights) {
      if (!(s = r.GetF64(&weight)).ok()) return s;
    }
    if (!(s = section_done(r, "weights")).ok()) return s;
  }
  cuckoo::CuckooParams geo;
  geo.fingerprint_bits = pkg->config.fingerprint_bits;
  geo.seed = pkg->config.filter_seed;
  {
    ByteReader r = section(kFilterGeo);
    if (!(s = GetFilterGeometry(r, &geo)).ok()) return s;
    if (!(s = section_done(r, "filter geometry")).ok()) return s;
  }

  // Indexes restored without rehashing the chains (the whole point of the
  // store): theta and list digests are re-derived, node digests below.
  {
    ByteReader r = section(kPostings);
    Result<invindex::InvertedIndex> idx =
        pkg->config.freq_grouped
            ? DecodePostings<invindex::Group>(r, *pkg, raw_weights, geo)
            : DecodePostings<invindex::Posting>(r, *pkg, raw_weights, geo);
    if (!idx.ok()) return idx.status();
    pkg->inv_index = std::make_unique<invindex::InvertedIndex>(std::move(*idx));
    pkg->list_digests = pkg->inv_index->ListDigests();
    if (!(s = section_done(r, "postings")).ok()) return s;
  }
  {
    ByteReader r = section(kTrees);
    uint64_t num_trees = 0;
    if (!(s = r.GetVarint(&num_trees)).ok()) return s;
    if (num_trees != static_cast<uint64_t>(pkg->config.forest.num_trees)) {
      return Corrupt("tree count diverges from config");
    }
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
    if (!(s = section_done(r, "trees")).ok()) return s;
    pkg->forest = std::make_unique<ann::RkdForest>(
        pkg->codebook, pkg->config.forest, std::move(trees));
  }
  pkg->DecorateForest();

  // Image payload source over the mapping.
  auto mapped = std::make_shared<MappedPackage>();
  {
    const TocEntry& blobs = toc[kImageBlobs - 1];
    ByteReader r = section(kImageIndex);
    if (!(s = DecodeImageIndex(r, blobs.size, &mapped->records_)).ok()) {
      return s;
    }
    if (!(s = section_done(r, "image index")).ok()) return s;
    mapped->blobs_offset_ = blobs.offset;
    // Payload pages are random-access (whatever ids land in top-k);
    // readahead would just drag cold neighbours into the page cache.
    map->AdviseRandom(blobs.offset, blobs.size);
  }
  // The source owns the mapping from here on (deep_verify below already
  // reads payloads through it).
  mapped->map_ = std::move(*map);

  // Bind content to header, then (optionally) to the owner's signature.
  // The restored root is a function of the codebook, tree shapes, weights,
  // filter states, and first-posting digests just decoded from the mapped
  // bytes, so this check is over the file as mapped — not over any cached
  // in-memory state.
  const Digest root = pkg->RootDigest();
  if (root != header.root_digest) {
    return Corrupt("package root diverges from header");
  }
  if (opts.params != nullptr) {
    if (!(pkg->config == opts.params->config)) {
      return Corrupt("config diverges from public parameters");
    }
    if (!crypto::RsaVerify(opts.params->public_key, root,
                           opts.params->root_signature)) {
      return Corrupt("root signature failed verification over mapped package");
    }
  }
  if (opts.deep_verify) {
    s = pkg->inv_index->VerifyChains();
    if (!s.ok()) return s;
    // Faults in every payload page and checks each stored digest.
    s = mapped->ForEach([](ImageId, BytesView, BytesView) {
      return Status::Ok();
    });
    if (!s.ok()) return s;
  }

  pkg->image_source = mapped.get();
  pkg->backing = std::move(mapped);
  return pkg;
}

Result<PackageLayout> PackageStore::Inspect(const std::string& path) {
  Result<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  Header header;
  std::vector<TocEntry> toc;
  Status s = ReadHeaderAndToc(*map, &header, &toc);
  if (!s.ok()) return s;
  PackageLayout layout;
  layout.page_size = header.page_size;
  layout.file_size = header.file_size;
  layout.header_bytes = kHeaderBytes;
  layout.toc_offset = header.toc_offset;
  layout.toc_size = header.toc_size;
  for (const TocEntry& e : toc) {
    layout.sections.push_back(SectionExtent{e.id, e.offset, e.size});
  }
  return layout;
}

Status PackageStore::Scrub(const std::string& path,
                           const std::atomic<bool>* cancel,
                           ScrubReport* report) {
  ScrubReport local;
  ScrubReport* rep = report != nullptr ? report : &local;
  *rep = ScrubReport{};
  Result<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  Header header;
  std::vector<TocEntry> toc;
  // Re-checks the header and TOC digests against the mapped bytes, which
  // also re-validates every section extent before we trust it below.
  Status s = ReadHeaderAndToc(*map, &header, &toc);
  if (!s.ok()) return s;
  rep->bytes_hashed += kHeaderBytes + header.toc_size;

  constexpr size_t kChunk = 1 << 20;  // hashed between cancel checks
  for (const TocEntry& e : toc) {
    crypto::Sha3_256 hasher;
    uint64_t done = 0;
    while (done < e.size) {
      if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
        return Status::Unavailable("scrub: cancelled");
      }
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(kChunk, e.size - done));
      hasher.Update(map->data() + e.offset + done, n);
      done += n;
    }
    Digest got = hasher.Finalize();
    rep->bytes_hashed += e.size;
    if (fault::InjectFault("storage.scrub.bitflip")) {
      const uint64_t r =
          fault::FaultInjector::Global().Draw("storage.scrub.bitflip");
      got.bytes[(r >> 3) % got.bytes.size()] ^=
          static_cast<uint8_t>(1u << (r & 7));
    }
    if (got != e.digest) {
      return Status::Corrupted("scrub: section " + std::to_string(e.id) +
                               " digest diverges in " + path);
    }
    ++rep->sections_checked;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Epoch directory protocol
// ---------------------------------------------------------------------------

std::string PackageStore::EpochFileName(uint64_t epoch) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "pkg-%020llu.ipk",
                static_cast<unsigned long long>(epoch));
  return buf;
}

Result<std::string> PackageStore::WriteEpoch(const std::string& dir,
                                             uint64_t epoch,
                                             const core::SpPackage& package,
                                             const WriteOptions& options) {
  std::string path = dir + "/" + EpochFileName(epoch);
  Status s = Write(path, package, options);
  if (!s.ok()) return s;
  return path;
}

Status PackageStore::SetCurrentEpoch(const std::string& dir, uint64_t epoch) {
  std::string line = "IPKC " + std::to_string(epoch) + "\n";
  return AtomicWriteFile(dir + "/CURRENT",
                         Bytes(line.begin(), line.end()));
}

Result<uint64_t> PackageStore::CurrentEpoch(const std::string& dir) {
  Bytes data;
  Status s = ReadFileBytes(dir + "/CURRENT", &data);
  if (!s.ok()) return s;
  std::string text(data.begin(), data.end());
  // Strict shape: "IPKC <decimal>\n", nothing else. CURRENT is written
  // atomically, so anything malformed is tampering or a foreign file.
  if (text.size() < 7 || text.compare(0, 5, "IPKC ") != 0 ||
      text.back() != '\n') {
    return Status(Corrupt("malformed CURRENT file"));
  }
  uint64_t epoch = 0;
  size_t i = 5;
  const size_t end = text.size() - 1;
  if (end - i == 0 || end - i > 20) {
    return Status(Corrupt("malformed CURRENT epoch"));
  }
  for (; i < end; ++i) {
    if (text[i] < '0' || text[i] > '9') {
      return Status(Corrupt("malformed CURRENT epoch"));
    }
    uint64_t next = epoch * 10 + static_cast<uint64_t>(text[i] - '0');
    if (next < epoch) return Status(Corrupt("CURRENT epoch overflows"));
    epoch = next;
  }
  return epoch;
}

Result<std::unique_ptr<core::SpPackage>> PackageStore::OpenCurrent(
    const std::string& dir, const OpenOptions& opts, uint64_t* epoch_out) {
  Result<uint64_t> epoch = CurrentEpoch(dir);
  if (!epoch.ok()) return epoch.status();
  if (epoch_out != nullptr) *epoch_out = *epoch;
  return Open(dir + "/" + EpochFileName(*epoch), opts);
}

}  // namespace imageproof::storage
