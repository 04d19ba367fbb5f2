#include "src/persist/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#define SPADE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace spade {
namespace persist {

namespace {

constexpr size_t kAlign = 64;

// --- Little blob helpers (kind-specific metadata payloads). ----------------

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bounds-checked sequential decoder over a blob segment. Any over-read
/// flips ok() and zeroes the result, so decoding loops can bail once at the
/// end instead of checking every field.
class BlobCursor {
 public:
  BlobCursor(const char* data, size_t size) : data_(data), end_(size) {}

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == end_; }

  uint8_t U8() {
    uint8_t v = 0;
    Copy(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Copy(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Copy(&v, sizeof(v));
    return v;
  }
  std::string Str(size_t len) {
    if (!ok_ || end_ - pos_ < len) {
      ok_ = false;
      return std::string();
    }
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

 private:
  void Copy(void* out, size_t n) {
    if (!ok_ || end_ - pos_ < n) {
      ok_ = false;
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  const char* data_;
  size_t pos_ = 0;
  size_t end_;
  bool ok_ = true;
};

// --- Segment writer. -------------------------------------------------------

/// Streams segments into an ofstream: zeroed header placeholder first,
/// 64-byte-aligned payloads, TOC, then the real header over the placeholder.
class Writer {
 public:
  explicit Writer(std::ofstream* out) : out_(out) {
    static const char zeros[sizeof(SnapshotHeader)] = {};
    out_->write(zeros, sizeof(zeros));
    offset_ = sizeof(SnapshotHeader);
  }

  void AddSegment(uint32_t kind, uint32_t aux, const void* data, size_t len) {
    SPADE_FAILPOINT("persist.save.segment");
    PadToAlign();
    SegmentEntry e;
    e.kind = kind;
    e.aux = aux;
    e.offset = offset_;
    e.length = len;
    e.checksum = HashBytes(data, len);
    entries_.push_back(e);
    if (len > 0) {
      out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
      offset_ += len;
    }
  }

  template <typename T>
  void AddSegment(uint32_t kind, uint32_t aux, Span<T> span) {
    AddSegment(kind, aux, span.data(), span.size() * sizeof(T));
  }

  /// Write the TOC and the final header; returns stream health.
  bool Finish(uint32_t rdf_type, uint64_t num_terms, uint64_t num_triples) {
    PadToAlign();
    const uint64_t toc_offset = offset_;
    const size_t toc_bytes = entries_.size() * sizeof(SegmentEntry);
    if (toc_bytes > 0) {
      out_->write(reinterpret_cast<const char*>(entries_.data()),
                  static_cast<std::streamsize>(toc_bytes));
    }
    SnapshotHeader h{};
    std::memcpy(h.magic, kSnapshotMagic, sizeof(h.magic));
    h.version = kSnapshotVersion;
    h.endian = kEndianProbe;
    h.toc_offset = toc_offset;
    h.num_segments = static_cast<uint32_t>(entries_.size());
    h.rdf_type = rdf_type;
    h.num_terms = num_terms;
    h.num_triples = num_triples;
    h.toc_checksum = HashBytes(entries_.data(), toc_bytes);
    out_->seekp(0);
    out_->write(reinterpret_cast<const char*>(&h), sizeof(h));
    out_->flush();
    return out_->good();
  }

 private:
  void PadToAlign() {
    static const char zeros[kAlign] = {};
    const size_t rem = offset_ % kAlign;
    if (rem == 0) return;
    out_->write(zeros, static_cast<std::streamsize>(kAlign - rem));
    offset_ += kAlign - rem;
  }

  std::ofstream* out_;
  uint64_t offset_ = 0;
  std::vector<SegmentEntry> entries_;
};

uint64_t TocKey(uint32_t kind, uint32_t aux) {
  return (static_cast<uint64_t>(kind) << 32) | aux;
}

// --- Crash-safe write plumbing. --------------------------------------------

/// Same-directory temp name the snapshot is built under before the atomic
/// rename. The pid suffix keeps concurrent savers (different processes) off
/// each other's temp files; within one process SaveSnapshot is not
/// re-entrant per path anyway.
std::string TempSavePath(const std::string& path) {
#if SPADE_HAVE_MMAP
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
#else
  return path + ".tmp";
#endif
}

/// fsync the finished temp file: after this returns OK, the bytes survive a
/// crash. No-op on platforms without the POSIX API.
Status SyncFile(const std::string& path) {
#if SPADE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::Internal("cannot reopen snapshot for fsync: " + path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal("fsync failed on snapshot: " + path);
#endif
  return Status::OK();
}

/// fsync the directory containing `path`, making the rename itself durable.
Status SyncParentDir(const std::string& path) {
#if SPADE_HAVE_MMAP
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal("cannot open snapshot directory for fsync: " + dir);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("fsync failed on snapshot directory: " + dir);
  }
#endif
  return Status::OK();
}

}  // namespace

uint64_t HashBytes(const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  uint64_t h = 14695981039346656037ULL ^ static_cast<uint64_t>(len);
  const size_t words = len / 8;
  for (size_t i = 0; i < words; ++i) {
    uint64_t w;
    std::memcpy(&w, p + i * 8, 8);
    h ^= w;
    h *= 1099511628211ULL;
  }
  const size_t tail = len % 8;
  if (tail > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p + words * 8, tail);
    h ^= w;
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

bool SameCfsOptions(const CfsOptions& a, const CfsOptions& b) {
  return a.min_size == b.min_size && a.max_sets == b.max_sets &&
         a.type_based == b.type_based && a.summary_based == b.summary_based &&
         a.property_sets == b.property_sets;
}

// --- Save. -----------------------------------------------------------------

Status SaveSnapshot(const AttributeStore& store,
                    const StructuralSummary& summary,
                    const std::vector<AttrStats>& stats,
                    const std::vector<CandidateFactSet>* fact_sets,
                    const SaveMeta& meta, const std::string& path) {
  const Graph& graph = store.graph();
  const Dictionary& dict = graph.dict();

  // The dictionary is stored in its persisted layout already.
  const uint64_t num_terms = dict.size();
  const Span<Dictionary::ArenaRecord> records = dict.records();
  const Span<char> arena = dict.arena();

  // Triple permutations (freezes a dirty graph).
  const Span<Triple> spo = graph.triples();
  const Span<Triple> pos = graph.triples_pos();

  // Attribute tables: metadata blob + three columns each.
  std::string attr_meta;
  AppendU32(&attr_meta, static_cast<uint32_t>(store.num_attributes()));
  for (AttrId id = 0; id < store.num_attributes(); ++id) {
    const AttributeTable& t = store.attribute(id);
    if (!t.sealed()) {
      return Status::InvalidArgument("cannot save an unsealed attribute table: " +
                                     t.name);
    }
    AppendU8(&attr_meta, static_cast<uint8_t>(t.origin));
    AppendU32(&attr_meta, t.property);
    AppendU32(&attr_meta, t.derived_from);
    AppendU32(&attr_meta, static_cast<uint32_t>(t.name.size()));
    attr_meta.append(t.name);
  }

  // Offline statistics.
  std::vector<PersistedAttrStats> pstats;
  pstats.reserve(stats.size());
  for (const AttrStats& s : stats) {
    PersistedAttrStats p;
    p.kind = static_cast<uint64_t>(s.kind);
    p.num_subjects = s.num_subjects;
    p.num_values = s.num_values;
    p.num_distinct_values = s.num_distinct_values;
    p.num_multi_subjects = s.num_multi_subjects;
    p.min_value = s.min_value;
    p.max_value = s.max_value;
    p.avg_text_length = s.avg_text_length;
    pstats.push_back(p);
  }

  // Pipeline metadata: report facts + the CfsOptions fingerprint.
  std::string pipeline_meta;
  AppendU64(&pipeline_meta, meta.num_direct_properties);
  AppendU64(&pipeline_meta, meta.derivations.num_count_attrs);
  AppendU64(&pipeline_meta, meta.derivations.num_keyword_attrs);
  AppendU64(&pipeline_meta, meta.derivations.num_language_attrs);
  AppendU64(&pipeline_meta, meta.derivations.num_path_attrs);
  AppendU64(&pipeline_meta, meta.cfs_options.min_size);
  AppendU64(&pipeline_meta, meta.cfs_options.max_sets);
  AppendU8(&pipeline_meta, meta.cfs_options.type_based ? 1 : 0);
  AppendU8(&pipeline_meta, meta.cfs_options.summary_based ? 1 : 0);
  AppendU32(&pipeline_meta,
            static_cast<uint32_t>(meta.cfs_options.property_sets.size()));
  for (const auto& set : meta.cfs_options.property_sets) {
    AppendU32(&pipeline_meta, static_cast<uint32_t>(set.size()));
    for (TermId p : set) AppendU32(&pipeline_meta, p);
  }

  // Candidate fact sets (optional).
  std::string cfs_meta;
  if (fact_sets != nullptr) {
    AppendU32(&cfs_meta, static_cast<uint32_t>(fact_sets->size()));
    for (const CandidateFactSet& cfs : *fact_sets) {
      AppendU8(&cfs_meta, static_cast<uint8_t>(cfs.origin));
      AppendU32(&cfs_meta, cfs.type);
      AppendU32(&cfs_meta, static_cast<uint32_t>(cfs.name.size()));
      cfs_meta.append(cfs.name);
      AppendU64(&cfs_meta, cfs.members.size());
      for (TermId m : cfs.members) AppendU32(&cfs_meta, m);
    }
  }

  // Crash safety: build the snapshot in a same-directory temp file, fsync
  // it, then atomically rename over the destination and fsync the parent
  // directory. A crash — SIGKILL included — at any point leaves `path`
  // either untouched (the old snapshot, byte for byte) or the complete new
  // snapshot, never a torn file. Error paths remove the temp file.
  SPADE_FAILPOINT_STATUS("persist.save.open");
  const std::string tmp_path = TempSavePath(path);
  struct TmpGuard {
    const std::string& tmp;
    bool armed = true;
    ~TmpGuard() {
      if (armed) std::remove(tmp.c_str());
    }
  } guard{tmp_path};
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::InvalidArgument("cannot open snapshot file for writing: " +
                                     tmp_path);
    }
    Writer w(&out);
    try {
      w.AddSegment(kDictRecords, 0, records);
      w.AddSegment(kDictArena, 0, arena);
      w.AddSegment(kTriplesSpo, 0, spo);
      w.AddSegment(kTriplesPos, 0, pos);
      w.AddSegment(kSummaryClassOffsets, 0, summary.class_offsets());
      w.AddSegment(kSummaryMembers, 0, summary.members());
      w.AddSegment(kAttrStats, 0, pstats.data(),
                   pstats.size() * sizeof(PersistedAttrStats));
      w.AddSegment(kAttrMeta, 0, attr_meta.data(), attr_meta.size());
      for (AttrId id = 0; id < store.num_attributes(); ++id) {
        const AttributeTable& t = store.attribute(id);
        w.AddSegment(kAttrSubjects, id, t.subjects());
        w.AddSegment(kAttrOffsets, id, t.offsets());
        w.AddSegment(kAttrObjects, id, t.objects());
      }
      w.AddSegment(kPipelineMeta, 0, pipeline_meta.data(),
                   pipeline_meta.size());
      if (fact_sets != nullptr) {
        w.AddSegment(kCfsMeta, 0, cfs_meta.data(), cfs_meta.size());
      }
      if (!w.Finish(graph.rdf_type(), num_terms, graph.NumTriples())) {
        return Status::Internal("short write while saving snapshot: " +
                                tmp_path);
      }
    } catch (const std::exception& e) {
      // Injected faults (and allocation failure) surface as a clean error
      // with the destination untouched.
      return Status::Internal(std::string("snapshot save aborted: ") +
                              e.what());
    }
  }
  SPADE_FAILPOINT_STATUS("persist.save.finish");
  SPADE_RETURN_NOT_OK(SyncFile(tmp_path));
  SPADE_FAILPOINT_STATUS("persist.save.rename");
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename snapshot into place: " + tmp_path +
                            " -> " + path);
  }
  guard.armed = false;
  return SyncParentDir(path);
}

// --- Reader. ---------------------------------------------------------------

SnapshotReader::~SnapshotReader() { Unmap(); }

void SnapshotReader::Unmap() {
#if SPADE_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    munmap(const_cast<char*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
  fallback_.shrink_to_fit();
}

Status SnapshotReader::MapFile(const std::string& path) {
#if SPADE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("fstat failed on snapshot: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < sizeof(SnapshotHeader)) {
    ::close(fd);
    return Status::ParseError("snapshot too small: " + path);
  }
  void* base = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    return Status::Internal("mmap failed on snapshot: " + path);
  }
  data_ = static_cast<const char*>(base);
  size_ = size;
  mapped_ = true;
  return Status::OK();
#else
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  const std::streamoff size = in.tellg();
  if (size < static_cast<std::streamoff>(sizeof(SnapshotHeader))) {
    return Status::ParseError("snapshot too small: " + path);
  }
  fallback_.resize(static_cast<size_t>(size));
  in.seekg(0);
  in.read(fallback_.data(), size);
  if (!in.good()) {
    return Status::Internal("short read on snapshot: " + path);
  }
  data_ = fallback_.data();
  size_ = static_cast<uint64_t>(size);
  mapped_ = false;
  return Status::OK();
#endif
}

Status SnapshotReader::Open(const std::string& path, const Options& options) {
  SPADE_FAILPOINT_STATUS("persist.load.open");
  Unmap();
  toc_.clear();
  toc_index_.clear();
  SPADE_RETURN_NOT_OK(MapFile(path));

  std::memcpy(&header_, data_, sizeof(header_));
  if (std::memcmp(header_.magic, kSnapshotMagic, sizeof(header_.magic)) != 0) {
    Unmap();
    return Status::ParseError("not a Spade snapshot (bad magic): " + path);
  }
  if (header_.version != kSnapshotVersion) {
    const uint32_t version = header_.version;
    Unmap();
    return Status::ParseError("unsupported snapshot version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kSnapshotVersion) + "): " + path);
  }
  if (header_.endian != kEndianProbe) {
    Unmap();
    return Status::ParseError(
        "snapshot was written on a platform with different endianness: " +
        path);
  }
  const uint64_t toc_bytes =
      static_cast<uint64_t>(header_.num_segments) * sizeof(SegmentEntry);
  if (header_.toc_offset < sizeof(SnapshotHeader) ||
      header_.toc_offset % kAlign != 0 || header_.toc_offset > size_ ||
      toc_bytes > size_ - header_.toc_offset) {
    Unmap();
    return Status::ParseError("snapshot TOC out of bounds: " + path);
  }
  toc_.resize(header_.num_segments);
  if (toc_bytes > 0) {
    std::memcpy(toc_.data(), data_ + header_.toc_offset, toc_bytes);
  }
  if (HashBytes(toc_.data(), toc_bytes) != header_.toc_checksum) {
    Unmap();
    toc_.clear();
    return Status::ParseError("snapshot TOC checksum mismatch: " + path);
  }
  for (size_t i = 0; i < toc_.size(); ++i) {
    const SegmentEntry& e = toc_[i];
    if (e.kind == 0 || e.offset < sizeof(SnapshotHeader) ||
        e.offset % kAlign != 0 || e.offset > header_.toc_offset ||
        e.length > header_.toc_offset - e.offset) {
      Unmap();
      toc_.clear();
      return Status::ParseError("snapshot segment out of bounds: " + path);
    }
    if (!toc_index_.emplace(TocKey(e.kind, e.aux), i).second) {
      Unmap();
      toc_.clear();
      toc_index_.clear();
      return Status::ParseError("duplicate snapshot segment: " + path);
    }
    if (options.verify_checksums &&
        HashBytes(data_ + e.offset, e.length) != e.checksum) {
      Unmap();
      toc_.clear();
      toc_index_.clear();
      return Status::ParseError(
          "snapshot segment checksum mismatch (kind " +
          std::to_string(e.kind) + ", aux " + std::to_string(e.aux) +
          "): " + path);
    }
  }
  return Status::OK();
}

const SegmentEntry* SnapshotReader::Find(uint32_t kind, uint32_t aux) const {
  auto it = toc_index_.find(TocKey(kind, aux));
  if (it == toc_index_.end()) return nullptr;
  return &toc_[it->second];
}

namespace {

/// Locate (kind, aux) and reinterpret it as a T array; element-size and
/// presence failures turn into ParseError.
template <typename T>
Status RequireSpan(const SnapshotReader& reader, uint32_t kind, uint32_t aux,
                   Span<T>* out) {
  const SegmentEntry* e = reader.Find(kind, aux);
  if (e == nullptr) {
    return Status::ParseError("snapshot is missing segment kind " +
                              std::to_string(kind) + " aux " +
                              std::to_string(aux));
  }
  if (e->length % sizeof(T) != 0) {
    return Status::ParseError("snapshot segment kind " + std::to_string(kind) +
                              " has a truncated payload");
  }
  *out = reader.GetSpan<T>(*e);
  return Status::OK();
}

/// True if `offsets` slices an array of `size` elements into CSR rows: it
/// starts at 0, never decreases and ends at `size`.
bool ValidOffsets(Span<uint32_t> offsets, size_t size) {
  return !offsets.empty() && offsets[0] == 0 && offsets.back() == size &&
         std::is_sorted(offsets.begin(), offsets.end());
}

}  // namespace

Status SnapshotReader::Load(Graph* graph,
                            std::unique_ptr<AttributeStore>* store,
                            StructuralSummary* summary,
                            std::vector<AttrStats>* stats,
                            std::vector<CandidateFactSet>* fact_sets,
                            LoadedMeta* meta) {
  if (!is_open()) {
    return Status::InvalidArgument("SnapshotReader::Load before Open");
  }

  // Dictionary.
  Span<Dictionary::ArenaRecord> records;
  Span<char> arena;
  SPADE_RETURN_NOT_OK(RequireSpan(*this, kDictRecords, 0, &records));
  SPADE_RETURN_NOT_OK(RequireSpan(*this, kDictArena, 0, &arena));
  if (records.empty() || records.size() != header_.num_terms + 1) {
    return Status::ParseError("snapshot dictionary record count mismatch");
  }
  // Every accessor reads these fields directly, so each must be in range.
  static const Dictionary::ArenaRecord kInvalidSlot;
  if (std::memcmp(&records[0], &kInvalidSlot, sizeof(kInvalidSlot)) != 0) {
    return Status::ParseError("snapshot dictionary slot 0 is not empty");
  }
  for (const Dictionary::ArenaRecord& r : records) {
    const uint64_t end = r.lex_offset + r.lex_len + r.lang_len;
    if (end < r.lex_offset || end > arena.size()) {
      return Status::ParseError("snapshot dictionary record out of arena bounds");
    }
    if (r.kind > static_cast<uint8_t>(TermKind::kBlank) ||
        r.datatype > header_.num_terms) {
      return Status::ParseError("snapshot dictionary record is malformed");
    }
  }

  // Triple permutations. The dictionary, the summary rebuild and the
  // attribute builders index by these ids, so each must name a term.
  Span<Triple> spo, pos;
  SPADE_RETURN_NOT_OK(RequireSpan(*this, kTriplesSpo, 0, &spo));
  SPADE_RETURN_NOT_OK(RequireSpan(*this, kTriplesPos, 0, &pos));
  if (spo.size() != header_.num_triples || pos.size() != header_.num_triples) {
    return Status::ParseError("snapshot triple count mismatch");
  }
  auto in_range = [&](TermId id) {
    return id != kInvalidTerm && id <= header_.num_terms;
  };
  for (Span<Triple> perm : {spo, pos}) {
    for (const Triple& t : perm) {
      if (!in_range(t.s) || !in_range(t.p) || !in_range(t.o)) {
        return Status::ParseError("snapshot triple id out of range");
      }
    }
  }
  if (!in_range(header_.rdf_type)) {
    return Status::ParseError("snapshot rdf:type id out of range");
  }

  // Structural summary CSR.
  Span<uint32_t> class_offsets;
  Span<TermId> members;
  SPADE_RETURN_NOT_OK(RequireSpan(*this, kSummaryClassOffsets, 0, &class_offsets));
  SPADE_RETURN_NOT_OK(RequireSpan(*this, kSummaryMembers, 0, &members));
  if (!ValidOffsets(class_offsets, members.size())) {
    return Status::ParseError("snapshot summary CSR is inconsistent");
  }

  // Attribute metadata + statistics.
  const SegmentEntry* attr_meta_entry = Find(kAttrMeta);
  Span<PersistedAttrStats> pstats;
  SPADE_RETURN_NOT_OK(RequireSpan(*this, kAttrStats, 0, &pstats));
  if (attr_meta_entry == nullptr) {
    return Status::ParseError("snapshot is missing attribute metadata");
  }
  BlobCursor attr_cursor(data_ + attr_meta_entry->offset,
                         attr_meta_entry->length);
  const uint32_t num_attrs = attr_cursor.U32();
  struct AttrHeader {
    AttrOrigin origin;
    TermId property;
    AttrId derived_from;
    std::string name;
    Span<TermId> subjects, objects;
    Span<uint32_t> offsets;
  };
  std::vector<AttrHeader> attrs(num_attrs);
  for (uint32_t id = 0; id < num_attrs; ++id) {
    AttrHeader& a = attrs[id];
    a.origin = static_cast<AttrOrigin>(attr_cursor.U8());
    a.property = attr_cursor.U32();
    a.derived_from = attr_cursor.U32();
    a.name = attr_cursor.Str(attr_cursor.U32());
    if (!attr_cursor.ok()) {
      return Status::ParseError("snapshot attribute metadata truncated");
    }
    SPADE_RETURN_NOT_OK(RequireSpan(*this, kAttrSubjects, id, &a.subjects));
    SPADE_RETURN_NOT_OK(RequireSpan(*this, kAttrOffsets, id, &a.offsets));
    SPADE_RETURN_NOT_OK(RequireSpan(*this, kAttrObjects, id, &a.objects));
    if (a.offsets.size() != a.subjects.size() + 1 ||
        !ValidOffsets(a.offsets, a.objects.size())) {
      return Status::ParseError("snapshot attribute table CSR is inconsistent: " +
                                a.name);
    }
  }

  // Pipeline metadata.
  const SegmentEntry* pipe_entry = Find(kPipelineMeta);
  if (pipe_entry == nullptr) {
    return Status::ParseError("snapshot is missing pipeline metadata");
  }
  LoadedMeta loaded;
  loaded.num_terms = header_.num_terms;
  loaded.num_triples = header_.num_triples;
  BlobCursor pipe(data_ + pipe_entry->offset, pipe_entry->length);
  loaded.num_direct_properties = pipe.U64();
  loaded.derivations.num_count_attrs = pipe.U64();
  loaded.derivations.num_keyword_attrs = pipe.U64();
  loaded.derivations.num_language_attrs = pipe.U64();
  loaded.derivations.num_path_attrs = pipe.U64();
  loaded.cfs_options.min_size = pipe.U64();
  loaded.cfs_options.max_sets = pipe.U64();
  loaded.cfs_options.type_based = pipe.U8() != 0;
  loaded.cfs_options.summary_based = pipe.U8() != 0;
  const uint32_t num_property_sets = pipe.U32();
  loaded.cfs_options.property_sets.resize(num_property_sets);
  for (uint32_t i = 0; i < num_property_sets && pipe.ok(); ++i) {
    const uint32_t n = pipe.U32();
    auto& set = loaded.cfs_options.property_sets[i];
    set.reserve(n);
    for (uint32_t k = 0; k < n && pipe.ok(); ++k) set.push_back(pipe.U32());
  }
  if (!pipe.ok()) {
    return Status::ParseError("snapshot pipeline metadata truncated");
  }

  // Candidate fact sets (optional segment; members are copied out — they
  // are tiny next to the columns and CfsIndex needs an owned vector anyway).
  std::vector<CandidateFactSet> loaded_sets;
  const SegmentEntry* cfs_entry = Find(kCfsMeta);
  if (cfs_entry != nullptr) {
    BlobCursor cur(data_ + cfs_entry->offset, cfs_entry->length);
    const uint32_t count = cur.U32();
    loaded_sets.resize(count);
    for (uint32_t i = 0; i < count && cur.ok(); ++i) {
      CandidateFactSet& cfs = loaded_sets[i];
      cfs.origin = static_cast<CandidateFactSet::Origin>(cur.U8());
      cfs.type = cur.U32();
      cfs.name = cur.Str(cur.U32());
      const uint64_t n = cur.U64();
      cfs.members.reserve(static_cast<size_t>(n));
      for (uint64_t k = 0; k < n && cur.ok(); ++k) {
        cfs.members.push_back(cur.U32());
      }
    }
    if (!cur.ok()) {
      return Status::ParseError("snapshot fact-set metadata truncated");
    }
    loaded.has_fact_sets = true;
  }

  // Everything validated: attach. Nothing below can fail, so a failed Load
  // never leaves the caller's structures half-attached.
  SPADE_FAILPOINT_STATUS("persist.load.attach");
  graph->dict().AttachArena(records, arena);
  graph->AttachTriples(spo, pos, header_.rdf_type);
  summary->Attach(class_offsets, members);
  *store = std::make_unique<AttributeStore>(graph);
  for (AttrHeader& a : attrs) {
    AttributeTable t;
    t.name = std::move(a.name);
    t.origin = a.origin;
    t.property = a.property;
    t.derived_from = a.derived_from;
    t.BorrowColumns(a.subjects, a.offsets, a.objects);
    (*store)->AddAttribute(std::move(t));
  }
  stats->clear();
  stats->reserve(pstats.size());
  for (const PersistedAttrStats& p : pstats) {
    AttrStats s;
    s.kind = static_cast<ValueKind>(p.kind);
    s.num_subjects = static_cast<size_t>(p.num_subjects);
    s.num_values = static_cast<size_t>(p.num_values);
    s.num_distinct_values = static_cast<size_t>(p.num_distinct_values);
    s.num_multi_subjects = static_cast<size_t>(p.num_multi_subjects);
    s.min_value = p.min_value;
    s.max_value = p.max_value;
    s.avg_text_length = p.avg_text_length;
    stats->push_back(s);
  }
  if (fact_sets != nullptr && loaded.has_fact_sets) {
    *fact_sets = std::move(loaded_sets);
  }
  if (meta != nullptr) *meta = loaded;
  return Status::OK();
}

}  // namespace persist
}  // namespace spade
