#ifndef SPADE_PERSIST_SNAPSHOT_H_
#define SPADE_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/cfs.h"
#include "src/derive/derivations.h"
#include "src/stats/attr_stats.h"
#include "src/store/attribute_store.h"
#include "src/summary/summary.h"
#include "src/util/span.h"
#include "src/util/status.h"

namespace spade {
namespace persist {

/// \brief Segmented snapshot of a fully built offline state: dictionary,
/// triple permutations, attribute tables, structural summary, offline
/// statistics and (optionally) the selected candidate fact sets.
///
/// Layout: a fixed 64-byte header, then the segment payloads (each padded to
/// a 64-byte file offset), then a table of contents (one 32-byte entry per
/// segment). All integers are native-endian; the header records an
/// endianness probe so a foreign-endian file is rejected instead of
/// misread. Every segment carries an FNV-1a checksum, verified on open (can
/// be disabled for trusted files).
///
///     +--------------------+ 0
///     | SnapshotHeader     |   magic, version, endian, counts, toc_offset
///     +--------------------+ 64
///     | segment 0 payload  |   e.g. dictionary records
///     | (pad to 64)        |
///     | segment 1 payload  |   e.g. string arena
///     | ...                |
///     +--------------------+ toc_offset (64-aligned)
///     | SegmentEntry[n]    |   {kind, aux, offset, length, checksum}
///     +--------------------+ EOF
///
/// Because payloads start at 64-byte-aligned offsets and the mmap base is
/// page-aligned, a segment can be reinterpreted in place as an array of its
/// element type — loading is attaching spans, not parsing.

/// Discriminates segment payloads. Values are persisted; never renumber.
/// Kinds 5 (OSP triples), 8-9 (class-property CSR) and 10 (node -> class
/// map) were version 1 segments that nothing read; they stay unused.
enum SegmentKind : uint32_t {
  kDictRecords = 1,          ///< Dictionary::ArenaRecord[] (slot 0 invalid)
  kDictArena = 2,            ///< char[]: lexical + language bytes
  kTriplesSpo = 3,           ///< Triple[] sorted (s, p, o)
  kTriplesPos = 4,           ///< Triple[] sorted (p, o, s)
  kSummaryClassOffsets = 6,  ///< uint32_t[num_classes + 1]
  kSummaryMembers = 7,       ///< TermId[]: members CSR'd by class
  kAttrStats = 11,           ///< PersistedAttrStats[num_attributes]
  kAttrMeta = 12,            ///< blob: per-attribute name/origin/property
  kAttrSubjects = 13,        ///< TermId[]; aux = AttrId
  kAttrOffsets = 14,         ///< uint32_t[]; aux = AttrId
  kAttrObjects = 15,         ///< TermId[]; aux = AttrId
  kPipelineMeta = 16,        ///< blob: derivation counts + CfsOptions
  kCfsMeta = 17,             ///< blob: candidate fact sets (optional)
};

/// Fixed-size file header.
struct SnapshotHeader {
  char magic[8];          ///< "SPADESNP"
  uint32_t version;       ///< kSnapshotVersion
  uint32_t endian;        ///< kEndianProbe as written by the producer
  uint64_t toc_offset;    ///< file offset of the SegmentEntry array
  uint32_t num_segments;
  uint32_t rdf_type;      ///< dictionary id of rdf:type
  uint64_t num_terms;     ///< interned terms (excluding the invalid slot)
  uint64_t num_triples;
  uint64_t toc_checksum;  ///< HashBytes over the SegmentEntry array
  uint8_t reserved[8];
};
static_assert(sizeof(SnapshotHeader) == 64, "persisted layout");

/// One table-of-contents entry.
struct SegmentEntry {
  uint32_t kind = 0;      ///< SegmentKind
  uint32_t aux = 0;       ///< kind-specific (AttrId for attribute columns)
  uint64_t offset = 0;    ///< 64-byte-aligned file offset
  uint64_t length = 0;    ///< payload bytes (excluding padding)
  uint64_t checksum = 0;  ///< HashBytes over the payload
};
static_assert(sizeof(SegmentEntry) == 32, "persisted layout");

/// Fixed-size persisted form of AttrStats (size_t is not portable).
struct PersistedAttrStats {
  uint64_t kind = 0;  ///< ValueKind
  uint64_t num_subjects = 0;
  uint64_t num_values = 0;
  uint64_t num_distinct_values = 0;
  uint64_t num_multi_subjects = 0;
  double min_value = 0;
  double max_value = 0;
  double avg_text_length = 0;
};
static_assert(sizeof(PersistedAttrStats) == 64, "persisted layout");

inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr uint32_t kEndianProbe = 0x01020304;
inline constexpr char kSnapshotMagic[8] = {'S', 'P', 'A', 'D',
                                           'E', 'S', 'N', 'P'};

/// Word-wise FNV-1a with an avalanche finalizer; the segment checksum.
uint64_t HashBytes(const void* data, size_t len);

/// Pipeline facts that cannot be recomputed cheaply from the segments alone
/// and must round-trip through the snapshot.
struct SaveMeta {
  uint64_t num_direct_properties = 0;
  DerivationReport derivations;
  /// The CfsOptions the saved fact sets (if any) were selected under; a
  /// loader only reuses persisted fact sets when its own options match.
  CfsOptions cfs_options;
};

/// What a snapshot restores beyond the data segments.
struct LoadedMeta {
  uint64_t num_terms = 0;
  uint64_t num_triples = 0;
  uint64_t num_direct_properties = 0;
  DerivationReport derivations;
  CfsOptions cfs_options;
  bool has_fact_sets = false;
};

/// True if two CfsOptions select identical candidate fact sets.
bool SameCfsOptions(const CfsOptions& a, const CfsOptions& b);

/// Write the complete offline state of `store` (plus `summary`, offline
/// `stats`, and optionally the selected `fact_sets`) to `path`. The store
/// must be fully built (all tables sealed); works on owned and borrowed
/// (previously loaded) states alike, producing an identical file.
Status SaveSnapshot(const AttributeStore& store,
                    const StructuralSummary& summary,
                    const std::vector<AttrStats>& stats,
                    const std::vector<CandidateFactSet>* fact_sets,
                    const SaveMeta& meta, const std::string& path);

/// \brief Memory-maps a snapshot and attaches the in-memory structures to it
/// with zero copies: the dictionary borrows the record array + string arena,
/// the graph borrows the two triple permutations, each attribute table
/// borrows its three CSR columns, the summary borrows its two CSR arrays.
/// Load cost is one sequential checksum sweep (unless disabled) plus the
/// range checks of the arrays every accessor indexes with: the dictionary
/// records, the triples' ids, and the summary and attribute offsets.
///
/// The reader owns the mapping: it must outlive every structure attached by
/// Load() (a graph can share that ownership; see Graph::HoldMapping). On
/// platforms without mmap the file is read into a private buffer (same
/// interface, one copy).
class SnapshotReader {
 public:
  struct Options {
    /// Verify every segment checksum on open. One sequential sweep of the
    /// file; disable only for trusted snapshots on a hot path.
    bool verify_checksums = true;
  };

  SnapshotReader() = default;
  ~SnapshotReader();
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// Map `path` and validate header, TOC and (optionally) all checksums.
  Status Open(const std::string& path, const Options& options);
  Status Open(const std::string& path) { return Open(path, Options()); }

  /// Attach everything to the mapping: the graph's dictionary + triples,
  /// a fresh AttributeStore over `graph` with borrowed tables, the summary,
  /// the offline statistics, and — when the snapshot carries them and
  /// `fact_sets` is non-null — the candidate fact sets. `graph` must be
  /// empty/fresh; any prior contents are discarded.
  Status Load(Graph* graph, std::unique_ptr<AttributeStore>* store,
              StructuralSummary* summary, std::vector<AttrStats>* stats,
              std::vector<CandidateFactSet>* fact_sets, LoadedMeta* meta);

  bool is_open() const { return data_ != nullptr; }
  uint64_t file_size() const { return size_; }
  const SnapshotHeader& header() const { return header_; }
  const std::vector<SegmentEntry>& toc() const { return toc_; }

  /// The TOC entry of (kind, aux), or null if absent.
  const SegmentEntry* Find(uint32_t kind, uint32_t aux = 0) const;

  /// Reinterpret a segment payload as an array of T (offsets are 64-byte
  /// aligned, so any reasonable T is correctly aligned).
  template <typename T>
  Span<T> GetSpan(const SegmentEntry& e) const {
    return Span<T>(reinterpret_cast<const T*>(data_ + e.offset),
                   static_cast<size_t>(e.length / sizeof(T)));
  }

 private:
  Status MapFile(const std::string& path);
  void Unmap();

  const char* data_ = nullptr;
  uint64_t size_ = 0;
  bool mapped_ = false;             ///< true: munmap; false: fallback buffer
  std::vector<char> fallback_;      ///< no-mmap platforms only
  SnapshotHeader header_{};
  std::vector<SegmentEntry> toc_;
  std::unordered_map<uint64_t, size_t> toc_index_;  ///< (kind<<32|aux) -> toc_
};

}  // namespace persist
}  // namespace spade

#endif  // SPADE_PERSIST_SNAPSHOT_H_
