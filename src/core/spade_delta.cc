/// \file spade_delta.cc
/// \brief Incremental maintenance: ApplyDelta / Compact / the online-cache
/// plumbing (see ARCHITECTURE.md "Incremental maintenance").
///
/// ApplyDelta's staged-then-commit discipline: every replacement structure
/// (triple permutations, attribute tables, statistics) is built from copies
/// beside the live state, the `delta.apply` failpoint sits between staging
/// and commit, and the commit itself is nothing but noexcept swaps — so a
/// failure anywhere leaves the pipeline exactly as it was (dictionary
/// interning excepted, which is append-only and invisible). The post-commit
/// rebuild (summary, CFS selection, cache retag) is guarded: a failure
/// there drops the caches but the store stays fully readable.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/spade.h"
#include "src/persist/snapshot.h"
#include "src/stats/attr_stats.h"
#include "src/store/delta.h"
#include "src/util/failpoint.h"
#include "src/util/timer.h"

namespace spade {

namespace {

constexpr size_t kDeltaChunkTriples = 4096;

Status DrainDelta(TripleChunkSource* source, std::vector<Triple>* out) {
  if (source == nullptr) return Status::OK();
  std::vector<Triple> chunk;
  bool done = false;
  while (!done) {
    SPADE_RETURN_NOT_OK(source->NextChunk(kDeltaChunkTriples, &chunk, &done));
    out->insert(out->end(), chunk.begin(), chunk.end());
  }
  return Status::OK();
}

/// True if any of `subjects` (ascending) appears in `members` (ascending).
bool AnySubjectIn(Span<TermId> subjects, const std::vector<TermId>& members) {
  size_t si = 0, mi = 0;
  while (si < subjects.size() && mi < members.size()) {
    if (subjects[si] < members[mi]) {
      ++si;
    } else if (members[mi] < subjects[si]) {
      ++mi;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

void Spade::ResetOnlineState() {
  arm_ = std::make_unique<Arm>(options_.max_stored_groups);
  report_.num_lattices = 0;
  report_.num_candidate_aggregates = 0;
  report_.num_evaluated_aggregates = 0;
  report_.num_reused_aggregates = 0;
  report_.num_pruned_aggregates = 0;
  report_.num_groups_emitted = 0;
  report_.num_groups_skipped = 0;
  report_.num_cfs_reused = 0;
  report_.shard_fact_counts.clear();
  report_.shard_merge_ms = 0;
  report_.lattice_workers_used = 0;
  report_.lattice_wall_ms = 0;
  report_.lattice_work_ms = 0;
  report_.lattice_peak_partial_cells = 0;
  report_.peak_bitmap_bytes = 0;
  report_.truncated = false;
  report_.cancel_reason = CancelReason::kNone;
  report_.num_cfs_completed = 0;
  SpadeTimings& t = report_.timings;
  t.attribute_analysis_ms = 0;
  t.enumeration_ms = 0;
  t.earlystop_ms = 0;
  t.evaluation_ms = 0;
  t.topk_ms = 0;
  t.online_wall_ms = 0;
}

Status Spade::ApplyDelta(TripleChunkSource* adds, TripleChunkSource* retracts,
                         DeltaReport* out) {
  if (!offline_done_) {
    return Status::Internal("RunOffline() must complete before ApplyDelta()");
  }
  if (options_.saturate) {
    return Status::InvalidArgument(
        "ApplyDelta() is not supported with RDFS saturation");
  }
  Timer apply_timer;

  // 1. Drain the sources. Their terms intern into the live dictionary (the
  // chunk-source contract); the dictionary is append-only, so a failure
  // below leaves the extra terms unreferenced but harmless.
  std::vector<Triple> add_triples;
  std::vector<Triple> retract_triples;
  SPADE_RETURN_NOT_OK(DrainDelta(adds, &add_triples));
  SPADE_RETURN_NOT_OK(DrainDelta(retracts, &retract_triples));

  // 2. Stage the net delta and the post-delta permutations (graph untouched).
  GraphDelta staged;
  graph_->StageDelta(std::move(add_triples), std::move(retract_triples),
                     &staged);
  const size_t num_added = staged.added.size();
  const size_t num_removed = staged.removed.size();
  const size_t noop_adds = staged.noop_adds;
  const size_t noop_retracts = staged.noop_retracts;

  // 3. Per-property row deltas.
  TripleDeltaByProperty grouped =
      GroupDeltaByProperty(staged.added, staged.removed, graph_->rdf_type());

  // 4. Stage the replacement store + statistics from copies. Untouched
  // properties copy their table (a copy of a borrowed table stays borrowed —
  // cheap) and statistics; touched ones merge base+delta and recompute.
  // Names are reset before registration so collision suffixes recompute
  // exactly as a fresh sequential build over the mutated graph would.
  auto new_db = std::make_unique<AttributeStore>(graph_);
  std::vector<AttrStats> new_stats;
  DerivationReport new_derivations;
  size_t num_direct = 0;
  {
    std::unordered_map<TermId, AttrId> old_direct;
    for (AttrId a = 0; a < db_->num_attributes(); ++a) {
      const AttributeTable& t = db_->attribute(a);
      if (t.origin == AttrOrigin::kDirect) old_direct.emplace(t.property, a);
    }
    std::unordered_map<TermId, const PropertyDelta*> touched;
    for (const PropertyDelta& d : grouped.properties) {
      touched.emplace(d.property, &d);
    }
    // The post-delta property list in ascending id order — what
    // BuildDirectAttributes would iterate — read off the staged POS
    // permutation's run heads (the live graph is still pre-delta).
    std::vector<TermId> properties;
    for (const Triple& t : staged.pos) {
      if (properties.empty() || properties.back() != t.p) {
        properties.push_back(t.p);
      }
    }
    const TermId rdf_type = graph_->rdf_type();
    for (TermId p : properties) {
      if (p == rdf_type) continue;
      auto old_it = old_direct.find(p);
      auto touch_it = touched.find(p);
      AttributeTable table;
      bool reused_stats = false;
      if (touch_it == touched.end() && old_it != old_direct.end()) {
        table = db_->attribute(old_it->second);
        reused_stats = old_it->second < offline_stats_.size();
      } else {
        const AttributeTable* base = old_it == old_direct.end()
                                         ? nullptr
                                         : &db_->attribute(old_it->second);
        PropertyDelta no_delta;
        no_delta.property = p;
        const PropertyDelta& d =
            touch_it != touched.end() ? *touch_it->second : no_delta;
        table = MergeTableWithDelta(base, d);
      }
      table.name = AttributeStore::LocalName(graph_->dict().LexicalOf(p));
      table.origin = AttrOrigin::kDirect;
      table.property = p;
      const AttrId id = new_db->AddAttribute(std::move(table));
      if (reused_stats) {
        new_stats.push_back(offline_stats_[old_it->second]);
      } else {
        new_stats.push_back(ComputeAttrStats(*new_db, id));
      }
    }
    num_direct = new_db->num_attributes();
    if (options_.enable_derivations) {
      // Derivations intern counts/keywords/languages into the live (shared)
      // dictionary — append-only, so still commit-safe.
      new_derivations =
          DeriveAll(new_db.get(), new_stats, options_.derivation);
      for (AttrId a = static_cast<AttrId>(new_stats.size());
           a < new_db->num_attributes(); ++a) {
        new_stats.push_back(ComputeAttrStats(*new_db, a));
      }
    }
  }

  // 5. Changed-attribute detection by name + column comparison between the
  // live and staged stores. Exact for every origin (a derived attribute
  // whose source changed compares unequal) with no dependency tracking.
  std::unordered_map<std::string, AttrId> new_by_name;
  for (AttrId a = 0; a < new_db->num_attributes(); ++a) {
    new_by_name.emplace(new_db->attribute(a).name, a);
  }
  std::vector<AttrId> attr_map(db_->num_attributes(), kInvalidAttr);
  std::vector<const AttributeTable*> changed_tables;
  size_t num_attrs_changed = 0;
  for (AttrId a = 0; a < db_->num_attributes(); ++a) {
    const AttributeTable& old_t = db_->attribute(a);
    auto it = new_by_name.find(old_t.name);
    if (it == new_by_name.end()) {
      ++num_attrs_changed;
      changed_tables.push_back(&old_t);
      continue;
    }
    attr_map[a] = it->second;
    const AttributeTable& new_t = new_db->attribute(it->second);
    if (!SameColumns(old_t, new_t)) {
      ++num_attrs_changed;
      changed_tables.push_back(&old_t);
      changed_tables.push_back(&new_t);
    }
  }
  for (AttrId a = 0; a < new_db->num_attributes(); ++a) {
    const AttributeTable& new_t = new_db->attribute(a);
    if (!db_->FindAttribute(new_t.name).has_value()) {
      ++num_attrs_changed;
      changed_tables.push_back(&new_t);
    }
  }

  // 6. Pre-commit cache dirtiness: an entry stays clean iff no changed
  // attribute (old or new side) has a subject among its members. A clean
  // CFS's analysis covers exactly the attributes with non-zero support in
  // it, and none of those changed — so its cached group stream is what a
  // re-evaluation would produce. (This needs both stores, hence pre-commit;
  // membership changes are caught post-selection below.)
  std::set<std::string> clean;
  for (const auto& [name, entry] : online_cache_) {
    bool dirty = false;
    for (const AttributeTable* t : changed_tables) {
      if (AnySubjectIn(t->subjects(), entry.members)) {
        dirty = true;
        break;
      }
    }
    if (!dirty) clean.insert(name);
  }

  SPADE_FAILPOINT_STATUS("delta.apply");

  // --- Commit point: noexcept swaps only. -------------------------------
  graph_->CommitDelta(std::move(staged));
  db_ = std::move(new_db);
  offline_stats_ = std::move(new_stats);
  report_.num_triples = graph_->NumTriples();
  report_.num_direct_properties = num_direct;
  report_.derivations = new_derivations;
  ++num_deltas_applied_;
  ResetOnlineState();

  // 7. Post-commit rebuild: CFS selection needs the committed graph. The
  // structural summary is invalidated, not rebuilt — an O(num_triples) walk
  // the delta path defers until something reads the summary (snapshot save,
  // summary-based selection, the accessor). A failure here costs the
  // caches, never the store's readability.
  summary_dirty_ = true;
  Status post = Status::OK();
  try {
    fact_sets_ready_ = false;
    post = PrepareFactSets();
  } catch (const std::exception& e) {
    post = Status::Internal(std::string("delta post-commit rebuild failed: ") +
                            e.what());
  } catch (...) {
    post = Status::Internal("delta post-commit rebuild failed");
  }
  if (!post.ok()) {
    online_cache_.clear();
    fact_sets_ready_ = false;
    return post;
  }

  // 8. Revalidate survivors against the new selection and retag them: new
  // cfs_id, old attribute ids mapped through the by-name correspondence.
  // (An entry referencing a vanished attribute cannot be clean — a vanished
  // attribute with support in the CFS intersects its members — but the
  // remap still guards against it.)
  CfsCache kept;
  const uint32_t num_sets = static_cast<uint32_t>(fact_sets_.size());
  for (uint32_t id = 0; id < num_sets; ++id) {
    const CandidateFactSet& set = fact_sets_[id];
    if (clean.count(set.name) == 0) continue;
    auto it = online_cache_.find(set.name);
    if (it == online_cache_.end() || it->second.members != set.members) {
      continue;
    }
    CfsCacheEntry entry = std::move(it->second);
    bool valid = true;
    entry.shard.RemapKeys([&](AggregateKey key) {
      key.cfs_id = id;
      for (AttrId& d : key.dims) {
        if (d < attr_map.size() && attr_map[d] != kInvalidAttr) {
          d = attr_map[d];
        } else {
          valid = false;
        }
      }
      if (!key.measure.is_count_star()) {
        const AttrId m = key.measure.attr;
        if (m < attr_map.size() && attr_map[m] != kInvalidAttr) {
          key.measure.attr = attr_map[m];
        } else {
          valid = false;
        }
      }
      return key;
    });
    if (valid) kept.emplace(set.name, std::move(entry));
  }
  online_cache_ = std::move(kept);

  if (out != nullptr) {
    out->num_added = num_added;
    out->num_removed = num_removed;
    out->noop_adds = noop_adds;
    out->noop_retracts = noop_retracts;
    out->num_attrs_changed = num_attrs_changed;
    out->num_cfs = fact_sets_.size();
    out->num_cfs_reused = online_cache_.size();
    out->apply_ms = apply_timer.ElapsedMillis();
  }
  return Status::OK();
}

Status Spade::Compact() {
  if (!offline_done_) {
    return Status::Internal("RunOffline() must complete before Compact()");
  }
  if (options_.saturate) {
    return Status::InvalidArgument(
        "Compact() is not supported with RDFS saturation");
  }
  // Canonical re-intern of the current triple set: the rebuilt dictionary
  // holds no retired terms and its id assignment depends only on the
  // logical triple set, so the resealed store is byte-identical to a fresh
  // sequential build of the same triples (the compaction oracle in
  // tests/delta_test.cc holds SaveStore outputs bit-for-bit equal).
  Graph canon;
  try {
    BuildCanonicalGraph(ExtractCanonicalTriples(*graph_), &canon);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("compaction failed: ") + e.what());
  }
  SPADE_FAILPOINT_STATUS("delta.compact");
  *graph_ = std::move(canon);
  // Every id the caches speak is gone (the re-intern may even shift name
  // collision suffixes), so they are dropped wholesale, unlike ApplyDelta's
  // surgical invalidation.
  online_cache_.clear();
  ResetOnlineState();
  fact_sets_.clear();
  fact_sets_ready_ = false;
  offline_done_ = false;
  Status rebuilt = Status::OK();
  try {
    rebuilt = BuildOffline();
  } catch (const std::exception& e) {
    rebuilt = Status::Internal(std::string("compaction rebuild failed: ") +
                               e.what());
  } catch (...) {
    rebuilt = Status::Internal("compaction rebuild failed");
  }
  SPADE_RETURN_NOT_OK(rebuilt);
  // The graph, store and summary are all owned rebuilds now — release any
  // snapshot mapping they used to borrow.
  snapshot_.reset();
  return PrepareFactSets();
}

}  // namespace spade
