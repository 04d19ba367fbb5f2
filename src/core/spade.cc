#include "src/core/spade.h"

#include <algorithm>

#include "src/persist/snapshot.h"
#include "src/util/timer.h"

namespace spade {

namespace {

/// Element-wise add of per-shard fact counts into a report's vector,
/// growing it to the longer length. The one definition both merge sites
/// (per-CFS EvalStats -> partial report, partial -> total) share.
void MergeShardCounts(const std::vector<size_t>& src, std::vector<size_t>* dst) {
  if (dst->size() < src.size()) dst->resize(src.size());
  for (size_t s = 0; s < src.size(); ++s) (*dst)[s] += src[s];
}

}  // namespace

Spade::Spade(Graph* graph, SpadeOptions options)
    : graph_(graph), options_(std::move(options)) {
  arm_ = std::make_unique<Arm>(options_.max_stored_groups);
}

Spade::~Spade() = default;

Status Spade::RunOffline() {
  if (!options_.load_store.empty()) return LoadStore(options_.load_store);
  SPADE_RETURN_NOT_OK(BuildOfflineSequential());
  return MaybeSaveStore();
}

Status Spade::BuildOfflineSequential() {
  Timer offline_timer;
  Timer timer;
  if (options_.saturate) {
    Saturate(graph_);
    report_.timings.saturation_ms = timer.ElapsedMillis();
    timer.Restart();
  }
  report_.num_triples = graph_->NumTriples();

  summary_ = StructuralSummary::Build(*graph_);
  summary_dirty_ = false;
  report_.timings.summary_ms = timer.ElapsedMillis();
  timer.Restart();

  db_ = std::make_unique<AttributeStore>(graph_);
  db_->BuildDirectAttributes();
  report_.num_direct_properties = db_->num_attributes();
  report_.timings.attribute_tables_ms = timer.ElapsedMillis();
  timer.Restart();

  offline_stats_.clear();
  for (AttrId a = 0; a < db_->num_attributes(); ++a) {
    offline_stats_.push_back(ComputeAttrStats(*db_, a));
  }
  report_.timings.offline_stats_ms = timer.ElapsedMillis();
  timer.Restart();

  if (options_.enable_derivations) {
    report_.derivations = DeriveAll(db_.get(), offline_stats_, options_.derivation);
    // Analyze the derived attributes as well: the pipeline needs their kinds
    // and bounds (enumeration, early-stop min/max CIs).
    for (AttrId a = static_cast<AttrId>(offline_stats_.size());
         a < db_->num_attributes(); ++a) {
      offline_stats_.push_back(ComputeAttrStats(*db_, a));
    }
  }
  report_.timings.derivation_ms = timer.ElapsedMillis();
  report_.timings.offline_wall_ms = offline_timer.ElapsedMillis();

  offline_done_ = true;
  return Status::OK();
}

Status Spade::RunOffline(TripleChunkSource* source) {
  if (!options_.load_store.empty()) return LoadStore(options_.load_store);
  // RDFS saturation rewrites the graph before any attribute table can be
  // built, so it cannot overlap parsing; drain the source and run the
  // sequential oracle. Same fallback when streaming is switched off — one
  // entry point serves both modes, which is what bench_ingest compares.
  if (!options_.ingest.enabled || options_.saturate) {
    Timer drain_timer;
    SPADE_RETURN_NOT_OK(DrainChunkSource(source, graph_));
    const double drain_ms = drain_timer.ElapsedMillis();
    Status status = RunOffline();
    // The offline phase owns the parse in source-driven mode, so the drain
    // counts toward its wall-clock — bench_ingest compares sequential and
    // streamed runs on equal footing. num_chunks stays 0: the marker that
    // no streaming ran.
    report_.timings.offline_wall_ms += drain_ms;
    report_.ingest.parse_ms = drain_ms;
    return status;
  }
  Timer offline_timer;
  std::unique_ptr<ThreadPool> pool = MakeWorkerPool(options_.num_threads);
  TaskScheduler scheduler(pool.get());

  // Parse / scatter / merge-seal / statistics, with the structural summary
  // handed in as the post-parse task so it builds concurrently with the
  // store. See ARCHITECTURE.md "The ingest pipeline" for the stage protocol
  // and the determinism argument.
  db_ = std::make_unique<AttributeStore>(graph_);
  double summary_ms = 0;
  IngestOptions ingest_options = options_.ingest;
  if (ingest_options.cancel == nullptr) ingest_options.cancel = options_.cancel;
  SPADE_RETURN_NOT_OK(RunStreamingIngest(
      source, graph_, db_.get(), &offline_stats_, &scheduler, ingest_options,
      [this, &summary_ms] {
        Timer t;
        summary_ = StructuralSummary::Build(*graph_);
        summary_dirty_ = false;
        summary_ms = t.ElapsedMillis();
      },
      &report_.ingest));
  report_.num_triples = graph_->NumTriples();
  report_.num_direct_properties = db_->num_attributes();
  // Per-step fields carry *work* time under the overlapped build (the
  // online phase's convention, see SpadeTimings); offline_wall_ms is the
  // end-to-end number.
  report_.timings.summary_ms = summary_ms;
  report_.timings.attribute_tables_ms =
      report_.ingest.scatter_work_ms + report_.ingest.build_work_ms;
  report_.timings.offline_stats_ms = report_.ingest.stats_work_ms;

  Timer timer;
  if (options_.enable_derivations) {
    report_.derivations = DeriveAll(db_.get(), offline_stats_, options_.derivation);
    // Analyze the derived attributes as well (the pipeline needs their kinds
    // and bounds) — fanned out per attribute; values are identical to the
    // sequential loop's.
    ComputeAttrStatsRange(*db_, static_cast<AttrId>(offline_stats_.size()),
                          &scheduler, &offline_stats_);
  }
  report_.timings.derivation_ms = timer.ElapsedMillis();
  report_.timings.offline_wall_ms = offline_timer.ElapsedMillis();

  offline_done_ = true;
  return MaybeSaveStore();
}

Status Spade::LoadStore(const std::string& path) {
  Timer timer;
  auto reader = std::make_unique<persist::SnapshotReader>();
  persist::SnapshotReader::Options ropts;
  ropts.verify_checksums = options_.verify_snapshot;
  SPADE_RETURN_NOT_OK(reader->Open(path, ropts));
  persist::LoadedMeta meta;
  std::vector<CandidateFactSet> loaded_sets;
  SPADE_RETURN_NOT_OK(reader->Load(graph_, &db_, &summary_, &offline_stats_,
                                   &loaded_sets, &meta));
  summary_dirty_ = false;
  snapshot_ = std::move(reader);  // keep the mapping alive for the attachments
  report_.num_triples = static_cast<size_t>(meta.num_triples);
  report_.num_direct_properties =
      static_cast<size_t>(meta.num_direct_properties);
  report_.derivations = meta.derivations;
  // The persisted CFS selection is only valid under the options it was
  // selected with; on any mismatch it is recomputed from the (borrowed)
  // graph and summary on first use.
  if (meta.has_fact_sets &&
      persist::SameCfsOptions(meta.cfs_options, options_.cfs)) {
    fact_sets_ = std::move(loaded_sets);
    report_.num_cfs = fact_sets_.size();
    fact_sets_ready_ = true;
  }
  report_.timings.offline_wall_ms = timer.ElapsedMillis();
  offline_done_ = true;
  return Status::OK();
}

Status Spade::SaveStore(const std::string& path) const {
  if (!offline_done_) {
    return Status::Internal("RunOffline() must complete before SaveStore()");
  }
  persist::SaveMeta meta;
  meta.num_direct_properties = report_.num_direct_properties;
  meta.derivations = report_.derivations;
  meta.cfs_options = options_.cfs;
  const std::vector<CandidateFactSet>* sets =
      fact_sets_ready_ ? &fact_sets_ : nullptr;
  EnsureSummary();  // snapshots persist the summary; refresh a deferred one
  return persist::SaveSnapshot(*db_, summary_, offline_stats_, sets, meta,
                               path);
}

Status Spade::MaybeSaveStore() {
  if (options_.save_store.empty()) return Status::OK();
  // Select fact sets first so the snapshot carries them: a loader with the
  // same CfsOptions then skips selection entirely.
  SPADE_RETURN_NOT_OK(PrepareFactSets());
  return SaveStore(options_.save_store);
}

void Spade::EnsureSummary() const {
  if (!summary_dirty_) return;
  summary_ = StructuralSummary::Build(*graph_);
  summary_dirty_ = false;
}

Status Spade::PrepareFactSets() {
  if (!offline_done_) {
    return Status::Internal("RunOffline() must complete before fact-set selection");
  }
  if (fact_sets_ready_) return Status::OK();
  Timer timer;
  // Only summary-based selection reads the summary; type/property-based
  // selection after a delta must not pay for the rebuild.
  if (options_.cfs.summary_based) EnsureSummary();
  fact_sets_ = SelectCandidateFactSets(*graph_, &summary_, options_.cfs);
  report_.num_cfs = fact_sets_.size();
  report_.timings.cfs_selection_ms = timer.ElapsedMillis();
  fact_sets_ready_ = true;
  return Status::OK();
}

Spade::CfsRunState Spade::RunOnlineCfs(uint32_t cfs_id, size_t num_shards,
                                       const SpadeOptions& opts,
                                       const CancelCheck* cancel, Arm* arm,
                                       TaskScheduler* scheduler,
                                       SpadeReport* report) const {
  if (cancel != nullptr && cancel->SkipNewWork()) return CfsRunState::kSkipped;
  CfsIndex index(fact_sets_[cfs_id].members);

  // Step 2: Online Attribute Analysis.
  Timer step;
  CfsAnalysis analysis =
      AnalyzeAttributes(*db_, index, offline_stats_, opts.enumeration);
  report->timings.attribute_analysis_ms += step.ElapsedMillis();
  step.Restart();

  // Step 3: Aggregate Enumeration.
  std::vector<LatticeSpec> lattices = EnumerateLattices(
      *db_, index, analysis, offline_stats_, opts.enumeration);
  report->num_lattices += lattices.size();
  report->num_candidate_aggregates += CountCandidateAggregates(cfs_id, lattices);
  report->timings.enumeration_ms += step.ElapsedMillis();
  step.Restart();

  // Step 4: Aggregate Evaluation, behind the uniform evaluator interface.
  CubeEvalOptions eval_options;
  eval_options.algorithm = opts.algorithm;
  eval_options.mvd = opts.mvd;
  eval_options.earlystop = opts.earlystop;
  eval_options.enable_earlystop = opts.enable_earlystop;
  eval_options.interestingness = opts.interestingness;
  eval_options.top_k = opts.top_k;
  eval_options.seed = opts.seed;
  eval_options.num_shards = num_shards;
  if (opts.max_bitmap_bytes > 0) {
    eval_options.mvd.max_bitmap_bytes = opts.max_bitmap_bytes;
  }
  std::unique_ptr<CubeEvaluator> evaluator = MakeCubeEvaluator(eval_options);

  CubeEvalInputs inputs;
  inputs.db = db_.get();
  inputs.cfs_id = cfs_id;
  inputs.cfs = &index;
  inputs.lattices = &lattices;
  inputs.offline_stats = &offline_stats_;
  inputs.cancel = cancel;

  EvalStats stats = evaluator->EvaluateCfs(inputs, arm, scheduler);
  report->num_evaluated_aggregates += stats.num_mdas_evaluated;
  report->num_reused_aggregates += stats.num_mdas_reused;
  report->num_pruned_aggregates += stats.num_mdas_pruned;
  report->num_groups_emitted += stats.num_groups_emitted;
  report->num_groups_skipped += stats.num_groups_skipped;
  report->timings.earlystop_ms += stats.earlystop_ms;
  report->timings.evaluation_ms += step.ElapsedMillis();
  report->shard_merge_ms += stats.shard_merge_ms;
  MergeShardCounts(stats.shard_fact_counts, &report->shard_fact_counts);
  report->lattice_workers_used =
      std::max(report->lattice_workers_used, stats.lattice_workers_used);
  report->lattice_wall_ms += stats.lattice_wall_ms;
  report->lattice_work_ms += stats.lattice_work_ms;
  report->lattice_peak_partial_cells = std::max(
      report->lattice_peak_partial_cells, stats.lattice_peak_partial_cells);
  report->peak_bitmap_bytes =
      std::max(report->peak_bitmap_bytes, stats.peak_bitmap_bytes);
  if (stats.aborted) return CfsRunState::kAborted;
  if (stats.budget_truncated) return CfsRunState::kTruncated;
  return CfsRunState::kCompleted;
}

namespace {

/// Fold one CFS's online deltas into the pipeline report. Counts are exact;
/// timing fields accumulate per-worker *work* time (wall-clock is tracked
/// separately as online_wall_ms).
void MergeCfsReport(const SpadeReport& cfs, SpadeReport* total) {
  total->num_lattices += cfs.num_lattices;
  total->num_candidate_aggregates += cfs.num_candidate_aggregates;
  total->num_evaluated_aggregates += cfs.num_evaluated_aggregates;
  total->num_reused_aggregates += cfs.num_reused_aggregates;
  total->num_pruned_aggregates += cfs.num_pruned_aggregates;
  total->num_groups_emitted += cfs.num_groups_emitted;
  total->num_groups_skipped += cfs.num_groups_skipped;
  total->shard_merge_ms += cfs.shard_merge_ms;
  MergeShardCounts(cfs.shard_fact_counts, &total->shard_fact_counts);
  total->lattice_workers_used =
      std::max(total->lattice_workers_used, cfs.lattice_workers_used);
  total->lattice_wall_ms += cfs.lattice_wall_ms;
  total->lattice_work_ms += cfs.lattice_work_ms;
  total->lattice_peak_partial_cells =
      std::max(total->lattice_peak_partial_cells, cfs.lattice_peak_partial_cells);
  total->peak_bitmap_bytes =
      std::max(total->peak_bitmap_bytes, cfs.peak_bitmap_bytes);
  total->timings.attribute_analysis_ms += cfs.timings.attribute_analysis_ms;
  total->timings.enumeration_ms += cfs.timings.enumeration_ms;
  total->timings.earlystop_ms += cfs.timings.earlystop_ms;
  total->timings.evaluation_ms += cfs.timings.evaluation_ms;
}

}  // namespace

Result<Spade::CfsBatchOutcome> Spade::EvaluateCfsBatch(
    const std::vector<uint32_t>& ids, size_t num_shards,
    const SpadeOptions& opts, const CancelCheck& cancel,
    TaskScheduler* scheduler, CfsCache* cache, Arm* arm,
    SpadeReport* report) const {
  // A CFS with a valid cache entry (same name, same member list — ApplyDelta
  // already dropped anything whose attributes changed) replays its retained
  // shard; everything else evaluates fresh into its own shard.
  std::vector<const CfsCacheEntry*> cached(ids.size(), nullptr);
  std::vector<size_t> fresh;
  fresh.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const CandidateFactSet& set = fact_sets_[ids[i]];
    if (cache != nullptr) {
      auto it = cache->find(set.name);
      if (it != cache->end() && it->second.members == set.members) {
        cached[i] = &it->second;
        continue;
      }
    }
    fresh.push_back(i);
  }

  // The commit rule below decides what the caller keeps. A cancelled run's
  // fan-out leaves a mix of completed / truncated / aborted / skipped shards
  // whose composition is timing-dependent — but the committed result is
  // not, because absorption walks ids in order and stops at the first shard
  // that is not a clean kCompleted (absorbing a budget-truncated shard's
  // deterministic prefix first). Everything past the cut is discarded, so
  // races only ever cost wasted work, never nondeterminism.
  std::vector<Arm> shards(ids.size(), Arm(opts.max_stored_groups));
  std::vector<SpadeReport> partials(ids.size());
  std::vector<CfsRunState> states(ids.size(), CfsRunState::kSkipped);
  try {
    scheduler->ParallelFor(
        fresh.size(),
        [&](size_t f) {
          const size_t i = fresh[f];
          states[i] = RunOnlineCfs(ids[i], num_shards, opts, &cancel,
                                   &shards[i], scheduler, &partials[i]);
        },
        &cancel);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("online evaluation failed: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("online evaluation failed: unknown exception");
  }

  // Cached and fresh shards interleave exactly where a full evaluation would
  // have produced them, so the absorbed entry order (and therefore every
  // downstream ranking tie-break) is bit-identical to evaluating them all.
  CfsBatchOutcome out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (cached[i] != nullptr) {
      // A retained shard is a complete deterministic group stream for this
      // CFS: it commits exactly like a fresh kCompleted shard.
      MergeCfsReport(cached[i]->partial, report);
      arm->Absorb(Arm(cached[i]->shard));
      ++report->num_cfs_reused;
      ++out.num_completed;
      continue;
    }
    if (states[i] == CfsRunState::kCompleted ||
        states[i] == CfsRunState::kTruncated) {
      MergeCfsReport(partials[i], report);
      if (cache != nullptr && states[i] == CfsRunState::kCompleted) {
        // Cache the pre-absorb shard (a copy: Absorb consumes).
        const CandidateFactSet& set = fact_sets_[ids[i]];
        (*cache)[set.name] = CfsCacheEntry{set.members, shards[i], partials[i]};
      }
      arm->Absorb(std::move(shards[i]));
      if (states[i] == CfsRunState::kCompleted) {
        ++out.num_completed;
        continue;
      }
      out.truncated = true;
      out.reason = CancelReason::kBudget;
      return out;
    }
    // kAborted / kSkipped: cut here. The shard (if any) is timing-dependent
    // partial output — discard it and everything after; it is never cached.
    out.truncated = true;
    out.reason = cancel.reason() != CancelReason::kNone ? cancel.reason()
                                                        : CancelReason::kCancelled;
    return out;
  }
  return out;
}

Result<std::vector<Insight>> Spade::RunOnline() {
  if (!offline_done_) {
    return Status::Internal("RunOffline() must complete before RunOnline()");
  }
  Timer online_timer;
  // Step 1: Candidate Fact Set Selection (a no-op when a loaded snapshot or
  // an earlier call already made the selection — that time stays in
  // cfs_selection_ms).
  SPADE_RETURN_NOT_OK(PrepareFactSets());
  ResetOnlineState();

  std::unique_ptr<ThreadPool> pool = MakeWorkerPool(options_.num_threads);
  TaskScheduler scheduler(pool.get());
  // Every fact set, the pipeline's own knobs and deadline (an unset request
  // field inherits them).
  ExploreRequest all;
  all.cancel = options_.cancel;
  auto outcome =
      ExploreInto(all, &scheduler,
                  options_.enable_incremental ? &online_cache_ : nullptr,
                  arm_.get(), &report_);
  SPADE_RETURN_NOT_OK(outcome.status());
  report_.timings.online_wall_ms = online_timer.ElapsedMillis();
  return std::move(outcome->insights);
}

std::vector<Insight> Spade::BuildInsights(std::vector<Arm::Ranked> ranked) const {
  std::vector<Insight> insights;
  insights.reserve(ranked.size());
  for (auto& r : ranked) {
    Insight insight;
    insight.cfs_name = fact_sets_[r.key.cfs_id].name;
    insight.description =
        DescribeAggregate(*db_, fact_sets_[r.key.cfs_id], r.key);
    insight.sparql = MdaToSparql(r.key);
    insight.ranked = std::move(r);
    insights.push_back(std::move(insight));
  }
  return insights;
}

Result<ExploreOutcome> Spade::Explore(const ExploreRequest& request,
                                      TaskScheduler* scheduler) const {
  // Request-local ARM and report: concurrent requests never share a
  // mutable byte.
  Arm arm(options_.max_stored_groups);
  SpadeReport report;
  return ExploreInto(request, scheduler, /*cache=*/nullptr, &arm, &report);
}

Result<ExploreOutcome> Spade::ExploreInto(const ExploreRequest& request,
                                          TaskScheduler* scheduler,
                                          CfsCache* cache, Arm* arm,
                                          SpadeReport* report) const {
  if (!offline_done_ || !fact_sets_ready_) {
    return Status::Internal(
        "RunOffline() and PrepareFactSets() must complete before Explore()");
  }
  // Resolve the CFS subset.
  std::vector<uint32_t> ids;
  if (request.cfs_names.empty()) {
    ids.resize(fact_sets_.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  } else {
    for (const std::string& name : request.cfs_names) {
      bool found = false;
      for (size_t i = 0; i < fact_sets_.size(); ++i) {
        if (fact_sets_[i].name == name) {
          ids.push_back(static_cast<uint32_t>(i));
          found = true;
          break;
        }
      }
      if (!found) return Status::NotFound("unknown fact set: " + name);
    }
  }

  // Per-request knobs over the pipeline defaults.
  SpadeOptions opts = options_;
  if (request.top_k) opts.top_k = *request.top_k;
  if (request.interestingness) opts.interestingness = *request.interestingness;
  if (request.algorithm) opts.algorithm = *request.algorithm;
  if (request.earlystop) opts.enable_earlystop = *request.earlystop;
  if (request.max_dims) opts.enumeration.max_dims = *request.max_dims;
  if (request.min_support_ratio) {
    opts.enumeration.min_support_ratio = *request.min_support_ratio;
  }

  // Steps 2-4 per CFS. Every CFS evaluates into its own ARM shard
  // (AggregateKey embeds the cfs_id, so shards never share keys); shards are
  // absorbed in cfs_id order, which makes the result independent of the
  // thread count. Outer parallelism is across CFSs; within a CFS, the
  // evaluator fans out on the same scheduler (nested ParallelFor).
  TaskScheduler serial(nullptr);
  TaskScheduler* sched = scheduler != nullptr ? scheduler : &serial;
  report->num_threads_used = sched->num_threads();
  report->simd_kernel =
      simd::FoldKernelKindName(simd::ResolveFoldKernel(opts.mvd.simd).kind);
  // Within-CFS sharding: auto means one shard per worker, so a lone large
  // CFS can still occupy the whole pool. Ineligible configurations resolve
  // to 1 (same rule the factory dispatches on), so the report never claims
  // sharding that did not run.
  report->num_shards_used =
      ResolveShardCount(opts.algorithm, opts.enable_earlystop, opts.num_shards,
                        sched->num_threads());

  // Per-request deadline: an explicit request value (even 0, meaning
  // "already expired") overrides the pipeline default. A local token backs
  // the deadline latch when no external one is supplied.
  CancelToken local_token;
  CancelToken* token = request.cancel != nullptr ? request.cancel : &local_token;
  Deadline deadline = Deadline::Never();
  if (request.deadline_ms.has_value()) {
    deadline = Deadline::After(*request.deadline_ms);
  } else if (opts.deadline_ms > 0) {
    deadline = Deadline::After(opts.deadline_ms);
  }
  CancelCheck cancel(token, deadline);

  auto batch = EvaluateCfsBatch(ids, report->num_shards_used, opts, cancel,
                                sched, cache, arm, report);
  SPADE_RETURN_NOT_OK(batch.status());
  report->truncated = batch->truncated;
  report->cancel_reason = batch->reason;
  report->num_cfs_completed = batch->num_completed;
  // Early-stop time is inside evaluation wall-clock; report it separately.
  report->timings.evaluation_ms -= report->timings.earlystop_ms;
  Timer timer;

  // Step 5: Top-k Computation.
  ExploreOutcome outcome;
  outcome.num_cfs_explored = ids.size();
  outcome.truncated = batch->truncated;
  outcome.cancel_reason = batch->reason;
  outcome.num_cfs_completed = batch->num_completed;
  outcome.insights = BuildInsights(arm->TopK(opts.top_k, opts.interestingness));
  report->timings.topk_ms = timer.ElapsedMillis();
  return outcome;
}

std::string Spade::MdaToSparql(const AggregateKey& key) const {
  const CandidateFactSet& cfs = fact_sets_[key.cfs_id];
  std::string head = "SELECT";
  std::string body;
  std::string comments;

  // CFS membership pattern.
  if (cfs.origin == CandidateFactSet::Origin::kType &&
      cfs.type != kInvalidTerm) {
    body += "  ?cf a <" + graph_->dict().Get(cfs.type).lexical + "> .\n";
  } else {
    comments += "# facts: " + cfs.name + " (" +
                (cfs.origin == CandidateFactSet::Origin::kSummary
                     ? "structural-summary equivalence class"
                     : "property-based selection") +
                ")\n";
  }

  auto attr_pattern = [&](AttrId attr, const std::string& var) -> std::string {
    const AttributeTable& table = db_->attribute(attr);
    switch (table.origin) {
      case AttrOrigin::kDirect:
        return "  ?cf <" + graph_->dict().Get(table.property).lexical + "> " +
               var + " .\n";
      case AttrOrigin::kPath: {
        // Recover the two hops from the derived-from chain: the table name
        // is "p/q"; derived_from points at p.
        const AttributeTable& first = db_->attribute(table.derived_from);
        std::string second = table.name.substr(first.name.size() + 1);
        auto second_id = db_->FindAttribute(second);
        std::string p1 = "<" + graph_->dict().Get(first.property).lexical + ">";
        std::string p2 =
            second_id.has_value() &&
                    db_->attribute(*second_id).property != kInvalidTerm
                ? "<" + graph_->dict().Get(db_->attribute(*second_id).property)
                            .lexical +
                      ">"
                : second;
        return "  ?cf " + p1 + "/" + p2 + " " + var + " .\n";
      }
      case AttrOrigin::kCount:
      case AttrOrigin::kKeyword:
      case AttrOrigin::kLanguage:
        comments += "# " + var + " = " + table.name +
                    " (derived property; materialized by Spade)\n";
        return "  ?cf <spade:derived/" + table.name + "> " + var + " .\n";
    }
    return "";
  };

  std::string group_by;
  for (size_t i = 0; i < key.dims.size(); ++i) {
    std::string var = "?d" + std::to_string(i + 1);
    head += " " + var;
    group_by += (i == 0 ? "" : " ") + var;
    body += attr_pattern(key.dims[i], var);
  }
  if (key.measure.is_count_star()) {
    head += " (COUNT(*) AS ?v)";
  } else {
    head += " (" + std::string(sparql::AggFuncName(key.measure.func)) +
            "(?m) AS ?v)";
    body += attr_pattern(key.measure.attr, "?m");
  }

  std::string query = comments + head + "\nWHERE {\n" + body + "}";
  if (!key.dims.empty()) query += "\nGROUP BY " + group_by;
  return query;
}

}  // namespace spade
