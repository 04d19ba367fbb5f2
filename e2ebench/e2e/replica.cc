#include "e2e/replica.h"

#include <memory>

#include "src/core/aggregate.h"
#include "src/exec/cube_evaluator.h"

namespace spade {
namespace e2e {

namespace {

/// Steps 2-4 for one fact set, in Spade::RunOnlineCfs's order.
void EvaluateCfs(const Spade& spade, uint32_t cfs_id, size_t num_shards,
                 const SpadeOptions& opts, TaskScheduler* scheduler,
                 Arm* shard, Trace* trace, Trace::SpanId parent,
                 uint64_t request) {
  Trace::Scope cfs_span(trace, "core.cfs", parent, request);
  const Trace::SpanId id = cfs_span.id();
  std::unique_ptr<CfsIndex> index;
  {
    Trace::Scope span(trace, "core.cfs_index", id, request);
    index = std::make_unique<CfsIndex>(spade.fact_sets()[cfs_id].members);
  }
  CfsAnalysis analysis;
  {
    Trace::Scope span(trace, "core.analyze", id, request);
    analysis = AnalyzeAttributes(spade.store(), *index, spade.offline_stats(),
                                 opts.enumeration);
  }
  std::vector<LatticeSpec> lattices;
  {
    Trace::Scope span(trace, "core.enumerate", id, request);
    lattices = EnumerateLattices(spade.store(), *index, analysis,
                                 spade.offline_stats(), opts.enumeration);
  }

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
  inputs.db = &spade.store();
  inputs.cfs_id = cfs_id;
  inputs.cfs = index.get();
  inputs.lattices = &lattices;
  inputs.offline_stats = &spade.offline_stats();

  EvalStats stats;
  {
    Trace::Scope span(trace, "exec.prepare", id, request);
    evaluator->Prepare(inputs, *shard, scheduler, &stats);
  }
  for (size_t li = 0; li < lattices.size() && !stats.budget_truncated; ++li) {
    Trace::Scope span(trace, "exec.lattice", id, request);
    evaluator->EvaluateLattice(inputs, li, shard, scheduler, &stats);
  }
  trace->Count(request, "exec.lattice_work_ms", stats.lattice_work_ms);
  trace->Count(request, "exec.lattice_wall_ms", stats.lattice_wall_ms);
  trace->Count(request, "exec.shard_merge_ms", stats.shard_merge_ms);
  trace->Count(request, "core.groups_emitted",
               static_cast<double>(stats.num_groups_emitted));
  trace->Count(request, "core.mdas_evaluated",
               static_cast<double>(stats.num_mdas_evaluated));
  trace->Max(request, "exec.lattice_workers",
             static_cast<double>(stats.lattice_workers_used));
  trace->Max(request, "bitmap.peak_bytes",
             static_cast<double>(stats.peak_bitmap_bytes));
  trace->Max(request, "exec.lattice_peak_partial_cells",
             static_cast<double>(stats.lattice_peak_partial_cells));
}

}  // namespace

std::vector<Insight> TracedOnline(const Spade& spade,
                                  const std::vector<uint32_t>& cfs_ids,
                                  const SpadeOptions& options,
                                  TaskScheduler* scheduler, Trace* trace,
                                  Trace::SpanId parent, uint64_t request) {
  const size_t num_shards =
      ResolveShardCount(options.algorithm, options.enable_earlystop,
                        options.num_shards, scheduler->num_threads());
  std::vector<Arm> shards(cfs_ids.size(), Arm(options.max_stored_groups));
  scheduler->ParallelFor(cfs_ids.size(), [&](size_t i) {
    EvaluateCfs(spade, cfs_ids[i], num_shards, options, scheduler, &shards[i],
                trace, parent, request);
  });

  std::vector<Arm::Ranked> ranked;
  {
    Trace::Scope span(trace, "core.topk", parent, request);
    Arm arm(options.max_stored_groups);
    for (Arm& shard : shards) arm.Absorb(std::move(shard));
    ranked = arm.TopK(options.top_k, options.interestingness);
  }
  Trace::Scope span(trace, "core.present", parent, request);
  std::vector<Insight> insights;
  insights.reserve(ranked.size());
  for (Arm::Ranked& r : ranked) {
    const CandidateFactSet& cfs = spade.fact_sets()[r.key.cfs_id];
    Insight insight;
    insight.cfs_name = cfs.name;
    insight.description = DescribeAggregate(spade.store(), cfs, r.key);
    insight.sparql = spade.MdaToSparql(r.key);
    insight.ranked = std::move(r);
    insights.push_back(std::move(insight));
  }
  return insights;
}

bool ResolveRequest(const Spade& spade, const ExploreRequest& request,
                    SpadeOptions base, std::vector<uint32_t>* ids,
                    SpadeOptions* effective) {
  const std::vector<CandidateFactSet>& sets = spade.fact_sets();
  ids->clear();
  if (request.cfs_names.empty()) {
    for (size_t i = 0; i < sets.size(); ++i) {
      ids->push_back(static_cast<uint32_t>(i));
    }
  }
  for (const std::string& name : request.cfs_names) {
    size_t i = 0;
    while (i < sets.size() && sets[i].name != name) ++i;
    if (i == sets.size()) return false;
    ids->push_back(static_cast<uint32_t>(i));
  }
  if (request.top_k) base.top_k = *request.top_k;
  if (request.interestingness) base.interestingness = *request.interestingness;
  if (request.algorithm) base.algorithm = *request.algorithm;
  if (request.earlystop) base.enable_earlystop = *request.earlystop;
  if (request.max_dims) base.enumeration.max_dims = *request.max_dims;
  if (request.min_support_ratio) {
    base.enumeration.min_support_ratio = *request.min_support_ratio;
  }
  *effective = base;
  return true;
}

OnlineLayers ReadOnlineLayers(const Trace& trace, uint64_t request) {
  OnlineLayers l;
  l.cfs_index_ms = trace.Total(request, "core.cfs_index");
  l.analyze_ms = trace.Total(request, "core.analyze");
  l.enumerate_ms = trace.Total(request, "core.enumerate");
  l.prepare_ms = trace.Total(request, "exec.prepare");
  l.lattice_ms = trace.Total(request, "exec.lattice");
  l.topk_ms = trace.Total(request, "core.topk");
  l.present_ms = trace.Total(request, "core.present");
  l.lattice_work_ms = trace.CountValue(request, "exec.lattice_work_ms");
  l.lattice_wall_ms = trace.CountValue(request, "exec.lattice_wall_ms");
  l.lattice_workers = trace.CountValue(request, "exec.lattice_workers");
  l.shard_merge_ms = trace.CountValue(request, "exec.shard_merge_ms");
  l.peak_bitmap_bytes = trace.CountValue(request, "bitmap.peak_bytes");
  l.peak_partial_cells =
      trace.CountValue(request, "exec.lattice_peak_partial_cells");
  l.groups_emitted = trace.CountValue(request, "core.groups_emitted");
  l.mdas_evaluated = trace.CountValue(request, "core.mdas_evaluated");
  return l;
}

}  // namespace e2e
}  // namespace spade
