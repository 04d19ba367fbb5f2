#ifndef SPADE_E2EBENCH_E2E_REPLICA_H_
#define SPADE_E2EBENCH_E2E_REPLICA_H_

/// \file replica.h
/// \brief The online phase replayed from outside the pipeline, one span per
/// public call, for the per-layer breakdown of traced runs.
///
/// Spade::RunOnline() and Spade::Explore() run steps 2-5 per fact set in a
/// private helper (Spade::RunOnlineCfs). TracedOnline() makes the same calls
/// through the layers' public functions — CfsIndex, AnalyzeAttributes,
/// EnumerateLattices, CubeEvaluator::Prepare / EvaluateLattice,
/// Arm::Absorb / TopK, DescribeAggregate, Spade::MdaToSparql — in the same
/// order and on the same scheduler. Every traced run checks that its
/// insights equal the real call's bit for bit, so the replica cannot drift
/// from the program unnoticed.

#include <cstdint>
#include <string>
#include <vector>

#include "e2e/trace.h"
#include "src/core/spade.h"
#include "src/exec/thread_pool.h"

namespace spade {
namespace e2e {

/// Evaluate `cfs_ids` (ascending) under `options` — the pipeline's options
/// with any per-request overrides applied — and rank the result. Spans:
/// core.cfs (one per fact set, children core.cfs_index, core.analyze,
/// core.enumerate, exec.prepare, exec.lattice), then core.topk and
/// core.present, all under `parent`. EvalStats counters become counts of
/// `request` (exec.lattice_work_ms, exec.lattice_workers, ...).
std::vector<Insight> TracedOnline(const Spade& spade,
                                  const std::vector<uint32_t>& cfs_ids,
                                  const SpadeOptions& options,
                                  TaskScheduler* scheduler, Trace* trace,
                                  Trace::SpanId parent, uint64_t request);

/// `request` resolved the way Spade::Explore resolves it: fact-set names to
/// ids (empty = all) and knob overrides over `base`. False on an unknown
/// name.
bool ResolveRequest(const Spade& spade, const ExploreRequest& request,
                    SpadeOptions base, std::vector<uint32_t>* ids,
                    SpadeOptions* effective);

/// The per-layer metrics one traced online pass yields, read back from the
/// trace: span totals of `request` plus the evaluator's counters.
struct OnlineLayers {
  double cfs_index_ms = 0;
  double analyze_ms = 0;
  double enumerate_ms = 0;
  double prepare_ms = 0;
  double lattice_ms = 0;       ///< EvaluateLattice calls, summed
  double lattice_work_ms = 0;  ///< the evaluator's own work counter
  double lattice_wall_ms = 0;  ///< the evaluator's own wall counter
  double lattice_workers = 0;  ///< partition slices (max over lattices)
  double shard_merge_ms = 0;
  double peak_bitmap_bytes = 0;
  double peak_partial_cells = 0;
  double groups_emitted = 0;
  double mdas_evaluated = 0;
  double topk_ms = 0;
  double present_ms = 0;
};

OnlineLayers ReadOnlineLayers(const Trace& trace, uint64_t request);

}  // namespace e2e
}  // namespace spade

#endif  // SPADE_E2EBENCH_E2E_REPLICA_H_
