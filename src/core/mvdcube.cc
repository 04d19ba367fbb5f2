#include "src/core/mvdcube.h"

#include <algorithm>

#include "src/bitmap/roaring.h"
#include "src/util/timer.h"

namespace spade {

const MeasureVector& MeasureCache::Get(const AttributeStore& db, const CfsIndex& cfs,
                                       AttrId attr) {
  auto it = cache_.find(attr);
  if (it != cache_.end()) return it->second;
  SPADE_FAILPOINT("core.measure.load");
  auto [ins, _] = cache_.emplace(attr, BuildMeasureVector(db, cfs, attr));
  return ins->second;
}

void MeasureCache::Put(AttrId attr, MeasureVector mv) {
  cache_.emplace(attr, std::move(mv));
}

Mmst BuildMmstForSpec(const AttributeStore& db, const CfsIndex& cfs,
                      const LatticeSpec& spec,
                      std::vector<DimensionEncoding>* encodings,
                      int partition_chunk) {
  encodings->clear();
  encodings->reserve(spec.dims.size());
  std::vector<int> extents;
  for (AttrId d : spec.dims) {
    encodings->push_back(BuildDimensionEncoding(db, cfs, d));
    extents.push_back(encodings->back().domain_size());
  }
  return Mmst::Build(extents, partition_chunk);
}

namespace {

/// Bitmap cell for the scaffold.
struct BitmapCell {
  RoaringBitmap facts;
  bool Empty() const { return facts.Empty(); }
};

/// One MDA to evaluate at a lattice node.
struct NodeMda {
  size_t measure_index;  ///< into the lattice's measure list
  Arm::Handle handle;
  /// Index into the node's fold-slot list (the distinct measure attrs this
  /// node folds, computed once per node), or -1 for count(*). Several MDAs
  /// over the same attr (count/sum/avg/min/max) share one slot — the
  /// measure column is folded once per group, not once per MDA.
  int fold_slot = -1;
};

/// Value of a non-count(*) MDA over one group, from its column's fold.
double FoldedValue(sparql::AggFunc func, const simd::FoldResult& acc) {
  switch (func) {
    case sparql::AggFunc::kCount:
      return acc.count;
    case sparql::AggFunc::kSum:
      return acc.sum;
    case sparql::AggFunc::kAvg:
      return acc.sum / acc.count;
    case sparql::AggFunc::kMin:
      return acc.min;
    case sparql::AggFunc::kMax:
      return acc.max;
  }
  return 0;
}

}  // namespace

MvdCubeStats EvaluateLatticeMvd(const AttributeStore& db, uint32_t cfs_id,
                                const CfsIndex& cfs, const LatticeSpec& spec,
                                const MvdCubeOptions& options, Arm* arm,
                                MeasureCache* measures,
                                const std::set<AggregateKey>* pruned,
                                const Translation* pre_translated,
                                const Mmst* pre_built,
                                const std::vector<DimensionEncoding>*
                                    pre_encodings,
                                TaskScheduler* scheduler,
                                size_t lattice_workers,
                                const CancelCheck* cancel,
                                uint64_t budget_bytes_used) {
  MvdCubeStats stats;
  Timer timer;
  size_t n = spec.dims.size();

  // --- Build MMST (dimension encodings + layout).
  std::vector<DimensionEncoding> local_encodings;
  Mmst local_mmst;
  const Mmst* mmst = pre_built;
  if (mmst == nullptr) {
    local_mmst =
        BuildMmstForSpec(db, cfs, spec, &local_encodings, options.partition_chunk);
    mmst = &local_mmst;
  } else if (pre_encodings == nullptr) {
    // Encodings still needed for value decoding.
    for (AttrId d : spec.dims) {
      local_encodings.push_back(BuildDimensionEncoding(db, cfs, d));
    }
  }
  const std::vector<DimensionEncoding>& encodings =
      pre_encodings != nullptr ? *pre_encodings : local_encodings;
  stats.num_nodes = mmst->nodes().size();
  stats.mmst_memory_cells = mmst->total_memory_cells();

  // --- Data Translation.
  Translation local_translation;
  const Translation* translation = pre_translated;
  if (translation == nullptr) {
    SPADE_FAILPOINT("core.translate");
    TranslationOptions topt;
    topt.max_combos_per_fact = options.max_combos_per_fact;
    local_translation = TranslateData(encodings, mmst->layout(), topt);
    translation = &local_translation;
  }
  for (const auto& p : translation->partitions) {
    stats.translation_cells += p.size();
  }
  stats.translate_ms = timer.ElapsedMillis();
  timer.Restart();

  // --- Measure Loading (shared across lattices via the cache).
  std::vector<const MeasureVector*> loaded(spec.measures.size(), nullptr);
  for (size_t m = 0; m < spec.measures.size(); ++m) {
    if (!spec.measures[m].is_count_star()) {
      loaded[m] = &measures->Get(db, cfs, spec.measures[m].attr);
    }
  }
  stats.measure_load_ms = timer.ElapsedMillis();
  timer.Restart();

  // --- Register MDAs per node; skip already-evaluated and pruned keys.
  size_t num_nodes = size_t{1} << n;
  std::vector<std::vector<NodeMda>> node_mdas(num_nodes);
  for (uint32_t mask = 0; mask < num_nodes; ++mask) {
    std::vector<AttrId> dims;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) dims.push_back(spec.dims[i]);
    }
    for (size_t m = 0; m < spec.measures.size(); ++m) {
      AggregateKey key;
      key.cfs_id = cfs_id;
      key.dims = dims;
      key.measure = spec.measures[m];
      if (pruned != nullptr && pruned->count(key)) {
        ++stats.num_mdas_pruned;
        continue;
      }
      if (arm->IsEvaluated(key)) {
        ++stats.num_mdas_reused;
        continue;
      }
      Arm::Handle handle = arm->Register(key);
      node_mdas[mask].push_back(NodeMda{m, handle, -1});
      ++stats.num_mdas_evaluated;
    }
  }

  // --- Per-node fold plan, built once outside the emit: the distinct
  // measure columns each node touches. The emit then runs one task per
  // (node, distinct attr) and one kernel call per group in it, however many
  // MDAs (count/sum/avg/min/max) share the column.
  const simd::FoldKernel fold_kernel = simd::ResolveFoldKernel(options.simd);
  stats.fold_kernel = fold_kernel.kind;
  std::vector<std::vector<const MeasureVector*>> node_slots(num_nodes);
  for (uint32_t mask = 0; mask < num_nodes; ++mask) {
    for (NodeMda& mda : node_mdas[mask]) {
      if (spec.measures[mda.measure_index].is_count_star()) continue;
      const MeasureVector* mv = loaded[mda.measure_index];
      std::vector<const MeasureVector*>& slots = node_slots[mask];
      size_t s = 0;
      while (s < slots.size() && slots[s] != mv) ++s;
      if (s == slots.size()) slots.push_back(mv);
      mda.fold_slot = static_cast<int>(s);
    }
  }

  // --- Lattice Computation: the partition-parallel scaffold
  // (ParallelLatticeRun) returns every consumed node's groups in canonical
  // order. The same protocol runs at every worker count — one slice,
  // inline, at workers = 1 — so the lists, and the ARM stream fed from
  // them, are identical across all thread/shard/worker configurations.
  // Skip MMST subtrees with no live MDA anywhere below them.
  std::vector<bool> wanted(num_nodes, false);
  for (uint32_t mask = 0; mask < num_nodes; ++mask) {
    wanted[mask] = !node_mdas[mask].empty();
  }
  // Translation emits each partition's (cell, fact) pairs in ascending fact
  // order, so every cell sees its facts ascending: the O(1) ordered-append
  // path applies (no container search, no sorted insert).
  auto load = [](BitmapCell* cell, FactId fact) {
    cell->facts.AppendOrdered(fact);
  };
  auto merge = [](BitmapCell* dst, const BitmapCell& src) {
    dst->facts.UnionWith(src.facts);
  };
  // Collection filter: nodes nobody consumes, and null-coordinate groups —
  // they exist only to feed descendants inside each slice's scaffold.
  auto keep = [&](uint32_t mask, Span<int32_t> coords) {
    if (node_mdas[mask].empty()) return false;
    for (size_t d = 0; d < n; ++d) {
      if ((mask & (1u << d)) && coords[d] >= encodings[d].null_code()) {
        return false;
      }
    }
    return true;
  };
  const std::vector<NodeGroups<BitmapCell>> groups =
      ParallelLatticeRun<BitmapCell>(*mmst, *translation, &wanted,
                                     lattice_workers, scheduler, load, merge,
                                     keep, &stats.lattice, cancel);

  // --- Canonical pre-pass, serial: byte accounting and the budget cut.
  // Every returned group cell coexists here, so their summed footprint is
  // the lattice's peak bitmap memory. Each group counts its fact set's
  // CanonicalBytes(), not the allocation-dependent MemoryBytes(): a group
  // whose partials a multi-slice run unioned holds the same set as the
  // one-slice run's, in differently sized vectors. The running sum over
  // the canonical order is therefore a pure function of the (bit-identical)
  // group stream, and so is the cut: it cannot depend on
  // thread/shard/worker count. A trip refuses the tripping group and
  // everything after it, but deliberately does not touch the shared cancel
  // token — whether some *other* CFS had already been admitted when this
  // one tripped is timing-dependent, so a budget trip must stay local to
  // this CFS for the committed prefix to be config-independent (Spade's
  // commit rule cuts at the first truncated CFS in cfs_id order).
  Timer emit_wall;
  std::vector<size_t> admitted(num_nodes, 0);  // leading groups per node
  for (uint32_t mask = 0; mask < num_nodes; ++mask) {
    const NodeGroups<BitmapCell>& list = groups[mask];
    size_t limit = stats.budget_truncated ? 0 : list.size();
    for (size_t g = 0; g < list.size(); ++g) {
      stats.bitmap_bytes_peak += list[g].second.facts.CanonicalBytes();
      if (!stats.budget_truncated && options.max_bitmap_bytes > 0 &&
          budget_bytes_used + stats.bitmap_bytes_peak >
              options.max_bitmap_bytes) {
        stats.budget_truncated = true;
        limit = g;
      }
    }
    admitted[mask] = limit;
    stats.num_groups_skipped += (list.size() - limit) * node_mdas[mask].size();
  }
  const double prepass_ms = emit_wall.ElapsedMillis();

  // --- Emit: one task per (node, measure column), count(*) its own column.
  // Each task owns the ARM entries of its column's MDAs at its node and
  // walks the node's admitted groups in list order, so every entry sees
  // exactly the serial emit's group sequence. Tasks read the lists in place
  // and count in task-local slots.
  struct EmitTask {
    uint32_t mask;
    int fold_slot;  ///< -1 = count(*)
    std::vector<NodeMda> mdas;
  };
  // Root first: the node with every dim holds the most groups, and its
  // tasks must not be the ones left running alone at the end. Any order
  // gives the same ARM contents.
  std::vector<EmitTask> tasks;
  for (uint32_t mask = static_cast<uint32_t>(num_nodes); mask-- > 0;) {
    if (admitted[mask] == 0) continue;
    const int num_slots = static_cast<int>(node_slots[mask].size());
    for (int slot = -1; slot < num_slots; ++slot) {
      EmitTask task{mask, slot, {}};
      for (const NodeMda& mda : node_mdas[mask]) {
        if (mda.fold_slot == slot) task.mdas.push_back(mda);
      }
      if (!task.mdas.empty()) tasks.push_back(std::move(task));
    }
  }
  const CubeLayout& layout = mmst->layout();
  std::vector<size_t> task_groups(tasks.size(), 0);
  std::vector<double> task_ms(tasks.size(), 0.0);
  auto run_task = [&](size_t t) {
    Timer task_timer;
    const EmitTask& task = tasks[t];
    const NodeGroups<BitmapCell>& list = groups[task.mask];
    const MeasureVector* mv =
        task.fold_slot < 0 ? nullptr : node_slots[task.mask][task.fold_slot];
    std::vector<int32_t> coords(n);
    std::vector<TermId> dim_values;
    dim_values.reserve(n);
    std::vector<uint32_t> fact_span;  ///< full-cell decode buffer, reused
    simd::FoldAcc fold_acc;
    size_t emitted = 0;
    for (size_t g = 0; g < admitted[task.mask]; ++g) {
      // A deadline read per group would cost a clock read each; every
      // 1024th is prompt enough for a run whose output is then discarded.
      if (g % 1024 == 0 && cancel != nullptr && cancel->AbortNow()) break;
      const auto& [cell_id, cell] = list[g];
      UnpackCellMaskedInto(layout, task.mask, cell_id, coords.data());
      dim_values.clear();
      for (size_t d = 0; d < n; ++d) {
        if (task.mask & (1u << d)) {
          dim_values.push_back(encodings[d].values[coords[d]]);
        }
      }
      if (mv == nullptr) {
        const double count = static_cast<double>(cell.facts.Cardinality());
        for (const NodeMda& mda : task.mdas) {
          arm->AddGroup(mda.handle, dim_values, count);
        }
        emitted += task.mdas.size();
        continue;
      }
      // One full-cell decode feeds this column's kernel call (the ⊗ of
      // Figure 5, Section 4.3's intersect-and-fold). The span is the
      // group's sorted fact-id set — a pure function of the group,
      // independent of how the bitmap was assembled — and the kernel's lane
      // order is fixed, so the folded values are bit-identical at every
      // thread/shard/worker/kernel configuration.
      cell.facts.DecodeInto(&fact_span);
      fold_acc.Reset();
      fold_kernel.fn(fact_span.data(), fact_span.size(), mv->count.data(),
                     mv->sum.data(), mv->min.data(), mv->max.data(), &fold_acc);
      const simd::FoldResult acc = simd::Reduce(fold_acc);
      if (acc.count == 0) continue;  // no fact in the group has the measure
      for (const NodeMda& mda : task.mdas) {
        arm->AddGroup(mda.handle, dim_values,
                      FoldedValue(spec.measures[mda.measure_index].func, acc));
      }
      emitted += task.mdas.size();
    }
    task_groups[t] = emitted;
    task_ms[t] = task_timer.ElapsedMillis();
  };
  if (scheduler != nullptr && tasks.size() > 1) {
    scheduler->ParallelFor(tasks.size(), run_task, cancel);
  } else {
    for (size_t t = 0; t < tasks.size(); ++t) run_task(t);
  }
  double emit_work_ms = prepass_ms;
  for (size_t t = 0; t < tasks.size(); ++t) {
    stats.num_groups_emitted += task_groups[t];
    emit_work_ms += task_ms[t];
  }
  stats.lattice.wall_ms += emit_wall.ElapsedMillis();
  stats.lattice.work_ms += emit_work_ms;
  stats.compute_ms = timer.ElapsedMillis();
  return stats;
}

}  // namespace spade
