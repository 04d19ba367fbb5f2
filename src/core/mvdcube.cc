#include "src/core/mvdcube.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>

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

/// Translate every lattice of `out` over `ranges` (two or more): one task
/// per (lattice, range) translates its range, a serial prefix sum sizes
/// every partition, and one task per (lattice, range) copies its pairs to
/// its offsets. False when cancelled.
bool TranslateRanges(const std::vector<FactRange>& ranges,
                     const TranslationOptions& topt, TaskScheduler* scheduler,
                     const CancelCheck* cancel, double* sizing_ms,
                     std::vector<PreparedLattice>* out) {
  const size_t num_ranges = ranges.size();
  const size_t num_tasks = out->size() * num_ranges;
  std::vector<Translation> partials(num_tasks);  // [lattice * R + range]
  scheduler->ParallelFor(
      num_tasks,
      [&](size_t t) {
        SPADE_FAILPOINT("core.translate");
        const PreparedLattice& lattice = (*out)[t / num_ranges];
        TranslationOptions range_opt = topt;
        range_opt.fact_begin = ranges[t % num_ranges].begin;
        range_opt.fact_end = ranges[t % num_ranges].end;
        partials[t] =
            TranslateData(lattice.encodings, lattice.mmst.layout(), range_opt);
      },
      cancel);
  if (cancel != nullptr && cancel->AbortNow()) return false;

  // Partition p of range r starts where the ranges before r end in it.
  Timer sizing_timer;
  std::vector<std::vector<size_t>> offsets(num_tasks);
  for (size_t li = 0; li < out->size(); ++li) {
    Translation& whole = (*out)[li].translation;
    whole.partitions.resize((*out)[li].mmst.layout().num_partitions);
    for (size_t p = 0; p < whole.partitions.size(); ++p) {
      size_t size = 0;
      for (size_t t = li * num_ranges; t < (li + 1) * num_ranges; ++t) {
        offsets[t].push_back(size);
        size += partials[t].partitions[p].size();
      }
      whole.partitions[p].resize(size);
    }
    for (size_t t = li * num_ranges; t < (li + 1) * num_ranges; ++t) {
      whole.num_facts_translated += partials[t].num_facts_translated;
      whole.num_dropped_combos += partials[t].num_dropped_combos;
    }
  }
  if (sizing_ms != nullptr) *sizing_ms += sizing_timer.ElapsedMillis();

  scheduler->ParallelFor(
      num_tasks,
      [&](size_t t) {
        Translation& whole = (*out)[t / num_ranges].translation;
        const auto& parts = partials[t].partitions;
        for (size_t p = 0; p < parts.size(); ++p) {
          std::copy(parts[p].begin(), parts[p].end(),
                    whole.partitions[p].begin() +
                        static_cast<std::ptrdiff_t>(offsets[t][p]));
        }
        partials[t] = Translation();  // release the range's copy early
      },
      cancel);
  return cancel == nullptr || !cancel->AbortNow();
}

/// Load the measures of `lattices` that `measures` lacks: one task per
/// (attribute, range), each writing the disjoint slots of its range.
void LoadMeasures(const AttributeStore& db, const CfsIndex& cfs,
                  const std::vector<LatticeSpec>& lattices,
                  const std::vector<FactRange>& ranges,
                  TaskScheduler* scheduler, const CancelCheck* cancel,
                  MeasureCache* measures) {
  std::set<AttrId> attr_set;
  for (const LatticeSpec& spec : lattices) {
    for (const MeasureSpec& m : spec.measures) {
      if (!m.is_count_star() && !measures->Contains(m.attr)) {
        attr_set.insert(m.attr);
      }
    }
  }
  const std::vector<AttrId> attrs(attr_set.begin(), attr_set.end());
  const size_t num_ranges = ranges.size();
  std::vector<MeasureVector> vectors(attrs.size());
  for (MeasureVector& mv : vectors) mv.Init(cfs.size());
  std::vector<MeasureFillFlags> flags(attrs.size() * num_ranges);
  scheduler->ParallelFor(
      flags.size(),
      [&](size_t t) {
        SPADE_FAILPOINT("core.measure.load");
        flags[t] = FillMeasureVectorRange(db, cfs, attrs[t / num_ranges],
                                          ranges[t % num_ranges],
                                          &vectors[t / num_ranges]);
      },
      cancel);
  if (cancel != nullptr && cancel->AbortNow()) return;
  for (size_t a = 0; a < attrs.size(); ++a) {
    MeasureVector& mv = vectors[a];
    mv.numeric = true;
    mv.single_valued = true;
    for (size_t t = a * num_ranges; t < (a + 1) * num_ranges; ++t) {
      mv.numeric &= flags[t].numeric;
      mv.single_valued &= flags[t].single_valued;
    }
    measures->Put(attrs[a], std::move(mv));
  }
}

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
double FoldedValue(sparql::AggFunc func, const FoldResult& acc) {
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

std::vector<PreparedLattice> PrepareLattices(
    const AttributeStore& db, const CfsIndex& cfs,
    const std::vector<LatticeSpec>& lattices, const MvdCubeOptions& options,
    MeasureCache* measures, TaskScheduler* scheduler, size_t num_ranges,
    const CancelCheck* cancel, size_t sample_capacity, Rng* rng,
    double* sizing_ms) {
  TaskScheduler inline_scheduler(nullptr);
  if (scheduler == nullptr) scheduler = &inline_scheduler;
  // Every fan-out takes the cancel check, and AbortNow() stays true once it
  // fires, so each stage returns before the next could read a skipped
  // task's hole.
  auto aborted = [&] { return cancel != nullptr && cancel->AbortNow(); };
  std::vector<PreparedLattice> out(lattices.size());

  // Encodings: one task per (lattice, dimension); then the MMSTs.
  std::vector<std::pair<size_t, size_t>> dim_tasks;
  for (size_t li = 0; li < lattices.size(); ++li) {
    out[li].encodings.resize(lattices[li].dims.size());
    for (size_t d = 0; d < lattices[li].dims.size(); ++d) {
      dim_tasks.emplace_back(li, d);
    }
  }
  scheduler->ParallelFor(
      dim_tasks.size(),
      [&](size_t t) {
        const auto [li, d] = dim_tasks[t];
        out[li].encodings[d] =
            BuildDimensionEncoding(db, cfs, lattices[li].dims[d]);
      },
      cancel);
  if (aborted()) return out;
  for (PreparedLattice& lattice : out) {
    std::vector<int> extents;
    for (const DimensionEncoding& enc : lattice.encodings) {
      extents.push_back(enc.domain_size());
    }
    lattice.mmst = Mmst::Build(extents, options.partition_chunk);
  }

  // Translation. Sampling runs in lattice order on this thread: every
  // lattice's reservoirs draw from the one `rng` stream.
  TranslationOptions topt;
  topt.max_combos_per_fact = options.max_combos_per_fact;
  topt.sample_capacity = sample_capacity;
  topt.rng = rng;
  const std::vector<FactRange> ranges =
      MakeFactShards(cfs.size(), sample_capacity > 0 ? 1 : num_ranges);
  auto translate = [&](size_t li) {
    SPADE_FAILPOINT("core.translate");
    out[li].translation =
        TranslateData(out[li].encodings, out[li].mmst.layout(), topt);
  };
  if (sample_capacity > 0) {
    for (size_t li = 0; li < out.size() && !aborted(); ++li) translate(li);
  } else if (ranges.size() == 1) {
    scheduler->ParallelFor(out.size(), translate, cancel);
  } else if (!TranslateRanges(ranges, topt, scheduler, cancel, sizing_ms,
                              &out)) {
    return out;
  }
  if (aborted()) return out;

  LoadMeasures(db, cfs, lattices, ranges, scheduler, cancel, measures);
  return out;
}

MvdCubeStats EvaluateLatticeMvd(uint32_t cfs_id, const LatticeSpec& spec,
                                const PreparedLattice& prepared,
                                const MeasureCache& measures,
                                const MvdCubeOptions& options, Arm* arm,
                                const std::set<AggregateKey>* pruned,
                                TaskScheduler* scheduler,
                                size_t lattice_workers,
                                const CancelCheck* cancel,
                                uint64_t budget_bytes_used) {
  MvdCubeStats stats;
  size_t n = spec.dims.size();
  const std::vector<DimensionEncoding>& encodings = prepared.encodings;
  const Mmst& mmst = prepared.mmst;
  stats.num_nodes = mmst.nodes().size();

  std::vector<const MeasureVector*> loaded(spec.measures.size(), nullptr);
  for (size_t m = 0; m < spec.measures.size(); ++m) {
    if (!spec.measures[m].is_count_star()) {
      loaded[m] = &measures.At(spec.measures[m].attr);
    }
  }

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
  // (node, distinct attr) and one fold per group in it, however many MDAs
  // (count/sum/avg/min/max) share the column.
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
      ParallelLatticeRun<BitmapCell>(mmst, prepared.translation, &wanted,
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
  const CubeLayout& layout = mmst.layout();
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
      // One full-cell decode feeds this column's fold (the ⊗ of Figure 5,
      // Section 4.3's intersect-and-fold). The span is the group's sorted
      // fact-id set — a pure function of the group, independent of how the
      // bitmap was assembled — and the fold's lane order is fixed, so the
      // folded values are bit-identical at every thread/shard/worker count.
      cell.facts.DecodeInto(&fact_span);
      const FoldResult acc = FoldMeasure(fact_span, *mv);
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
  return stats;
}

}  // namespace spade
