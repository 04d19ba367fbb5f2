#include "src/core/lattice.h"

#include <algorithm>
#include <numeric>

namespace spade {

DimensionEncoding BuildDimensionEncoding(const AttributeStore& db, const CfsIndex& cfs,
                                         AttrId attr) {
  const AttributeTable& table = db.attribute(attr);
  DimensionEncoding enc;
  enc.attr = attr;
  enc.fact_codes.resize(cfs.size());

  // Record the matched (member, subject-slice) pairs once, reused by both
  // passes below.
  std::vector<std::pair<size_t, size_t>> matches;  // (member index, subject index)
  ForEachCfsMatch(table, cfs.members(), [&](size_t mi, size_t si) {
    matches.emplace_back(mi, si);
  });

  // Pass 1: distinct values among CFS facts.
  std::vector<TermId> values;
  for (const auto& [mi, si] : matches) {
    (void)mi;
    Span<TermId> vals = table.values(si);
    values.insert(values.end(), vals.begin(), vals.end());
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  enc.values = std::move(values);

  // Pass 2: per-fact code lists (value slices are sorted and deduplicated,
  // so the code lists come out sorted and unique directly).
  for (const auto& [mi, si] : matches) {
    std::vector<int32_t>& codes = enc.fact_codes[mi];
    Span<TermId> vals = table.values(si);
    codes.reserve(vals.size());
    for (TermId o : vals) {
      auto it = std::lower_bound(enc.values.begin(), enc.values.end(), o);
      codes.push_back(static_cast<int32_t>(it - enc.values.begin()));
    }
    if (codes.size() >= 2) ++enc.num_multi_facts;
  }
  return enc;
}

uint64_t CubeLayout::EncodePartition(const std::vector<int>& chunk_coords) const {
  uint64_t p = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    int d = order[k];
    p = p * static_cast<uint64_t>(num_chunks[d]) +
        static_cast<uint64_t>(chunk_coords[d]);
  }
  return p;
}

std::vector<int> CubeLayout::DecodePartition(uint64_t p) const {
  std::vector<int> cc(order.size(), 0);
  DecodePartitionInto(p, &cc);
  return cc;
}

void CubeLayout::DecodePartitionInto(uint64_t p, std::vector<int>* chunk_coords) const {
  chunk_coords->resize(order.size());
  for (size_t k = order.size(); k-- > 0;) {
    int d = order[k];
    (*chunk_coords)[d] = static_cast<int>(p % static_cast<uint64_t>(num_chunks[d]));
    p /= static_cast<uint64_t>(num_chunks[d]);
  }
}

uint64_t CubeLayout::PackCell(const std::vector<int32_t>& coords) const {
  uint64_t cell = 0;
  for (size_t i = 0; i < extent.size(); ++i) {
    cell = cell * static_cast<uint64_t>(extent[i]) +
           static_cast<uint64_t>(coords[i]);
  }
  return cell;
}

std::vector<int32_t> CubeLayout::UnpackCell(uint64_t cell) const {
  std::vector<int32_t> coords(extent.size());
  for (size_t i = extent.size(); i-- > 0;) {
    coords[i] = static_cast<int32_t>(cell % static_cast<uint64_t>(extent[i]));
    cell /= static_cast<uint64_t>(extent[i]);
  }
  return coords;
}

namespace {

/// Memory cells of node `mask` under dimension order `pos` (pos[d] =
/// position, 0 slowest): a dim needs its full extent iff a missing dim with
/// more than one chunk varies slower than it; otherwise one chunk suffices.
uint64_t NodeMemory(uint32_t mask, const std::vector<int>& pos,
                    const std::vector<int>& extent, const std::vector<int>& chunk,
                    const std::vector<int>& num_chunks, uint32_t* full_mask_out) {
  size_t n = extent.size();
  uint64_t cells = 1;
  uint32_t full_mask = 0;
  for (size_t d = 0; d < n; ++d) {
    if (!(mask & (1u << d))) continue;
    bool full = false;
    for (size_t j = 0; j < n; ++j) {
      if (mask & (1u << j)) continue;  // j present: not a missing dim
      if (num_chunks[j] <= 1) continue;
      if (pos[j] < pos[d]) {
        full = true;
        break;
      }
    }
    if (full) full_mask |= (1u << d);
    cells *= static_cast<uint64_t>(full ? extent[d] : chunk[d]);
  }
  if (full_mask_out != nullptr) *full_mask_out = full_mask;
  return cells;
}

}  // namespace

Mmst Mmst::Build(const std::vector<int>& extents, int target_chunk) {
  Mmst mmst;
  size_t n = extents.size();
  CubeLayout& layout = mmst.layout_;
  layout.extent = extents;
  layout.chunk.resize(n);
  layout.num_chunks.resize(n);
  for (size_t d = 0; d < n; ++d) {
    layout.chunk[d] = std::max(1, std::min(target_chunk, extents[d]));
    layout.num_chunks[d] =
        (extents[d] + layout.chunk[d] - 1) / layout.chunk[d];
  }

  // Exact search over dimension orders (N <= 4 in the pipeline; guard larger
  // N by falling back to the descending-extent heuristic order).
  std::vector<int> best_order(n);
  std::iota(best_order.begin(), best_order.end(), 0);
  if (n <= 6) {
    std::vector<int> perm(best_order);
    std::sort(perm.begin(), perm.end());
    uint64_t best_total = ~0ULL;
    do {
      std::vector<int> pos(n);
      for (size_t k = 0; k < n; ++k) pos[perm[k]] = static_cast<int>(k);
      uint64_t total = 0;
      for (uint32_t mask = 0; mask < (1u << n); ++mask) {
        total += NodeMemory(mask, pos, layout.extent, layout.chunk,
                            layout.num_chunks, nullptr);
      }
      if (total < best_total) {
        best_total = total;
        best_order = perm;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  } else {
    std::sort(best_order.begin(), best_order.end(),
              [&](int a, int b) { return extents[a] > extents[b]; });
  }
  layout.order = best_order;
  layout.pos.resize(n);
  for (size_t k = 0; k < n; ++k) layout.pos[layout.order[k]] = static_cast<int>(k);
  layout.num_partitions = 1;
  for (size_t d = 0; d < n; ++d) {
    layout.num_partitions *= static_cast<uint64_t>(layout.num_chunks[d]);
  }

  // Materialize the 2^N nodes.
  mmst.nodes_.resize(1u << n);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    MmstNode& node = mmst.nodes_[mask];
    node.mask = mask;
    for (size_t d = 0; d < n; ++d) {
      if (mask & (1u << d)) node.dims.push_back(static_cast<int>(d));
    }
    node.memory_cells = NodeMemory(mask, layout.pos, layout.extent, layout.chunk,
                                   layout.num_chunks, &node.full_mask);
    node.local_extent.resize(node.dims.size());
    node.stride.resize(node.dims.size());
    for (size_t k = 0; k < node.dims.size(); ++k) {
      int d = node.dims[k];
      node.local_extent[k] =
          (node.full_mask & (1u << d)) ? layout.extent[d] : layout.chunk[d];
    }
    uint64_t stride = 1;
    for (size_t k = node.dims.size(); k-- > 0;) {
      node.stride[k] = stride;
      stride *= static_cast<uint64_t>(node.local_extent[k]);
    }
  }

  // Parent choice: among the |missing dims| candidate parents, pick the one
  // whose in-memory array is smallest — propagation scans the parent array.
  uint32_t root_mask = (n == 0) ? 0 : ((1u << n) - 1);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (mask == root_mask) continue;
    MmstNode& node = mmst.nodes_[mask];
    uint64_t best_mem = ~0ULL;
    for (size_t d = 0; d < n; ++d) {
      if (mask & (1u << d)) continue;
      uint32_t parent_mask = mask | (1u << d);
      uint64_t mem = mmst.nodes_[parent_mask].memory_cells;
      if (mem < best_mem) {
        best_mem = mem;
        node.parent = static_cast<int>(parent_mask);
        node.dropped_dim = static_cast<int>(d);
      }
    }
    mmst.nodes_[node.parent].children.push_back(static_cast<int>(mask));
  }

  // Cache the derived views consumed per scaffold invocation: the topological
  // order (parents first — more mask bits first) and the summed memory cells.
  mmst.topo_order_.resize(mmst.nodes_.size());
  std::iota(mmst.topo_order_.begin(), mmst.topo_order_.end(), 0);
  std::sort(mmst.topo_order_.begin(), mmst.topo_order_.end(),
            [&mmst](int a, int b) {
              int pa = __builtin_popcount(mmst.nodes_[a].mask);
              int pb = __builtin_popcount(mmst.nodes_[b].mask);
              if (pa != pb) return pa > pb;
              return a < b;
            });
  mmst.total_memory_cells_ = 0;
  for (const auto& node : mmst.nodes_) {
    mmst.total_memory_cells_ += node.memory_cells;
  }
  return mmst;
}

Translation TranslateData(const std::vector<DimensionEncoding>& dims,
                          const CubeLayout& layout,
                          const TranslationOptions& options) {
  Translation out;
  size_t n = dims.size();
  out.partitions.resize(layout.num_partitions);
  size_t num_facts = n == 0 ? 0 : dims[0].fact_codes.size();
  FactId begin = options.fact_begin;
  FactId end = static_cast<FactId>(
      std::min<size_t>(options.fact_end, num_facts));

  std::vector<const std::vector<int32_t>*> lists(n);
  std::vector<size_t> odo(n);
  std::vector<int32_t> coords(n);
  std::vector<int> chunk_coords(n);
  // A fact missing dimension d maps to the constant one-element list
  // {null_code(d)} — build those lists once, not per fact.
  std::vector<std::vector<int32_t>> null_lists(n);
  for (size_t d = 0; d < n; ++d) null_lists[d] = {dims[d].null_code()};

  for (FactId fact = begin; fact < end; ++fact) {
    bool any_value = false;
    size_t combos = 1;
    for (size_t d = 0; d < n; ++d) {
      const std::vector<int32_t>& codes = dims[d].fact_codes[fact];
      if (codes.empty()) {
        lists[d] = &null_lists[d];
      } else {
        lists[d] = &codes;
        any_value = true;
      }
      combos *= lists[d]->size();
    }
    if (!any_value) continue;  // Section 4.3: facts need >= 1 dimension value
    ++out.num_facts_translated;
    if (combos > options.max_combos_per_fact) {
      out.num_dropped_combos += combos;
      continue;
    }

    // Odometer over the cross-product of value code lists.
    std::fill(odo.begin(), odo.end(), 0);
    while (true) {
      for (size_t d = 0; d < n; ++d) {
        coords[d] = (*lists[d])[odo[d]];
        chunk_coords[d] = coords[d] / layout.chunk[d];
      }
      uint64_t cell = layout.PackCell(coords);
      uint64_t p = layout.EncodePartition(chunk_coords);
      out.partitions[p].emplace_back(cell, fact);

      if (options.sample_capacity > 0) {
        // Early-stop's stratified sample: the exact root-group size and a
        // reservoir (Vitter's algorithm R) per root group.
        uint32_t& count = out.root_group_count[cell];
        ++count;
        std::vector<FactId>& reservoir = out.reservoirs[cell];
        if (reservoir.size() < options.sample_capacity) {
          reservoir.push_back(fact);
        } else {
          uint64_t j = options.rng->Uniform(count);
          if (j < options.sample_capacity) reservoir[j] = fact;
        }
      }

      // Advance odometer.
      size_t d = n;
      while (d-- > 0) {
        if (++odo[d] < lists[d]->size()) break;
        odo[d] = 0;
        if (d == 0) goto fact_done;
      }
      if (n == 0) break;
    }
  fact_done:;
  }
  return out;
}

std::vector<PartitionSlice> MakePartitionSlices(const Translation& data,
                                                uint64_t num_partitions,
                                                size_t num_slices) {
  std::vector<PartitionSlice> out;
  if (num_partitions == 0) {
    out.push_back(PartitionSlice{0, 0});
    return out;
  }
  uint64_t slices = std::min<uint64_t>(std::max<size_t>(1, num_slices),
                                       num_partitions);
  uint64_t total_pairs = 0;
  for (const auto& p : data.partitions) total_pairs += p.size();
  uint64_t target = std::max<uint64_t>(1, (total_pairs + slices - 1) / slices);

  uint64_t begin = 0;
  uint64_t acc = 0;
  for (uint64_t p = 0; p < num_partitions; ++p) {
    if (p < data.partitions.size()) acc += data.partitions[p].size();
    bool last_slice = out.size() + 1 == slices;
    if (!last_slice && acc >= target && p + 1 < num_partitions) {
      out.push_back(PartitionSlice{begin, p + 1});
      begin = p + 1;
      acc = 0;
    }
  }
  out.push_back(PartitionSlice{begin, num_partitions});
  return out;
}

}  // namespace spade
