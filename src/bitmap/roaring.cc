#include "src/bitmap/roaring.h"

#include <algorithm>

namespace spade {

namespace {

inline uint16_t HighBits(uint32_t v) { return static_cast<uint16_t>(v >> 16); }
inline uint16_t LowBits(uint32_t v) { return static_cast<uint16_t>(v & 0xffff); }

}  // namespace

// ---------------------------------------------------------------------------
// Container-level helpers
// ---------------------------------------------------------------------------

void RoaringBitmap::SetBitRange(std::vector<uint64_t>* bits, uint32_t from,
                                uint32_t to) {
  size_t w1 = from >> 6, w2 = to >> 6;
  uint64_t m1 = ~0ULL << (from & 63);
  uint64_t m2 = ~0ULL >> (63 - (to & 63));
  if (w1 == w2) {
    (*bits)[w1] |= m1 & m2;
    return;
  }
  (*bits)[w1] |= m1;
  for (size_t w = w1 + 1; w < w2; ++w) (*bits)[w] = ~0ULL;
  (*bits)[w2] |= m2;
}

uint32_t RoaringBitmap::Popcount(const std::vector<uint64_t>& bits) {
  uint32_t card = 0;
  for (uint64_t w : bits) card += static_cast<uint32_t>(__builtin_popcountll(w));
  return card;
}

bool RoaringBitmap::ContainerContains(const Container& c, uint16_t low) {
  switch (c.kind) {
    case ContainerKind::kArray:
      return std::binary_search(c.vals.begin(), c.vals.end(), low);
    case ContainerKind::kRun: {
      // Last run with start <= low.
      size_t lo = 0, hi = c.vals.size() / 2;
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (c.vals[2 * mid] <= low) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == 0) return false;
      uint32_t s = c.vals[2 * (lo - 1)];
      return low <= s + c.vals[2 * (lo - 1) + 1];
    }
    case ContainerKind::kBitset:
      return (c.bits[low >> 6] >> (low & 63)) & 1;
  }
  return false;
}

void RoaringBitmap::ArrayToBitset(Container* c) {
  c->bits.assign(kWordsPerBitset, 0);
  for (uint16_t low : c->vals) c->bits[low >> 6] |= (1ULL << (low & 63));
  c->vals.clear();
  c->vals.shrink_to_fit();
  c->kind = ContainerKind::kBitset;
}

void RoaringBitmap::RunToBitset(Container* c) {
  c->bits.assign(kWordsPerBitset, 0);
  for (size_t r = 0; r + 1 < c->vals.size(); r += 2) {
    uint32_t s = c->vals[r];
    SetBitRange(&c->bits, s, s + c->vals[r + 1]);
  }
  c->vals.clear();
  c->vals.shrink_to_fit();
  c->kind = ContainerKind::kBitset;
}

size_t RoaringBitmap::CountRuns(const Container& c) {
  switch (c.kind) {
    case ContainerKind::kArray: {
      size_t runs = c.vals.empty() ? 0 : 1;
      for (size_t i = 1; i < c.vals.size(); ++i) {
        if (c.vals[i] != c.vals[i - 1] + 1) ++runs;
      }
      return runs;
    }
    case ContainerKind::kRun:
      return c.vals.size() / 2;  // canonical: runs are maximal
    case ContainerKind::kBitset: {
      // A run starts at every set bit whose predecessor bit is clear.
      size_t runs = 0;
      uint64_t carry = 0;  // top bit of the previous word
      for (uint64_t w : c.bits) {
        uint64_t starts = w & ~((w << 1) | carry);
        runs += static_cast<size_t>(__builtin_popcountll(starts));
        carry = w >> 63;
      }
      return runs;
    }
  }
  return 0;
}

void RoaringBitmap::ConvertOversizedArray(Container* c) {
  // The array outgrew kArrayToBitsetThreshold. Count maximal runs: the run
  // encoding costs 4 bytes per run, the bitset a flat 8 KiB.
  size_t runs = CountRuns(*c);
  if (runs >= kRunToBitsetThreshold) {
    ArrayToBitset(c);
    return;
  }
  std::vector<uint16_t> pairs;
  pairs.reserve(2 * runs);
  size_t i = 0;
  while (i < c->vals.size()) {
    size_t j = i;
    while (j + 1 < c->vals.size() && c->vals[j + 1] == c->vals[j] + 1) ++j;
    pairs.push_back(c->vals[i]);
    pairs.push_back(static_cast<uint16_t>(c->vals[j] - c->vals[i]));
    i = j + 1;
  }
  c->vals = std::move(pairs);
  c->kind = ContainerKind::kRun;
}

void RoaringBitmap::NormalizeRunContainer(Container* c) {
  size_t runs = c->vals.size() / 2;
  if (runs >= kRunToBitsetThreshold) {
    RunToBitset(c);
    return;
  }
  // 2 bytes/value (array) vs 4 bytes/run: expand when the array is smaller
  // and legal (<= threshold entries).
  if (c->card <= kArrayToBitsetThreshold && c->card < 2 * runs) {
    std::vector<uint16_t> arr;
    arr.reserve(c->card);
    for (size_t r = 0; r + 1 < c->vals.size(); r += 2) {
      uint32_t v = c->vals[r];
      uint32_t end = v + c->vals[r + 1];
      for (; v <= end; ++v) arr.push_back(static_cast<uint16_t>(v));
    }
    c->vals = std::move(arr);
    c->kind = ContainerKind::kArray;
  }
}

bool RoaringBitmap::ArrayAdd(Container* c, uint16_t low) {
  auto it = std::lower_bound(c->vals.begin(), c->vals.end(), low);
  if (it != c->vals.end() && *it == low) return false;
  c->vals.insert(it, low);
  ++c->card;
  if (c->vals.size() > kArrayToBitsetThreshold) ConvertOversizedArray(c);
  return true;
}

bool RoaringBitmap::RunAdd(Container* c, uint16_t low) {
  size_t nr = c->vals.size() / 2;
  // lo = number of runs with start <= low.
  size_t lo = 0, hi = nr;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (c->vals[2 * mid] <= low) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  uint32_t v = low;
  if (lo > 0) {
    uint32_t s = c->vals[2 * (lo - 1)];
    if (v <= s + c->vals[2 * (lo - 1) + 1]) return false;  // inside a run
  }
  bool extend_prev =
      lo > 0 && static_cast<uint32_t>(c->vals[2 * (lo - 1)]) +
                        c->vals[2 * (lo - 1) + 1] + 1 ==
                    v;
  bool extend_next = lo < nr && static_cast<uint32_t>(c->vals[2 * lo]) == v + 1;
  if (extend_prev && extend_next) {
    uint32_t ns = c->vals[2 * (lo - 1)];
    uint32_t ne = static_cast<uint32_t>(c->vals[2 * lo]) + c->vals[2 * lo + 1];
    c->vals[2 * (lo - 1) + 1] = static_cast<uint16_t>(ne - ns);
    c->vals.erase(c->vals.begin() + 2 * lo, c->vals.begin() + 2 * lo + 2);
  } else if (extend_prev) {
    ++c->vals[2 * (lo - 1) + 1];
  } else if (extend_next) {
    c->vals[2 * lo] = low;
    ++c->vals[2 * lo + 1];
  } else {
    c->vals.insert(c->vals.begin() + 2 * lo, {low, 0});
  }
  ++c->card;
  if (c->vals.size() / 2 >= kRunToBitsetThreshold) RunToBitset(c);
  return true;
}

bool RoaringBitmap::BitsetAdd(Container* c, uint16_t low) {
  uint64_t& word = c->bits[low >> 6];
  uint64_t mask = 1ULL << (low & 63);
  if ((word & mask) != 0) return false;
  word |= mask;
  ++c->card;
  return true;
}

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

void RoaringBitmap::Spill() {
  spilled_ = true;
  // Inline values are sorted and distinct: the ordered-append path rebuilds
  // them as containers without any search.
  for (size_t i = 0; i < inline_size_; ++i) AppendToContainers(inline_vals_[i]);
  inline_size_ = 0;
}

const RoaringBitmap::Container* RoaringBitmap::Find(uint16_t key) const {
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, uint16_t k) { return c.key < k; });
  if (it != containers_.end() && it->key == key) return &*it;
  return nullptr;
}

bool RoaringBitmap::AddToContainers(uint32_t value) {
  uint16_t key = HighBits(value);
  uint16_t low = LowBits(value);
  auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, uint16_t k) { return c.key < k; });
  if (it == containers_.end() || it->key != key) {
    Container c;
    c.key = key;
    it = containers_.insert(it, std::move(c));
  }
  switch (it->kind) {
    case ContainerKind::kArray:
      return ArrayAdd(&*it, low);
    case ContainerKind::kRun:
      return RunAdd(&*it, low);
    case ContainerKind::kBitset:
      return BitsetAdd(&*it, low);
  }
  return false;
}

bool RoaringBitmap::AppendToContainers(uint32_t value) {
  uint16_t key = HighBits(value);
  uint16_t low = LowBits(value);
  if (containers_.empty() || containers_.back().key < key) {
    Container c;
    c.key = key;
    c.vals.push_back(low);
    c.card = 1;
    containers_.push_back(std::move(c));
    return true;
  }
  Container& c = containers_.back();
  if (c.key > key) {
    assert(false && "AppendOrdered: out-of-order value (earlier chunk)");
    return AddToContainers(value);
  }
  switch (c.kind) {
    case ContainerKind::kArray: {
      uint16_t back = c.vals.back();  // array containers are never empty
      if (low == back) return false;
      if (low < back) {
        assert(false && "AppendOrdered: out-of-order value (array)");
        return AddToContainers(value);
      }
      c.vals.push_back(low);
      ++c.card;
      if (c.vals.size() > kArrayToBitsetThreshold) ConvertOversizedArray(&c);
      return true;
    }
    case ContainerKind::kRun: {
      size_t last = c.vals.size() - 2;
      uint32_t s = c.vals[last];
      uint32_t e = s + c.vals[last + 1];
      if (low <= e) {
        if (low >= s) return false;  // duplicate of the tail run
        assert(false && "AppendOrdered: out-of-order value (run)");
        return AddToContainers(value);
      }
      if (low == e + 1) {
        ++c.vals[last + 1];
      } else {
        c.vals.push_back(low);
        c.vals.push_back(0);
      }
      ++c.card;
      if (c.vals.size() / 2 >= kRunToBitsetThreshold) RunToBitset(&c);
      return true;
    }
    case ContainerKind::kBitset:
      // No order to maintain; a bit set is O(1) anyway.
      return BitsetAdd(&c, low);
  }
  return false;
}

void RoaringBitmap::Add(uint32_t value) {
  if (!spilled_) {
    size_t pos = 0;
    while (pos < inline_size_ && inline_vals_[pos] < value) ++pos;
    if (pos < inline_size_ && inline_vals_[pos] == value) return;
    if (inline_size_ < kInlineCapacity) {
      for (size_t i = inline_size_; i > pos; --i) {
        inline_vals_[i] = inline_vals_[i - 1];
      }
      inline_vals_[pos] = value;
      ++inline_size_;
      ++cardinality_;
      return;
    }
    Spill();
  }
  if (AddToContainers(value)) ++cardinality_;
}

void RoaringBitmap::AppendOrdered(uint32_t value) {
  if (!spilled_) {
    if (inline_size_ == 0 || value > inline_vals_[inline_size_ - 1]) {
      if (inline_size_ < kInlineCapacity) {
        inline_vals_[inline_size_++] = value;
        ++cardinality_;
        return;
      }
      Spill();
      if (AppendToContainers(value)) ++cardinality_;
      return;
    }
    if (value == inline_vals_[inline_size_ - 1]) return;
    assert(false && "AppendOrdered: out-of-order value (inline)");
    Add(value);
    return;
  }
  if (AppendToContainers(value)) ++cardinality_;
}

bool RoaringBitmap::Contains(uint32_t value) const {
  if (!spilled_) {
    for (size_t i = 0; i < inline_size_; ++i) {
      if (inline_vals_[i] == value) return true;
      if (inline_vals_[i] > value) return false;
    }
    return false;
  }
  const Container* c = Find(HighBits(value));
  return c != nullptr && ContainerContains(*c, LowBits(value));
}

// ---------------------------------------------------------------------------
// Union
// ---------------------------------------------------------------------------

void RoaringBitmap::MergeRunsInto(const Container& a, const Container& b,
                                  std::vector<uint16_t>* out_runs,
                                  uint32_t* out_card) {
  // Merge the two ascending interval streams (array values read as maximal
  // intervals) into one canonical run list.
  auto next = [](const Container& c, size_t* i, uint32_t* s,
                 uint32_t* e) -> bool {
    if (*i >= c.vals.size()) return false;
    if (c.kind == ContainerKind::kArray) {
      size_t j = *i;
      while (j + 1 < c.vals.size() && c.vals[j + 1] == c.vals[j] + 1) ++j;
      *s = c.vals[*i];
      *e = c.vals[j];
      *i = j + 1;
    } else {
      *s = c.vals[*i];
      *e = *s + c.vals[*i + 1];
      *i += 2;
    }
    return true;
  };
  out_runs->clear();
  uint64_t card = 0;
  auto push = [&](uint32_t s, uint32_t e) {
    if (!out_runs->empty()) {
      size_t last = out_runs->size() - 2;
      uint32_t ls = (*out_runs)[last];
      uint32_t le = ls + (*out_runs)[last + 1];
      if (s <= le + 1) {  // overlapping or adjacent: extend the tail run
        if (e > le) {
          (*out_runs)[last + 1] = static_cast<uint16_t>(e - ls);
          card += e - le;
        }
        return;
      }
    }
    out_runs->push_back(static_cast<uint16_t>(s));
    out_runs->push_back(static_cast<uint16_t>(e - s));
    card += e - s + 1;
  };
  size_t ia = 0, ib = 0;
  uint32_t sa = 0, ea = 0, sb = 0, eb = 0;
  bool ha = next(a, &ia, &sa, &ea);
  bool hb = next(b, &ib, &sb, &eb);
  while (ha || hb) {
    if (ha && (!hb || sa <= sb)) {
      push(sa, ea);
      ha = next(a, &ia, &sa, &ea);
    } else {
      push(sb, eb);
      hb = next(b, &ib, &sb, &eb);
    }
  }
  *out_card = static_cast<uint32_t>(card);
}

void RoaringBitmap::UnionContainerInPlace(Container* dst, const Container& src) {
  // Reused scratch: the lattice folds thousands of cells into one bitmap;
  // per-call vector allocations would dominate the small-cell shapes.
  thread_local std::vector<uint16_t> scratch16;
  if (dst->kind == ContainerKind::kBitset) {
    switch (src.kind) {
      case ContainerKind::kArray:
        for (uint16_t low : src.vals) {
          uint64_t& word = dst->bits[low >> 6];
          uint64_t mask = 1ULL << (low & 63);
          if ((word & mask) == 0) {
            word |= mask;
            ++dst->card;
          }
        }
        return;
      case ContainerKind::kRun:
        for (size_t r = 0; r + 1 < src.vals.size(); r += 2) {
          uint32_t s = src.vals[r];
          SetBitRange(&dst->bits, s, s + src.vals[r + 1]);
        }
        dst->card = Popcount(dst->bits);
        return;
      case ContainerKind::kBitset: {
        uint32_t card = 0;
        for (size_t w = 0; w < kWordsPerBitset; ++w) {
          dst->bits[w] |= src.bits[w];
          card += static_cast<uint32_t>(__builtin_popcountll(dst->bits[w]));
        }
        dst->card = card;
        return;
      }
    }
  }
  if (src.kind == ContainerKind::kBitset) {
    // The one unavoidable copy: the result is a bitset and dst is not.
    std::vector<uint64_t> bits = src.bits;
    uint32_t card = src.card;
    if (dst->kind == ContainerKind::kArray) {
      for (uint16_t low : dst->vals) {
        uint64_t& word = bits[low >> 6];
        uint64_t mask = 1ULL << (low & 63);
        if ((word & mask) == 0) {
          word |= mask;
          ++card;
        }
      }
    } else {
      for (size_t r = 0; r + 1 < dst->vals.size(); r += 2) {
        uint32_t s = dst->vals[r];
        SetBitRange(&bits, s, s + dst->vals[r + 1]);
      }
      card = Popcount(bits);
    }
    dst->vals.clear();
    dst->vals.shrink_to_fit();
    dst->bits = std::move(bits);
    dst->card = card;
    dst->kind = ContainerKind::kBitset;
    return;
  }
  if (dst->kind == ContainerKind::kArray && src.kind == ContainerKind::kArray) {
    scratch16.clear();
    std::set_union(dst->vals.begin(), dst->vals.end(), src.vals.begin(),
                   src.vals.end(), std::back_inserter(scratch16));
    dst->vals.assign(scratch16.begin(), scratch16.end());
    dst->card = static_cast<uint32_t>(dst->vals.size());
    if (dst->vals.size() > kArrayToBitsetThreshold) ConvertOversizedArray(dst);
    return;
  }
  // At least one run operand, no bitset: canonical run merge via scratch.
  uint32_t card = 0;
  MergeRunsInto(*dst, src, &scratch16, &card);
  dst->vals.assign(scratch16.begin(), scratch16.end());
  dst->card = card;
  dst->kind = ContainerKind::kRun;
  NormalizeRunContainer(dst);
}

void RoaringBitmap::UnionWith(const RoaringBitmap& other) {
  if (&other == this || other.Empty()) return;
  if (!other.spilled_) {
    for (size_t i = 0; i < other.inline_size_; ++i) Add(other.inline_vals_[i]);
    return;
  }
  if (!spilled_) {
    // Start from a copy of the (larger) spilled side, then add our few
    // inline values into it.
    uint32_t tmp[kInlineCapacity];
    size_t n = inline_size_;
    for (size_t i = 0; i < n; ++i) tmp[i] = inline_vals_[i];
    containers_ = other.containers_;
    cardinality_ = other.cardinality_;
    spilled_ = true;
    inline_size_ = 0;
    for (size_t i = 0; i < n; ++i) Add(tmp[i]);
    return;
  }
  // Both spilled: one merge walk over the two sorted container lists.
  // Matched keys union in place (no container copies, no list rebuild); the
  // list is rebuilt — once — only when src brings keys dst lacks, which the
  // first walk counts.
  size_t i = 0, j = 0, missing = 0;
  while (i < containers_.size() && j < other.containers_.size()) {
    if (containers_[i].key < other.containers_[j].key) {
      ++i;
    } else if (other.containers_[j].key < containers_[i].key) {
      ++missing;
      ++j;
    } else {
      UnionContainerInPlace(&containers_[i], other.containers_[j]);
      ++i;
      ++j;
    }
  }
  missing += other.containers_.size() - j;
  if (missing > 0) {
    std::vector<Container> out;
    out.reserve(containers_.size() + missing);
    i = 0;
    j = 0;
    while (i < containers_.size() && j < other.containers_.size()) {
      if (containers_[i].key <= other.containers_[j].key) {
        if (containers_[i].key == other.containers_[j].key) ++j;  // merged above
        out.push_back(std::move(containers_[i++]));
      } else {
        out.push_back(other.containers_[j++]);
      }
    }
    while (i < containers_.size()) out.push_back(std::move(containers_[i++]));
    while (j < other.containers_.size()) out.push_back(other.containers_[j++]);
    containers_ = std::move(out);
  }
  cardinality_ = 0;
  for (const Container& c : containers_) cardinality_ += c.card;
}

// ---------------------------------------------------------------------------
// Intersection
// ---------------------------------------------------------------------------

void RoaringBitmap::IntersectPair(Container* dst, const Container& src) {
  // Filter a sorted value array against runs with one forward walk.
  auto filter_array_by_runs = [](const std::vector<uint16_t>& arr,
                                 const std::vector<uint16_t>& runs,
                                 std::vector<uint16_t>* out) {
    size_t r = 0;
    for (uint16_t v : arr) {
      while (r + 1 < runs.size() &&
             static_cast<uint32_t>(runs[r]) + runs[r + 1] < v) {
        r += 2;
      }
      if (r + 1 < runs.size() && runs[r] <= v &&
          v <= static_cast<uint32_t>(runs[r]) + runs[r + 1]) {
        out->push_back(v);
      }
    }
  };
  switch (dst->kind) {
    case ContainerKind::kArray: {
      std::vector<uint16_t> kept;
      kept.reserve(dst->vals.size());
      switch (src.kind) {
        case ContainerKind::kArray:
          std::set_intersection(dst->vals.begin(), dst->vals.end(),
                                src.vals.begin(), src.vals.end(),
                                std::back_inserter(kept));
          break;
        case ContainerKind::kRun:
          filter_array_by_runs(dst->vals, src.vals, &kept);
          break;
        case ContainerKind::kBitset:
          for (uint16_t low : dst->vals) {
            if ((src.bits[low >> 6] >> (low & 63)) & 1) kept.push_back(low);
          }
          break;
      }
      dst->vals = std::move(kept);
      dst->card = static_cast<uint32_t>(dst->vals.size());
      return;
    }
    case ContainerKind::kRun:
      switch (src.kind) {
        case ContainerKind::kArray: {
          // Result has at most |src| values: an array.
          std::vector<uint16_t> kept;
          kept.reserve(src.vals.size());
          filter_array_by_runs(src.vals, dst->vals, &kept);
          dst->vals = std::move(kept);
          dst->card = static_cast<uint32_t>(dst->vals.size());
          dst->kind = ContainerKind::kArray;
          return;
        }
        case ContainerKind::kRun: {
          // Interval intersection, two-pointer walk.
          std::vector<uint16_t> out;
          uint64_t card = 0;
          size_t i = 0, j = 0;
          while (i + 1 < dst->vals.size() && j + 1 < src.vals.size()) {
            uint32_t s1 = dst->vals[i], e1 = s1 + dst->vals[i + 1];
            uint32_t s2 = src.vals[j], e2 = s2 + src.vals[j + 1];
            uint32_t s = std::max(s1, s2), e = std::min(e1, e2);
            if (s <= e) {
              out.push_back(static_cast<uint16_t>(s));
              out.push_back(static_cast<uint16_t>(e - s));
              card += e - s + 1;
            }
            if (e1 <= e2) {
              i += 2;
            } else {
              j += 2;
            }
          }
          dst->vals = std::move(out);
          dst->card = static_cast<uint32_t>(card);
          NormalizeRunContainer(dst);
          return;
        }
        case ContainerKind::kBitset: {
          // Keep the bitset bits that fall inside our runs.
          std::vector<uint64_t> bits(kWordsPerBitset, 0);
          std::vector<uint64_t> mask(kWordsPerBitset, 0);
          for (size_t r = 0; r + 1 < dst->vals.size(); r += 2) {
            uint32_t s = dst->vals[r];
            SetBitRange(&mask, s, s + dst->vals[r + 1]);
          }
          for (size_t w = 0; w < kWordsPerBitset; ++w) {
            bits[w] = src.bits[w] & mask[w];
          }
          dst->vals.clear();
          dst->vals.shrink_to_fit();
          dst->bits = std::move(bits);
          dst->kind = ContainerKind::kBitset;
          dst->card = Popcount(dst->bits);
          break;  // fall through to the bitset shrink below
        }
      }
      break;
    case ContainerKind::kBitset:
      switch (src.kind) {
        case ContainerKind::kArray: {
          // At most |src| survivors: convert to an array.
          std::vector<uint16_t> kept;
          kept.reserve(src.vals.size());
          for (uint16_t low : src.vals) {
            if ((dst->bits[low >> 6] >> (low & 63)) & 1) kept.push_back(low);
          }
          dst->bits.clear();
          dst->bits.shrink_to_fit();
          dst->kind = ContainerKind::kArray;
          dst->vals = std::move(kept);
          dst->card = static_cast<uint32_t>(dst->vals.size());
          return;
        }
        case ContainerKind::kRun: {
          std::vector<uint64_t> mask(kWordsPerBitset, 0);
          for (size_t r = 0; r + 1 < src.vals.size(); r += 2) {
            uint32_t s = src.vals[r];
            SetBitRange(&mask, s, s + src.vals[r + 1]);
          }
          for (size_t w = 0; w < kWordsPerBitset; ++w) dst->bits[w] &= mask[w];
          dst->card = Popcount(dst->bits);
          break;
        }
        case ContainerKind::kBitset: {
          uint32_t card = 0;
          for (size_t w = 0; w < kWordsPerBitset; ++w) {
            dst->bits[w] &= src.bits[w];
            card += static_cast<uint32_t>(__builtin_popcountll(dst->bits[w]));
          }
          dst->card = card;
          break;
        }
      }
      break;
  }
  // A bitset result that shrank below the array threshold converts back —
  // intersections can hollow a dense container out.
  if (dst->kind == ContainerKind::kBitset && dst->card > 0 &&
      dst->card <= kArrayToBitsetThreshold) {
    std::vector<uint16_t> arr;
    arr.reserve(dst->card);
    for (size_t w = 0; w < kWordsPerBitset; ++w) {
      uint64_t word = dst->bits[w];
      while (word != 0) {
        int bit = __builtin_ctzll(word);
        arr.push_back(static_cast<uint16_t>(w * 64 + bit));
        word &= word - 1;
      }
    }
    dst->bits.clear();
    dst->bits.shrink_to_fit();
    dst->vals = std::move(arr);
    dst->kind = ContainerKind::kArray;
  }
}

void RoaringBitmap::IntersectWith(const RoaringBitmap& other) {
  if (&other == this || Empty()) return;
  if (other.Empty()) {
    Clear();
    return;
  }
  if (!spilled_) {
    size_t w = 0;
    for (size_t i = 0; i < inline_size_; ++i) {
      if (other.Contains(inline_vals_[i])) inline_vals_[w++] = inline_vals_[i];
    }
    inline_size_ = static_cast<uint8_t>(w);
    cardinality_ = w;
    return;
  }
  if (!other.spilled_) {
    // Result is a subset of other's <= kInlineCapacity values: go inline.
    uint32_t kept[kInlineCapacity];
    size_t n = 0;
    for (size_t i = 0; i < other.inline_size_; ++i) {
      if (Contains(other.inline_vals_[i])) kept[n++] = other.inline_vals_[i];
    }
    Clear();
    for (size_t i = 0; i < n; ++i) inline_vals_[i] = kept[i];
    inline_size_ = static_cast<uint8_t>(n);
    cardinality_ = n;
    return;
  }
  std::vector<Container> kept;
  kept.reserve(std::min(containers_.size(), other.containers_.size()));
  size_t i = 0, j = 0;
  while (i < containers_.size() && j < other.containers_.size()) {
    if (containers_[i].key < other.containers_[j].key) {
      ++i;
    } else if (other.containers_[j].key < containers_[i].key) {
      ++j;
    } else {
      IntersectPair(&containers_[i], other.containers_[j]);
      if (containers_[i].card > 0) kept.push_back(std::move(containers_[i]));
      ++i;
      ++j;
    }
  }
  containers_ = std::move(kept);
  cardinality_ = 0;
  for (const Container& c : containers_) cardinality_ += c.card;
}

// ---------------------------------------------------------------------------
// Decode / misc
// ---------------------------------------------------------------------------

void RoaringBitmap::Clear() {
  containers_.clear();
  containers_.shrink_to_fit();
  spilled_ = false;
  inline_size_ = 0;
  cardinality_ = 0;
}

void RoaringBitmap::DecodeContainer(const Container& c, uint32_t* out) {
  uint32_t base = static_cast<uint32_t>(c.key) << 16;
  switch (c.kind) {
    case ContainerKind::kArray:
      for (uint16_t low : c.vals) *out++ = base | low;
      break;
    case ContainerKind::kRun:
      for (size_t r = 0; r + 1 < c.vals.size(); r += 2) {
        uint32_t v = c.vals[r];
        uint32_t end = v + c.vals[r + 1];
        for (; v <= end; ++v) *out++ = base | v;
      }
      break;
    case ContainerKind::kBitset:
      for (size_t w = 0; w < kWordsPerBitset; ++w) {
        uint64_t word = c.bits[w];
        while (word != 0) {
          int bit = __builtin_ctzll(word);
          *out++ = base | static_cast<uint32_t>(w * 64 + bit);
          word &= word - 1;
        }
      }
      break;
  }
}

void RoaringBitmap::DecodeInto(std::vector<uint32_t>* out) const {
  // Reserve from the O(1) cached cardinality first: when `out` is a reused
  // scratch buffer growing across calls, resize alone would re-grow it
  // geometrically (copying the stale prefix); reserve makes the single
  // exact-size allocation up front and resize then never reallocates.
  out->reserve(cardinality_);
  out->resize(cardinality_);
  if (cardinality_ == 0) return;
  uint32_t* p = out->data();
  if (!spilled_) {
    for (size_t i = 0; i < inline_size_; ++i) *p++ = inline_vals_[i];
    return;
  }
  for (const Container& c : containers_) {
    DecodeContainer(c, p);
    p += c.card;
  }
}

std::vector<uint32_t> RoaringBitmap::ToVector() const {
  std::vector<uint32_t> out;
  DecodeInto(&out);
  return out;
}

uint64_t RoaringBitmap::MemoryBytes() const {
  uint64_t bytes = sizeof(*this);
  if (!spilled_) return bytes;  // inline: no heap at all
  bytes += containers_.capacity() * sizeof(Container);
  for (const Container& c : containers_) {
    bytes += c.vals.capacity() * sizeof(uint16_t);
    bytes += c.bits.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

uint64_t RoaringBitmap::CanonicalBytes() const {
  uint64_t bytes = sizeof(*this);
  if (cardinality_ <= kInlineCapacity) return bytes;
  bytes += containers_.size() * sizeof(Container);
  for (const Container& c : containers_) {
    uint64_t payload = std::min<uint64_t>(4 * CountRuns(c),
                                          kWordsPerBitset * sizeof(uint64_t));
    if (c.card <= kArrayToBitsetThreshold) {
      payload = std::min<uint64_t>(payload, 2 * uint64_t{c.card});
    }
    bytes += payload;
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Equality
// ---------------------------------------------------------------------------

bool RoaringBitmap::ContainersEqual(const Container& a, const Container& b) {
  // Callers have checked key and cardinality equality; with equal
  // cardinalities, containment implies equality, which the mixed-kind
  // branches rely on.
  if (a.kind == b.kind) {
    // Array values and canonical run lists are unique encodings; bitsets
    // compare word-wise.
    return a.kind == ContainerKind::kBitset ? a.bits == b.bits
                                            : a.vals == b.vals;
  }
  const Container& x = a.kind < b.kind ? a : b;  // kArray < kRun < kBitset
  const Container& y = a.kind < b.kind ? b : a;
  if (x.kind == ContainerKind::kArray && y.kind == ContainerKind::kRun) {
    size_t r = 0;
    for (uint16_t v : x.vals) {
      while (r + 1 < y.vals.size() &&
             static_cast<uint32_t>(y.vals[r]) + y.vals[r + 1] < v) {
        r += 2;
      }
      if (r + 1 >= y.vals.size() || y.vals[r] > v) return false;
    }
    return true;
  }
  if (x.kind == ContainerKind::kArray && y.kind == ContainerKind::kBitset) {
    for (uint16_t low : x.vals) {
      if (((y.bits[low >> 6] >> (low & 63)) & 1) == 0) return false;
    }
    return true;
  }
  // Run vs bitset: every run range must be fully set.
  std::vector<uint64_t> mask(kWordsPerBitset, 0);
  for (size_t r = 0; r + 1 < x.vals.size(); r += 2) {
    uint32_t s = x.vals[r];
    SetBitRange(&mask, s, s + x.vals[r + 1]);
  }
  for (size_t w = 0; w < kWordsPerBitset; ++w) {
    if ((y.bits[w] & mask[w]) != mask[w]) return false;
  }
  return true;
}

bool RoaringBitmap::operator==(const RoaringBitmap& other) const {
  if (cardinality_ != other.cardinality_) return false;
  if (cardinality_ == 0) return true;
  if (!spilled_ || !other.spilled_) {
    // One side is inline, so both hold <= kInlineCapacity values.
    uint32_t a[kInlineCapacity], b[kInlineCapacity];
    size_t na = 0, nb = 0;
    ForEach([&](uint32_t v) { a[na++] = v; });
    other.ForEach([&](uint32_t v) { b[nb++] = v; });
    return std::equal(a, a + na, b);
  }
  if (containers_.size() != other.containers_.size()) return false;
  for (size_t i = 0; i < containers_.size(); ++i) {
    const Container& x = containers_[i];
    const Container& y = other.containers_[i];
    if (x.key != y.key || x.card != y.card) return false;
    if (!ContainersEqual(x, y)) return false;
  }
  return true;
}

}  // namespace spade
