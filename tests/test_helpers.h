#ifndef SPADE_TESTS_TEST_HELPERS_H_
#define SPADE_TESTS_TEST_HELPERS_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/aggregate.h"
#include "src/core/arm.h"
#include "src/core/mvdcube.h"
#include "src/core/reference.h"
#include "src/rdf/graph.h"
#include "src/store/attribute_store.h"
#include "src/util/rng.h"

namespace spade {
namespace testing_helpers {

/// Shape of one randomly generated dimension.
struct DimSpec {
  int cardinality = 5;
  double multi_prob = 0.0;    ///< chance a fact carries a 2nd/3rd value
  double missing_prob = 0.0;  ///< chance a fact misses the dimension
};

/// Shape of one randomly generated numeric measure.
struct MeasureShape {
  double multi_prob = 0.0;
  double missing_prob = 0.0;
};

/// A self-contained random-analysis fixture: graph, database, CFS and a
/// lattice spec covering all generated dimensions and measures.
struct RandomAnalysis {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<AttributeStore> db;
  std::unique_ptr<CfsIndex> cfs;
  LatticeSpec spec;
};

inline RandomAnalysis MakeRandomAnalysis(uint64_t seed, size_t num_facts,
                                         const std::vector<DimSpec>& dims,
                                         const std::vector<MeasureShape>& measures,
                                         bool with_min_max = true) {
  RandomAnalysis out;
  out.graph = std::make_unique<Graph>();
  Graph& g = *out.graph;
  Dictionary& d = g.dict();
  Rng rng(seed);

  TermId type = d.InternIri("http://t/Fact");
  std::vector<TermId> dim_props, measure_props;
  for (size_t i = 0; i < dims.size(); ++i) {
    dim_props.push_back(d.InternIri("http://t/dim" + std::to_string(i)));
  }
  for (size_t i = 0; i < measures.size(); ++i) {
    measure_props.push_back(d.InternIri("http://t/m" + std::to_string(i)));
  }

  std::vector<TermId> members;
  for (size_t f = 0; f < num_facts; ++f) {
    TermId fact = d.InternIri("http://t/f" + std::to_string(f));
    members.push_back(fact);
    g.Add(fact, g.rdf_type(), type);
    for (size_t i = 0; i < dims.size(); ++i) {
      if (rng.Bernoulli(dims[i].missing_prob)) continue;
      size_t k = 1;
      while (k < 3 && rng.Bernoulli(dims[i].multi_prob)) ++k;
      for (size_t j = 0; j < k; ++j) {
        g.Add(fact, dim_props[i],
              d.InternString("v" + std::to_string(rng.Uniform(
                                       static_cast<uint64_t>(dims[i].cardinality)))));
      }
    }
    for (size_t i = 0; i < measures.size(); ++i) {
      if (rng.Bernoulli(measures[i].missing_prob)) continue;
      size_t k = 1;
      while (k < 3 && rng.Bernoulli(measures[i].multi_prob)) ++k;
      for (size_t j = 0; j < k; ++j) {
        g.Add(fact, measure_props[i],
              d.InternDouble(static_cast<double>(rng.Uniform(1000)) / 4.0));
      }
    }
  }
  g.Freeze();

  out.db = std::make_unique<AttributeStore>(out.graph.get());
  out.db->BuildDirectAttributes();
  out.cfs = std::make_unique<CfsIndex>(members);

  for (size_t i = 0; i < dims.size(); ++i) {
    out.spec.dims.push_back(
        *out.db->FindAttribute("dim" + std::to_string(i)));
  }
  std::sort(out.spec.dims.begin(), out.spec.dims.end());
  out.spec.measures.push_back(MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount});
  for (size_t i = 0; i < measures.size(); ++i) {
    AttrId a = *out.db->FindAttribute("m" + std::to_string(i));
    out.spec.measures.push_back(MeasureSpec{a, sparql::AggFunc::kCount});
    out.spec.measures.push_back(MeasureSpec{a, sparql::AggFunc::kSum});
    out.spec.measures.push_back(MeasureSpec{a, sparql::AggFunc::kAvg});
    if (with_min_max) {
      out.spec.measures.push_back(MeasureSpec{a, sparql::AggFunc::kMin});
      out.spec.measures.push_back(MeasureSpec{a, sparql::AggFunc::kMax});
    }
  }
  return out;
}

/// MVDCube's two steps on one lattice of CFS 0: PrepareLattices (one fact
/// range, inline) into `cache`, then EvaluateLatticeMvd.
inline MvdCubeStats PrepareAndEvaluate(
    const AttributeStore& db, const CfsIndex& cfs, const LatticeSpec& spec,
    const MvdCubeOptions& options, Arm* arm, MeasureCache* cache,
    const std::set<AggregateKey>* pruned = nullptr) {
  std::vector<PreparedLattice> prepared =
      PrepareLattices(db, cfs, {spec}, options, cache);
  return EvaluateLatticeMvd(0, spec, prepared[0], *cache, options, arm, pruned);
}

/// Extract one MDA's result from the ARM in the reference layout.
inline AggregateResult ArmResult(const Arm& arm, const AggregateKey& key) {
  AggregateResult result;
  result.key = key;
  Arm::Handle h = arm.Find(key);
  if (h != Arm::kInvalidHandle) {
    result.groups = arm.stored_groups(h);
  }
  SortGroups(&result);
  return result;
}

/// Structural + numeric comparison of two results (groups sorted).
inline ::testing::AssertionResult SameResult(const AggregateResult& a,
                                             const AggregateResult& b,
                                             double tol = 1e-9) {
  if (a.groups.size() != b.groups.size()) {
    return ::testing::AssertionFailure()
           << "group counts differ: " << a.groups.size() << " vs "
           << b.groups.size();
  }
  for (size_t i = 0; i < a.groups.size(); ++i) {
    if (a.groups[i].dim_values != b.groups[i].dim_values) {
      return ::testing::AssertionFailure() << "group key " << i << " differs";
    }
    double da = a.groups[i].value, db = b.groups[i].value;
    double scale = std::max({1.0, std::fabs(da), std::fabs(db)});
    if (std::fabs(da - db) > tol * scale) {
      return ::testing::AssertionFailure()
             << "group " << i << " value differs: " << da << " vs " << db;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing_helpers
}  // namespace spade

#endif  // SPADE_TESTS_TEST_HELPERS_H_
