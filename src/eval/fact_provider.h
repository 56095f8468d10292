#ifndef DEDDB_EVAL_FACT_PROVIDER_H_
#define DEDDB_EVAL_FACT_PROVIDER_H_

#include <functional>
#include <vector>

#include "storage/fact_store.h"

namespace deddb {

/// Read-only source of ground facts for one or more predicates. The
/// evaluators resolve every extensional lookup through this interface, which
/// lets the interpretation layer plug in transactions (base event facts) and
/// layered old/new state views without copying data.
class FactProvider {
 public:
  virtual ~FactProvider() = default;

  /// Invokes `fn` for every tuple of `predicate` matching `pattern`.
  virtual void ForEachMatch(
      SymbolId predicate, const TuplePattern& pattern,
      const std::function<void(const Tuple&)>& fn) const = 0;

  /// True if the ground fact `predicate(tuple)` is present.
  virtual bool Contains(SymbolId predicate, const Tuple& tuple) const = 0;

  /// Like ForEachMatch, but `fn` returns false to stop the enumeration.
  /// Returns true if stopped early. The default adapter cannot abort the
  /// underlying scan (it only suppresses callbacks); sources backed by lazy
  /// evaluation (OldStateView) override it with true streaming, which is
  /// what makes satisfiability probes on derived predicates cheap.
  virtual bool ForEachMatchUntil(
      SymbolId predicate, const TuplePattern& pattern,
      const std::function<bool(const Tuple&)>& fn) const {
    bool stopped = false;
    ForEachMatch(predicate, pattern, [&](const Tuple& t) {
      if (!stopped && !fn(t)) stopped = true;
    });
    return stopped;
  }

  /// Rough number of facts stored for `predicate`; used by the join planner
  /// to lead with small relations (e.g. transaction events). Sources that
  /// cannot estimate should return kUnknownCount.
  virtual size_t EstimateCount(SymbolId /*predicate*/) const {
    return kUnknownCount;
  }

  /// Estimated number of tuples of `predicate` matching a selection that
  /// binds exactly the columns of `bound_mask` (Relation::Mask semantics).
  /// Value-independent; the join planner ranks candidate literals with it.
  /// The default ignores the mask and falls back to EstimateCount.
  virtual size_t EstimateMatches(SymbolId predicate,
                                 Relation::Mask /*bound_mask*/) const {
    return EstimateCount(predicate);
  }

  /// The access path a ForEachMatch with `bound_mask`'s columns fixed would
  /// take, for EXPLAIN. The default is an unknown-cost scan; relation-backed
  /// sources report their real index choice.
  virtual Relation::AccessPath DescribeAccess(
      SymbolId predicate, Relation::Mask /*bound_mask*/) const {
    Relation::AccessPath path;
    path.kind = Relation::AccessPath::Kind::kScan;
    path.estimated_rows = EstimateCount(predicate);
    return path;
  }

  static constexpr size_t kUnknownCount = SIZE_MAX;
};

/// The DescribeAccess of a source that stores `predicate` in `rel`
/// (nullptr: nothing stored, an empty access).
Relation::AccessPath RelationAccess(const Relation* rel,
                                    Relation::Mask bound_mask);

/// FactProvider over a FactStore. Unknown predicates are simply empty.
class FactStoreProvider : public FactProvider {
 public:
  explicit FactStoreProvider(const FactStore* store) : store_(store) {}

  void ForEachMatch(SymbolId predicate, const TuplePattern& pattern,
                    const std::function<void(const Tuple&)>& fn) const override;
  bool Contains(SymbolId predicate, const Tuple& tuple) const override;
  size_t EstimateCount(SymbolId predicate) const override;
  size_t EstimateMatches(SymbolId predicate,
                         Relation::Mask bound_mask) const override;
  Relation::AccessPath DescribeAccess(SymbolId predicate,
                                      Relation::Mask bound_mask) const override;

 private:
  const FactStore* store_;
};

/// Union of several providers, consulted in order. A fact present in several
/// layers is reported once per layer by ForEachMatch; set-semantics callers
/// (all evaluators here) deduplicate via their own stores.
class LayeredProvider : public FactProvider {
 public:
  explicit LayeredProvider(std::vector<const FactProvider*> layers)
      : layers_(std::move(layers)) {}

  void ForEachMatch(SymbolId predicate, const TuplePattern& pattern,
                    const std::function<void(const Tuple&)>& fn) const override;
  bool ForEachMatchUntil(
      SymbolId predicate, const TuplePattern& pattern,
      const std::function<bool(const Tuple&)>& fn) const override;
  bool Contains(SymbolId predicate, const Tuple& tuple) const override;
  size_t EstimateCount(SymbolId predicate) const override;
  size_t EstimateMatches(SymbolId predicate,
                         Relation::Mask bound_mask) const override;
  /// The first layer with any facts for `predicate` describes the access
  /// (other layers are empty for a given predicate in the evaluators'
  /// idb-over-edb layerings); the estimate sums all layers.
  Relation::AccessPath DescribeAccess(SymbolId predicate,
                                      Relation::Mask bound_mask) const override;

 private:
  std::vector<const FactProvider*> layers_;
};

/// A provider with no facts at all.
class EmptyProvider : public FactProvider {
 public:
  void ForEachMatch(SymbolId, const TuplePattern&,
                    const std::function<void(const Tuple&)>&) const override {}
  bool Contains(SymbolId, const Tuple&) const override { return false; }
  size_t EstimateCount(SymbolId) const override { return 0; }
};

}  // namespace deddb

#endif  // DEDDB_EVAL_FACT_PROVIDER_H_
