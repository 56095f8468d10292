#include "eval/join_plan.h"

#include <algorithm>
#include <cassert>

#include "util/strings.h"

namespace deddb {

namespace {

// Blocks are row-major flat arrays; `rows` is explicit because zero-variable
// rules have width 0.
struct Block {
  std::vector<SymbolId> data;
  size_t rows = 0;

  void Clear() {
    data.clear();
    rows = 0;
  }
};

bool MaskableColumn(size_t pos) { return pos < Relation::kMaxMaskColumns; }

// Which of a rule's variables are bound, by slot (slot i holds the i-th
// distinct variable; `slot_vars` must outlive this). The ordering heuristic
// and the step compiler walk the body with one of these. Rules have few
// variables, so slots are found by linear search, allocation-free.
class SlotBindings {
 public:
  explicit SlotBindings(const std::vector<VarId>& slot_vars)
      : slot_vars_(&slot_vars), bound_(slot_vars.size(), false) {}

  std::optional<size_t> FindSlot(VarId var) const {
    for (size_t i = 0; i < slot_vars_->size(); ++i) {
      if ((*slot_vars_)[i] == var) return i;
    }
    return std::nullopt;
  }
  size_t SlotOf(VarId var) const {
    std::optional<size_t> slot = FindSlot(var);
    assert(slot.has_value());  // every variable of the rule has a slot
    return *slot;
  }

  // Marks `var` bound; returns its slot if it is a variable of the rule and
  // was not bound yet.
  std::optional<size_t> Bind(VarId var) {
    std::optional<size_t> slot = FindSlot(var);
    if (!slot.has_value() || bound_[*slot]) return std::nullopt;
    bound_[*slot] = true;
    return slot;
  }
  bool IsBound(const Term& t) const {
    return t.is_constant() || bound_[SlotOf(t.variable())];
  }

  void MarkBound(const Atom& atom) {
    for (const Term& t : atom.args()) {
      if (t.is_variable()) bound_[SlotOf(t.variable())] = true;
    }
  }
  bool IsGround(const Atom& atom) const {
    for (const Term& t : atom.args()) {
      if (!IsBound(t)) return false;
    }
    return true;
  }
  Relation::Mask MaskOf(const Atom& atom) const {
    Relation::Mask mask = 0;
    for (size_t j = 0; j < atom.arity(); ++j) {
      if (IsBound(atom.args()[j]) && MaskableColumn(j)) {
        mask |= Relation::Mask{1} << j;
      }
    }
    return mask;
  }
  size_t BoundArgs(const Atom& atom) const {
    size_t n = 0;
    for (const Term& t : atom.args()) {
      if (IsBound(t)) ++n;
    }
    return n;
  }
  // Distinct unbound variables of `atom`.
  size_t UnboundVars(const Atom& atom) const {
    const std::vector<Term>& args = atom.args();
    size_t n = 0;
    for (size_t j = 0; j < args.size(); ++j) {
      if (IsBound(args[j])) continue;
      bool repeat = false;
      for (size_t k = 0; k < j && !repeat; ++k) repeat = args[k] == args[j];
      if (!repeat) ++n;
    }
    return n;
  }

 private:
  const std::vector<VarId>* slot_vars_;
  std::vector<bool> bound_;
};

// The ordering heuristic (see JoinPlan::Order). Consumes `bindings`, which
// start at the initially bound variables.
Result<std::vector<size_t>> OrderBody(
    const std::vector<Literal>& body,
    const std::function<const FactProvider&(size_t)>& provider_for,
    const JoinPlan::Options& options, SlotBindings bindings) {
  std::vector<size_t> order;
  std::vector<bool> used(body.size(), false);
  order.reserve(body.size());
  if (options.forced_first.has_value()) {
    assert(*options.forced_first < body.size());
    size_t f = *options.forced_first;
    order.push_back(f);
    used[f] = true;
    bindings.MarkBound(body[f].atom());
  }
  while (order.size() < body.size()) {
    size_t pick = body.size();
    if (options.strategy == JoinStrategy::kNaiveNestedLoop) {
      // Textual order; a negative literal waits only until it is ground.
      for (size_t i = 0; i < body.size() && pick == body.size(); ++i) {
        if (used[i]) continue;
        if (body[i].positive() || bindings.IsGround(body[i].atom())) pick = i;
      }
    } else {
      // Ground negatives are free filters: the first one goes next, unless
      // a ground positive of known cost (a stored fact: one key probe) is
      // available too. That positive goes first, so a ground negative never
      // jumps ahead of an equally ground, cheap positive. Estimates are
      // asked for only when the two compete.
      for (size_t i = 0; i < body.size() && pick == body.size(); ++i) {
        if (!used[i] && body[i].negative() &&
            bindings.IsGround(body[i].atom())) {
          pick = i;
        }
      }
      if (pick < body.size()) {
        for (size_t i = 0; i < body.size(); ++i) {
          const Atom& atom = body[i].atom();
          if (used[i] || body[i].negative() || !bindings.IsGround(atom)) {
            continue;
          }
          if (provider_for(i).EstimateMatches(atom.predicate(),
                                              bindings.MaskOf(atom)) !=
              FactProvider::kUnknownCount) {
            pick = i;
            break;
          }
        }
      }
      if (pick == body.size()) {
        // Cheapest positive by estimated matching rows under the current
        // bindings; ties favor more bound arguments, then fewer unbound
        // variables, then the lowest body index (strict-improvement scan).
        size_t best_cost = 0, best_bound = 0, best_unbound = 0;
        for (size_t i = 0; i < body.size(); ++i) {
          if (used[i] || body[i].negative()) continue;
          const Atom& atom = body[i].atom();
          size_t cost = provider_for(i).EstimateMatches(
              atom.predicate(), bindings.MaskOf(atom));
          size_t b = bindings.BoundArgs(atom);
          size_t u = bindings.UnboundVars(atom);
          if (pick == body.size() || cost < best_cost ||
              (cost == best_cost &&
               (b > best_bound || (b == best_bound && u < best_unbound)))) {
            pick = i;
            best_cost = cost;
            best_bound = b;
            best_unbound = u;
          }
        }
      }
    }
    if (pick == body.size()) {
      return InternalError(
          "no safe evaluation order: negative literal with unbound "
          "variables (rule bypassed allowedness validation?)");
    }
    used[pick] = true;
    order.push_back(pick);
    bindings.MarkBound(body[pick].atom());
  }
  return order;
}

}  // namespace

Result<std::vector<size_t>> JoinPlan::Order(
    const Rule& rule,
    const std::function<const FactProvider&(size_t)>& provider_for,
    const Options& options) {
  const std::vector<VarId> slot_vars = rule.DistinctVariables();
  SlotBindings bindings(slot_vars);
  for (VarId v : options.initially_bound) bindings.Bind(v);
  return OrderBody(rule.body(), provider_for, options, std::move(bindings));
}

Result<JoinPlan> JoinPlan::Build(
    const Rule& rule,
    const std::function<const FactProvider&(size_t)>& provider_for,
    const Options& options) {
  JoinPlan plan;
  plan.head_predicate_ = rule.head().predicate();
  plan.slot_vars_ = rule.DistinctVariables();
  SlotBindings bindings(plan.slot_vars_);
  for (VarId v : options.initially_bound) {
    if (std::optional<size_t> slot = bindings.Bind(v)) {
      plan.initially_bound_slots_.push_back(*slot);
    }
  }
  const std::vector<Literal>& body = rule.body();
  DEDDB_ASSIGN_OR_RETURN(plan.order_,
                         OrderBody(body, provider_for, options, bindings));

  // ---- Step compilation ---------------------------------------------------
  const bool naive = options.strategy == JoinStrategy::kNaiveNestedLoop;
  for (size_t idx : plan.order_) {
    const Literal& lit = body[idx];
    const Atom& atom = lit.atom();
    Step step;
    step.arity = atom.arity();
    step.info.literal = idx;
    step.info.negative = lit.negative();
    step.info.predicate = atom.predicate();
    step.info.bound_mask = bindings.MaskOf(atom);
    for (size_t j = 0; j < atom.arity(); ++j) {
      const Term& t = atom.args()[j];
      if (t.is_constant()) {
        if (naive && lit.positive()) {
          step.check_ops.push_back(CheckOp{j, false, 0, t.constant()});
        } else {
          step.pattern_ops.push_back(PatternOp{j, false, 0, t.constant()});
        }
        continue;
      }
      size_t slot = bindings.SlotOf(t.variable());
      if (bindings.IsBound(t)) {
        if (naive && lit.positive()) {
          step.check_ops.push_back(CheckOp{j, true, slot, 0});
        } else {
          step.pattern_ops.push_back(PatternOp{j, true, slot, 0});
        }
      } else {
        if (lit.negative()) {
          return InternalError(
              "negative literal reached with unbound variables during body "
              "evaluation");
        }
        bool bound_here = false;  // by an earlier argument of this atom
        for (const BindOp& op : step.bind_ops) bound_here |= op.slot == slot;
        if (!bound_here) {
          step.bind_ops.push_back(BindOp{j, slot});
        } else {
          // Repeated fresh variable within one atom: the bind op wrote the
          // slot, later occurrences check against it.
          step.check_ops.push_back(CheckOp{j, true, slot, 0});
        }
      }
    }
    // Access path: negatives are always a ground membership probe; naive
    // positives are always a filtered scan; planned positives ask the
    // provider what the probe pattern will hit.
    if (lit.negative()) {
      step.info.access.kind = Relation::AccessPath::Kind::kKeyLookup;
      step.info.access.estimated_rows = 1;
    } else if (naive) {
      step.info.access.kind = Relation::AccessPath::Kind::kScan;
      step.info.access.estimated_rows =
          provider_for(idx).EstimateCount(atom.predicate());
    } else {
      step.info.access = provider_for(idx).DescribeAccess(
          atom.predicate(), step.info.bound_mask);
    }
    if (lit.positive()) bindings.MarkBound(atom);
    plan.steps_.push_back(step.info);
    plan.plan_steps_.push_back(std::move(step));
  }

  // ---- Head template ------------------------------------------------------
  for (const Term& t : rule.head().args()) {
    if (t.is_constant()) {
      plan.head_ops_.push_back(HeadOp{false, 0, t.constant()});
    } else {
      std::optional<size_t> slot = bindings.FindSlot(t.variable());
      if (!slot.has_value() || !bindings.IsBound(t)) {
        return InternalError(
            "head variable not bound by the body (rule bypassed allowedness "
            "validation?)");
      }
      plan.head_ops_.push_back(HeadOp{true, *slot, 0});
    }
  }
  return plan;
}

Result<std::vector<SymbolId>> JoinPlan::InitialRow(
    const Substitution& subst) const {
  std::vector<SymbolId> row(slot_vars_.size(), kUnboundSlot);
  for (size_t slot : initially_bound_slots_) {
    Term t = subst.Apply(Term::MakeVariable(slot_vars_[slot]));
    if (!t.is_constant()) {
      return InvalidArgumentError(
          "initially-bound variable does not resolve to a constant");
    }
    row[slot] = t.constant();
  }
  return row;
}

Status JoinPlan::CheckInitialRow(const std::vector<SymbolId>& initial) const {
  if (initial.empty() && !initially_bound_slots_.empty()) {
    return InvalidArgumentError(
        "plan has initially-bound variables but got no initial row (use "
        "InitialRow)");
  }
  if (!initial.empty() && initial.size() != slot_vars_.size()) {
    return InvalidArgumentError("initial row width does not match plan");
  }
  return Status::Ok();
}

void JoinPlan::HeadTupleInto(const SymbolId* row, Tuple* out) const {
  out->clear();
  out->reserve(head_ops_.size());
  for (const HeadOp& op : head_ops_) {
    out->push_back(op.from_slot ? row[op.slot] : op.value);
  }
}

// Block-at-a-time interpreter for one Execute call. Per step it keeps an
// output block, a reusable probe pattern (constants pre-filled), and one
// persistent match callback, so the per-row cost is slot copies plus the
// provider probe — no substitution maps, no atom rewrites, no per-row
// allocations. Blocks flush downstream at kFlushRows, which bounds memory at
// O(#steps x kFlushRows x width) while keeping whole-block amortization.
// Flushes happen only between input rows, so a provider enumeration is never
// live while emissions run user code (which may mutate the stores the next
// probe reads — the serial evaluator derives into the idb mid-round).
class BlockExecutor {
 public:
  BlockExecutor(const JoinPlan& plan,
                const std::function<const FactProvider&(size_t)>& provider_for,
                const std::function<void(const SymbolId* row)>& emit,
                const ResourceGuard* guard, JoinPlan::ExecStats* stats)
      : plan_(plan),
        provider_for_(provider_for),
        emit_(emit),
        guard_(guard),
        stats_(stats),
        width_(plan.slot_vars_.size()) {}

  Result<size_t> Run(const std::vector<SymbolId>& initial) {
    const auto& steps = plan_.plan_steps_;
    DEDDB_RETURN_IF_ERROR(plan_.CheckInitialRow(initial));
    states_.resize(steps.size());
    rows_after_.assign(steps.size(), 0);
    for (size_t i = 0; i < steps.size(); ++i) {
      StepState& st = states_[i];
      const JoinPlan::Step& step = steps[i];
      st.pattern.assign(step.arity, std::nullopt);
      for (const JoinPlan::PatternOp& op : step.pattern_ops) {
        if (!op.from_slot) st.pattern[op.pos] = op.value;
      }
      st.callback = [this, i](const Tuple& t) { OnMatch(i, t); };
    }

    Block root;
    root.rows = 1;
    root.data = initial.empty() ? std::vector<SymbolId>(width_, 0) : initial;
    RunFrom(0, root);
    if (!error_.ok()) return error_;
    if (stats_ != nullptr) {
      if (stats_->rows.size() != rows_after_.size()) {
        stats_->rows.assign(rows_after_.size(), 0);
      }
      for (size_t i = 0; i < rows_after_.size(); ++i) {
        stats_->rows[i] += rows_after_[i];
      }
    }
    return emissions_;
  }

 private:
  // Rows per output block before it is flushed downstream. A single probe's
  // matches always land in one block, so blocks can overshoot by one probe.
  static constexpr size_t kFlushRows = 4096;

  struct StepState {
    Block out;
    TuplePattern pattern;
    Tuple probe;                 // scratch for negative ground probes
    const SymbolId* cur_row = nullptr;
    std::function<void(const Tuple&)> callback;
  };

  void RunFrom(size_t step_idx, Block& input) {
    if (!error_.ok() || input.rows == 0) return;
    const auto& steps = plan_.plan_steps_;
    if (step_idx == steps.size()) {
      for (size_t r = 0; r < input.rows; ++r) {
        if (!error_.ok()) return;
        ++emissions_;
        emit_(input.data.data() + r * width_);
      }
      return;
    }
    const JoinPlan::Step& step = steps[step_idx];
    StepState& st = states_[step_idx];
    const FactProvider& provider = provider_for_(step.info.literal);
    st.out.Clear();
    for (size_t r = 0; r < input.rows; ++r) {
      if (!error_.ok()) return;
      if (guard_ != nullptr) {
        Status ticked = guard_->CheckTick();
        if (!ticked.ok()) {
          error_ = std::move(ticked);
          return;
        }
      }
      const SymbolId* row = input.data.data() + r * width_;
      if (step.info.negative) {
        st.probe.resize(step.arity);
        for (const JoinPlan::PatternOp& op : step.pattern_ops) {
          st.probe[op.pos] = op.from_slot ? row[op.slot] : op.value;
        }
        if (!provider.Contains(step.info.predicate, st.probe)) {
          st.out.data.insert(st.out.data.end(), row, row + width_);
          ++st.out.rows;
          ++rows_after_[step_idx];
        }
      } else {
        for (const JoinPlan::PatternOp& op : step.pattern_ops) {
          if (op.from_slot) st.pattern[op.pos] = row[op.slot];
        }
        st.cur_row = row;
        provider.ForEachMatch(step.info.predicate, st.pattern, st.callback);
      }
      if (st.out.rows >= kFlushRows) {
        RunFrom(step_idx + 1, st.out);
        st.out.Clear();
        if (!error_.ok()) return;
      }
    }
    RunFrom(step_idx + 1, st.out);
    st.out.Clear();
  }

  void OnMatch(size_t step_idx, const Tuple& t) {
    if (!error_.ok()) return;
    if (guard_ != nullptr) {
      Status ticked = guard_->CheckTick();
      if (!ticked.ok()) {
        error_ = std::move(ticked);
        return;
      }
    }
    const JoinPlan::Step& step = plan_.plan_steps_[step_idx];
    StepState& st = states_[step_idx];
    size_t base = st.out.data.size();
    st.out.data.insert(st.out.data.end(), st.cur_row, st.cur_row + width_);
    SymbolId* out_row = st.out.data.data() + base;
    for (const JoinPlan::BindOp& op : step.bind_ops) {
      out_row[op.slot] = t[op.pos];
    }
    for (const JoinPlan::CheckOp& op : step.check_ops) {
      SymbolId want = op.against_slot ? out_row[op.slot] : op.value;
      if (t[op.pos] != want) {
        st.out.data.resize(base);  // reject: drop the trial row
        return;
      }
    }
    ++st.out.rows;
    ++rows_after_[step_idx];
  }

  const JoinPlan& plan_;
  const std::function<const FactProvider&(size_t)>& provider_for_;
  const std::function<void(const SymbolId* row)>& emit_;
  const ResourceGuard* guard_;
  JoinPlan::ExecStats* stats_;
  const size_t width_;
  std::vector<StepState> states_;
  std::vector<size_t> rows_after_;
  size_t emissions_ = 0;
  Status error_;
};

Result<size_t> JoinPlan::Execute(
    const std::function<const FactProvider&(size_t)>& provider_for,
    const std::function<void(const SymbolId* row)>& emit,
    const std::vector<SymbolId>& initial, const ResourceGuard* guard,
    ExecStats* stats) const {
  BlockExecutor executor(*this, provider_for, emit, guard, stats);
  return executor.Run(initial);
}

// Depth-first first-witness interpreter for one Satisfiable call: a single
// slot row, one persistent match callback per step, and every positive
// literal streamed through ForEachMatchUntil so the provider stops producing
// as soon as a complete solution is found. Slots bound by step i are only
// read by later steps, so backtracking needs no undo: the next match simply
// overwrites them.
class WitnessSearch {
 public:
  WitnessSearch(const JoinPlan& plan,
                const std::function<const FactProvider&(size_t)>& provider_for,
                const ResourceGuard* guard)
      : plan_(plan), provider_for_(provider_for), guard_(guard) {}
  // The per-step callbacks hold `this`.
  WitnessSearch(const WitnessSearch&) = delete;
  WitnessSearch& operator=(const WitnessSearch&) = delete;

  Result<bool> Run(const std::vector<SymbolId>& initial) {
    DEDDB_RETURN_IF_ERROR(plan_.CheckInitialRow(initial));
    const auto& steps = plan_.plan_steps_;
    row_ = initial.empty() ? std::vector<SymbolId>(plan_.slot_vars_.size(),
                                                   JoinPlan::kUnboundSlot)
                           : initial;
    states_.resize(steps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
      StepState& st = states_[i];
      const JoinPlan::Step& step = steps[i];
      st.pattern.assign(step.arity, std::nullopt);
      st.probe.assign(step.arity, 0);
      for (const JoinPlan::PatternOp& op : step.pattern_ops) {
        if (!op.from_slot) {
          st.pattern[op.pos] = op.value;
          st.probe[op.pos] = op.value;
        }
      }
      st.callback = [this, i](const Tuple& t) { return OnMatch(i, t); };
    }
    Search(0);
    if (!error_.ok()) return error_;
    return found_;
  }

 private:
  struct StepState {
    TuplePattern pattern;  // positive steps: the probe pattern
    Tuple probe;           // negative steps: the ground membership probe
    std::function<bool(const Tuple&)> callback;
  };

  // Searches from step `step_idx` with the current row; sets found_ (or
  // error_) and leaves it set.
  void Search(size_t step_idx) {
    if (guard_ != nullptr) {
      Status ticked = guard_->CheckTick();
      if (!ticked.ok()) {
        error_ = std::move(ticked);
        return;
      }
    }
    const auto& steps = plan_.plan_steps_;
    if (step_idx == steps.size()) {
      found_ = true;
      return;
    }
    const JoinPlan::Step& step = steps[step_idx];
    StepState& st = states_[step_idx];
    const FactProvider& provider = provider_for_(step.info.literal);
    if (step.info.negative) {
      for (const JoinPlan::PatternOp& op : step.pattern_ops) {
        if (op.from_slot) st.probe[op.pos] = row_[op.slot];
      }
      if (!provider.Contains(step.info.predicate, st.probe)) {
        Search(step_idx + 1);
      }
      return;
    }
    for (const JoinPlan::PatternOp& op : step.pattern_ops) {
      if (op.from_slot) st.pattern[op.pos] = row_[op.slot];
    }
    provider.ForEachMatchUntil(step.info.predicate, st.pattern, st.callback);
  }

  // Extends the row with one match of step `step_idx`; returns whether the
  // enumeration should go on.
  bool OnMatch(size_t step_idx, const Tuple& t) {
    const JoinPlan::Step& step = plan_.plan_steps_[step_idx];
    for (const JoinPlan::BindOp& op : step.bind_ops) row_[op.slot] = t[op.pos];
    for (const JoinPlan::CheckOp& op : step.check_ops) {
      SymbolId want = op.against_slot ? row_[op.slot] : op.value;
      if (t[op.pos] != want) return true;
    }
    Search(step_idx + 1);
    return !found_ && error_.ok();
  }

  const JoinPlan& plan_;
  const std::function<const FactProvider&(size_t)>& provider_for_;
  const ResourceGuard* guard_;
  std::vector<SymbolId> row_;
  std::vector<StepState> states_;
  bool found_ = false;
  Status error_;
};

Result<bool> JoinPlan::Satisfiable(
    const std::function<const FactProvider&(size_t)>& provider_for,
    const std::vector<SymbolId>& initial, const ResourceGuard* guard) const {
  WitnessSearch search(*this, provider_for, guard);
  return search.Run(initial);
}

std::string JoinPlan::ToString(const SymbolTable& symbols) const {
  std::string out;
  for (size_t i = 0; i < steps_.size(); ++i) {
    const StepInfo& step = steps_[i];
    if (i > 0) out += " -> ";
    if (step.negative) out += '!';
    out += symbols.NameOf(step.predicate);
    out += '[';
    switch (step.access.kind) {
      case Relation::AccessPath::Kind::kEmpty:
        out += "empty";
        break;
      case Relation::AccessPath::Kind::kKeyLookup:
        out += "key";
        break;
      case Relation::AccessPath::Kind::kCompositeIndex: {
        out += "comp(";
        bool first = true;
        for (size_t col = 0; col < Relation::kMaxMaskColumns; ++col) {
          if ((step.access.mask >> col) & 1) {
            if (!first) out += ',';
            out += std::to_string(col);
            first = false;
          }
        }
        out += ')';
        break;
      }
      case Relation::AccessPath::Kind::kColumnIndex:
        out += "col" + std::to_string(step.access.column);
        break;
      case Relation::AccessPath::Kind::kScan:
        out += "scan";
        break;
    }
    out += " ~";
    if (step.access.estimated_rows == FactProvider::kUnknownCount) {
      out += '?';
    } else {
      out += std::to_string(step.access.estimated_rows);
    }
    out += ']';
  }
  return out;
}

}  // namespace deddb
