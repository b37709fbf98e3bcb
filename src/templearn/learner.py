"""Exact learning of minimal separating formulas.

The search enumerates candidate formulas bottom-up by *closure size*: the
cost of a candidate is the number of distinct sub-formulas it contains (DAG
size), not its tree node count.  Each registered candidate keeps the frozen
set of ids of its distinct sub-formulas; applying a binary operator to
candidates costs `|closure(left) ∪ closure(right)| + 1`, which is how shared
sub-formulas make large trees cheap.

Candidates are produced in nondecreasing cost through three schedules that
jointly cover every operator application exactly once:

* unary applications of a registered candidate (cost + 1);
* pairs where one operand is a sub-formula of the other — enumerated from
  the containing side's closure (cost + 1, since the union adds nothing);
* incomparable pairs — scheduled when the younger operand is registered, at
  the exact layer `|union| + 1`.

Each candidate carries a semantic signature: the bit vector of its values at
every suffix class of every sample word (or every state of every sample
structure).  In SEMANTIC mode a candidate is dropped when the same signature
was already produced by a candidate of equal or lower cost.  Under tree size
the earlier candidate could stand in for the later one wherever it would
have been used, at no greater cost.  Under DAG size, the cost used here, it
cannot: a stand-in that shares no sub-formula with its sibling costs more
than the dropped candidate would have, so the search can miss the minimal
witness and answer with a larger one, or with "no formula" within a bound
that has one (ROADMAP.md, item 1, gives a sample where the default search
finds nothing at bound 3 and NONE mode finds `F q -> q`).  A signature
reported as separating is always genuine (it belongs to a concrete formula
of that cost), so pruning can never produce a false positive or an
undersized answer; the exhaustive NONE mode keeps every candidate and serves
as the reference oracle that the test suite checks SEMANTIC mode against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .formulas import (
    ALWAYS, AND, EVENTUALLY, IFF, IMPLIES, NEXT, NOT, OR, RELEASE,
    STRONG_RELEASE, UNTIL, WEAK_UNTIL,
    CtlBinary, CtlNot, CtlQuantBinary, CtlQuantUnary, Formula, LtlBinary,
    LtlUnary, OperatorSet, Prop, conforms, is_ctl, is_ltl, size,
    structural_key,
)
from .models import CTL, LTL, Sample
from .semantics import CtlDomain, LtlDomain, check_separating


class BoundMode(Enum):
    """Whether the witness size must be at most the bound or exactly it."""

    AT_MOST = "at_most"
    EXACTLY = "exactly"


class DedupMode(Enum):
    """SEMANTIC prunes repeated-signature candidates; NONE keeps all."""

    SEMANTIC = "semantic"
    NONE = "none"


@dataclass(frozen=True)
class LearnConfig:
    """Search parameters; `bound=None` takes the bound from the sample."""

    bound: int | None = None
    bound_mode: BoundMode = BoundMode.AT_MOST
    operators: OperatorSet = OperatorSet.full()
    logic: str = LTL
    dedup: DedupMode = DedupMode.SEMANTIC
    bound_limit: int = 12


@dataclass(frozen=True)
class LearnOutcome:
    """Decision, optional witness, witness size, and search statistics."""

    decision: bool
    witness: Formula | None
    size: int | None
    stats: dict = field(compare=False, default_factory=dict)


class ClosureEnumeration:
    """Layered generation of all operator applications over a seed set.

    Every candidate is reported through ``visit(cost, opcode, left, right,
    payload)``; a True return registers it (assigning the next dense id, so
    it can be used as an operand later).  Seeds are visited with opcode -1
    and ``left`` = seed index.  Payloads are composed by ``compose(opcode,
    a, b)`` with ``b`` None for unary opcodes (opcodes below ``n_unary``).

    ``run()`` yields each completed cost layer.  Candidates of exactly
    ``max_size`` are never registered; with ``eager_top`` (the default) they
    are visited the moment they are scheduled, out of cost order, which
    avoids materializing the final — by far the largest — layer.  Setting
    ``stop_expansion`` suppresses all further scheduling; already-scheduled
    candidates are still visited.
    """

    def __init__(self, seed_payloads, n_unary, n_binary, max_size, compose,
                 visit, on_register=None, eager_top=True):
        self.seed_payloads = list(seed_payloads)
        self.n_unary = n_unary
        self.n_ops = n_unary + n_binary
        self.max_size = max_size
        self.compose = compose
        self.visit = visit
        self.on_register = on_register
        self.eager_top = eager_top
        self.stop_expansion = False
        self.current_cost = 0
        self.generated = 0
        self.payloads: list = []
        self.closures: list = []
        self.costs: list = []
        self.builds: list = []  # (opcode, left, right); seeds (-1, index, -1)
        self._pairable: list = []
        self._buckets: list = []

    def run(self):
        ms = self.max_size
        if ms < 1:
            return
        self._buckets = [[] for _ in range(ms + 1)]
        self.current_cost = 1
        for idx, payload in enumerate(self.seed_payloads):
            self.generated += 1
            if self.visit(1, -1, idx, -1, payload):
                self._register(-1, idx, -1, payload, frozenset(), 1)
        yield 1
        payloads = self.payloads
        closures = self.closures
        for cost in range(2, ms + 1):
            self.current_cost = cost
            for opcode, left, right in self._buckets[cost]:
                payload = self.compose(opcode, payloads[left],
                                       None if right < 0 else payloads[right])
                self.generated += 1
                if self.visit(cost, opcode, left, right, payload) and cost < ms:
                    union = (closures[left] if right < 0
                             else closures[left] | closures[right])
                    self._register(opcode, left, right, payload, union, cost)
            self._buckets[cost] = None
            yield cost

    def _register(self, opcode, left, right, payload, union, cost):
        nid = len(self.payloads)
        closure = union | {nid}
        self.payloads.append(payload)
        self.closures.append(closure)
        self.costs.append(cost)
        self.builds.append((opcode, left, right))
        if self.on_register is not None:
            self.on_register(nid)
        if self.stop_expansion:
            return
        ms = self.max_size
        if cost + 1 <= ms:
            for op in range(self.n_unary):
                self._emit(op, nid, -1, cost + 1)
            if self.n_ops > self.n_unary:
                for d in sorted(closure):
                    for op in range(self.n_unary, self.n_ops):
                        self._emit(op, nid, d, cost + 1)
                        if d != nid:
                            self._emit(op, d, nid, cost + 1)
        if self.n_ops > self.n_unary and cost <= ms - 2:
            closures = self.closures
            for g in self._pairable:
                if g in closure:
                    continue
                target = len(closure | closures[g]) + 1
                if target <= ms:
                    for op in range(self.n_unary, self.n_ops):
                        self._emit(op, nid, g, target)
                        self._emit(op, g, nid, target)
            self._pairable.append(nid)

    def _emit(self, opcode, left, right, target):
        if self.stop_expansion:
            return
        if target == self.max_size and self.eager_top:
            payload = self.compose(opcode, self.payloads[left],
                                   None if right < 0 else self.payloads[right])
            self.generated += 1
            self.visit(target, opcode, left, right, payload)
        else:
            self._buckets[target].append((opcode, left, right))

    def build_formula(self, triple, seed_builder, op_builders) -> Formula:
        """Reconstruct the AST for a visit triple (opcode, left, right)."""
        memo: dict = {}

        def of_id(i):
            node = memo.get(i)
            if node is None:
                opcode, a, b = self.builds[i]
                if opcode < 0:
                    node = seed_builder(a)
                else:
                    node = op_builders[opcode](of_id(a),
                                               of_id(b) if b >= 0 else None)
                memo[i] = node
            return node

        opcode, left, right = triple
        if opcode < 0:
            return seed_builder(left)
        return op_builders[opcode](of_id(left),
                                   of_id(right) if right >= 0 else None)


_LTL_UNARY_ORDER = (NOT, NEXT, EVENTUALLY, ALWAYS)
_LTL_BINARY_ORDER = (AND, OR, IMPLIES, IFF, UNTIL, RELEASE, WEAK_UNTIL,
                     STRONG_RELEASE)
_TEMPORAL_UNARY = (NEXT, EVENTUALLY, ALWAYS)
_QUANT_ORDER = ("E", "A")


def _ltl_op_tables(operators: OperatorSet, domain, skip_trivial: bool):
    """Composition and construction tables for the LTL candidate space.

    With `skip_trivial` (all words single-letter, SEMANTIC mode) the
    temporal operators whose single-letter reduct is always generated
    anyway are omitted: X/F/G/U/R collapse to a sub-formula, W to the
    disjunction and M to the conjunction of its operands — so W and M are
    only skipped when that reduct's connective is itself allowed.
    """
    unary, binary = [], []
    for op in _LTL_UNARY_ORDER:
        if op not in operators.unary:
            continue
        if skip_trivial and op != NOT:
            continue
        unary.append((
            (lambda a, b, op=op: domain.unary(op, a)) if domain else None,
            lambda a, b, op=op: LtlUnary(op, a),
        ))
    for op in _LTL_BINARY_ORDER:
        if op not in operators.binary:
            continue
        if skip_trivial:
            if op in (UNTIL, RELEASE):
                continue
            if op == WEAK_UNTIL and OR in operators.binary:
                continue
            if op == STRONG_RELEASE and AND in operators.binary:
                continue
        binary.append((
            (lambda a, b, op=op: domain.binary(op, a, b)) if domain else None,
            lambda a, b, op=op: LtlBinary(op, a, b),
        ))
    return unary, binary


def _ctl_op_tables(operators: OperatorSet, domain, skip_trivial: bool):
    """As `_ltl_op_tables`, over the quantified operator space."""
    unary, binary = [], []
    if NOT in operators.unary:
        unary.append((
            (lambda a, b: domain.full ^ a) if domain else None,
            lambda a, b: CtlNot(a),
        ))
    quants = [q for q in _QUANT_ORDER if q in operators.quantifiers]
    if not skip_trivial:
        for op in _TEMPORAL_UNARY:
            if op not in operators.unary:
                continue
            for q in quants:
                unary.append((
                    (lambda a, b, q=q, op=op: domain.quant_unary(q, op, a))
                    if domain else None,
                    lambda a, b, q=q, op=op: CtlQuantUnary(q, op, a),
                ))
    for op in (AND, OR, IMPLIES, IFF):
        if op not in operators.binary:
            continue
        binary.append((
            (lambda a, b, op=op: domain.binary(op, a, b)) if domain else None,
            lambda a, b, op=op: CtlBinary(op, a, b),
        ))
    for op in (UNTIL, RELEASE, WEAK_UNTIL, STRONG_RELEASE):
        if op not in operators.binary:
            continue
        if skip_trivial:
            if op in (UNTIL, RELEASE):
                continue
            if op == WEAK_UNTIL and OR in operators.binary:
                continue
            if op == STRONG_RELEASE and AND in operators.binary:
                continue
        for q in quants:
            binary.append((
                (lambda a, b, q=q, op=op: domain.quant_binary(q, op, a, b))
                if domain else None,
                lambda a, b, q=q, op=op: CtlQuantBinary(q, op, a, b),
            ))
    return unary, binary


def _build_domain(sample: Sample):
    """Evaluation domain, separating-signature test, and triviality flag."""
    if sample.logic == LTL:
        domain = LtlDomain(sample.positives + sample.negatives)
        pos_mask = 0
        for i in range(len(sample.positives)):
            pos_mask |= 1 << domain.start_bits[i]
        neg_mask = 0
        for i in range(len(sample.positives), len(domain.words)):
            neg_mask |= 1 << domain.start_bits[i]

        def is_separating(sig: int) -> bool:
            return sig & pos_mask == pos_mask and not sig & neg_mask

        trivial = all(w.length == 1 for w in domain.words)
        return domain, is_separating, trivial

    domain = CtlDomain(sample.positives + sample.negatives)
    n_pos = len(sample.positives)
    pos_mask = 0
    for m in domain.init_masks[:n_pos]:
        pos_mask |= m
    neg_masks = tuple(domain.init_masks[n_pos:])

    def is_separating(sig: int) -> bool:
        if sig & pos_mask != pos_mask:
            return False
        return all(sig & m != m for m in neg_masks)

    trivial = all(len(m.states) == 1 for m in domain.structures)
    return domain, is_separating, trivial


def _run_search(names, domain, ops, is_separating, bound, semantic,
                winners_at=None):
    """One enumeration pass; returns (winning cost, build triples, stats).

    `winners_at=None` stops at the first (hence minimal) layer containing a
    separating candidate; an integer restricts collection to that exact cost
    and exhausts the whole space (used for exact-size decisions).
    """
    unary_ops, binary_ops = ops
    compose_fns = [fn for fn, _ in unary_ops] + [fn for fn, _ in binary_ops]

    def compose(opcode, a, b):
        return compose_fns[opcode](a, b)

    seed_sigs = [domain.prop_vector(name) for name in names]
    winners: dict = {}
    kept_sigs: set = set()
    distinct: set = set()

    def visit(cost, opcode, left, right, sig):
        distinct.add(sig)
        if is_separating(sig) and (winners_at is None or cost == winners_at):
            winners.setdefault(cost, []).append((opcode, left, right))
            if winners_at is None and cost == enum.current_cost:
                enum.stop_expansion = True
        return not semantic or sig not in kept_sigs

    def on_register(nid):
        if semantic:
            kept_sigs.add(enum.payloads[nid])

    enum = ClosureEnumeration(seed_sigs, len(unary_ops), len(binary_ops),
                              bound, compose, visit, on_register=on_register)
    for cost in enum.run():
        if winners_at is None and winners.get(cost):
            break
    best_cost = min(winners) if winners else None
    stats = {"candidates_generated": enum.generated,
             "distinct_signatures": len(distinct)}
    return best_cost, winners.get(best_cost, []), enum, stats


def _pick_witness(enum, triples, names, ops):
    """Deterministic tie-break: least structural key (proposition name, then
    the fixed operator order, existential before universal)."""
    unary_ops, binary_ops = ops
    op_builders = [b for _, b in unary_ops] + [b for _, b in binary_ops]
    best = None
    for triple in triples:
        f = enum.build_formula(triple, lambda i: Prop(names[i]), op_builders)
        key = structural_key(f)
        if best is None or key < best[0]:
            best = (key, f)
    return best[1]


_PAD_BINARY_LTL = (AND, OR, UNTIL, RELEASE, WEAK_UNTIL, STRONG_RELEASE)


def _pad_witness(witness, current, target, operators, logic, trivial):
    """Grow a separating witness to an exact size using identity-preserving
    wrappers: `f • f` for an idempotent binary operator, double negation for
    even gaps, or (on single-letter samples only) a vacuous temporal prefix.
    Returns None when no allowed wrapper exists."""
    gap = target - current
    ctl = logic == CTL
    for op in _PAD_BINARY_LTL:
        if op not in operators.binary:
            continue
        if ctl and op not in (AND, OR):
            quants = [q for q in _QUANT_ORDER if q in operators.quantifiers]
            if not quants:
                continue
            q = quants[0]
            for _ in range(gap):
                witness = CtlQuantBinary(q, op, witness, witness)
            return witness
        make = CtlBinary if ctl else LtlBinary
        for _ in range(gap):
            witness = make(op, witness, witness)
        return witness
    if NOT in operators.unary and gap % 2 == 0:
        make = (lambda a: CtlNot(a)) if ctl else (lambda a: LtlUnary(NOT, a))
        for _ in range(gap):
            witness = make(witness)
        return witness
    if trivial:
        for op in _TEMPORAL_UNARY:
            if op not in operators.unary:
                continue
            if ctl:
                quants = [q for q in _QUANT_ORDER
                          if q in operators.quantifiers]
                if not quants:
                    continue
                q = quants[0]
                for _ in range(gap):
                    witness = CtlQuantUnary(q, op, witness)
            else:
                for _ in range(gap):
                    witness = LtlUnary(op, witness)
            return witness
    return None


def learn(sample: Sample, config: LearnConfig | None = None) -> LearnOutcome:
    """Decide whether a separating formula within the bound exists and, if
    so, return one of minimal size (AT_MOST) or of exactly the bound size
    (EXACTLY).  See the module docstring for the algorithm."""
    if config is None:
        config = LearnConfig(logic=sample.logic)
    if config.logic != sample.logic:
        raise ValueError(f"configuration is for {config.logic} but the "
                         f"sample is {sample.logic}")
    bound = config.bound if config.bound is not None else sample.bound
    if bound is None:
        raise ValueError("no size bound: set LearnConfig.bound or the "
                         "sample's bound")
    if bound < 1:
        raise ValueError("the size bound must be at least 1")
    if bound > config.bound_limit:
        raise ValueError(
            f"bound {bound} exceeds the safety limit {config.bound_limit}; "
            f"the search is exponential in the bound — raise bound_limit "
            f"explicitly if you mean it")

    started = time.perf_counter()
    names = sorted(sample.alphabet)
    domain, is_separating, trivial = _build_domain(sample)
    semantic = config.dedup == DedupMode.SEMANTIC
    skip_trivial = semantic and trivial
    tables = _ltl_op_tables if sample.logic == LTL else _ctl_op_tables
    ops = tables(config.operators, domain, skip_trivial)
    exact = config.bound_mode == BoundMode.EXACTLY

    if exact and not semantic:
        cost, triples, enum, stats = _run_search(
            names, domain, ops, is_separating, bound, False, winners_at=bound)
    else:
        cost, triples, enum, stats = _run_search(
            names, domain, ops, is_separating, bound, semantic)
    stats["elapsed_seconds"] = time.perf_counter() - started

    if cost is None:
        return LearnOutcome(False, None, None, stats)
    witness = _pick_witness(enum, triples, names, ops)
    if exact and cost < bound:
        padded = _pad_witness(witness, cost, bound, config.operators,
                              sample.logic, trivial)
        if padded is None:
            # No identity-preserving wrapper exists under this operator
            # set; fall back to the exhaustive pass restricted to the
            # exact target size (with the unskipped operator tables).
            ops_full = tables(config.operators, domain, False)
            cost, triples, enum, extra = _run_search(
                names, domain, ops_full, is_separating, bound, False,
                winners_at=bound)
            stats["candidates_generated"] += extra["candidates_generated"]
            stats["distinct_signatures"] = max(
                stats["distinct_signatures"], extra["distinct_signatures"])
            stats["elapsed_seconds"] = time.perf_counter() - started
            if cost is None:
                return LearnOutcome(False, None, None, stats)
            witness = _pick_witness(enum, triples, names, ops_full)
        else:
            witness = padded
            cost = bound
            if size(witness) != bound or not check_separating(witness, sample):
                raise RuntimeError("internal error: padded witness lost its "
                                   "guarantees")
    stats["elapsed_seconds"] = time.perf_counter() - started
    return LearnOutcome(True, witness, cost, stats)


def verify(witness: Formula, sample: Sample,
           config: LearnConfig | None = None) -> bool:
    """Polynomial-time check that a proposed witness is valid: right logic,
    within the size bound, conforming operators, and separating."""
    if config is None:
        config = LearnConfig(logic=sample.logic)
    bound = config.bound if config.bound is not None else sample.bound
    if bound is None:
        raise ValueError("no size bound: set LearnConfig.bound or the "
                         "sample's bound")
    ok_logic = is_ltl(witness) if sample.logic == LTL else is_ctl(witness)
    if not ok_logic:
        return False
    n = size(witness)
    if n > bound or (config.bound_mode == BoundMode.EXACTLY and n != bound):
        return False
    if not conforms(witness, config.operators):
        return False
    try:
        return check_separating(witness, sample)
    except ValueError:
        return False


def enumerate_formulas(alphabet, max_size, operators: OperatorSet | None = None,
                       logic: str = LTL):
    """Yield every structurally distinct formula of DAG size up to
    `max_size` over the alphabet, in nondecreasing size order.  This is the
    NONE-mode candidate space, without any sample or pruning."""
    names = sorted(set(alphabet))
    if not names:
        raise ValueError("the alphabet must not be empty")
    if logic not in (LTL, CTL):
        raise ValueError(f"unknown logic {logic!r}")
    if operators is None:
        operators = OperatorSet.full()
    tables = _ltl_op_tables if logic == LTL else _ctl_op_tables
    unary_ops, binary_ops = tables(operators, None, False)
    return _enumerate(names, max_size, unary_ops, binary_ops)


def _enumerate(names, max_size, unary_ops, binary_ops):
    builders = [b for _, b in unary_ops] + [b for _, b in binary_ops]

    def compose(opcode, a, b):
        return builders[opcode](a, b)

    batch: list = []

    def visit(cost, opcode, left, right, payload):
        batch.append(payload)
        return True

    enum = ClosureEnumeration([Prop(n) for n in names], len(unary_ops),
                              len(binary_ops), max_size, compose, visit,
                              eager_top=False)
    for _ in enum.run():
        yield from batch
        batch.clear()
