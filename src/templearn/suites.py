"""Exhaustive and randomized property suites.

Each suite checks one family of semantic facts over an exhaustively
enumerated (or seeded-random) input space and returns a :class:`SuiteResult`
with the number of items checked and any violations found.  The suites are
the oracles behind ``templearn verify-properties`` and the acceptance tests:

* :func:`run_reduct_identities` — on constant words every temporal operator
  collapses to a boolean reduct (X/F/G to the operand, U/R to the right
  operand, W to disjunction, M to conjunction); checked for every operand
  formula up to a size cap and, separately, for every combination of
  signature bit-vectors, which closes the family under composition at all
  sizes.

* :func:`run_formula_sweep` — a single pass over *every* formula up to a
  size cap (no semantic pruning) that checks the temporal-elimination
  properties (result temporal-free, never larger, same single-letter
  semantics, sub-formulas of the image contained in the image of the
  sub-formulas), the sub-formula counting bound, the small-formula
  conciseness consequence, and the distinguishability property of
  temporal-free formulas.

* :func:`run_quantifier_transfer` — path-quantified formulas evaluated on a
  single-state structure agree with their quantifier-stripped forms on the
  corresponding constant word; checked literally on every formula up to a
  size cap plus an operator-table closure that extends the fact to all
  sizes.

* :func:`run_cnf_round_trip` — one pass takes each CNF through both logics:
  satisfiability agrees with learnability of its word-sample encoding,
  every learned witness yields a satisfying assignment, and learning on
  the one-state structures of the same sample decides as the words do.

* :func:`run_lasso_oracle_equivalence` — the bit-vector word checker
  (shift-based X, shared EU/EG fixpoints) agrees with the bounded-window
  naive evaluator on random formula/word pairs at every position.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass, field
from operator import and_, or_

from .formulas import (
    AND, NOT, OR, RELEASE, STRONG_RELEASE, UNTIL, WEAK_UNTIL,
    BINARY_OPS, LOGICAL_BINARY_OPS, QUANTIFIERS, TEMPORAL_BINARY_OPS,
    TEMPORAL_UNARY_OPS, UNARY_OPS,
    CtlBinary, CtlNot, CtlQuantBinary, CtlQuantUnary, Formula, LtlBinary,
    LtlUnary, OperatorSet, Prop, node_builder, print_formula,
)
from .learner import (
    ClosureEnumeration, _builders, _op_table, enumerate_formulas, learn,
)
from .models import CTL, LTL, Word, embed_word
from .reductions import (
    CnfInstance, ExtractionError, extract_valuation, reduce_ltl_to_ctl,
    reduce_sat, sat_oracle, satisfies,
)
from .semantics import (
    CtlDomain, LtlDomain, naive_check_ltl, satisfaction_vector,
)
from .transforms import (
    SINGLE_LETTER_REDUCT, analyze_conciseness, is_temporal_free,
    strip_quantifiers, temporal_eliminate,
)

_MAX_REPORTED = 20


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one property suite."""

    name: str
    checked: int
    violation_count: int
    violations: tuple  # first few violation descriptions
    elapsed_seconds: float
    details: dict = field(compare=False, default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: checked={self.checked} "
                f"violations={self.violation_count} "
                f"elapsed={self.elapsed_seconds:.1f}s")


class _Violations:
    """Collects violation messages, keeping only the first few verbatim."""

    def __init__(self):
        self.count = 0
        self.kept = []

    def add(self, message: str):
        self.count += 1
        if len(self.kept) < _MAX_REPORTED:
            self.kept.append(message)


def _result(name: str, bag: _Violations, checked: int, start: float,
            details: dict) -> SuiteResult:
    """The suite `name`'s result: `checked` items, the violations in `bag`,
    and the seconds since `start`."""
    return SuiteResult(name=name, checked=checked, violation_count=bag.count,
                       violations=tuple(bag.kept),
                       elapsed_seconds=time.time() - start, details=details)


def single_letters(props=("p", "q")) -> tuple:
    """All letters over `props` in subset-mask order (bit i = props[i])."""
    out = []
    for mask in range(1 << len(props)):
        out.append(frozenset(p for i, p in enumerate(props) if mask >> i & 1))
    return tuple(out)


def constant_words(props=("p", "q")) -> tuple:
    """One single-letter repeating word per letter over `props`."""
    return tuple(Word([], [letter]) for letter in single_letters(props))


def constant_structures(props=("p", "q")) -> tuple:
    """One single-state self-loop structure per letter over `props`."""
    return tuple(embed_word(w) for w in constant_words(props))


# ---------------------------------------------------------------------------
# Single-letter reduct identities
# ---------------------------------------------------------------------------

# One row per binary identity: the operator, its reduct as a vector function
# and as a formula, the reduct's name in the pair pass's messages, and the
# label under which the signature closure reports it.  Every unary temporal
# operator reduces to its operand.
_BINARY_REDUCTS = (
    (UNTIL, lambda a, b: b, lambda l, r: r, "its right operand", "U/R"),
    (RELEASE, lambda a, b: b, lambda l, r: r, "its right operand", "U/R"),
    (WEAK_UNTIL, or_, lambda l, r: LtlBinary(OR, l, r), "the disjunction",
     "W"),
    (STRONG_RELEASE, and_, lambda l, r: LtlBinary(AND, l, r),
     "the conjunction", "M"),
)


def run_reduct_identities(max_size: int = 3, props=("p", "q"),
                          sample_count: int = 5000, seed: int = 0
                          ) -> SuiteResult:
    """Constant-word reducts of the temporal operators.

    For every operand formula (or pair) up to `max_size`, on every constant
    word: X/F/G leave the operand's truth unchanged, U and R reduce to the
    right operand, W to the disjunction and M to the conjunction.  Each
    identity is evaluated once, with the checker's own row, at every
    signature (pair) over the constant words; that closes the family under
    composition at all sizes, and each operand formula (or pair) is checked
    by looking its signatures up among the broken ones.  A seeded random
    sample of compound formulas is re-checked end to end, each compound and
    its reduct evaluated on the domain of all constant words, to pin the
    two routes together.
    """
    start = time.time()
    words = constant_words(props)
    dom = LtlDomain(words)
    bad = _Violations()
    n_bits = len(words)
    sigs = range(1 << n_bits)
    unary = [(op, {a for a in sigs if dom.op(op)(a) != a})
             for op in TEMPORAL_UNARY_OPS]
    binary = [(op, noun, label, {(a, b) for a in sigs for b in sigs
                                 if dom.op(op)(a, b) != reduct(a, b)})
              for op, reduct, _, noun, label in _BINARY_REDUCTS]

    formulas = list(enumerate_formulas(props, max_size))
    vectors = [dom.evaluate(f) for f in formulas]
    for f, a in zip(formulas, vectors):
        for op, broken in unary:
            if a in broken:
                bad.add(f"{op} {print_formula(f)} differs from its operand "
                        "on a constant word")

    lefts = {a for *_, broken in binary for a, _ in broken}
    for f1, a in zip(formulas, vectors):
        if a not in lefts:
            continue
        for f2, b in zip(formulas, vectors):
            for op, noun, _, broken in binary:
                if (a, b) in broken:
                    bad.add(f"({print_formula(f1)}) {op} ({print_formula(f2)})"
                            f" differs from {noun} on a constant word")

    # End-to-end re-check of a random sample of compound formulas.
    rng = random.Random(seed)
    builders = {op: build for op, _, build, *_ in _BINARY_REDUCTS}
    for _ in range(sample_count):
        f1 = rng.choice(formulas)
        f2 = rng.choice(formulas)
        op = rng.choice(tuple(builders))
        compound = LtlBinary(op, f1, f2)
        reduct = builders[op](f1, f2)
        diff = dom.evaluate(compound) ^ dom.evaluate(reduct)
        for i, w in enumerate(words):
            if diff >> i & 1:
                bad.add(f"{print_formula(compound)} vs "
                        f"{print_formula(reduct)} on {w}")

    # Closure over every signature combination (operands of any size).
    for a in sigs:
        for op, broken in unary:
            if a in broken:
                bad.add(f"{op} changes signature {a:0{n_bits}b}")
        for b in sigs:
            for label in dict.fromkeys(label for _, _, label, broken in binary
                                       if (a, b) in broken):
                bad.add(f"{label} reduct fails at signatures {a},{b}")

    checked = len(formulas)
    return _result("single-letter-reducts", bad,
                   checked + checked ** 2 + sample_count, start,
                   {"operands": checked, "operand_pairs": checked ** 2,
                    "sampled_compounds": sample_count,
                    "signature_combinations": len(sigs) ** 2})


# ---------------------------------------------------------------------------
# Full-formula sweep: temporal elimination, counting, conciseness
# ---------------------------------------------------------------------------

class _TemporalFreeUniverse:
    """Interning table for temporal-free formulas over fixed propositions.

    Every node carries its signature over the constant words, the id set of
    its sub-formulas, and a build record for reconstructing the AST.  The
    propositions are interned first, in order: node `i` is `props[i]`.
    """

    def __init__(self, domain, props):
        self._fns = {op: domain.op(op) for op in (NOT, *LOGICAL_BINARY_OPS)}
        self.sigs = []
        self.closures = []
        self.builds = []  # (None, name, -1) | (op, a, -1) | (op, a, b)
        self._index = {}
        for name in props:
            self._add((None, name, -1), domain.prop_vector(name), frozenset())

    def _add(self, build, sig, child_closure):
        nid = len(self.sigs)
        self.sigs.append(sig)
        self.closures.append(child_closure | {nid})
        self.builds.append(build)
        self._index[build] = nid
        return nid

    def node(self, op: str, a: int, b: int = -1) -> int:
        """The id of the connective `op` over node `a`, and over node `b`
        unless that is -1."""
        key = (op, a, b)
        nid = self._index.get(key)
        if nid is None:
            sigs, closures, fn = self.sigs, self.closures, self._fns[op]
            if b < 0:
                nid = self._add(key, fn(sigs[a]), closures[a])
            else:
                nid = self._add(key, fn(sigs[a], sigs[b]),
                                closures[a] | closures[b])
        return nid

    def formula(self, nid: int) -> Formula:
        op, a, b = self.builds[nid]
        if op is None:
            return Prop(a)
        build = node_builder(LTL, op)
        if b < 0:
            return build(self.formula(a))
        return build(self.formula(a), self.formula(b))


def run_formula_sweep(max_size: int = 5, props=("p", "q")) -> dict:
    """One exhaustive pass over every formula up to `max_size`.

    Enumerates the full formula space with no semantic pruning, carrying for
    each formula its signature over the constant words, its proposition set,
    its temporal-free image (as an interned node), the image of its
    sub-formula set, and its conciseness flag — all composed incrementally,
    with a cross-check against the public transform functions on every
    formula of size up to 3.

    Returns four :class:`SuiteResult` values keyed by:

    * ``"temporal-elimination"`` — the image is temporal-free by
      construction, never larger, each of its sub-formulas is the image of a
      sub-formula, and it has the same constant-word semantics;
    * ``"subformula-counting"`` — for every nonempty proposition set Y
      contained in Prop(f), at least 2|Y|-1 sub-formulas mention a member of
      Y, and at least 2|Y| when Y is a proper subset;
    * ``"concise-representation"`` — if Y ⊆ Prop(f) and size(f) ≤ 2|Y|-1
      then f is concise and Prop(f) = Y;
    * ``"distinguishability"`` — a temporal-free formula that distinguishes
      two letters differing only inside Y mentions a proposition of Y.
    """
    start = time.time()
    dom = LtlDomain(constant_words(props))
    nprops = len(props)

    table = _op_table(LTL, OperatorSet.full(), False)
    unary_rows, binary_rows = table
    rows = unary_rows + binary_rows
    fns = [dom.op(*row) for row in rows]
    op_builders = _builders(LTL, table)
    n_unary = len(unary_rows)
    # Per opcode: whether the row is temporal, and the connective that
    # rebuilds its image (None: the image is its last operand's).
    temporal_rows = [op in SINGLE_LETTER_REDUCT for op, _ in rows]
    images = [SINGLE_LETTER_REDUCT.get(op, op) for op, _ in rows]

    tf = _TemporalFreeUniverse(dom, props)
    tf_sigs, tf_closures = tf.sigs, tf.closures

    # Per registered formula id:
    masks = []      # proposition bitmask
    concise = []    # conciseness flag
    temporal = []   # uses a temporal operator
    trids = []      # temporal-free image node
    trimages = []   # frozenset of image nodes of all sub-formulas
    closures = []   # frozenset of the ids of all sub-formulas, itself included
    columns = (masks, concise, temporal, trids, trimages)

    elim = _Violations()
    counting = _Violations()
    concise_bad = _Violations()
    disting = _Violations()

    # Bit `a` of a signature is letter `a`, and adding `props[k]` to a
    # letter moves it `2**k` bits up; `without[k]` masks the letters
    # without `props[k]`.
    without = [sum(1 << a for a in range(1 << nprops) if not a >> k & 1)
               for k in range(nprops)]
    # Nonempty proposition subsets as (bitmask, cardinality) pairs.
    ys = [(ymask, ymask.bit_count()) for ymask in range(1, 1 << nprops)]

    def describe(opcode, left, right):
        triple = (opcode, left, right)
        return print_formula(enum.build_formula(
            triple, lambda i: Prop(props[i]), op_builders))

    def check(cost, opcode, left, right, sig):
        if opcode < 0:
            mask = 1 << left
            is_concise, is_temporal = True, False
            trid = left  # the universe's node of props[left]
            trimage = tf_closures[trid]
            closure_ids = ()
        elif right < 0:
            mask = masks[left]
            is_concise = False
            is_temporal = temporal_rows[opcode] or temporal[left]
            image = images[opcode]
            trid = (trids[left] if image is None
                    else tf.node(image, trids[left]))
            trimage = trimages[left] | {trid}
            closure_ids = closures[left]
        else:
            mask = masks[left] | masks[right]
            is_concise = (concise[left] and concise[right]
                          and not masks[left] & masks[right])
            is_temporal = (temporal_rows[opcode] or temporal[left]
                           or temporal[right])
            image = images[opcode]
            trid = (trids[right] if image is None
                    else tf.node(image, trids[left], trids[right]))
            trimage = trimages[left] | trimages[right] | {trid}
            closure_ids = closures[left] | closures[right]

        # Temporal elimination: size, sub-formula containment, semantics.
        image_closure = tf_closures[trid]
        if len(image_closure) > cost:
            elim.add(f"image of {describe(opcode, left, right)} is larger "
                     f"than the formula")
        if not image_closure <= trimage:
            elim.add(f"image of {describe(opcode, left, right)} has a "
                     f"sub-formula outside the image of its sub-formulas")
        if tf_sigs[trid] != sig:
            elim.add(f"image of {describe(opcode, left, right)} disagrees "
                     f"on a constant word")

        # Sub-formula counting over the closure plus the root itself, for
        # every nonempty proposition set Y contained in Prop(f): at least
        # 2|Y|-1 sub-formulas mention a member of Y (2|Y| when Y is proper).
        for ymask, ysize in ys:
            if ymask & mask != ymask:
                continue
            cnt = 1  # the root itself mentions a member of Y
            for i in closure_ids:
                if masks[i] & ymask:
                    cnt += 1
            need = 2 * ysize - (1 if ymask == mask else 0)
            if cnt < need:
                counting.add(
                    f"{describe(opcode, left, right)}: only {cnt} "
                    f"sub-formulas mention proposition set {ymask:b}")
            # Small formulas covering Y must be concise representations.
            if cost <= 2 * ysize - 1 and (not is_concise or mask != ymask):
                concise_bad.add(
                    f"{describe(opcode, left, right)} (size {cost}) "
                    f"is not a concise representation")

        # Temporal-free formulas can only distinguish letters via their
        # own propositions.
        if not is_temporal:
            for k in range(nprops):
                if (not mask >> k & 1
                        and (sig ^ sig >> (1 << k)) & without[k]):
                    disting.add(
                        f"{describe(opcode, left, right)} distinguishes "
                        f"letters differing only in {props[k]}")

        return (mask, is_concise, is_temporal, trid, trimage), closure_ids

    def layer(cost, triples):
        # Below the final layer every formula is registered, in layer order.
        sigs = enum.compose(fns, triples)
        for (opcode, left, right), sig in zip(triples, sigs):
            record, closure_ids = check(cost, opcode, left, right, sig)
            for column, value in zip(columns, record):
                column.append(value)
            closures.append(frozenset(closure_ids) | {len(closures)})
        return range(len(sigs)), sigs

    def visit_top(*batch):
        triples = list(enum.top_triples(*batch))
        for (opcode, left, right), sig in zip(triples,
                                              enum.compose(fns, triples)):
            check(max_size, opcode, left, right, sig)

    seeds = [dom.prop_vector(name) for name in props]
    enum = ClosureEnumeration(seeds, n_unary, len(binary_rows), max_size,
                              layer, visit_top)
    for _ in enum.run():
        pass

    # Cross-check the incremental bookkeeping against the public functions
    # on every registered formula of size up to 3.
    cross_checked = 0
    for nid, closure in enumerate(enum.closures):
        if closure.bit_count() > 3:
            continue
        cross_checked += 1
        ast = enum.build_formula(enum.builds[nid],
                                 lambda i: Prop(props[i]), op_builders)
        if dom.evaluate(ast) != enum.payloads[nid]:
            elim.add(f"signature mismatch for {print_formula(ast)}")
        image = temporal_eliminate(ast)
        if image != tf.formula(trids[nid]):
            elim.add(f"image mismatch for {print_formula(ast)}")
        if is_temporal_free(ast) != (not temporal[nid]):
            elim.add(f"temporal-freeness mismatch for {print_formula(ast)}")
        if not is_temporal_free(image):
            elim.add(f"image of {print_formula(ast)} is not temporal-free")
        report = analyze_conciseness(ast)
        if report.is_concise != concise[nid]:
            concise_bad.add(f"conciseness mismatch for {print_formula(ast)}")
        used = frozenset(p for k, p in enumerate(props)
                         if masks[nid] >> k & 1)
        if report.propositions_used != used:
            concise_bad.add(f"proposition-set mismatch for "
                            f"{print_formula(ast)}")

    details = {"formulas": enum.generated, "registered": len(enum.closures),
               "cross_checked": cross_checked, "max_size": max_size,
               "image_nodes": len(tf_sigs)}
    return {name: _result(name, bag, enum.generated, start, details)
            for name, bag in (("temporal-elimination", elim),
                              ("subformula-counting", counting),
                              ("concise-representation", concise_bad),
                              ("distinguishability", disting))}


# ---------------------------------------------------------------------------
# Quantified/quantifier-free agreement on single-state structures
# ---------------------------------------------------------------------------

# The size cap of the randomly drawn formulas beyond the exhaustive ones.
_TRANSFER_SAMPLE_MAX_SIZE = 5


def run_quantifier_transfer(literal_max_size: int = 4, props=("p", "q"),
                            sample_count: int = 2000,
                            seed: int = 0) -> SuiteResult:
    """On a single-state structure, path quantifiers are inert.

    Checks that `f` holds on M exactly when `strip_quantifiers(f)` holds
    on w, where M is the one-state self-loop structure carrying the same
    letter as the constant word w: literally for every branching-time
    formula up to `literal_max_size`, for a seeded random sample of larger
    formulas, and for every operator over every combination of signature
    bit-vectors — the last closing the property under composition, which
    extends it to formulas of every size.  Each formula is evaluated once
    over all the structures and its stripped form once over all the words;
    bit `i` of either vector is letter `i`.
    """
    start = time.time()
    words = constant_words(props)
    structures = constant_structures(props)
    ldom = LtlDomain(words)
    cdom = CtlDomain(structures)
    letters = single_letters(props)
    bad = _Violations()

    def check(f):
        stripped = strip_quantifiers(f)
        diff = cdom.evaluate(f) ^ ldom.evaluate(stripped)
        for i, letter in enumerate(letters):
            if diff >> i & 1:
                bad.add(f"{print_formula(f)} vs {print_formula(stripped)} "
                        f"on letter {sorted(letter)}")

    checked = 0
    for f in enumerate_formulas(props, literal_max_size, logic=CTL):
        checked += 1
        check(f)

    rng = random.Random(seed)
    for _ in range(sample_count):
        check(_random_formula(rng, props, _TRANSFER_SAMPLE_MAX_SIZE,
                              _ctl_unary, _ctl_binary))

    # Every operator row, over all signature combinations, agrees with the
    # linear-time row of its token.
    unary_rows, binary_rows = _op_table(CTL, OperatorSet.full(), False)
    unary = [("negation" if q is None else f"{q}{op}", cdom.op(op, q),
              ldom.op(op)) for op, q in unary_rows]
    binary = [(op if q is None else f"{q}({op})", cdom.op(op, q),
               ldom.op(op)) for op, q in binary_rows]
    signatures = range(cdom.full + 1)
    for a in signatures:
        for name, branching, linear in unary:
            if branching(a) != linear(a):
                bad.add(f"{name} differs at signature {a}")
        for b in signatures:
            for name, branching, linear in binary:
                if branching(a, b) != linear(a, b):
                    bad.add(f"{name} differs at signatures {a},{b}")

    return _result("quantifier-transfer", bad, checked + sample_count, start,
                   {"exhaustive_formulas": checked,
                    "literal_max_size": literal_max_size,
                    "sampled_formulas": sample_count,
                    "signature_combinations": len(signatures) ** 2})


_CTL_QUANT_UNARY = tuple((q, op) for q in QUANTIFIERS
                         for op in TEMPORAL_UNARY_OPS)
_CTL_QUANT_BINARY = tuple((q, op) for q in QUANTIFIERS
                          for op in TEMPORAL_BINARY_OPS)


def _random_formula(rng, props, budget: int, unary, binary):
    """A random formula with at most `budget` tree nodes.

    `unary(rng, child)` and `binary(rng, left, right)` draw one operator of
    the logic and apply it.  The operands come as thunks, so each logic keeps
    its own order of draws, and with it the formulas a seed yields.
    """
    def sub(b):
        return lambda: _random_formula(rng, props, b, unary, binary)

    if budget <= 1 or rng.random() < 0.25:
        return Prop(rng.choice(props))
    if budget == 2 or rng.random() < 0.4:
        return unary(rng, sub(budget - 1))
    lbud = rng.randint(1, budget - 2)
    return binary(rng, sub(lbud), sub(budget - 1 - lbud))


def _ltl_unary(rng, child):
    return LtlUnary(rng.choice(UNARY_OPS), child())


def _ltl_binary(rng, left, right):
    return LtlBinary(rng.choice(BINARY_OPS), left(), right())


def _ctl_unary(rng, child):
    c = child()
    if rng.random() < 0.4:
        return CtlNot(c)
    quant, op = rng.choice(_CTL_QUANT_UNARY)
    return CtlQuantUnary(quant, op, c)


def _ctl_binary(rng, left, right):
    lhs, rhs = left(), right()
    if rng.random() < 0.5:
        return CtlBinary(rng.choice(LOGICAL_BINARY_OPS), lhs, rhs)
    quant, op = rng.choice(_CTL_QUANT_BINARY)
    return CtlQuantBinary(quant, op, lhs, rhs)


# ---------------------------------------------------------------------------
# CNF round trips through the learner
# ---------------------------------------------------------------------------

def exhaustive_cnfs(variables: int = 2, max_clauses: int = 3) -> list:
    """Every CNF over `variables` with up to `max_clauses` distinct clauses,
    each clause a set of at most three literals."""
    literals = [v for k in range(1, variables + 1) for v in (k, -k)]
    pool = []
    for r in (1, 2, 3):
        pool.extend(tuple(c) for c in itertools.combinations(literals, r))
    out = []
    for n in range(max_clauses + 1):
        for clauses in itertools.combinations(pool, n):
            out.append(CnfInstance(variables, clauses))
    return out


def random_cnfs(count: int, seed: int, max_variables: int = 4,
                max_clauses: int = 6) -> list:
    """Seeded random CNFs with 1..max_variables variables and
    1..max_clauses clauses of 1-3 distinct literals each."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, max_variables)
        literals = [v for k in range(1, m + 1) for v in (k, -k)]
        n = rng.randint(1, max_clauses)
        clauses = []
        for _ in range(n):
            arity = rng.randint(1, min(3, len(literals)))
            clauses.append(tuple(rng.sample(literals, arity)))
        out.append(CnfInstance(m, clauses))
    return out


def _round_trip_one(cnf):
    """One CNF through both logics: its satisfiability, the decision of
    learning its word sample, whether that witness yields a satisfying
    assignment, and the decision of learning the same sample's one-state
    structures."""
    t0 = time.time()
    sample = reduce_sat(cnf)
    outcome = learn(sample)
    record = {"satisfiable": sat_oracle(cnf) is not None,
              "learned": outcome.decision, "extraction_ok": True,
              "ctl_learned": learn(reduce_ltl_to_ctl(sample)).decision}
    if outcome.decision:
        try:
            valuation = extract_valuation(outcome.witness, cnf)
            record["extraction_ok"] = satisfies(cnf, valuation)
        except (ExtractionError, RuntimeError):
            record["extraction_ok"] = False
    record["elapsed"] = time.time() - t0
    return record


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker-count default: the TEMPLEARN_JOBS variable, else CPU count.

    A count below 1, or a TEMPLEARN_JOBS value that is not an integer of at
    least 1, raises `ValueError`.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, not {jobs}")
        return jobs
    env = os.environ.get("TEMPLEARN_JOBS")
    if not env:
        return max(1, min(os.cpu_count() or 1, 8))
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0  # refused below, naming the value as it was given
    if jobs < 1:
        raise ValueError("TEMPLEARN_JOBS must be an integer of at least 1, "
                         f"not {env!r}")
    return jobs


def _parallel_map(fn, items, jobs):
    jobs = min(resolve_jobs(jobs), max(1, len(items)))
    if jobs == 1:
        return [fn(item) for item in items]
    import multiprocessing
    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=8)


def run_cnf_round_trip(instances, jobs: int | None = None) -> dict:
    """One pass over `instances`, each CNF reduced once and handled in one
    worker call.

    Returns two :class:`SuiteResult` values keyed by:

    * ``"cnf-round-trip"`` — satisfiability agrees with learnability of the
      word sample, and every learned witness yields a satisfying
      assignment;
    * ``"ctl-round-trip"`` — learning on the one-state structures of the
      same sample decides as learning on its words did.
    """
    start = time.time()
    records = _parallel_map(_round_trip_one, instances, jobs)
    ltl, ctl = _Violations(), _Violations()
    sat_count = 0
    for cnf, rec in zip(instances, records):
        sat_count += rec["satisfiable"]
        if rec["satisfiable"] != rec["learned"]:
            ltl.add(f"decision mismatch on {cnf}: satisfiable="
                    f"{rec['satisfiable']} learned={rec['learned']}")
        elif rec["learned"] and not rec["extraction_ok"]:
            ltl.add(f"extraction failed on {cnf}")
        if rec["ctl_learned"] != rec["learned"]:
            ctl.add(f"branching-time decision mismatch on {cnf}: "
                    f"expected {rec['learned']} got {rec['ctl_learned']}")
    details = {"satisfiable": sat_count,
               "unsatisfiable": len(instances) - sat_count,
               "max_instance_seconds": max(
                   (r["elapsed"] for r in records), default=0.0)}
    return {name: _result(name, bag, len(instances), start, details)
            for name, bag in (("cnf-round-trip", ltl),
                              ("ctl-round-trip", ctl))}


# ---------------------------------------------------------------------------
# Lasso checker vs bounded-window naive evaluator
# ---------------------------------------------------------------------------

def _random_word(rng, props, max_length: int):
    letters = single_letters(props)
    total = rng.randint(1, max_length)
    period = rng.randint(1, total)
    return Word([rng.choice(letters) for _ in range(total - period)],
                [rng.choice(letters) for _ in range(period)])


# The size caps of the random formula and word of each lasso-oracle pair.
_LASSO_FORMULA_MAX_SIZE = 5
_LASSO_WORD_MAX_LENGTH = 4


def run_lasso_oracle_equivalence(pairs: int = 10000, seed: int = 0,
                                 props=("p", "q")) -> SuiteResult:
    """The bit-vector checker agrees with the bounded-window naive
    evaluator on random formula/word pairs, at every position."""
    start = time.time()
    rng = random.Random(seed)
    bad = _Violations()
    positions = 0
    for _ in range(pairs):
        f = _random_formula(rng, props, _LASSO_FORMULA_MAX_SIZE, _ltl_unary,
                            _ltl_binary)
        w = _random_word(rng, props, _LASSO_WORD_MAX_LENGTH)
        vector = satisfaction_vector(f, w)
        for i in range(w.length):
            positions += 1
            if naive_check_ltl(f, w, position=i) != vector[i]:
                bad.add(f"{print_formula(f)} at position {i} of {w}")
    return _result("lasso-oracle-equivalence", bad, pairs, start,
                   {"positions_checked": positions})
