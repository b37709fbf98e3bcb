"""Reductions between satisfiability and formula learning.

`reduce_sat` turns a CNF into a learning sample over paired propositions
`x<k>` / `x<k>_bar`: one single-letter word per clause (its letter holds the
encoded literals), one consistency word per variable (letter `{x_k,
x_k_bar}`), the empty-letter word as the only negative, and size bound
`2m - 1`.  A satisfying assignment yields a separating disjunction of `m`
literals (`formula_from_valuation`); conversely `extract_valuation` turns an
arbitrary separating formula within the bound back into a satisfying
assignment by eliminating temporal operators, checking conciseness, and
reading one literal per block off the polarities of its sub-formulas, all
classified on one domain (as `extract_disjunction` does).

`reduce_ltl_to_ctl` transfers a single-letter-word LTL sample to the
branching-time problem by embedding each word as a one-state structure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .formulas import (
    AND, IFF, IMPLIES, OR,
    Formula, LtlBinary, Prop, size,
)
from .models import LTL, Sample, Word, embed_word
from .semantics import LtlDomain, check_separating
from .transforms import analyze_conciseness, infer_blocks, temporal_eliminate

logger = logging.getLogger("templearn.reductions")

_SAT_ORACLE_LIMIT = 24


class ExtractionError(ValueError):
    """A precondition of the extraction pipeline does not hold."""


@dataclass(frozen=True)
class CnfInstance:
    """A CNF over variables 1..variable_count; literals are signed indices."""

    variable_count: int
    clauses: tuple

    def __init__(self, variable_count, clauses):
        if variable_count < 0:
            raise ValueError("the variable count must be nonnegative")
        normalized = []
        for i, clause in enumerate(clauses, start=1):
            lits = tuple(clause)
            if not lits:
                raise ValueError(f"clause {i} is empty")
            for lit in lits:
                if not isinstance(lit, int) or lit == 0:
                    raise ValueError(f"clause {i}: literal {lit!r} is not a "
                                     f"nonzero integer")
                if abs(lit) > variable_count:
                    raise ValueError(f"clause {i}: literal {lit} references "
                                     f"a variable beyond {variable_count}")
            normalized.append(lits)
        object.__setattr__(self, "variable_count", variable_count)
        object.__setattr__(self, "clauses", tuple(normalized))


def parse_dimacs(text: str) -> CnfInstance:
    """Parse the standard `p cnf <vars> <clauses>` format."""
    variable_count = None
    declared_clauses = None
    literals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if variable_count is not None:
                raise ValueError(f"line {lineno}: repeated problem header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: malformed header {line!r}; "
                                 f"expected 'p cnf <vars> <clauses>'")
            try:
                variable_count = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric header fields "
                                 f"in {line!r}") from None
            continue
        if variable_count is None:
            raise ValueError(f"line {lineno}: clause before the 'p cnf' "
                             f"header")
        for tok in line.split():
            try:
                literals.append(int(tok))
            except ValueError:
                raise ValueError(f"line {lineno}: {tok!r} is not an "
                                 f"integer literal") from None
    if variable_count is None:
        raise ValueError("missing 'p cnf' header")
    clauses = []
    current = []
    for lit in literals:
        if lit == 0:
            if not current:
                raise ValueError(f"clause {len(clauses) + 1} is empty")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        clauses.append(tuple(current))
    if len(clauses) != declared_clauses:
        raise ValueError(f"header declares {declared_clauses} clauses but "
                         f"{len(clauses)} were given")
    return CnfInstance(variable_count, clauses)


def write_dimacs(cnf: CnfInstance) -> str:
    lines = [f"p cnf {cnf.variable_count} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _prop_of(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"x{-lit}_bar"


def _block_words(k: int):
    return Word((), (frozenset((f"x{k}", f"x{k}_bar")),))


_EMPTY_WORD = Word((), (frozenset(),))


def reduce_sat(cnf: CnfInstance) -> Sample:
    """Learning instance whose positive answers are exactly the satisfiable
    CNFs: clause words, per-variable consistency words, the empty-letter
    word as negative, and bound `2m - 1`."""
    m = cnf.variable_count
    if m < 1:
        raise ValueError("the reduction needs at least one variable")
    alphabet = frozenset(p for k in range(1, m + 1)
                         for p in (f"x{k}", f"x{k}_bar"))
    positives = [Word((), (frozenset(_prop_of(lit) for lit in clause),))
                 for clause in cnf.clauses]
    positives.extend(_block_words(k) for k in range(1, m + 1))
    return Sample(alphabet=alphabet, logic=LTL, positives=positives,
                  negatives=[_EMPTY_WORD], bound=2 * m - 1)


def formula_from_valuation(valuation: dict) -> Formula:
    """Left-associated disjunction of the assignment's literals, one per
    variable: `x_k` where true, `x_k_bar` where false; size `2m - 1`."""
    m = len(valuation)
    if m < 1:
        raise ValueError("the valuation must assign at least one variable")
    if set(valuation) != set(range(1, m + 1)):
        raise ValueError("the valuation must be total on variables 1..m")
    f = None
    for k in range(1, m + 1):
        leaf = Prop(f"x{k}" if valuation[k] else f"x{k}_bar")
        f = leaf if f is None else LtlBinary(OR, f, leaf)
    return f


def satisfies(cnf: CnfInstance, valuation: dict) -> bool:
    """Does the total assignment make every clause true?"""
    return all(any(valuation[abs(lit)] == (lit > 0) for lit in clause)
               for clause in cnf.clauses)


def sat_oracle(cnf: CnfInstance):
    """Brute-force satisfiability: the first satisfying assignment in
    counting order (all-false first, x1 toggling fastest), or None."""
    m = cnf.variable_count
    if m > _SAT_ORACLE_LIMIT:
        raise ValueError(f"the brute-force oracle is capped at "
                         f"{_SAT_ORACLE_LIMIT} variables")
    for bits in range(1 << m):
        valuation = {k: bool(bits >> (k - 1) & 1) for k in range(1, m + 1)}
        if satisfies(cnf, valuation):
            return valuation
    return None


def reduce_ltl_to_ctl(sample: Sample) -> Sample:
    """Embed every single-letter word of an LTL sample as a one-state
    structure; alphabet and bound carry over unchanged."""
    if sample.logic != LTL:
        raise ValueError("expected a linear-time sample")
    return Sample(alphabet=sample.alphabet, logic="ctl",
                  positives=[embed_word(w) for w in sample.positives],
                  negatives=[embed_word(w) for w in sample.negatives],
                  bound=sample.bound)


_ALLOWED_CHILD_POLARITIES = {
    (OR, 1): {(1, 1)},
    (AND, -1): {(-1, -1)},
    (IMPLIES, 1): {(-1, 1)},
    (IFF, 1): {(-1, 1), (1, -1)},
    (IFF, -1): {(1, 1), (-1, -1)},
}


def _literals(f, used, blocks) -> dict:
    """The literal of each block in `f`, which uses the propositions `used`,
    read top-down through the polarity of every sub-formula.

    One domain classifies every sub-formula: bit 0 is the empty word and
    the rest the consistency words of the used blocks.  A sub-formula has
    polarity +1 when it accepts the words of its own blocks and rejects the
    empty word, -1 in the reversed pattern, and none otherwise.  One
    bottom-up pass gives every sub-formula the mask of its blocks, and the
    evaluations share one cache, which the first, of `f` itself, fills: the
    extraction is linear in the size of `f`.
    """
    block_of: dict = {}
    for k, members in blocks.items():
        for name in members:
            block_of.setdefault(name, k)
    for name in used:
        if name not in block_of:
            raise ExtractionError(f"proposition {name!r} belongs to no "
                                  f"block")
    ids = sorted({block_of[name] for name in used})
    domain = LtlDomain([_EMPTY_WORD] + [_block_words(k) for k in ids])
    bit = {k: 2 << i for i, k in enumerate(ids)}
    vectors: dict = {}  # shared by every evaluation below
    masks: dict = {}  # sub-formula -> bit 0 and the bits of its blocks

    def block_mask(g) -> int:
        if type(g) is Prop:
            mask = 1 | bit[block_of[g.name]]
        else:
            mask = block_mask(g.left) | block_mask(g.right)
        masks[g] = mask
        return mask

    def polarity(g) -> int:
        mask = masks[g]
        v = domain.evaluate(g, vectors) & mask
        if v == mask ^ 1:
            return 1
        if v == 1:
            return -1
        raise ExtractionError(
            f"sub-formula {g} fits neither polarity: it must either accept "
            f"all of its consistency words and reject the empty word, or "
            f"the reverse")

    out: dict = {}

    def walk(g, pol):
        if type(g) is Prop:
            if pol != 1:
                raise ExtractionError(
                    f"proposition {g} reached with negative polarity; this "
                    f"cannot happen for a separating concise formula")
            out[block_of[g.name]] = g
            return
        pl, pr = polarity(g.left), polarity(g.right)
        allowed = _ALLOWED_CHILD_POLARITIES.get((g.op, pol), frozenset())
        if (pl, pr) not in allowed:
            raise ExtractionError(
                f"operator {g.op!r} with polarity {pol:+d} admits child "
                f"polarities {sorted(allowed)}, but found ({pl:+d}, {pr:+d})")
        walk(g.left, pl)
        walk(g.right, pr)

    block_mask(f)
    if polarity(f) != 1:
        raise ExtractionError("the formula must accept its consistency "
                              "words and reject the empty word")
    walk(f, 1)
    return out


def extract_disjunction(f: Formula, blocks=None) -> Formula:
    """Turn a temporal-free, concise formula that separates its blocks'
    consistency words from the empty word into an implied disjunction with
    exactly one literal per block (left-associated, blocks ascending)."""
    report = analyze_conciseness(f, blocks)
    if not report.is_temporal_free:
        raise ExtractionError("the formula must be temporal-free")
    if not report.is_concise:
        raise ExtractionError("the formula must be concise (read-once, no "
                              "unary operators)")
    if blocks is None:
        blocks = infer_blocks(report.propositions_used)
    bad = [k for k, c in report.per_block_count.items() if c != 1]
    if bad:
        raise ExtractionError(f"expected exactly one proposition per block; "
                              f"violated at block(s) {bad}")
    out = _literals(f, report.propositions_used, blocks)
    result = None
    for k in sorted(out):
        result = out[k] if result is None else LtlBinary(OR, result, out[k])
    return result


def extract_valuation(f: Formula, cnf: CnfInstance) -> dict:
    """Satisfying assignment from any separating formula within the bound:
    eliminate temporal operators, verify conciseness, extract one literal
    per variable block, and read the assignment off the literals."""
    m = cnf.variable_count
    sample = reduce_sat(cnf)
    if size(f) > sample.bound:
        raise ExtractionError(f"formula size {size(f)} exceeds the bound "
                              f"{sample.bound}")
    if not check_separating(f, sample):
        raise ExtractionError("the formula does not separate the reduced "
                              "sample")
    g = temporal_eliminate(f)
    blocks = {k: frozenset((f"x{k}", f"x{k}_bar")) for k in range(1, m + 1)}
    report = analyze_conciseness(g, blocks)
    if (not report.is_concise
            or any(report.per_block_count[k] != 1 for k in blocks)):
        # The counting argument rules this out for any separating formula
        # within the bound; reaching here indicates a bug.
        logger.error("temporal-free image %s of %s is not a one-per-block "
                     "concise formula; this contradicts the size arithmetic",
                     g, f)
        raise RuntimeError("internal error: the temporal-free image is not "
                           "concise with one proposition per block")
    literals = _literals(g, report.propositions_used, blocks)
    valuation = {k: literals[k].name == f"x{k}" for k in sorted(literals)}
    if set(valuation) != set(blocks) or not satisfies(cnf, valuation):
        logger.error("extracted assignment %s from %s does not satisfy the "
                     "CNF", valuation, f)
        raise RuntimeError("internal error: the extracted assignment does "
                           "not satisfy the CNF")
    return valuation
