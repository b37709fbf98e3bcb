"""Formula transformations.

* `SINGLE_LETTER_REDUCT` says what each temporal operator reduces to on
  a word of one repeated letter.
* `temporal_eliminate` rewrites a linear-time formula into a temporal-free
  one that agrees with it on every single-letter word, without ever growing
  the set of distinct sub-formulas.
* `strip_quantifiers` / `insert_quantifiers` translate between the two
  logics by removing or adding path quantifiers, preserving size.
* `analyze_conciseness` reports whether a formula is read-once (every binary
  node combines children over disjoint propositions, no unary operators).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .formulas import (
    ALWAYS, AND, BINARY_OPS, CTL, EVENTUALLY, LOGIC_NAMES, LTL, NEXT, OR,
    RELEASE, STRONG_RELEASE, TEMPORAL_OPS, UNARY_OPS, UNTIL, WEAK_UNTIL,
    Formula, is_ltl, node_builder, subformulas,
)

_BLOCK_NAME_RE = re.compile(r"^x(\d+)(_bar)?$")

# The single-letter reduct of each temporal operator: on a word of one
# repeated letter, W agrees with the disjunction and M with the conjunction
# of its operands, and each other one (None) with its last operand.  Read by
# `temporal_eliminate`, the learner's pruned operator rows and the formula
# sweep; `run_reduct_identities` checks it independently.
SINGLE_LETTER_REDUCT = {NEXT: None, EVENTUALLY: None, ALWAYS: None,
                        UNTIL: None, RELEASE: None,
                        WEAK_UNTIL: OR, STRONG_RELEASE: AND}


def temporal_eliminate(f: Formula) -> Formula:
    """Remove every temporal operator while preserving single-letter truth.

    Each temporal node becomes its `SINGLE_LETTER_REDUCT` applied to the
    images of its operands; logical connectives are kept.  The result's
    sub-formulas are images of the input's sub-formulas, so the size never
    increases.
    """
    if not is_ltl(f):
        raise TypeError("temporal elimination is defined on linear-time "
                        "formulas only")
    memo: dict = {}
    build = _ROW_BUILDERS[LTL, None]

    def go(g):
        r = memo.get(g)
        if r is None:
            if not g.args:
                r = g
            elif (op := SINGLE_LETTER_REDUCT.get(g.op, g.op)) is None:
                r = go(g.args[-1])
            else:
                r = build[op](*map(go, g.args))
            memo[g] = r
        return r

    return go(f)


def is_temporal_free(f: Formula) -> bool:
    """True when `f` uses only propositions and logical connectives."""
    return not any(g.args and g.op in TEMPORAL_OPS for g in subformulas(f))


# Per target `(logic, quantifier)`: the constructor of each operator token,
# each temporal one under the quantifier (None for LTL).
_ROW_BUILDERS = {(logic, q): {op: node_builder(logic, op, q if op in
                                               TEMPORAL_OPS else None)
                              for op in UNARY_OPS + BINARY_OPS}
                 for logic, q in ((LTL, None), (CTL, "E"), (CTL, "A"))}


def _requantify(f: Formula, logic: str, quantifier=None) -> Formula:
    """Rebuild `f`, a formula of the other logic, row by row in `logic`:
    each temporal row takes `quantifier` (None for LTL), the others none.
    The operator tree, and so the size, is unchanged."""
    memo: dict = {}
    build = _ROW_BUILDERS[logic, quantifier]

    def go(g):
        r = memo.get(g)
        if r is None:
            if g.logic is logic:
                raise TypeError(f"expected a formula without "
                                f"{LOGIC_NAMES[logic]} nodes, got {g!r}")
            args = g.args
            if not args:
                r = g
            elif len(args) == 1:
                r = build[g.op](go(args[0]))
            else:
                r = build[g.op](go(args[0]), go(args[1]))
            memo[g] = r
        return r

    return go(f)


def strip_quantifiers(f: Formula) -> Formula:
    """Drop every path quantifier, turning a branching-time formula into the
    linear-time formula with the same operator tree (size-preserving)."""
    return _requantify(f, LTL)


def insert_quantifiers(f: Formula, quantifier: str = "E") -> Formula:
    """Prefix every temporal operator with the given path quantifier,
    turning a linear-time formula into a branching-time one of equal size."""
    if quantifier not in ("E", "A"):
        raise ValueError(f"unknown path quantifier {quantifier!r}")
    return _requantify(f, CTL, quantifier)


@dataclass(frozen=True)
class ConcisenessReport:
    """Outcome of `analyze_conciseness`."""

    is_temporal_free: bool
    is_concise: bool
    propositions_used: frozenset
    per_block_count: dict = field(compare=False)


def infer_blocks(names) -> dict:
    """Group `x<k>` / `x<k>_bar` proposition names into indexed pairs."""
    blocks: dict = {}
    for name in names:
        m = _BLOCK_NAME_RE.match(name)
        if m:
            k = int(m.group(1))
            blocks.setdefault(k, set()).update({f"x{k}", f"x{k}_bar"})
    return blocks


def analyze_conciseness(f: Formula, blocks=None) -> ConcisenessReport:
    """Check the read-once property: a proposition is concise, and a binary
    combination of concise formulas over disjoint proposition sets is
    concise; nothing else is (in particular no unary operator may occur).

    `blocks` optionally maps a block index to its proposition set; when
    omitted, blocks are inferred from `x<k>`/`x<k>_bar` name pairs.
    """
    if not is_ltl(f):
        raise TypeError("conciseness is defined on linear-time formulas only")

    def go(g):
        if not g.args:
            return True, frozenset((g.name,))
        if len(g.args) == 1:
            _, props = go(g.child)
            return False, props
        cl, pl = go(g.left)
        cr, pr = go(g.right)
        return cl and cr and not (pl & pr), pl | pr

    concise, used = go(f)
    if blocks is None:
        blocks = infer_blocks(used)
    counts = {k: len(used & frozenset(members))
              for k, members in sorted(blocks.items(), key=lambda kv: str(kv[0]))}
    return ConcisenessReport(
        is_temporal_free=is_temporal_free(f),
        is_concise=concise,
        propositions_used=frozenset(used),
        per_block_count=counts,
    )
