"""Independent reference checks for the benchmark.

Nothing here calls the model checkers under test (`LtlDomain`, `CtlDomain`,
`check_separating`) or the package's own SAT oracle.  LTL outputs are
checked with the package's deliberately naive recursive evaluator
`naive_check_ltl`, which shares no code with the bit-vector checker; CTL
outputs with the explicit-state, set-based fixpoint evaluator below; SAT
decisions by brute force over all assignments.
"""

from __future__ import annotations

from itertools import product


def formula_text(f) -> str:
    """Fully parenthesised text of a generated formula, written without the
    package's printer, so the program only ever sees text it must parse."""
    kind = type(f).__name__
    if kind == "Prop":
        return f.name
    if kind == "LtlUnary":
        return f"({f.op} {formula_text(f.child)})"
    if kind == "CtlNot":
        return f"(! {formula_text(f.child)})"
    if kind == "CtlQuantUnary":
        return f"({f.quantifier} {f.op} {formula_text(f.child)})"
    inner = f"({formula_text(f.left)} {f.op} {formula_text(f.right)})"
    if kind == "CtlQuantBinary":
        return f"({f.quantifier} {inner})"
    return inner


def dag_size(f) -> int:
    """Number of distinct sub-formulas, computed without `formulas.size`."""
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        for attr in ("child", "left", "right"):
            sub = getattr(g, attr, None)
            if sub is not None:
                stack.append(sub)
    return len(seen)


# ---------------------------------------------------------------------------
# CTL: explicit state sets and textbook fixpoints
# ---------------------------------------------------------------------------

class Structure:
    """A total Kripke structure as plain Python sets, for the reference
    evaluator.  `succ[s]` is the set of successors of state `s`."""

    def __init__(self, labels, succ, initial):
        self.labels = tuple(frozenset(l) for l in labels)
        self.succ = tuple(frozenset(s) for s in succ)
        self.initial = frozenset(initial)
        self.states = frozenset(range(len(self.labels)))

    def ex(self, z: frozenset) -> frozenset:
        return frozenset(s for s in self.states if self.succ[s] & z)

    def ax(self, z: frozenset) -> frozenset:
        return frozenset(s for s in self.states if self.succ[s] <= z)


def _lfp(step) -> frozenset:
    z = frozenset()
    while True:
        nz = step(z)
        if nz == z:
            return z
        z = nz


def _gfp(step, top) -> frozenset:
    z = top
    while True:
        nz = step(z)
        if nz == z:
            return z
        z = nz


def ctl_states(f, m: Structure) -> frozenset:
    """States of `m` satisfying `f`, by the fixpoint characterisation of
    each quantified operator (no rewriting to an EX/EU/EG core)."""
    kind = type(f).__name__
    if kind == "Prop":
        return frozenset(s for s in m.states if f.name in m.labels[s])
    if kind == "CtlNot":
        return m.states - ctl_states(f.child, m)
    if kind == "CtlBinary":
        a, b = ctl_states(f.left, m), ctl_states(f.right, m)
        if f.op == "&":
            return a & b
        if f.op == "|":
            return a | b
        if f.op == "->":
            return (m.states - a) | b
        return m.states - (a ^ b)
    nxt = m.ex if f.quantifier == "E" else m.ax
    if kind == "CtlQuantUnary":
        a = ctl_states(f.child, m)
        if f.op == "X":
            return nxt(a)
        if f.op == "F":
            return _lfp(lambda z: a | nxt(z))
        return _gfp(lambda z: a & nxt(z), m.states)
    if kind != "CtlQuantBinary":
        raise TypeError(f"not a branching-time formula: {f!r}")
    a, b = ctl_states(f.left, m), ctl_states(f.right, m)
    if f.op == "U":
        return _lfp(lambda z: b | (a & nxt(z)))
    if f.op == "W":
        return _gfp(lambda z: b | (a & nxt(z)), m.states)
    if f.op == "R":
        return _gfp(lambda z: b & (a | nxt(z)), m.states)
    return _lfp(lambda z: b & (a | nxt(z)))  # M


def ctl_holds(f, m: Structure) -> bool:
    return m.initial <= ctl_states(f, m)


# ---------------------------------------------------------------------------
# SAT by brute force
# ---------------------------------------------------------------------------

def satisfies(clauses, valuation: dict) -> bool:
    """Does the total assignment {variable: bool} make every clause true?"""
    return all(any(valuation[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses)


def satisfiable(variable_count: int, clauses) -> bool:
    for bits in product((False, True), repeat=variable_count):
        if satisfies(clauses, dict(enumerate(bits, start=1))):
            return True
    return False
