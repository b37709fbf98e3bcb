"""Model checking over lasso words and Kripke structures.

All sub-formula values are bit vectors (Python ints) with one bit per
position: a suffix class of an ultimately periodic word, or a state of a
structure.  Both domains share one trusted core: each supplies its pre-image
EX, and EU and EG are the least and greatest fixpoints over it, iterated on
whole vectors.  One operator table, keyed by `(token, quantifier)` rows,
rewrites every operator to these three through its defining identity; the
checkers and the learner both take their vector functions from it.  Every
operator node carries its row, so one `evaluate` serves both logics.
Callers outside `evaluate` bind each row's function once with `domain.op`.
`quant_unary`/`quant_binary` have no caller; they remain, like the per-call
`unary`/`binary` of `evaluate`, as names the benchmark's tracer wraps.

A lasso word is the deterministic Kripke structure with one successor per
suffix class, so its EX is X: one right shift within the words, plus one
left shift per distinct period length that carries each loop start onto the
last class of its word.  On a deterministic structure E and A agree, so an
LTL row is the CTL row of the same token.  For structures, EX labels the
states that have a successor in the argument.

`domain.lanes(k)` runs every row over `k` vectors at once, packed side by
side into one int in lanes of `W` bits, `W` the domain's size rounded up to
whole bytes.  Every step of a row is bitwise except EX, so a row is exact
lane by lane as long as EX moves no bit across a lane boundary.  The lasso
EX keeps that condition: after its right shift it masks off each word's
last class and the lane's padding bits, where a bit of the next lane
lands, and its loop-back shifts stay inside their word.  The structure EX
keeps it because each lane's term is a predecessor mask within one
structure, below 2^W.
"""

from __future__ import annotations

from functools import partial
from operator import and_, or_, xor

from .formulas import (
    AND, ALWAYS, CTL, EVENTUALLY, IFF, IMPLIES, LOGIC_NAMES, LTL, NEXT, NOT,
    OR, RELEASE, STRONG_RELEASE, TEMPORAL_BINARY_OPS, TEMPORAL_UNARY_OPS,
    UNTIL, WEAK_UNTIL, Formula, LtlBinary, LtlUnary, Prop, is_ctl, is_ltl,
    prop_names,
)
from .models import KripkeStructure, Sample, Word


# The vector function of every operator row `(token, quantifier)`, as a
# function of the domain `d` whose core it is written over: `d.full`,
# `d.v_ex`, `d.v_eu` and `d.v_eg`.  The quantified rows are the CTL
# semantics, each universal row the dual of an existential rewrite.
OPERATOR_TABLE = {
    (NOT, None): lambda d: partial(xor, d.full),
    (AND, None): lambda d: and_,
    (OR, None): lambda d: or_,
    (IMPLIES, None): lambda d: lambda a, b: (d.full ^ a) | b,
    (IFF, None): lambda d: lambda a, b: d.full ^ (a ^ b),
    (NEXT, "E"): lambda d: d.v_ex,
    (NEXT, "A"): lambda d: lambda a: d.full ^ d.v_ex(d.full ^ a),
    (EVENTUALLY, "E"): lambda d: partial(d.v_eu, d.full),
    (EVENTUALLY, "A"): lambda d: lambda a: d.full ^ d.v_eg(d.full ^ a),
    (ALWAYS, "E"): lambda d: d.v_eg,
    (ALWAYS, "A"): lambda d: lambda a: d.full ^ d.v_eu(d.full, d.full ^ a),
    (UNTIL, "E"): lambda d: d.v_eu,
    (UNTIL, "A"): lambda d: lambda a, b: d.full ^ (
        d.v_eu(d.full ^ b, d.full ^ (a | b)) | d.v_eg(d.full ^ b)),
    (RELEASE, "E"): lambda d: lambda a, b: d.v_eu(b, a & b) | d.v_eg(b),
    (RELEASE, "A"): lambda d: lambda a, b: d.full ^ d.v_eu(d.full ^ a,
                                                         d.full ^ b),
    (WEAK_UNTIL, "E"): lambda d: lambda a, b: d.v_eu(a, b) | d.v_eg(a),
    (WEAK_UNTIL, "A"): lambda d: lambda a, b: d.full ^ d.v_eu(d.full ^ b,
                                                            d.full ^ (a | b)),
    (STRONG_RELEASE, "E"): lambda d: lambda a, b: d.v_eu(b, a & b),
    (STRONG_RELEASE, "A"): lambda d: lambda a, b: d.full ^ (
        d.v_eu(d.full ^ a, d.full ^ b) | d.v_eg(d.full ^ a)),
}
# On a lasso E and A agree, so the linear-time row of a temporal operator is
# the quantified row of the same token that needs one fixpoint.
OPERATOR_TABLE.update(
    {(t, None): OPERATOR_TABLE[t, "A" if t in (RELEASE, WEAK_UNTIL) else "E"]
     for t in TEMPORAL_UNARY_OPS + TEMPORAL_BINARY_OPS})


class _Fixpoints:
    """The fixpoint core that every operator is rewritten to.

    A domain supplies its pre-image `v_ex(a)`, the vector of the positions
    with a successor in `a`; `EU` and `EG` are then its least and greatest
    fixpoints, iterated on whole vectors.  It also keeps `letters`, the
    letter of each position in bit order, which the vector of every
    proposition reads.
    """

    def prop_vector(self, name: str) -> int:
        """The vector of the positions whose letter holds `name`, built on
        the first request for `name` and kept in `_props`."""
        v = self._props.get(name)
        if v is None:
            v = 0
            for bit, letter in enumerate(self.letters):
                if name in letter:
                    v |= 1 << bit
            self._props[name] = v
        return v

    def v_eu(self, a: int, b: int) -> int:
        """E (a U b): the least fixpoint of z = b | (a & EX z)."""
        ex = self.v_ex
        z = b
        while True:
            nz = z | (a & ex(z))
            if nz == z:
                return z
            z = nz

    def v_eg(self, a: int) -> int:
        """EG a: the greatest fixpoint of z = a & EX z."""
        ex = self.v_ex
        z = a
        while True:
            nz = a & ex(z)
            if nz == z:
                return z
            z = nz

    def op(self, token: str, quantifier: str | None = None):
        """The vector function of the operator row `(token, quantifier)`."""
        return OPERATOR_TABLE[token, quantifier](self)

    @property
    def lane_bytes(self) -> int:
        """The width in bytes of one lane of :meth:`lanes`."""
        return max(1, -(-self.size // 8))

    def lanes(self, k: int):
        """This domain repeated `k` times, lane `i` at bits `[i*W, (i+1)*W)`.

        `W` is `8 * lane_bytes`, the domain's size rounded up to whole
        bytes.  So `k` vectors pack by joining their `int.to_bytes` and
        converting once with `int.from_bytes`, and a result unpacks from
        one `to_bytes` of the whole: lane `i` is bytes `[i*W/8,
        (i+1)*W/8)`, which `memoryview.cast` reads as native unsigned ints
        in C when a lane is 1, 2, 4 or 8 bytes on a little-endian host.

        `full` and the masks of EX are replicated by the base-2^W repunit
        `((1 << k*W) - 1) // ((1 << W) - 1)`.  Every operator row taken from
        the view with :meth:`op` then computes the row lane by lane, because
        EX carries no bit across a lane boundary: what the lasso EX shifts
        in from the next lane lands on a masked bit, and each lane's term
        of the structure EX is below 2^W.  Only `op`, `v_ex`, `v_eu` and
        `v_eg` are meant for a view.
        """
        width = 8 * self.lane_bytes
        rep = ((1 << k * width) - 1) // ((1 << width) - 1)
        view = object.__new__(type(self))  # no `__init__`: nothing is built
        view.__dict__.update(self.__dict__, full=self.full * rep,
                             **self._replicated(rep))
        return view

    def accepts(self, vector: int, example: int) -> bool:
        """Does `vector` hold at every start position of example `example`?"""
        mask = self.starts[example]
        return vector & mask == mask

    def unary(self, op: str, a: int, quantifier: str | None = None) -> int:
        return OPERATOR_TABLE[op, quantifier](self)(a)

    def binary(self, op: str, a: int, b: int,
               quantifier: str | None = None) -> int:
        return OPERATOR_TABLE[op, quantifier](self)(a, b)

    def evaluate(self, f: Formula) -> int:
        """The vector of `f`: each node's row `(op, quantifier)` applied to
        its operands' vectors through :meth:`unary` or :meth:`binary`.  A
        node of the other logic raises `TypeError`."""
        cache: dict = {}
        foreign = CTL if self.logic == LTL else LTL

        def go(g) -> int:
            v = cache.get(g)
            if v is None:
                args = g.args
                if not args:
                    v = self.prop_vector(g.name)
                elif g.logic is foreign:
                    raise TypeError(f"not a {LOGIC_NAMES[self.logic]} "
                                    f"formula: {g!r}")
                elif len(args) == 1:
                    v = self.unary(g.op, go(args[0]), g.quantifier)
                else:
                    v = self.binary(g.op, go(args[0]), go(args[1]),
                                    g.quantifier)
                cache[g] = v
            return v

        return go(f)


class LtlDomain(_Fixpoints):
    """A fixed tuple of words over which formula vectors are computed.

    Word `w`'s classes take the bits from `starts[w]`, the mask of its
    first class, upwards: its prefix letters, then its period letters.  The
    domain exposes the per-operator vector transformers so that callers
    (the checker, the learner) can build vectors bottom-up.
    """

    logic = LTL

    def __init__(self, words):
        self.letters = []
        self._props = {}
        self.starts = []
        body = 0  # every class except the last one of each word
        loop_starts: dict = {}  # period length -> loop-start bits
        for w in words:
            offset = len(self.letters)
            self.starts.append(1 << offset)
            body |= ((1 << (w.length - 1)) - 1) << offset
            p = len(w.period)
            loop_starts[p] = loop_starts.get(p, 0) | 1 << (offset + w.loop_start)
            self.letters += w.prefix + w.period
        self.size = len(self.letters)
        self.full = (1 << self.size) - 1
        self._body = body
        # A loop start shifted by its period length - 1 lands on the last
        # class of its word, whose successor it is.
        self._loops = tuple((mask, p - 1) for p, mask in loop_starts.items())

    def _replicated(self, rep: int) -> dict:
        return {"_body": self._body * rep,
                "_loops": tuple((mask * rep, shift)
                                for mask, shift in self._loops)}

    def v_ex(self, a: int) -> int:
        """X a: a lasso is a Kripke structure with one successor per class.

        The right shift moves each class onto its predecessor; `_body`
        drops what lands on a word's last class or on lane padding.
        """
        r = (a >> 1) & self._body
        for mask, shift in self._loops:
            r |= (a & mask) << shift
        return r


class CtlDomain(_Fixpoints):
    """A fixed tuple of structures; vectors carry one bit per state, and
    `starts[m]` is the mask of the initial states of structure `m`."""

    logic = CTL

    def __init__(self, structures):
        self.letters = []  # the state labels
        self._props = {}
        self.starts = []
        # Per structure: its offset, the mask of its states, and the
        # predecessor mask of each state with a predecessor, both local.
        self._blocks = []
        for m in structures:
            offset = len(self.letters)
            index = {s: i for i, s in enumerate(m.states)}
            preds = [0] * len(m.states)
            for a, b in m.edges:
                preds[index[b]] |= 1 << index[a]
            self._blocks.append((offset, (1 << len(m.states)) - 1,
                                 [(j, p) for j, p in enumerate(preds) if p]))
            init = 0
            for s in m.initial:
                init |= 1 << (offset + index[s])
            self.starts.append(init)
            self.letters += m.labels
        self.size = len(self.letters)
        self.full = (1 << self.size) - 1
        self._rep = 1  # one lane

    def _replicated(self, rep: int) -> dict:
        return {"_rep": rep,
                "_blocks": [(offset, mask * rep, preds)
                            for offset, mask, preds in self._blocks]}

    def v_ex(self, s: int) -> int:
        """EX s: the union of the predecessor masks of the states in `s`.

        One structure at a time, in lane form: `block` holds the
        structure's states at the bottom of each lane, `(block >> j) & rep`
        has bit 0 of each lane set when that lane holds state `j`, and its
        product with the state's predecessor mask, below 2^W, stays inside
        the lane.  With one lane `rep` is 1, and shifting one structure's
        block instead of the whole vector keeps the per-state steps on
        short ints.
        """
        rep = self._rep
        r = 0
        for offset, mask, preds in self._blocks:
            block = (s >> offset) & mask
            if block:
                acc = 0
                for j, pred in preds:
                    acc |= ((block >> j) & rep) * pred
                r |= acc << offset
        return r

    def quant_unary(self, quantifier: str, op: str, a: int) -> int:
        return OPERATOR_TABLE[op, quantifier](self)(a)

    def quant_binary(self, quantifier: str, op: str, a: int, b: int) -> int:
        return OPERATOR_TABLE[op, quantifier](self)(a, b)


def satisfaction_vector(f: Formula, word: Word) -> tuple:
    """Truth value of `f` at every suffix class of `word`."""
    v = LtlDomain((word,)).evaluate(f)
    return tuple(bool((v >> i) & 1) for i in range(word.length))


def check_ltl(f: Formula, word: Word) -> bool:
    """Does the infinite word satisfy `f`?"""
    return bool(LtlDomain((word,)).evaluate(f) & 1)


def satisfying_states(f: Formula, structure: KripkeStructure) -> frozenset:
    """Names of the states of `structure` that satisfy `f`."""
    d = CtlDomain((structure,))
    v = d.evaluate(f)
    return frozenset(s for i, s in enumerate(structure.states) if (v >> i) & 1)


def check_ctl(f: Formula, structure: KripkeStructure) -> bool:
    """Does the structure satisfy `f`, i.e. do all its initial states?"""
    d = CtlDomain((structure,))
    return d.accepts(d.evaluate(f), 0)


def check_separating(f: Formula, sample: Sample) -> bool:
    """Does `f` hold on every positive example and fail on every negative one?

    One domain over all the examples and one evaluation; each example is
    then read off at its start mask: its first class or its initial states.
    """
    ltl = sample.logic == LTL
    if not (is_ltl if ltl else is_ctl)(f):
        raise ValueError(f"a {LOGIC_NAMES[CTL if ltl else LTL]} formula "
                         f"cannot be checked against a "
                         f"{LOGIC_NAMES[sample.logic]} sample")
    extra = prop_names(f) - sample.alphabet
    if extra:
        raise ValueError(f"formula uses {sorted(extra)[0]!r} outside the "
                         f"sample alphabet")
    domain = (LtlDomain if ltl else CtlDomain)(sample.examples)
    v = domain.evaluate(f)
    starts = domain.starts
    n_pos = len(sample.positives)
    return (all(v & m == m for m in starts[:n_pos])
            and not any(v & m == m for m in starts[n_pos:]))


def naive_check_ltl(f: Formula, word: Word, position: int = 0) -> bool:
    """Decide satisfaction by direct recursion on the defining clauses.

    Position quantifiers scan a window of |prefix| + 2 * |period| further
    positions, which reaches every suffix class attainable from the current
    position.  Deliberately simple and slow; serves as an oracle for the
    vector-based checker.
    """
    window = len(word.prefix) + 2 * len(word.period)
    t = type(f)
    if t is Prop:
        return f.name in word.letter_at(position)
    if t is LtlUnary:
        if f.op == NOT:
            return not naive_check_ltl(f.child, word, position)
        if f.op == NEXT:
            return naive_check_ltl(f.child, word, position + 1)
        if f.op == EVENTUALLY:
            return any(naive_check_ltl(f.child, word, j)
                       for j in range(position, position + window))
        return all(naive_check_ltl(f.child, word, j)
                   for j in range(position, position + window))
    if t is LtlBinary:
        if f.op == AND:
            return (naive_check_ltl(f.left, word, position)
                    and naive_check_ltl(f.right, word, position))
        if f.op == OR:
            return (naive_check_ltl(f.left, word, position)
                    or naive_check_ltl(f.right, word, position))
        if f.op == IMPLIES:
            return (not naive_check_ltl(f.left, word, position)
                    or naive_check_ltl(f.right, word, position))
        if f.op == IFF:
            return (naive_check_ltl(f.left, word, position)
                    == naive_check_ltl(f.right, word, position))
        if f.op == UNTIL:
            return _naive_until(f.left, f.right, word, position, window)
        if f.op == RELEASE:
            return not _naive_until(LtlUnary(NOT, f.left), LtlUnary(NOT, f.right),
                                    word, position, window)
        if f.op == WEAK_UNTIL:
            return (_naive_until(f.left, f.right, word, position, window)
                    or naive_check_ltl(LtlUnary(ALWAYS, f.left), word, position))
        # STRONG_RELEASE
        return (naive_check_ltl(LtlBinary(RELEASE, f.left, f.right), word, position)
                and naive_check_ltl(LtlUnary(EVENTUALLY, f.left), word, position))
    raise TypeError(f"not a linear-time formula: {f!r}")


def _naive_until(left, right, word, position, window):
    for j in range(position, position + window):
        if naive_check_ltl(right, word, j):
            if all(naive_check_ltl(left, word, k) for k in range(position, j)):
                return True
    return False
