"""Model checking over lasso words and Kripke structures.

All sub-formula values are bit vectors (Python ints) with one bit per
position: a suffix class of an ultimately periodic word, or a state of a
structure.  Both domains share one trusted core: the pre-image EX, and EU
and EG, its least and greatest fixpoints, iterated on whole vectors; a
domain supplies only the successor masks that EX reads.  One operator
table, keyed by `(token, quantifier)` rows, rewrites every operator to
these three through its defining identity; the checkers and the learner
both take their vector functions from it.  Every operator node carries its
row, so one `evaluate` serves both logics.  Callers outside `evaluate`
bind each row's function once with `domain.op`.  `quant_unary` and
`quant_binary` have no caller; they remain, like the per-call `unary` and
`binary` of `evaluate`, as names the benchmark's tracer wraps.

A lasso word is the deterministic Kripke structure with one successor per
suffix class, so one EX serves both logics, and on a deterministic
structure E and A agree, so an LTL row is the CTL row of the same token.
EX groups the edges by the bit offset from a position to its successor
and keeps, per offset, the mask of the successors: `_next` for successors
one bit up, `_down` for successors `d >= 2` bits up and `_up` for
successors `d >= 0` bits down (0 is a self-loop), each named for the way
its terms shift.  EX is one AND and one shift per offset on the whole
vector.  On a lasso `_next` is every class except each word's first, and
`_up` holds the loop starts, one mask per period length; on structures
each edge adds its target to the mask of its offset.

`domain.lanes(k)` runs every row over `k` vectors at once, packed side by
side into one int in lanes of `W` bits, `W` the domain's size rounded up to
whole bytes.  Every step of a row is bitwise except EX, so a row is exact
lane by lane as long as EX moves no bit across a lane boundary.  It does
not: EX masks before it shifts, and a position in any mask is the
successor of the position `d` bits away that the shift moves it onto, in
the same example, so in the same lane.
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

    A domain supplies the successor masks of its pre-image `v_ex(a)`, the
    vector of the positions with a successor in `a`; `EU` and `EG` are then
    its least and greatest fixpoints, iterated on whole vectors.  It also
    keeps `letters`, the letter of each position in bit order, which the
    vector of every proposition reads.
    """

    def prop_vector(self, name: str) -> int:
        """The vector of the positions whose letter holds `name`, 0 for a
        name in no letter.  The first request builds every name's vector
        in one pass over `letters` and keeps them in `_props`."""
        props = self._props
        if props is None:
            props = self._props = {}
            for bit, letter in enumerate(self.letters):
                for p in letter:
                    props[p] = props.get(p, 0) | 1 << bit
        return props.get(name, 0)

    def v_ex(self, a: int) -> int:
        """EX a: the positions with a successor in `a`.

        A position in `_next` is the successor of the position one bit
        down; one in the mask of `_down` or `_up` at `d`, of the position
        `d` bits down or up.  Each term keeps the successors in `a` and
        shifts them onto those positions.
        """
        r = (a & self._next) >> 1
        if self._down:  # a lasso has none: skip the empty loop's cost
            for d, m in self._down:
                r |= (a & m) >> d
        for d, m in self._up:
            r |= (a & m) << d
        return r

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
        converting once with `int.from_bytes`, and lane `i` of a result is
        bytes `[i*W/8, (i+1)*W/8)` of one `to_bytes` of the whole.

        `full` and the masks of EX are replicated by the base-2^W repunit
        `((1 << k*W) - 1) // ((1 << W) - 1)`.  Every operator row taken from
        the view with :meth:`op` then computes the row lane by lane,
        because EX shifts only masked positions, each onto its predecessor
        in its own example and so in its own lane.  Only `op`, `v_ex`,
        `v_eu` and `v_eg` are meant for a view.
        """
        width = 8 * self.lane_bytes
        rep = ((1 << k * width) - 1) // ((1 << width) - 1)
        view = object.__new__(type(self))  # no `__init__`: nothing is built
        view.__dict__.update(
            self.__dict__, full=self.full * rep, _next=self._next * rep,
            _down=tuple((d, m * rep) for d, m in self._down),
            _up=tuple((d, m * rep) for d, m in self._up))
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

    def evaluate(self, f: Formula, cache: dict | None = None) -> int:
        """The vector of `f`: each node's row `(op, quantifier)` applied to
        its operands' vectors through :meth:`unary` or :meth:`binary`.  A
        node of the other logic raises `TypeError`.  `cache` maps nodes to
        their vectors and is extended; calls that share one evaluate each
        node once."""
        if cache is None:
            cache = {}
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
        self._props = None
        self.starts = []
        nxt = 0
        up: dict = {}  # period length - 1 -> the loop starts of those words
        for w in words:
            offset = len(self.letters)
            self.starts.append(1 << offset)
            nxt |= ((1 << (w.length - 1)) - 1) << (offset + 1)
            # The loop start is the successor of the last class, period
            # length - 1 bits down from it.
            d = len(w.period) - 1
            up[d] = up.get(d, 0) | 1 << (offset + w.loop_start)
            self.letters += w.prefix + w.period
        self.size = len(self.letters)
        self.full = (1 << self.size) - 1
        self._next, self._down, self._up = nxt, (), tuple(up.items())


class CtlDomain(_Fixpoints):
    """A fixed tuple of structures; vectors carry one bit per state, and
    `starts[m]` is the mask of the initial states of structure `m`."""

    logic = CTL

    def __init__(self, structures):
        self.letters = []  # the state labels
        self._props = None
        self.starts = []
        far: dict = {}  # successor offset, negative when below -> mask
        for m in structures:
            offset = len(self.letters)
            index = {s: offset + i for i, s in enumerate(m.states)}
            for a, b in m.edges:
                d = index[b] - index[a]
                far[d] = far.get(d, 0) | 1 << index[b]
            init = 0
            for s in m.initial:
                init |= 1 << index[s]
            self.starts.append(init)
            self.letters += m.labels
        self.size = len(self.letters)
        self.full = (1 << self.size) - 1
        self._next = far.pop(1, 0)
        self._down = tuple((d, m) for d, m in far.items() if d > 1)
        self._up = tuple((-d, m) for d, m in far.items() if d < 1)

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
