"""Exact learning of minimal separating formulas.

The search enumerates candidate formulas bottom-up by *closure size*: the
cost of a candidate is the number of distinct sub-formulas it contains (DAG
size), not its tree node count.  Each registered candidate keeps its
closure: the bitset (a Python int) of the ids of its sub-formulas, its own
id included, whose popcount is its cost.  Applying a binary operator to
candidates costs `|closure(left) ∪ closure(right)| + 1`, one popcount of an
OR, which is how shared sub-formulas make large trees cheap.

Candidates are produced in nondecreasing cost through three schedules that
jointly cover every operator application exactly once:

* unary applications of a registered candidate (cost + 1);
* pairs where one operand is a sub-formula of the other — enumerated from
  the containing side's closure (cost + 1, since the union adds nothing);
* incomparable pairs — scheduled when the younger operand is registered, at
  the exact layer `|union| + 1`.

A layer below the bound (at bound 1, the seeds) is scheduled as a few
column grids, one row per operand (a registration, or a pair of them) and
one column per operator row.  Registering a layer adds one *within* grid
to the next layer (unary rows, pairs with each id of the operand union,
self-pairs) and one *incomparable* grid to each higher layer below the
bound (the pairs sized at that cost), so a layer lists its triples in the
order they were scheduled.  It is composed with one `map` of an operator
function per grid column; then one dict maps each of its distinct
signatures to its first position.  That dict is screened for separating
signatures (a hit's positions are decoded only then), gives the keep list
as its keys less the signatures seen before, and updates the set of
those, whose size is the search's `distinct_signatures`.  Only the
candidates that are kept are decoded into triples and registered, in
layer order, because that order decides which of several same-signature
candidates is kept: in SEMANTIC mode the first of each new signature, and
none from the layer's first separating candidate on, so that a search
that has its answer expands nothing further.

A layer's kept candidates are registered in one pass, and candidates
with the same operand union `S` (the closure less the candidate's own id,
so they share their cost `|S| + 1`) share its bookkeeping: the ids of `S`,
and the union sizes `|S ∪ closure(g)| + 1` over the older candidates `g`,
for none of which a member is a sub-formula.  Each later member sizes only
the candidates registered since the previous one.

Candidates of exactly the bound are never registered, yet they are most of
the search.  Each layer hands the registrations' shares of them over in
one batch, as lists of operand ids.  A partner of a registration two below
the bound completes it in the final layer when the partner lies outside
its closure and the partner's operands inside.  Such partners are looked
up by their operands, once per operand union rather than by a popcount
over every earlier candidate: the only candidates of the layer with their
operands in `S` are the other members of `S`, which join the list as they
are registered.  The shares only queue operand ids, and only of their
forward pairs `(nid, d)`:
every such pair with `d != nid` has its mirror `(d, nid)` in the final
layer too.  A flush runs the operator rows of the table over the queue,
packed side by side in the lanes of one int (`domain.lanes`): one bitwise
step or one fixpoint on a wide vector instead of one per candidate.  A
unary row runs over the queued operands.  A commuting row (`&`, `|`,
`<->`) runs over the forward pairs only, and each winning pair `(a, b)`
with `a != b` adds its mirror `(b, a)` to the winners; any other binary
row runs over the forward pairs followed by their mirrors, built from the
same two packed ints.  The screen of start positions runs on the packed
vector, and a lane that passes it separates unless a negative example has
several initial states: only then is the lane's value read, for the full
separation test.  So the final layer adds nothing to
`distinct_signatures`, which does not depend on how it is flushed.  The
queue is flushed when its widest packed call would reach `_LANE_CAP` lanes
and when the search reaches the final layer.

The rows run in opcode order, which is the order of their keys in
`structural_key`, until one wins.  A formula's key starts with its top
row's key, so the witness, the least key among the winners, lies in the
least winning row, and no row after it runs, in this flush or a later one.
No row runs at all once a layer below the bound has won: the answer has
that layer's cost.  A layer below the bound keeps its least row's winners
too, so the search answers with the winners of one row at one cost.

Each candidate carries a semantic signature: the bit vector of its values at
every suffix class of every sample word (or every state of every sample
structure).  In SEMANTIC mode a candidate is dropped when the same signature
was already produced by a candidate of equal or lower cost.  Under tree size
the earlier candidate could stand in for the later one wherever it would
have been used, at no greater cost.  Under DAG size, the cost used here, it
cannot: a stand-in that shares no sub-formula with its sibling costs more
than the dropped candidate would have, so the search can miss the minimal
witness and answer with a larger one, or with "no formula" within a bound
that has one (`tests/test_learner.py::TestPruningUnderDagSize` gives a
sample where the default search finds nothing at bound 3 and NONE mode finds
`F q -> q`).  A signature reported as separating is always genuine (it
belongs to a concrete formula of that cost), so pruning can never produce a
false positive or an undersized answer; the exhaustive NONE mode keeps
every candidate and serves as the reference oracle that the test suite
checks SEMANTIC mode against.

In SEMANTIC mode the layers below the bound, like the final one, skip two
kinds of application whose signature is known without composing them.
Both are still counted in `candidates_generated`, so every output and count
is that of the full schedule.  The mirror `(d, nid)` of a pair `(nid, d)` of
`&`, `|` or `<->` would sit right after the pair with its signature, so it
is never the first of its signature; when the pair wins, its mirror joins
the winners right after it.  A self-pair `x • x` of an idempotent row (`&`,
`|`, `U`, `R`, `W`, `M`, under either quantifier) has the signature of `x`,
seen when `x` was registered, and a registered candidate never separates:
it was kept from before its layer's first winner, and the search stops
after a winning layer.  `x -> x` and `x <-> x` are composed: their
signature, true everywhere, is known only because SEMANTIC mode keeps `p ->
p` from layer 2, and a sound pruning rule that drops a candidate only when
its signature is among its operands' would keep them.  NONE mode and
`enumerate_formulas` schedule everything: there a mirror is a formula of
its own that is registered and expanded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .formulas import (
    AND, CTL, IFF, LTL, NOT, OR, RELEASE, STRONG_RELEASE, UNTIL, WEAK_UNTIL,
    LOGICAL_BINARY_OPS, QUANTIFIERS, TEMPORAL_BINARY_OPS, TEMPORAL_UNARY_OPS,
    Formula, OperatorSet, Prop, conforms, is_ctl, is_ltl, node_builder, size,
    structural_key,
)
from .models import Sample
from .semantics import CtlDomain, LtlDomain, check_separating
from .transforms import SINGLE_LETTER_REDUCT


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
    """Search parameters; `bound=None` takes the bound from the sample.
    The logic is always the sample's."""

    bound: int | None = None
    bound_mode: BoundMode = BoundMode.AT_MOST
    operators: OperatorSet = OperatorSet.full()
    dedup: DedupMode = DedupMode.SEMANTIC
    bound_limit: int = 12


@dataclass(frozen=True)
class LearnOutcome:
    """Decision, optional witness, witness size, and search statistics."""

    decision: bool
    witness: Formula | None
    size: int | None
    stats: dict = field(compare=False, default_factory=dict)


def _bit_ids(bits: int) -> list:
    """The positions of the set bits of `bits`, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class Layer:
    """One cost layer's schedule below the bound, as column grids.

    A grid ``(n, ids, columns)`` has ``n`` rows and lists ``n *
    len(columns)`` triples, row by row and, within a row, column by column:
    column ``(opcode, i, j)`` of row ``r`` is ``(opcode, ids[i][r],
    ids[j][r])``, or ``(opcode, ids[i][r], -1)`` when ``j`` is None.  The
    layer lists its grids' triples one grid after another; iterating it
    yields them in that order.  No grid is empty.
    """

    __slots__ = ("grids", "size")

    def __init__(self, grids):
        self.grids = grids
        self.size = sum(n * len(columns) for n, _, columns in grids)

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(self.at(range(self.size)))

    def at(self, positions) -> list:
        """The triples at the increasing `positions`, in one pass."""
        out = []
        grids = iter(self.grids)
        end = 0
        for p in positions:
            while p >= end:
                n, ids, columns = next(grids)
                start, w = end, len(columns)
                end += n * w
            r, k = divmod(p - start, w)
            op, i, j = columns[k]
            out.append((op, ids[i][r], -1 if j is None else ids[j][r]))
        return out


class ClosureEnumeration:
    """Layered generation of all operator applications over a seed set.

    A candidate is a triple ``(opcode, left, right)`` over the ids of
    registered candidates; ``right`` is -1 for unary opcodes (those below
    ``n_unary``), and seed ``i`` is ``(-1, i, -1)``.  ``run()`` hands each
    cost layer, the seeds as layer 1, to ``layer(cost, layer)`` in one
    call, as a :class:`Layer` that yields its triples in schedule order.
    Below ``max_size`` that is every layer; at ``max_size`` only the seeds,
    when ``max_size`` is 1.  The callback returns ``(keep, payloads)``:
    the increasing positions of the triples to register and their payloads
    (:meth:`compose` computes a layer's).
    Registering gives a candidate the next dense id and, below
    ``max_size``, schedules its applications, so a callback stops the
    search from expanding by keeping nothing from some position on.
    ``closures[i]`` is the bitset of the ids of the sub-formulas of
    candidate ``i``, ``i`` included, so its cost is
    ``closures[i].bit_count()``.

    Candidates of exactly ``max_size`` are never registered.  They form the
    final and by far the largest layer, so they are not materialized one by
    one: each layer hands its registrations' shares of them to
    ``visit_top(nids, unary, partner_lists)`` in one call, once the layer
    is registered and out of cost order.  The share of ``nids[i]`` is
    every unary opcode applied to it when ``unary`` is set, and for every
    binary opcode the pairs ``(nids[i], d)`` for ``d`` in
    ``partner_lists[i]`` and their mirrors ``(d, nids[i])`` for ``d !=
    nids[i]``; ``partner_lists`` is an iterable, read once, in step with
    ``nids``.  A registration with no share is left out.
    :meth:`top_triples` lists a batch in schedule order.

    ``commuting`` and ``idempotent`` are sets of binary opcodes whose
    applications below ``max_size`` are counted in ``generated`` but never
    scheduled: the mirror ``(op, d, nid)`` of each pair ``(op, nid, d)`` of
    a commuting opcode, and the self-pair ``(op, nid, nid)`` of an
    idempotent one.  Only a caller that reads their signatures off other
    candidates passes them; by default every application is scheduled.

    ``run()`` yields each completed cost layer, ``max_size`` included.
    """

    def __init__(self, seed_payloads, n_unary, n_binary, max_size, layer,
                 visit_top, commuting=frozenset(), idempotent=frozenset()):
        self.seed_payloads = list(seed_payloads)
        self.n_unary = n_unary
        self.n_ops = n_unary + n_binary
        binary = range(n_unary, self.n_ops)
        # The binary applications a registration schedules below the final
        # layer, in schedule order: per partner `d` the pairs `(op, nid, d)`
        # and, unless `op` commutes, `(op, d, nid)` (flip set); per
        # registration the self-pairs of the rows that are not idempotent.
        self._pairs = [(op, flip) for op in binary for flip in (
            (False,) if op in commuting else (False, True))]
        self._selves = [op for op in binary if op not in idempotent]
        # The mirrors skipped per partner, the self-pairs per registration.
        self._skip_per_partner = 2 * n_binary - len(self._pairs)
        self._skip_per_registration = n_binary - len(self._selves)
        self.max_size = max_size
        self.layer = layer
        self.visit_top = visit_top
        self.generated = 0
        self.payloads: list = []
        self.closures: list = []
        self.builds: list = []  # (opcode, left, right); seeds (-1, index, -1)
        # The ids below cost `max_size - 2` by their operands: (-1, -1)
        # for seeds, (-1, a) for unary and (min, max) for binary ones.
        self._by_operands: dict = {}
        self._buckets: list = []
        self._skipped: list = []  # per cost, the applications not scheduled

    def run(self):
        ms = self.max_size
        if ms < 1:
            return
        buckets = self._buckets = [[] for _ in range(ms + 1)]
        n_seeds = len(self.seed_payloads)
        if n_seeds:
            buckets[1] = [(n_seeds, [range(n_seeds)], [(-1, 0, None)])]
        skipped = self._skipped = [0] * (ms + 1)
        for cost in range(1, ms + 1):
            layer = Layer(buckets[cost])
            buckets[cost] = None
            self.generated += len(layer) + skipped[cost]
            if layer.size:  # the last bucket stays empty
                keep, payloads = self.layer(cost, layer)
                self._register_layer(cost, layer.at(keep), payloads)
            yield cost

    def compose(self, fns, layer) -> list:
        """The payloads of a :class:`Layer`'s triples: the seeds' own, or
        ``fns[opcode]`` applied to the operands' payloads, one ``map`` per
        grid column over the payloads of the grid's id lists."""
        if layer.grids[0][2][0][0] < 0:  # the seeds' column (-1, 0, None)
            return self.seed_payloads
        pay = self.payloads
        out = [None] * layer.size
        start = 0
        for n, ids, columns in layer.grids:
            args = [pay[i.start:i.stop] if type(i) is range
                    else list(map(pay.__getitem__, i)) for i in ids]
            w = len(columns)
            end = start + n * w
            for k, (op, i, j) in enumerate(columns, start):
                out[k:end:w] = (map(fns[op], args[i]) if j is None
                                else map(fns[op], args[i], args[j]))
            start = end
        return out

    def compose_triples(self, fns, triples) -> list:
        """The payloads of a list of triples of registered operands, such
        as a :meth:`top_triples` batch."""
        pay = self.payloads
        return [fns[op](pay[a]) if b < 0 else fns[op](pay[a], pay[b])
                for op, a, b in triples]

    def _register_layer(self, cost, kept, payloads):
        """Register a layer's kept triples in order, giving each the next
        id, and schedule their applications.  Candidates with the same
        operand union `S`, the closure less the candidate's own id, share
        the ids of `S` and, below ``max_size - 2``, the sizes of their
        unions with the older candidates; at ``max_size - 2`` they share
        their final-layer partners."""
        closures = self.closures
        nids = range(len(closures), len(closures) + len(kept))
        unions = [closures[a] | closures[b] if b >= 0
                  else closures[a] if op >= 0 else 0 for op, a, b in kept]
        closures += [u | 1 << nid for u, nid in zip(unions, nids)]
        self.payloads += payloads
        self.builds += kept
        ms = self.max_size
        n_unary = self.n_unary
        n_binary = self.n_ops - n_unary
        if cost == ms:
            return
        if cost == ms - 1:
            # Every application reaches the final layer: the partners of
            # `nid` are the ids of its closure, its own id last.
            if n_binary:
                ids = {u: _bit_ids(u) for u in set(unions)}
                self.generated += n_binary * (2 * sum(
                    len(ids[u]) for u in unions) + len(kept))
                shares = (ids[u] + [nid] for u, nid in zip(unions, nids))
            else:
                shares = [[]] * len(kept)
            self.generated += len(kept) * n_unary
            self.visit_top(nids, True, shares)
            return
        buckets, skipped = self._buckets, self._skipped
        pairs = self._pairs
        per_partner = self._skip_per_partner
        by_operands = self._by_operands
        below = cost < ms - 2
        # Every registration has `cost - 1` ids in `S`.  Its row of the
        # layer's *within* grid, in bucket `cost + 1`, holds its unary
        # applications, then per position `j` of `S`'s ids the pairs with
        # that id, then its self-pairs.  Column `j + 1` of the grid's ids
        # is the `j`-th id of each row's `S`.
        within = [(op, 0, None) for op in range(n_unary)]
        within += [(op, j, 0) if flip else (op, 0, j)
                   for j in range(1, cost) for op, flip in pairs]
        within += [(op, 0, 0) for op in self._selves]
        if not n_binary:
            if kept and within:
                buckets[cost + 1].append((len(kept), [nids], within))
            return
        skipped[cost + 1] += len(kept) * (
            (cost - 1) * per_partner + self._skip_per_registration)
        # Per target cost `j + 2` below `ms - 1`: the rows `(nid, g)` of the
        # layer's *incomparable* grid, as its left and right ids.
        incomparable = {j: ([], []) for j in range(cost, ms - 2)}
        # Per union `S`: its ids and its members' final-layer partners, a
        # list whose prefixes are the members' shares.  At `ms - 2` a
        # partner lies outside `S` with its operands inside, which among
        # this layer's candidates only the members of `S` do, so each
        # member joins the list for the next.  Below `ms - 2`, also the
        # older candidates `g` outside `S` by `|S ∪ closure(g)|`, from
        # `cost` to `ms - 2` (the partners), and how many ids are sized
        # so far: a member's union with `closure(g)` has one more id, its
        # own, so the pair costs `|S ∪ closure(g)| + 2`.
        groups: dict = {}
        rows, share_ids, cuts = [], [], []
        for nid, u in zip(nids, unions):
            group = groups.get(u)
            if group is None:
                subs = _bit_ids(u)
                if below:
                    sized = {j: [] for j in range(cost, ms - 1)}
                    group = [subs, sized[ms - 2], sized, 0]
                else:
                    ids = [-1, *subs]
                    group = [subs, sorted(
                        g for i, a in enumerate(ids) for b in ids[i:]
                        for g in by_operands.get((a, b), ())
                        if not u >> g & 1)]
                groups[u] = group
            subs, top = group[:2]
            rows.append(subs)
            if below:
                sized, done = group[2:]
                sizes = [(u | c).bit_count() for c in closures[done:nid]]
                for j, gs in sized.items():
                    gs += [g for g, x in enumerate(sizes, done) if x == j]
                group[3] = nid
                for j, (lefts, rights) in incomparable.items():
                    if gs := sized[j]:
                        lefts += [nid] * len(gs)
                        rights += gs
            if top:
                share_ids.append(nid)
                cuts.append((top, len(top)))
            if not below:
                top.append(nid)
        if kept and within:
            buckets[cost + 1].append((len(kept), [nids, *zip(*rows)],
                                      within))
        columns = [(op, 1, 0) if flip else (op, 0, 1) for op, flip in pairs]
        for j, (lefts, rights) in incomparable.items():
            if lefts:
                buckets[j + 2].append((len(lefts), [lefts, rights], columns))
                skipped[j + 2] += per_partner * len(lefts)
        if share_ids:
            self.generated += 2 * n_binary * sum(n for _, n in cuts)
            self.visit_top(share_ids, False, (top[:n] for top, n in cuts))
        if below:  # only the layer at `ms - 2` looks partners up
            for nid, (op, a, b) in zip(nids, kept):
                key = ((-1, -1) if op < 0 else (-1, a) if b < 0
                       else (min(a, b), max(a, b)))
                by_operands.setdefault(key, []).append(nid)

    def top_triples(self, nids, unary, partner_lists):
        """The (opcode, left, right) triples of one ``visit_top`` batch, in
        the order they were scheduled."""
        binary = range(self.n_unary, self.n_ops)
        for nid, partners in zip(nids, partner_lists):
            if unary:
                for op in range(self.n_unary):
                    yield op, nid, -1
            for d in partners:
                for op in binary:
                    yield op, nid, d
                    if d != nid:
                        yield op, d, nid

    def build_formula(self, triple, seed_builder, op_builders) -> Formula:
        """Reconstruct the AST for a visit triple (opcode, left, right)."""
        memo: dict = {}

        def of_id(i):
            node = memo.get(i)
            if node is None:
                node = of_triple(self.builds[i])
                memo[i] = node
            return node

        def of_triple(build):
            opcode, a, b = build
            if opcode < 0:
                return seed_builder(a)
            if b < 0:
                return op_builders[opcode](of_id(a))
            return op_builders[opcode](of_id(a), of_id(b))

        return of_triple(triple)


@lru_cache(maxsize=None)
def _op_table(logic: str, operators: OperatorSet, skip_trivial: bool):
    """The operator rows of the candidate space, unary and binary.

    A row is ``(token, quantifier)``, the quantifier None except on the
    path-quantified operators of CTL.  Rows follow the fixed operator order,
    existential before universal; a row's index is its opcode, unary rows
    first.  With `skip_trivial` (all examples single-letter, SEMANTIC mode)
    a temporal row is omitted when its `SINGLE_LETTER_REDUCT` is generated
    anyway: its last operand (None), or a connective that is allowed.
    """
    quants = ((None,) if logic == LTL else
              tuple(q for q in QUANTIFIERS if q in operators.quantifiers))
    generated = {None, *operators.binary} if skip_trivial else ()

    def temporal(ops, allowed):
        return tuple((op, q) for op in ops if op in allowed
                     and SINGLE_LETTER_REDUCT[op] not in generated
                     for q in quants)

    unary = ((NOT, None),) if NOT in operators.unary else ()
    binary = tuple((op, None) for op in LOGICAL_BINARY_OPS
                   if op in operators.binary)
    return (unary + temporal(TEMPORAL_UNARY_OPS, operators.unary),
            binary + temporal(TEMPORAL_BINARY_OPS, operators.binary))


@lru_cache(maxsize=None)
def _builders(logic: str, rows) -> tuple:
    """The AST constructors of an operator table, indexed by opcode."""
    return tuple(node_builder(logic, *row) for row in rows[0] + rows[1])


def _build_domain(sample: Sample):
    """Evaluation domain, positive-example mask, screen, separating-signature
    test, and triviality flag.

    A separating signature `sig` has `sig & screen == pos_mask`: it holds at
    the start of every positive example and misses the one start position
    of every negative example that has only one.  For lassos, and for
    structures with one initial state each, that is the whole test.
    """
    examples = sample.examples
    domain = (LtlDomain if sample.logic == LTL else CtlDomain)(examples)
    starts = domain.starts
    # One suffix class per word, or one state per structure.
    trivial = domain.size == len(examples)
    n_pos = len(sample.positives)
    pos_mask = 0
    for m in starts[:n_pos]:
        pos_mask |= m
    screen = pos_mask
    wide = []  # negative examples with several initial states
    for m in starts[n_pos:]:
        if m & (m - 1):
            wide.append(m)
        else:
            screen |= m

    def is_separating(sig: int) -> bool:
        return (sig & screen == pos_mask
                and all(sig & m != m for m in wide))

    return domain, pos_mask, screen, is_separating, trivial


# How wide the final layer's widest packed call may grow before a flush:
# twice the queued forward pairs (a non-commuting row runs over them and
# their mirrors) plus the queued unary operands.  It bounds the memory that
# the queued ids and each row's packed lanes hold.
_LANE_CAP = 4096

# The binary rows whose operands commute: the mirror of a lane has the
# lane's own signature.
_COMMUTING = frozenset((op, None) for op in (AND, OR, IFF))

# The binary tokens whose rows, under either quantifier, map `(a, a)` to `a`.
_IDEMPOTENT = (AND, OR, UNTIL, RELEASE, WEAK_UNTIL, STRONG_RELEASE)


def _run_search(names, domain, rows, pos_mask, screen, is_separating,
                bound, semantic, exhaust=False):
    """One enumeration pass; returns (winning cost, build triples, the
    enumeration, stats).

    The triples are the separating candidates of the winning cost whose top
    row is the least among them, mirrors included; which ones does not
    depend on `_LANE_CAP`.  By default the pass stops at the first (hence
    minimal) layer containing a separating candidate; `exhaust=True`
    collects only the candidates of cost exactly `bound` and exhausts the
    whole space (used for exact-size decisions).
    """
    unary_rows, binary_rows = rows
    n_unary = len(unary_rows)
    all_rows = unary_rows + binary_rows
    fns = [domain.op(*row) for row in all_rows]

    seed_sigs = [domain.prop_vector(name) for name in names]
    winners: dict = {}
    distinct: set = set()  # the signatures of the layers composed so far
    binary = range(n_unary, len(fns))
    commuting = [op for op in binary if all_rows[op] in _COMMUTING]
    # In SEMANTIC mode the layers below the bound skip the mirrors of the
    # commuting rows and the self-pairs of the idempotent ones.
    mirrored = frozenset(commuting) if semantic else frozenset()
    idempotent = frozenset(op for op in binary if semantic
                           and all_rows[op][0] in _IDEMPOTENT)

    def layer(cost, triples):
        # Every separating candidate of the layer wins.  Without a fixed
        # winning cost, registration stops at the first of them, so that
        # nothing past it is expanded.  The screen and the keep list run
        # over the layer's distinct signatures, each at its first position.
        sigs = enum.compose(fns, triples)
        n = stop = len(sigs)
        first = dict(zip(reversed(sigs), range(n - 1, -1, -1)))
        if not exhaust or cost == bound:
            won = {sig for sig in first
                   if sig & screen == pos_mask and is_separating(sig)}
            if won:
                # A skipped mirror wins with its forward pair, just after
                # it, where the full schedule would have placed it.
                found = []
                for t in triples.at([i for i, sig in enumerate(sigs)
                                     if sig in won]):
                    found.append(t)
                    op, a, b = t
                    if op in mirrored and a != b:
                        found.append((op, b, a))
                if not exhaust:
                    stop = min(map(first.__getitem__, won))
                # Only the least row's winners can hold the witness.
                least = min(op for op, _, _ in found)
                winners[cost] = [t for t in found if t[0] == least]
        new = first.keys() - distinct
        distinct.update(new)
        if not semantic:
            return range(stop), sigs[:stop]
        # The first candidate of each signature that is new, in layer order.
        keep = sorted(i for i in map(first.__getitem__, new) if i < stop)
        return keep, [sigs[i] for i in keep]

    # The final layer's queue: the forward pairs `(left_ids[i],
    # right_ids[i])` of the binary rows, and the operands `unary_ids[i]` of
    # the unary rows.  Mirrors are not queued.
    left_ids: list = []
    right_ids: list = []
    unary_ids: list = []
    encoded: list = []  # payloads[i] as one lane's bytes
    width = domain.lane_bytes
    bits = 8 * width

    def visit_top(nids, unary, partner_lists):
        for nid, partners in zip(nids, partner_lists):
            if unary:
                unary_ids.append(nid)
            left_ids.extend([nid] * len(partners))
            right_ids.extend(partners)
            if 2 * len(left_ids) + len(unary_ids) >= _LANE_CAP:
                flush()

    def pack(ids):
        return int.from_bytes(b"".join(map(encoded.__getitem__, ids)),
                              "little")

    # The screen is the whole test unless a negative example has several
    # initial states: the screen leaves out exactly their start positions.
    screen_decides = not any(m & ~screen for m in domain.starts)

    def hits(views, op, k, xs):
        # One packed call of row `op` over `k` lanes, screened on the packed
        # vector; `views` holds the flush's view, screen and repunit per
        # lane count.  The lanes that pass are read, from one `to_bytes` of
        # the row, only when the screen is not the whole test.
        if k not in views:
            rep = ((1 << k * bits) - 1) // ((1 << bits) - 1)
            views[k] = domain.lanes(k), screen * rep, pos_mask * rep, rep
        view, screens, wants, rep = views[k]
        packed = view.op(*all_rows[op])(*xs)
        passed = _zero_lanes((packed & screens) ^ wants, width, rep)
        if passed and not screen_decides:
            raw = packed.to_bytes(k * width, "little")
            passed = [i for i in passed if is_separating(int.from_bytes(
                raw[i * width:(i + 1) * width], "little"))]
        return passed

    won_row = len(fns)  # the least opcode with a winner at the bound so far

    def flush():
        # The rows run in opcode order, which is key order, up to `won_row`
        # and through the first row that wins: every formula of a later row
        # has a greater key.  None runs once a layer below the bound has
        # won.  A commuting row runs over the `k` forward lanes; any other
        # binary row over `2k`, the forward pairs and then their mirrors,
        # where the mirror of a pair `(a, a)` repeats its forward lane and
        # is dropped.
        nonlocal won_row
        found = []
        if min(winners, default=bound) == bound:
            encoded.extend(p.to_bytes(width, "little")
                           for p in payloads[len(encoded):])
            views: dict = {}
            if unary_ids:
                u = pack(unary_ids)
                for op in range(min(n_unary, won_row + 1)):
                    found = [(op, unary_ids[i], -1) for i in
                             hits(views, op, len(unary_ids), (u,))]
                    if found:
                        break
            ops = range(n_unary, min(len(fns), won_row + 1))
            if left_ids and ops and not found:
                k = len(left_ids)
                x, y = pack(left_ids), pack(right_ids)
                both = None
                for op in ops:
                    if op in commuting:
                        for i in hits(views, op, k, (x, y)):
                            a, b = left_ids[i], right_ids[i]
                            found.append((op, a, b))
                            if a != b:
                                found.append((op, b, a))
                    else:
                        if both is None:
                            shift = k * bits
                            both = x | y << shift, y | x << shift
                        for i in hits(views, op, 2 * k, both):
                            if i < k:
                                found.append((op, left_ids[i], right_ids[i]))
                            elif left_ids[i - k] != right_ids[i - k]:
                                found.append((op, right_ids[i - k],
                                              left_ids[i - k]))
                    if found:
                        break
        if found:  # the final layer's cost is the bound
            if found[0][0] < won_row:
                won_row = found[0][0]
                winners[bound] = found
            else:
                winners[bound] += found
        left_ids.clear()
        right_ids.clear()
        unary_ids.clear()

    enum = ClosureEnumeration(seed_sigs, n_unary, len(binary_rows), bound,
                              layer, visit_top, mirrored, idempotent)
    payloads = enum.payloads
    for cost in enum.run():
        if cost == bound:
            flush()
        if not exhaust and winners.get(cost):
            break
    best_cost = min(winners) if winners else None
    stats = {"candidates_generated": enum.generated,
             "distinct_signatures": len(distinct)}
    return best_cost, winners.get(best_cost, []), enum, stats


def _zero_lanes(z: int, width: int, rep: int) -> list:
    """The increasing indices of the lanes of `z` that are zero.

    Lanes are `width` bytes wide and `rep` is their repunit.  Adding `low`,
    all of each lane's bits below its top bit, sets a lane's top bit when
    one of those bits is set, and carries nothing into the next lane; OR-ing
    `z` back adds the top bit itself.  So `high & ~(...)` keeps the top bit
    of exactly the zero lanes, whatever their top bits hold.  Shifted to
    bit 0 it lies in the lane's lowest byte, where `bytes.find` finds it.
    """
    high = rep << (8 * width - 1)
    low = high - rep
    flags = (high & ~(((z & low) + low) | z)) >> (8 * width - 1)
    raw = flags.to_bytes(-(-flags.bit_length() // 8), "little")
    out = []
    i = raw.find(1)
    while i >= 0:
        out.append(i // width)
        i = raw.find(1, i + 1)
    return out


def _pick_witness(enum, triples, names, logic, rows):
    """Deterministic tie-break: least structural key (proposition name, then
    the fixed operator order, existential before universal)."""
    builders = _builders(logic, rows)
    return min((enum.build_formula(t, lambda i: Prop(names[i]), builders)
                for t in triples), key=structural_key)


def _pad_witness(witness, gap, logic, rows, trivial):
    """Grow a separating witness by `gap` nodes using identity-preserving
    wrappers from the full operator table `rows`: `f • f` for its first
    idempotent binary row, else double negation for even gaps, else (on
    single-letter samples only) a vacuous temporal prefix.  Returns None
    when no allowed wrapper exists."""
    unary, binary = rows
    row = next((r for r in binary if r[0] in _IDEMPOTENT), None)
    arity = 2
    if row is None:
        row = next((r for r in unary if (gap % 2 == 0 if r[0] == NOT
                                         else trivial)), None)
        arity = 1
    if row is None:
        return None
    make = node_builder(logic, *row)
    for _ in range(gap):
        witness = make(*(witness,) * arity)
    return witness


def _resolve_bound(sample: Sample, config: LearnConfig) -> int:
    bound = config.bound if config.bound is not None else sample.bound
    if bound is None:
        raise ValueError("no size bound: set LearnConfig.bound or the "
                         "sample's bound")
    return bound


def learn(sample: Sample, config: LearnConfig | None = None) -> LearnOutcome:
    """Decide whether a separating formula within the bound exists and, if
    so, return one of minimal size (AT_MOST) or of exactly the bound size
    (EXACTLY).  See the module docstring for the algorithm."""
    if config is None:
        config = LearnConfig()
    bound = _resolve_bound(sample, config)
    if bound < 1:
        raise ValueError("the size bound must be at least 1")
    if bound > config.bound_limit:
        raise ValueError(
            f"bound {bound} exceeds the safety limit {config.bound_limit}; "
            f"the search is exponential in the bound — raise bound_limit "
            f"explicitly if you mean it")

    started = time.perf_counter()
    names = sorted(sample.alphabet)
    logic = sample.logic
    domain, pos_mask, screen, is_separating, trivial = _build_domain(sample)
    semantic = config.dedup == DedupMode.SEMANTIC
    rows = _op_table(logic, config.operators, semantic and trivial)
    exact = config.bound_mode == BoundMode.EXACTLY
    cost, triples, enum, stats = _run_search(
        names, domain, rows, pos_mask, screen, is_separating, bound,
        semantic, exhaust=exact and not semantic)
    stats["elapsed_seconds"] = time.perf_counter() - started

    if cost is None:
        return LearnOutcome(False, None, None, stats)
    witness = _pick_witness(enum, triples, names, logic, rows)
    if exact and cost < bound:
        rows_full = _op_table(logic, config.operators, False)
        padded = _pad_witness(witness, bound - cost, logic, rows_full,
                              trivial)
        if padded is None:
            # No identity-preserving wrapper exists under this operator
            # set; fall back to the exhaustive pass restricted to the
            # exact target size (with the unskipped operator table).
            cost, triples, enum, extra = _run_search(
                names, domain, rows_full, pos_mask, screen, is_separating,
                bound, False, exhaust=True)
            stats["candidates_generated"] += extra["candidates_generated"]
            stats["distinct_signatures"] = max(
                stats["distinct_signatures"], extra["distinct_signatures"])
            stats["elapsed_seconds"] = time.perf_counter() - started
            if cost is None:
                return LearnOutcome(False, None, None, stats)
            witness = _pick_witness(enum, triples, names, logic, rows_full)
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
        config = LearnConfig()
    bound = _resolve_bound(sample, config)
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
    return _enumerate(names, max_size, logic,
                      _op_table(logic, operators, False))


def _enumerate(names, max_size, logic, rows):
    builders = _builders(logic, rows)
    layers: list = []  # the formulas of the layer just completed
    top: list = []  # final-layer triples, in schedule order

    def layer(cost, triples):
        layers.append(enum.compose(builders, triples))
        return range(len(triples)), layers[-1]

    def visit_top(*batch):
        top.extend(enum.top_triples(*batch))

    enum = ClosureEnumeration([Prop(n) for n in names], len(rows[0]),
                              len(rows[1]), max_size, layer, visit_top)
    for cost in enum.run():
        if cost == max_size:
            layers.append(enum.compose_triples(builders, top))
        for formulas in layers:
            yield from formulas
        layers.clear()
