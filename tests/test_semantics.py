"""Formula checking over lasso words and Kripke structures."""

import random

import pytest

from templearn import (
    KripkeStructure, Sample, Word, check_ctl, check_ltl, check_separating,
    insert_quantifiers, naive_check_ltl, parse_ctl, parse_ltl,
    satisfaction_vector,
)
from templearn.formulas import (
    ALWAYS, AND, CTL, EVENTUALLY, IFF, IMPLIES, LOGICAL_BINARY_OPS, NEXT,
    NOT, OR, QUANTIFIERS, RELEASE, STRONG_RELEASE, TEMPORAL_BINARY_OPS,
    TEMPORAL_UNARY_OPS, UNARY_OPS, UNTIL, WEAK_UNTIL, Prop, node_builder,
)
from templearn.semantics import (
    OPERATOR_TABLE, CtlDomain, LtlDomain, satisfying_states,
)


def word(text):
    from templearn.models import parse_word_text
    return parse_word_text(text)


class TestLtlBasics:
    def test_empty_letter_falsifies_atom(self):
        assert check_ltl(parse_ltl("p"), word("| {}")) is False
        assert check_ltl(parse_ltl("p"), word("| {p}")) is True

    def test_boolean_connectives(self):
        w = word("| {p}")
        assert check_ltl(parse_ltl("!q"), w)
        assert check_ltl(parse_ltl("p & !q"), w)
        assert check_ltl(parse_ltl("q | p"), w)
        assert check_ltl(parse_ltl("q -> q"), w)
        assert check_ltl(parse_ltl("p <-> !q"), w)
        assert not check_ltl(parse_ltl("p <-> q"), w)

    def test_next_steps_into_the_word(self):
        w = word("{p} | {q}")
        assert check_ltl(parse_ltl("p"), w)
        assert check_ltl(parse_ltl("X q"), w)
        assert check_ltl(parse_ltl("X X q"), w)
        assert not check_ltl(parse_ltl("X p"), w)

    def test_eventually_and_always(self):
        w = word("{} | {};{p}")
        assert check_ltl(parse_ltl("F p"), w)
        assert not check_ltl(parse_ltl("G p"), w)
        assert check_ltl(parse_ltl("G F p"), w)
        assert not check_ltl(parse_ltl("F G p"), w)

    def test_eventually_in_prefix_only(self):
        w = word("{p} | {}")
        assert check_ltl(parse_ltl("F p"), w)
        assert not check_ltl(parse_ltl("G F p"), w)

    def test_until(self):
        assert check_ltl(parse_ltl("p U q"), word("{p};{p} | {q}"))
        assert not check_ltl(parse_ltl("p U q"), word("{p};{} | {q}"))
        # U requires the right side to eventually hold.
        assert not check_ltl(parse_ltl("p U q"), word("| {p}"))
        # ... unless it holds immediately.
        assert check_ltl(parse_ltl("p U q"), word("| {q}"))

    def test_satisfaction_vector_matches_suffix_classes(self):
        w = word("{p} | {};{p}")
        vec = satisfaction_vector(parse_ltl("p"), w)
        assert vec == (True, False, True)
        vec = satisfaction_vector(parse_ltl("X p"), w)
        assert vec == (False, True, False)
        vec = satisfaction_vector(parse_ltl("G F p"), w)
        assert vec == (True, True, True)

    # One formula per branching-time node class, that class at the root.
    @pytest.mark.parametrize("text", ["!p", "p & q", "E F p", "A (p U q)"])
    def test_ctl_formula_is_rejected(self, text):
        with pytest.raises(TypeError, match="not a linear-time formula"):
            check_ltl(parse_ctl(text), word("| {p}"))


def random_word(rng, props, max_len=4):
    def letters(n):
        return [rng.sample(props, rng.randint(0, len(props)))
                for _ in range(n)]
    return Word(letters(rng.randint(0, max_len)),
                letters(rng.randint(1, max_len)))


def random_ltl(rng, props, budget):
    if budget <= 1 or rng.random() < 0.3:
        return parse_ltl(rng.choice(props))
    if rng.random() < 0.4:
        from templearn.formulas import LtlUnary
        return LtlUnary(rng.choice("!XFG"),
                        random_ltl(rng, props, budget - 1))
    from templearn.formulas import BINARY_OPS, LtlBinary
    split = rng.randint(1, budget - 2) if budget > 2 else 1
    return LtlBinary(rng.choice(sorted(BINARY_OPS)),
                     random_ltl(rng, props, split),
                     random_ltl(rng, props, budget - 1 - split))


class TestDerivedOperators:
    """R, W, and M agree with their definitions in terms of U, G, and F."""

    @pytest.mark.parametrize("derived,definition", [
        ("p R q", "!(!p U !q)"),
        ("p W q", "(p U q) | G p"),
        ("p M q", "!(!p W !q)"),
        ("p M q", "(p R q) & F p"),
        ("F p", "!G !p"),
    ])
    def test_identity_on_random_words(self, derived, definition):
        rng = random.Random(7)
        f, g = parse_ltl(derived), parse_ltl(definition)
        for _ in range(200):
            w = random_word(rng, ["p", "q"])
            assert check_ltl(f, w) == check_ltl(g, w), str(w)

    def test_substituted_identities_on_random_formulas(self):
        from templearn.formulas import LtlBinary, LtlUnary
        rng = random.Random(11)
        for _ in range(100):
            a = random_ltl(rng, ["p", "q"], 3)
            b = random_ltl(rng, ["p", "q"], 3)
            w = random_word(rng, ["p", "q"])
            lhs = LtlBinary("R", a, b)
            rhs = LtlUnary("!", LtlBinary("U", LtlUnary("!", a),
                                          LtlUnary("!", b)))
            assert check_ltl(lhs, w) == check_ltl(rhs, w)
            lhs = LtlBinary("W", a, b)
            rhs = LtlBinary("|", LtlBinary("U", a, b), LtlUnary("G", a))
            assert check_ltl(lhs, w) == check_ltl(rhs, w)
            lhs = LtlBinary("M", a, b)
            rhs = LtlBinary("&", LtlBinary("R", a, b), LtlUnary("F", a))
            assert check_ltl(lhs, w) == check_ltl(rhs, w)


class TestNaiveOracle:
    def test_alternating_word_needs_two_period_rounds(self):
        # An F inside a G must look past one unrolling of the period.
        w = word("| {};{p}")
        assert naive_check_ltl(parse_ltl("G F p"), w)
        assert not naive_check_ltl(parse_ltl("F G p"), w)

    def test_agrees_with_vector_semantics_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(300):
            f = random_ltl(rng, ["p", "q"], 4)
            w = random_word(rng, ["p", "q"], 3)
            for pos in range(w.length + 2):
                expected = satisfaction_vector(f, w)[w.suffix_class(pos)]
                assert naive_check_ltl(f, w, pos) == expected, (str(f), str(w), pos)


class TestMultiWordDomain:
    """Words of different period lengths share one domain, and with it the
    shifts that carry each loop start to the last class of its word; so do
    structures of different sizes.  Either way each example's slice is its
    own evaluation, and `accepts` reads its verdict off its start mask."""

    def test_each_word_slice_matches_its_own_evaluation(self):
        rng = random.Random(13)
        for _ in range(300):
            words = [random_word(rng, ["p", "q"])
                     for _ in range(rng.randint(1, 12))]
            domain = LtlDomain(words)
            for _ in range(5):
                f = random_ltl(rng, ["p", "q"], 4)
                v = domain.evaluate(f)
                for k, (start, w) in enumerate(zip(domain.starts, words)):
                    off = start.bit_length() - 1
                    expected = satisfaction_vector(f, w)
                    got = tuple(bool(v >> (off + i) & 1)
                                for i in range(w.length))
                    assert got == expected, (str(f), str(w), off)
                    for i in range(w.length):
                        assert naive_check_ltl(f, w, i) == got[i], (
                            str(f), str(w), i)
                    assert domain.accepts(v, k) == check_ltl(f, w)
        several_initial = 0
        for _ in range(150):
            structures = structures_of_size(rng, ["p", "q"],
                                            rng.randint(1, 16))
            several_initial += sum(len(m.initial) > 1 for m in structures)
            domain = CtlDomain(structures)
            for _ in range(5):
                f = insert_quantifiers(random_ltl(rng, ["p", "q"], 4),
                                       rng.choice(QUANTIFIERS))
                v = domain.evaluate(f)
                off = 0
                for k, m in enumerate(structures):
                    got = frozenset(s for i, s in enumerate(m.states)
                                    if v >> (off + i) & 1)
                    assert got == satisfying_states(f, m), (str(f), k)
                    assert domain.accepts(v, k) == check_ctl(f, m)
                    off += len(m.states)
        assert several_initial


class TestPropVector:
    """`prop_vector(name)` has bit `i` set exactly when the letter of
    position `i` holds `name`: a word's classes from its start bit, a
    structure's states in order.  A name in no letter gives 0."""

    def check(self, rng, domain, letters):
        names = ["p", "q", "r", "s"]  # "s" is in no letter
        rng.shuffle(names)
        for name in names + names:  # the second request reads the first
            want = sum(1 << i for i, letter in enumerate(letters)
                       if name in letter)
            assert domain.prop_vector(name) == want, name
        assert domain.prop_vector("s") == 0

    def test_ltl(self):
        rng = random.Random(29)
        for _ in range(200):
            words = words_of_size(rng, ["p", "q", "r"], rng.randint(1, 40))
            domain = LtlDomain(words)
            letters = [w.letter_at(i) for w in words for i in range(w.length)]
            assert [1 << sum(w.length for w in words[:k])
                    for k in range(len(words))] == domain.starts
            self.check(rng, domain, letters)

    def test_ctl(self):
        rng = random.Random(31)
        for _ in range(200):
            structures = structures_of_size(rng, ["p", "q", "r"],
                                            rng.randint(1, 40))
            self.check(rng, CtlDomain(structures),
                       [a for m in structures for a in m.labels])

    def test_many_names_read_the_letters_once(self):
        # A chain of 300 names, each in two adjacent letters: building every
        # vector reads each letter once, not once per name.
        names = [f"x{k}" for k in range(300)]
        domain = LtlDomain([Word([], [[a, b] for a, b in zip(names,
                                                              names[1:])])])
        reads = []

        class Counted(list):
            def __iter__(self):
                for letter in super().__iter__():
                    reads.append(letter)
                    yield letter

        letters = domain.letters = Counted(domain.letters)
        for k, name in enumerate(names):
            assert domain.prop_vector(name) == sum(
                1 << i for i in (k - 1, k) if 0 <= i < len(letters)), name
        assert domain.prop_vector("y") == 0
        assert len(reads) == len(letters) == len(names) - 1


def words_of_size(rng, props, n):
    """Random words, prefix 0-4 and period 1-4, of `n` classes in all."""
    words = []
    while n:
        prefix = rng.randint(0, min(4, n - 1))
        period = rng.randint(1, min(4, n - prefix))
        words.append(Word(
            [rng.sample(props, rng.randint(0, len(props)))
             for _ in range(prefix)],
            [rng.sample(props, rng.randint(0, len(props)))
             for _ in range(period)]))
        n -= prefix + period
    return words


def random_structure(rng, props, n):
    """A random total structure of `n` states, several of them initial."""
    states = [f"s{i}" for i in range(n)]
    edges = [(s, t) for s in states
             for t in rng.sample(states, rng.randint(1, min(3, n)))]
    return KripkeStructure(
        states, rng.sample(states, rng.randint(1, n)), edges,
        [rng.sample(props, rng.randint(0, len(props))) for _ in states])


def structures_of_size(rng, props, n):
    out = []
    while n:
        m = rng.randint(1, min(5, n))
        out.append(random_structure(rng, props, m))
        n -= m
    return out


class TestLanes:
    """`domain.lanes(k)` computes every operator row on `k` vectors packed
    side by side in byte-aligned lanes, exactly as the row computes each
    vector on its own."""

    SIZES = (1, 8, 16, 3, 13, 29)  # 1, multiples of 8, and others

    @staticmethod
    def pack(vectors, width):
        packed = 0
        for i, v in enumerate(vectors):
            packed |= v << (i * width)
        return packed

    @staticmethod
    def unpack(packed, width, k):
        return [(packed >> (i * width)) & ((1 << width) - 1)
                for i in range(k)]

    def check_rows(self, rng, domain):
        width = 8 * -(-domain.size // 8)
        assert domain.lane_bytes * 8 == width
        for k in (1, 2, 7, 300):
            view = domain.lanes(k)
            xs = [rng.getrandbits(domain.size) for _ in range(k)]
            ys = [rng.getrandbits(domain.size) for _ in range(k)]
            x, y = self.pack(xs, width), self.pack(ys, width)
            for token, q in OPERATOR_TABLE:
                row, lane_row = domain.op(token, q), view.op(token, q)
                if token in UNARY_OPS:
                    expected = [row(a) for a in xs]
                    got = lane_row(x)
                else:
                    expected = [row(a, b) for a, b in zip(xs, ys)]
                    got = lane_row(x, y)
                assert got >> (k * width) == 0, (token, q, k)
                assert self.unpack(got, width, k) == expected, (
                    token, q, k, domain.size)

    @pytest.mark.parametrize("size", SIZES)
    def test_lasso_lanes_match_each_vector(self, size):
        rng = random.Random(size)
        for _ in range(3):
            self.check_rows(rng, LtlDomain(words_of_size(rng, ["p"], size)))

    @pytest.mark.parametrize("size", SIZES)
    def test_structure_lanes_match_each_vector(self, size):
        rng = random.Random(100 + size)
        for _ in range(3):
            self.check_rows(rng, CtlDomain(
                structures_of_size(rng, ["p"], size)))


def lasso_structure(w):
    """The deterministic Kripke structure of a lasso: one state per suffix
    class, each with its `next_class` as only successor."""
    return KripkeStructure(
        [str(c) for c in range(w.length)], ["0"],
        [(str(c), str(w.next_class(c))) for c in range(w.length)],
        [w.letter_at(c) for c in range(w.length)],
    )


class TestLassoIsDeterministicStructure:
    """On a structure with one successor per state E and A agree, so each
    LTL operator row is the CTL row of the same token under either
    quantifier."""

    def test_ltl_vector_is_either_quantified_state_set(self):
        rng = random.Random(17)
        for _ in range(800):
            w = random_word(rng, ["p", "q"])
            k = lasso_structure(w)
            f = random_ltl(rng, ["p", "q"], 6)
            vector = satisfaction_vector(f, w)
            for q in QUANTIFIERS:
                states = satisfying_states(insert_quantifiers(f, q), k)
                assert tuple(str(c) in states for c in range(w.length)) \
                    == vector, (str(f), str(w), q)

    def test_ltl_row_equals_both_quantified_rows(self):
        rng = random.Random(19)
        for _ in range(300):
            domain = LtlDomain([random_word(rng, ["p", "q"])
                                for _ in range(rng.randint(1, 6))])
            a = rng.getrandbits(domain.size)
            b = rng.getrandbits(domain.size)
            for token in TEMPORAL_UNARY_OPS:
                for q in QUANTIFIERS:
                    assert domain.op(token, q)(a) == domain.op(token)(a), (
                        token, q)
            for token in TEMPORAL_BINARY_OPS:
                for q in QUANTIFIERS:
                    assert (domain.op(token, q)(a, b)
                            == domain.op(token)(a, b)), (token, q)


def two_state():
    #  a --> b,  b --> a|b;  a is labelled p.
    return KripkeStructure(
        ("a", "b"), ("a",),
        (("a", "b"), ("b", "a"), ("b", "b")),
        (["p"], []),
    )


class TestCtl:
    def test_atoms_and_booleans(self):
        k = two_state()
        assert satisfying_states(parse_ctl("p"), k) == frozenset({"a"})
        assert satisfying_states(parse_ctl("!p"), k) == frozenset({"b"})
        assert check_ctl(parse_ctl("p"), k)

    def test_exists_next(self):
        k = two_state()
        # EX p holds where some successor is labelled p: only b (b -> a).
        assert satisfying_states(parse_ctl("E X p"), k) == frozenset({"b"})
        assert satisfying_states(parse_ctl("A X !p"), k) == frozenset({"a"})

    def test_exists_globally_uses_greatest_fixpoint(self):
        k = two_state()
        # b can loop on itself forever, a cannot (a is labelled p).
        assert satisfying_states(parse_ctl("E G !p"), k) == frozenset({"b"})
        # From b a run may loop on b and never reach p.
        assert satisfying_states(parse_ctl("A F p"), k) == frozenset({"a"})

    def test_exists_until(self):
        k = two_state()
        assert satisfying_states(parse_ctl("E (!p U p)"), k) == \
            frozenset({"a", "b"})

    def test_check_ctl_requires_all_initial_states(self):
        k = KripkeStructure(
            ("a", "b"), ("a", "b"),
            (("a", "a"), ("b", "b")),
            (["p"], []),
        )
        # p holds at a but not b; with both initial, the check fails.
        assert satisfying_states(parse_ctl("p"), k) == frozenset({"a"})
        assert not check_ctl(parse_ctl("p"), k)
        assert check_ctl(parse_ctl("p | !p"), k)

    def test_quantified_derived_operators(self):
        k = two_state()
        # A(f W g) == !E(!g U !(f|g)) ; E(f R g) == !A(!f U !g)
        pairs = [
            ("A (p W !p)", "!E (!!p U !(p | !p))"),
            ("E (p R !p)", "!A (!p U !!p)"),
            ("A (p M !p)", "!E (!p W !!p)"),
            ("E F p", "E (!p U p) | E (p U p)"),
        ]
        for lhs, rhs in pairs:
            assert satisfying_states(parse_ctl(lhs), k) == \
                satisfying_states(parse_ctl(rhs), k), lhs

    def test_af_vs_ef(self):
        k = KripkeStructure(
            ("a", "b", "c"), ("a",),
            (("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")),
            ([], ["p"], []),
        )
        assert check_ctl(parse_ctl("E F p"), k)
        assert not check_ctl(parse_ctl("A F p"), k)

    # One formula per linear-time node class, that class at the root.
    @pytest.mark.parametrize("text", ["F p", "p & q"])
    def test_ltl_formula_is_rejected(self, text):
        with pytest.raises(TypeError, match="not a branching-time formula"):
            check_ctl(parse_ltl(text), two_state())


def naive_ctl_states(f, structure):
    """The states of `structure` that satisfy `f`, from the definitions.

    Each quantified row is the least or greatest fixpoint of its defining
    step, iterated on sets of state names over successor lists, with `A`
    rows through "every successor" rather than a dual; nothing here reads
    `OPERATOR_TABLE` or a domain.  Deliberately simple and slow.
    """
    states = frozenset(structure.states)
    succ = {s: [b for a, b in structure.edges if a == s]
            for s in structure.states}

    def pre(z, q):  # the states with some (E) or every (A) successor in z
        test = any if q == "E" else all
        return frozenset(s for s in states if test(t in z for t in succ[s]))

    def fix(step, least):
        z = frozenset() if least else states
        while True:
            nz = step(z)
            if nz == z:
                return z
            z = nz

    def go(g):
        if not g.args:
            return frozenset(s for s, letter in zip(structure.states,
                                                    structure.labels)
                             if g.name in letter)
        q = g.quantifier
        if len(g.args) == 1:
            a = go(g.args[0])
            if g.op == NOT:
                return states - a
            if g.op == NEXT:
                return pre(a, q)
            if g.op == EVENTUALLY:
                return fix(lambda z: a | pre(z, q), True)
            return fix(lambda z: a & pre(z, q), False)  # ALWAYS
        a, b = go(g.args[0]), go(g.args[1])
        if g.op == AND:
            return a & b
        if g.op == OR:
            return a | b
        if g.op == IMPLIES:
            return (states - a) | b
        if g.op == IFF:
            return states - (a ^ b)
        if g.op == UNTIL:
            return fix(lambda z: b | (a & pre(z, q)), True)
        if g.op == WEAK_UNTIL:
            return fix(lambda z: b | (a & pre(z, q)), False)
        if g.op == RELEASE:
            return fix(lambda z: b & (a | pre(z, q)), False)
        assert g.op == STRONG_RELEASE
        return fix(lambda z: b & (a | pre(z, q)), True)

    return go(f)


# The 19 rows of CTL: the boolean connectives and both quantifiers of each
# temporal operator.
CTL_ROWS = ([(NOT, None)] + [(op, None) for op in LOGICAL_BINARY_OPS]
            + [(op, q) for op in TEMPORAL_UNARY_OPS + TEMPORAL_BINARY_OPS
               for q in QUANTIFIERS])


def random_ctl(rng, props, budget):
    if budget <= 1 or rng.random() < 0.3:
        return Prop(rng.choice(props))
    token, q = rng.choice(CTL_ROWS)
    build = node_builder(CTL, token, q)
    if token in UNARY_OPS:
        return build(random_ctl(rng, props, budget - 1))
    split = rng.randint(1, budget - 2) if budget > 2 else 1
    return build(random_ctl(rng, props, split),
                 random_ctl(rng, props, budget - 1 - split))


class TestCtlReference:
    """The CTL checker agrees with `naive_ctl_states` on every row, on
    structures whose successors lie above, below and on a state."""

    def test_every_row_on_random_structures(self):
        assert len(CTL_ROWS) == 19
        rng = random.Random(37)
        offsets = set()  # successor offsets seen: -1 below, 0, 1, 2 above
        several_initial = 0
        for n in list(range(1, 17)) * 8:
            m = random_structure(rng, ["p", "q"], n)
            index = {s: i for i, s in enumerate(m.states)}
            offsets |= {max(-1, min(2, index[b] - index[a]))
                        for a, b in m.edges}
            several_initial += len(m.initial) > 1
            for token, q in CTL_ROWS:
                f = node_builder(CTL, token, q)(*(
                    random_ctl(rng, ["p", "q"], 3)
                    for _ in range(1 if token in UNARY_OPS else 2)))
                want = naive_ctl_states(f, m)
                assert satisfying_states(f, m) == want, (str(f), n)
                assert check_ctl(f, m) == (m.initial <= want), (str(f), n)
        assert offsets == {-1, 0, 1, 2}
        assert several_initial

    def test_multi_structure_domains(self):
        rng = random.Random(41)
        for _ in range(150):
            structures = [random_structure(rng, ["p", "q"], rng.randint(1, 8))
                          for _ in range(rng.randint(1, 4))]
            domain = CtlDomain(structures)
            for _ in range(5):
                f = random_ctl(rng, ["p", "q"], 6)
                v = domain.evaluate(f)
                off = 0
                for k, m in enumerate(structures):
                    want = naive_ctl_states(f, m)
                    got = frozenset(s for i, s in enumerate(m.states)
                                    if v >> (off + i) & 1)
                    assert got == want, (str(f), k)
                    assert domain.accepts(v, k) == (m.initial <= want)
                    off += len(m.states)


class TestCheckSeparating:
    def test_separating_sample(self):
        s = Sample(["p"], "ltl", [word("| {p}")], [word("| {}")])
        assert check_separating(parse_ltl("p"), s)
        assert check_separating(parse_ltl("G p"), s)
        assert not check_separating(parse_ltl("!p"), s)
        # Misclassifying a positive is as bad as misclassifying a negative.
        assert not check_separating(parse_ltl("p & !p"), s)

    def test_ctl_sample(self):
        s = Sample(["p"], "ctl",
                   [two_state()],
                   [KripkeStructure(("x",), ("x",), (("x", "x"),), ([],))])
        assert check_separating(parse_ctl("p"), s)
        assert check_separating(parse_ctl("E F p"), s)
        assert not check_separating(parse_ctl("!p"), s)

    def test_logic_mismatch_is_rejected(self):
        ltl_sample = Sample(["p"], "ltl", [word("| {p}")], [])
        ctl_sample = Sample(["p"], "ctl", [two_state()], [])
        with pytest.raises(ValueError, match="branching-time"):
            check_separating(parse_ctl("E F p"), ltl_sample)
        with pytest.raises(ValueError, match="linear-time"):
            check_separating(parse_ltl("F p"), ctl_sample)

    def test_alphabet_mismatch_is_rejected(self):
        s = Sample(["p"], "ltl", [word("| {p}")], [])
        with pytest.raises(ValueError, match="outside"):
            check_separating(parse_ltl("p | zz"), s)

    def test_agrees_with_one_check_per_example(self):
        # One domain over the whole sample reads each example off at its
        # own start: the start class, or all of its initial states.
        rng = random.Random(23)
        for _ in range(150):
            f = random_ltl(rng, ["p", "q"], 5)
            words = list(dict.fromkeys(random_word(rng, ["p", "q"])
                                       for _ in range(rng.randint(1, 8))))
            ltl = Sample(["p", "q"], "ltl", words[::2], words[1::2])
            assert check_separating(f, ltl) == (
                all(check_ltl(f, w) for w in ltl.positives)
                and not any(check_ltl(f, w) for w in ltl.negatives))
            g = insert_quantifiers(f, rng.choice(QUANTIFIERS))
            ms = list(dict.fromkeys(
                random_structure(rng, ["p", "q"], rng.randint(1, 4))
                for _ in range(rng.randint(1, 6))))
            ctl = Sample(["p", "q"], "ctl", ms[::2], ms[1::2])
            assert check_separating(g, ctl) == (
                all(check_ctl(g, m) for m in ctl.positives)
                and not any(check_ctl(g, m) for m in ctl.negatives))
