"""Minimal separating formula search."""

import functools
import hashlib
import random

import pytest

from templearn import (
    BoundMode, CnfInstance, DedupMode, KripkeStructure, LearnConfig,
    OperatorSet, Sample, Word, check_separating, conforms, enumerate_formulas,
    learn, parse_ctl, parse_ltl, print_formula, reduce_ltl_to_ctl,
    reduce_sat, size, verify,
)
from templearn import learner
from templearn.formulas import (
    _ROW_KEY, AND, OR, STRONG_RELEASE, UNTIL, WEAK_UNTIL, LtlBinary,
    LtlUnary, Prop, structural_key, subformulas,
)
from templearn.learner import _build_domain
from templearn.semantics import OPERATOR_TABLE, CtlDomain, LtlDomain


def word(text):
    from templearn.models import parse_word_text
    return parse_word_text(text)


def least_row(printed, logic):
    """The formulas of `printed`, in its order, whose top node's operator
    row has the least key: the winners a search keeps at its winning cost,
    since `structural_key` starts with that row's key."""
    parse = parse_ltl if logic == "ltl" else parse_ctl

    def row(text):
        f = parse(text)
        return "0" if type(f) is Prop else _ROW_KEY[f.op, f.quantifier]

    rows = [row(text) for text in printed]
    least = min(rows, default=None)
    return [text for text, r in zip(printed, rows) if r == least]


class TestLearnBasics:
    def test_single_proposition(self):
        s = Sample(["p"], "ltl", [word("| {p}")], [word("| {}")], bound=3)
        out = learn(s)
        assert out.decision and out.size == 1
        assert out.witness == parse_ltl("p")

    def test_negation_needed(self):
        s = Sample(["p"], "ltl", [word("| {}")], [word("| {p}")], bound=3)
        out = learn(s)
        assert out.decision and out.size == 2
        assert check_separating(out.witness, s)

    def test_temporal_operator_needed(self):
        # Positives eventually see p, negatives never do.
        s = Sample(
            ["p", "q"], "ltl",
            [word("{} | {p}"), word("{q};{} | {p};{}")],
            [word("| {}"), word("| {q}")],
            bound=3,
        )
        out = learn(s)
        assert out.decision
        assert out.witness == parse_ltl("F p")

    def test_no_formula_within_bound(self):
        # The words agree on their first letter, so no atom separates.
        s = Sample(["p", "q"], "ltl",
                   [word("{p} | {q}")], [word("{p} | {}")], bound=1)
        out = learn(s)
        assert not out.decision
        assert out.witness is None and out.size is None
        # One more node is enough (e.g. X q).
        assert learn(s, LearnConfig(bound=2)).decision

    def test_unsatisfiable_sample_at_any_bound(self):
        # The same word cannot be separated from itself; use two words
        # that no formula tells apart: a word and a rotation landing in
        # the same infinite word.
        a = word("| {p};{q}")
        b = word("{p} | {q};{p}")
        s = Sample(["p", "q"], "ltl", [a], [b], bound=4)
        out = learn(s)
        assert not out.decision

    def test_empty_positive_side(self):
        s = Sample(["p"], "ltl", [], [word("| {p}")], bound=2)
        out = learn(s)
        # !p classifies the lone negative correctly.
        assert out.decision and verify(out.witness, s)

    def test_stats_are_reported(self):
        s = Sample(["p"], "ltl", [word("| {p}")], [word("| {}")], bound=3)
        stats = learn(s).stats
        assert stats["candidates_generated"] >= 1
        assert stats["distinct_signatures"] >= 1
        assert stats["elapsed_seconds"] >= 0


class TestBoundHandling:
    def sample(self, bound=None):
        return Sample(["p"], "ltl", [word("| {p}")], [word("| {}")],
                      bound=bound)

    def test_config_bound_overrides_sample_bound(self):
        out = learn(self.sample(bound=5), LearnConfig(bound=1))
        assert out.decision and out.size == 1

    def test_missing_bound(self):
        with pytest.raises(ValueError, match="no size bound"):
            learn(self.sample())

    def test_bound_limit_guard(self):
        with pytest.raises(ValueError, match="safety limit"):
            learn(self.sample(), LearnConfig(bound=13))
        out = learn(self.sample(), LearnConfig(bound=13, bound_limit=13))
        assert out.decision

    def test_logic_comes_from_the_sample(self):
        ctl_sample = reduce_ltl_to_ctl(self.sample(bound=2))
        out = learn(ctl_sample, LearnConfig(bound=2))
        assert out.decision and out.witness == parse_ctl("p")


class TestExactlyMode:
    def sample(self):
        return Sample(["p"], "ltl", [word("| {p}")], [word("| {}")], bound=5)

    def test_padding_reaches_the_exact_size(self):
        cfg = LearnConfig(bound=4, bound_mode=BoundMode.EXACTLY)
        out = learn(self.sample(), cfg)
        assert out.decision and out.size == 4
        assert size(out.witness) == 4
        assert verify(out.witness, self.sample(), cfg)

    def test_exact_one(self):
        # At bound 1 the seeds are the bound's own layer.
        for dedup in DedupMode:
            cfg = LearnConfig(bound=1, bound_mode=BoundMode.EXACTLY,
                              dedup=dedup)
            out = learn(self.sample(), cfg)
            assert out.decision and out.witness == parse_ltl("p"), dedup

    def test_exact_without_dedup(self):
        cfg = LearnConfig(bound=3, bound_mode=BoundMode.EXACTLY,
                          dedup=DedupMode.NONE)
        out = learn(self.sample(), cfg)
        assert out.decision and size(out.witness) == 3
        assert verify(out.witness, self.sample(), cfg)

    def test_exact_size_via_duplication(self):
        # Conjunction can pad a witness with itself: p & p has DAG size 2.
        cfg = LearnConfig(bound=2, bound_mode=BoundMode.EXACTLY,
                          operators=OperatorSet.from_names(["AND"]))
        s = Sample(["p"], "ltl", [word("| {p}")], [word("| {}")], bound=5)
        out = learn(s, cfg)
        assert out.decision and out.witness == parse_ltl("p & p")

    def test_exact_size_unreachable(self):
        # Expressing "never p" needs negation; conjunctions of atoms
        # cannot do it at any exact size.
        cfg = LearnConfig(bound=2, bound_mode=BoundMode.EXACTLY,
                          operators=OperatorSet.from_names(["AND"]))
        s = Sample(["p"], "ltl", [word("| {}")], [word("| {p}")], bound=5)
        out = learn(s, cfg)
        assert not out.decision

    def test_padding_fallback_when_no_wrapper_exists(self):
        # Without a unary operator and with only <-> available, growing a
        # witness by one node is impossible, so exact size 2 must fail
        # even though size 1 succeeds.
        cfg1 = LearnConfig(bound=1, bound_mode=BoundMode.EXACTLY,
                           operators=OperatorSet.from_names(["IFF"]))
        cfg2 = LearnConfig(bound=2, bound_mode=BoundMode.EXACTLY,
                           operators=OperatorSet.from_names(["IFF"]))
        s = Sample(["p"], "ltl", [word("| {p}")], [word("| {}")], bound=5)
        assert learn(s, cfg1).decision
        assert not learn(s, cfg2).decision

    def test_exactly_verify_rejects_smaller_witness(self):
        cfg = LearnConfig(bound=3, bound_mode=BoundMode.EXACTLY)
        assert not verify(parse_ltl("p"), self.sample(), cfg)


class TestOperatorRestriction:
    def sample(self):
        # Positives: one of p, q holds; negative: neither.
        return Sample(
            ["p", "q"], "ltl",
            [word("| {p}"), word("| {q}")],
            [word("| {}")],
            bound=5,
        )

    def test_or_suffices(self):
        cfg = LearnConfig(operators=OperatorSet.from_names(["OR"]))
        out = learn(self.sample(), cfg)
        assert out.decision and out.witness == parse_ltl("p | q")

    def test_and_alone_cannot_separate(self):
        cfg = LearnConfig(operators=OperatorSet.from_names(["AND"]))
        out = learn(self.sample(), cfg)
        assert not out.decision

    def test_restriction_can_force_a_larger_witness(self):
        # Separating {p}^w from {}^w with {<->} only: p itself works at
        # size 1, and any <->-combination preserves separation parity.
        s = Sample(["p"], "ltl", [word("| {p}")], [word("| {}")], bound=5)
        cfg = LearnConfig(operators=OperatorSet.from_names(["IFF", "NOT"]))
        out = learn(s, cfg)
        assert out.decision and out.size == 1

    def test_witness_conforms_to_restriction(self):
        cfg = LearnConfig(operators=OperatorSet.from_names(["OR", "NOT"]))
        out = learn(self.sample(), cfg)
        assert out.decision and conforms(out.witness, cfg.operators)

    def test_verify_rejects_nonconforming_witness(self):
        cfg = LearnConfig(operators=OperatorSet.from_names(["OR"]))
        assert not verify(parse_ltl("p & q"), self.sample(), cfg)


class TestPrunedOperatorRows:
    """With every example single-letter, a temporal row goes exactly when
    its single-letter reduct is its last operand or an allowed connective:
    X/F/G/U/R always, W only with `|` and M only with `&` allowed."""

    @pytest.mark.parametrize("logic, dropped, binary", [
        ("ltl", (), (("&", None), ("|", None), ("->", None),
                     ("<->", None))),
        ("ltl", ("|",), (("&", None), ("->", None), ("<->", None),
                         ("W", None))),
        ("ltl", ("&",), (("|", None), ("->", None), ("<->", None),
                         ("M", None))),
        ("ltl", ("|", "&"), (("->", None), ("<->", None), ("W", None),
                             ("M", None))),
        ("ctl", (), (("&", None), ("|", None), ("->", None),
                     ("<->", None))),
        ("ctl", ("|",), (("&", None), ("->", None), ("<->", None),
                         ("W", "E"), ("W", "A"))),
        ("ctl", ("&",), (("|", None), ("->", None), ("<->", None),
                         ("M", "E"), ("M", "A"))),
        ("ctl", ("|", "&"), (("->", None), ("<->", None), ("W", "E"),
                             ("W", "A"), ("M", "E"), ("M", "A"))),
    ])
    def test_rows(self, logic, dropped, binary):
        full = OperatorSet.full()
        operators = OperatorSet(full.unary, full.binary - set(dropped),
                                full.quantifiers)
        assert learner._op_table(logic, operators, True) == (
            (("!", None),), binary)


class TestVerify:
    def sample(self):
        return Sample(["p"], "ltl", [word("| {p}")], [word("| {}")], bound=2)

    def test_accepts_valid_witness(self):
        assert verify(parse_ltl("p"), self.sample())
        assert verify(parse_ltl("G p"), self.sample())

    def test_rejects_non_separating(self):
        assert not verify(parse_ltl("!p"), self.sample())

    def test_rejects_oversized(self):
        assert not verify(parse_ltl("F G p"), self.sample())

    def test_rejects_wrong_logic(self):
        assert not verify(parse_ctl("E F p"), self.sample())

    def test_rejects_foreign_propositions(self):
        assert not verify(parse_ltl("zz"), self.sample())

    def test_missing_bound(self):
        s = Sample(["p"], "ltl", [word("| {p}")], [word("| {}")])
        with pytest.raises(ValueError, match="no size bound"):
            verify(parse_ltl("p"), s)
        assert verify(parse_ltl("p"), s, LearnConfig(bound=1))


class TestDeterminism:
    def test_learn_is_reproducible(self):
        s = Sample(
            ["p", "q"], "ltl",
            [word("{p} | {q}"), word("| {p};{q}")],
            [word("| {}"), word("{q} | {p}")],
            bound=4,
        )
        outs = [learn(s) for _ in range(3)]
        assert len({out.witness for out in outs}) == 1
        assert len({out.size for out in outs}) == 1


def random_sample(rng, props=("p", "q"), bound=4):
    def mk():
        def letters(n):
            return [rng.sample(props, rng.randint(0, len(props)))
                    for _ in range(n)]
        return Word(letters(rng.randint(0, 2)), letters(rng.randint(1, 3)))
    pool = {mk() for _ in range(rng.randint(2, 5))}
    pool = sorted(pool, key=str)
    cut = rng.randint(1, len(pool) - 1) if len(pool) > 1 else 1
    return Sample(props, "ltl", pool[:cut], pool[cut:], bound=bound)


class TestDedupEquivalence:
    """The pruned search and the exhaustive search decide identically."""

    def test_forty_random_samples(self):
        rng = random.Random(20260814)
        for _ in range(40):
            s = random_sample(rng)
            fast = learn(s)
            slow = learn(s, LearnConfig(dedup=DedupMode.NONE))
            assert fast.decision == slow.decision, str(s)
            if fast.decision:
                assert fast.size == slow.size, str(s)
                assert verify(fast.witness, s)
                assert verify(slow.witness, s)

    def test_exact_mode_agreement(self):
        rng = random.Random(99)
        for _ in range(15):
            s = random_sample(rng, bound=3)
            for bound in (2, 3):
                cfg_fast = LearnConfig(bound=bound,
                                       bound_mode=BoundMode.EXACTLY)
                cfg_slow = LearnConfig(bound=bound,
                                       bound_mode=BoundMode.EXACTLY,
                                       dedup=DedupMode.NONE)
                fast, slow = learn(s, cfg_fast), learn(s, cfg_slow)
                assert fast.decision == slow.decision, (str(s), bound)
                if fast.decision:
                    assert verify(fast.witness, s, cfg_fast)
                    assert verify(slow.witness, s, cfg_slow)


class TestPruningUnderDagSize:
    """ROADMAP item 1: signature pruning keeps the first candidate of each
    signature, which is unsound when cost is DAG size.  On this sample
    `F q -> q` (size 3) separates, because `F q` shares `q`; the pruned
    search keeps a same-signature stand-in that shares nothing."""

    def sample(self):
        return Sample(["p", "q"], "ltl",
                      [word("| {}"), word("| {p,q}")],
                      [word("{p} | {q};{p,q}"), word("{} | {};{p,q}")])

    @pytest.mark.parametrize("bound", [3, 4])
    def test_exhaustive_search_finds_the_size_three_witness(self, bound):
        out = learn(self.sample(), LearnConfig(bound=bound,
                                               dedup=DedupMode.NONE))
        assert out.decision and out.size == 3
        assert out.witness == parse_ltl("F q -> q")

    @pytest.mark.xfail(strict=True, reason="pruning is unsound under DAG "
                       "size (ROADMAP item 1): no formula at bound 3, "
                       "X (X p -> p) at bound 4")
    @pytest.mark.parametrize("bound", [3, 4])
    def test_pruned_search_finds_a_size_three_witness(self, bound):
        out = learn(self.sample(), LearnConfig(bound=bound))
        assert out.decision and out.size == 3

    def three_propositions(self):
        """With three propositions the bug is common; this sample has the
        size-4 separator `!(r -> X r)`."""
        return Sample(["p", "q", "r"], "ltl",
                      [word("{p,q,r} | {};{}")],
                      [word("{p,q,r};{p,r} | {}"),
                       word("{p,q};{} | {p,q,r};{}"),
                       word("{p};{} | {}"), word("{} | {}")], bound=5)

    def test_exhaustive_search_finds_the_three_proposition_witness(self):
        out = learn(self.three_propositions(),
                    LearnConfig(dedup=DedupMode.NONE))
        assert out.decision and out.size == 4
        assert out.witness == parse_ltl("!(r -> X r)")
        assert out.stats["candidates_generated"] == 688143

    @pytest.mark.xfail(strict=True, reason="pruning is unsound under DAG "
                       "size (ROADMAP item 1): no formula at bound 4")
    def test_pruned_search_finds_the_three_proposition_witness(self):
        out = learn(self.three_propositions(), LearnConfig(bound=4))
        assert out.decision and out.size == 4

    @staticmethod
    def has_distinct_signatures(sample):
        """Whether the exhaustive search finds a witness; if it does, its
        distinct sub-formulas must have distinct signatures over the
        sample's domain, one per node of its DAG size."""
        out = learn(sample, LearnConfig(dedup=DedupMode.NONE))
        if not out.decision:
            return False
        domain = _build_domain(sample)[0]
        subs = subformulas(out.witness)
        assert len(subs) == out.size
        assert len({domain.evaluate(g) for g in subs}) == out.size, \
            f"{print_formula(out.witness)} on {sample}"
        return True

    def test_minimal_witnesses_have_distinct_signatures(self):
        # The lemma an exact pruned search rests on: two sub-formulas with
        # one signature merge into a smaller separator, so a minimal one
        # has none.
        rng = random.Random(7)
        found = sum(self.has_distinct_signatures(random_sample(
            rng, ("p", "q") if k % 3 else ("p", "q", "r"), bound=4))
            for k in range(150))
        assert found == 145

    def test_minimal_ctl_witnesses_have_distinct_signatures(self):
        found = sum(self.has_distinct_signatures(reduce_ltl_to_ctl(
            reduce_sat(CnfInstance(2, clauses))))
            for clauses in (((1, 2),), ((1, -2), (-1,)), ((1,), (-1,))))
        rng = random.Random(7)
        for _ in range(12):
            # Every second structure has two initial states.
            structures = [kripke(rng, 3, 1 + k % 2) for k in range(4)]
            found += self.has_distinct_signatures(Sample(
                ["p", "q"], "ctl", structures[:2], structures[2:], bound=4))
        assert found == 12


def pack_lanes(values, width):
    return int.from_bytes(b"".join(v.to_bytes(width, "little")
                                   for v in values), "little")


def repunit(k, width):
    bits = 8 * width
    return ((1 << k * bits) - 1) // ((1 << bits) - 1)


def distinct_words(rng, n):
    """Distinct random words over p, q, r with `n` suffix classes in all."""
    while True:
        words, left = [], n
        while left:
            prefix = rng.randint(0, min(3, left - 1))
            period = rng.randint(1, min(4, left - prefix))
            words.append(Word(
                [rng.sample("pqr", rng.randint(0, 3)) for _ in range(prefix)],
                [rng.sample("pqr", rng.randint(0, 3))
                 for _ in range(period)]))
            left -= prefix + period
        if len(set(words)) == len(words):
            return words


def kripke(rng, n, initial):
    """A random total structure of `n` states, `initial` of them initial."""
    states = [f"s{i}" for i in range(n)]
    edges = [(s, t) for s in states for t in rng.sample(states, 2)]
    return KripkeStructure(states, rng.sample(states, initial), edges,
                           [rng.sample("pq", rng.randint(0, 2))
                            for _ in states])


class TestPackedScreen:
    """The final layer screens a whole packed row at once: the lanes with
    `sig & screen == pos_mask` are the zero lanes of `(row & screen * rep)
    ^ pos_mask * rep`, and only those get `is_separating`."""

    @staticmethod
    def check(rng, sample, k=300):
        domain, pos_mask, screen, is_separating, _ = _build_domain(sample)
        width = domain.lane_bytes
        sigs = []
        for _ in range(k):
            sig = rng.getrandbits(domain.size)
            kind = rng.randrange(4)
            if kind:  # pass the screen, or miss it by one bit
                sig = sig & ~screen | pos_mask
            if kind == 2 and screen:
                sig ^= 1 << rng.choice(
                    [i for i in range(domain.size) if screen >> i & 1])
            sigs.append(sig)
        sigs[:3] = [0, domain.full, pos_mask]
        rep = repunit(k, width)
        z = (pack_lanes(sigs, width) & screen * rep) ^ pos_mask * rep
        passed = learner._zero_lanes(z, width, rep)
        assert passed == [i for i, sig in enumerate(sigs)
                          if sig & screen == pos_mask]
        got = [i for i in passed if is_separating(sigs[i])]
        want = [i for i, sig in enumerate(sigs)
                if sig & screen == pos_mask and is_separating(sig)]
        assert got == want
        return len(want)

    @pytest.mark.parametrize("size", [1, 7, 8, 16, 60, 64, 70])
    def test_lasso_domains(self, size):
        rng = random.Random(size)
        for _ in range(5):
            words = distinct_words(rng, size)
            cut = rng.randint(0, len(words))
            sample = Sample("pqr", "ltl", words[:cut], words[cut:])
            assert _build_domain(sample)[0].size == size
            self.check(rng, sample)

    @pytest.mark.parametrize("sizes", [(3, 5), (2, 4, 2), (4, 4, 4, 4),
                                       (7, 9, 6, 3), (30, 20, 14)])
    def test_structure_domains_with_several_initial_states(self, sizes):
        rng = random.Random(sum(sizes))
        separating = 0
        for _ in range(5):
            structures = [kripke(rng, n, rng.randint(1, min(2, n)))
                          for n in sizes[:1]]
            structures += [kripke(rng, n, rng.randint(1, n))
                           for n in sizes[1:]]
            separating += self.check(rng, Sample("pq", "ctl", structures[:1],
                                                 structures[1:]))
        assert separating  # some lanes get through

    def test_wide_negatives_are_tested_after_the_screen(self):
        # The negative's two initial states are left out of the screen: a
        # lane holding both passes it and fails the full test.
        rng = random.Random(3)
        good, bad = kripke(rng, 3, 1), kripke(rng, 2, 2)
        sample = Sample("pq", "ctl", [good], [bad])
        domain, pos_mask, screen, is_separating, _ = _build_domain(sample)
        both = domain.full & ~((1 << 3) - 1)
        assert screen & both == 0
        sigs = [pos_mask, pos_mask | both]
        rep = repunit(2, 1)
        z = (pack_lanes(sigs, 1) & screen * rep) ^ pos_mask * rep
        assert learner._zero_lanes(z, 1, rep) == [0, 1]
        assert [is_separating(s) for s in sigs] == [True, False]


def run_search(sample, config, reads=None):
    """The operator table of the search `learn` runs first on `sample`,
    and that search's `(cost, triples, enum, stats)`.  Each signature that
    gets the full separation test is appended to `reads`."""
    names = sorted(sample.alphabet)
    domain, pos_mask, screen, is_separating, trivial = _build_domain(sample)
    if reads is not None:
        test = is_separating

        def is_separating(sig):
            reads.append(sig)
            return test(sig)
    semantic = config.dedup == DedupMode.SEMANTIC
    rows = learner._op_table(sample.logic, config.operators,
                             semantic and trivial)
    return rows, learner._run_search(
        names, domain, rows, pos_mask, screen, is_separating,
        config.bound or sample.bound, semantic)


class TestFlushBoundaries:
    """The final layer gives the same outcome however its lanes are split
    into flushes: one share per flush, a few lanes, or the default cap."""

    def outcomes(self, monkeypatch, cap):
        calls = []
        for cls in (LtlDomain, CtlDomain):
            real = cls.lanes
            monkeypatch.setattr(cls, "lanes", lambda d, k, real=real:
                                calls.append(k) or real(d, k))
        monkeypatch.setattr(learner, "_LANE_CAP", cap)
        seen = {}
        for name, s, cfg in self.searches():
            out = learn(s, cfg)
            seen[name] = (out.decision, out.witness, out.size,
                          out.stats["candidates_generated"],
                          out.stats["distinct_signatures"])
        return seen, calls

    def searches(self):
        yield ("three-props", TestPruningUnderDagSize().three_propositions(),
               LearnConfig(bound=4, dedup=DedupMode.NONE))
        for name in ("sat-b", "unsat-a"):
            s = reduce_sat(CnfInstance(3, PINNED_CNFS[name]))
            for sample in (s, reduce_ltl_to_ctl(s)):
                yield (f"{name}/{sample.logic}", sample, LearnConfig())

    def test_outcomes_do_not_depend_on_the_lane_cap(self, monkeypatch):
        runs = {cap: self.outcomes(monkeypatch, cap) for cap in (1, 3, 4096)}
        assert runs[1][0] == runs[3][0] == runs[4096][0]
        assert runs[1][0]["three-props"][1] == parse_ltl("!(r -> X r)")
        assert runs[1][0]["sat-b/ctl"][1:] == (
            parse_ctl("x1 | (x3_bar | x2)"),) + PINNED_SEARCHES[
                "sat-b/ctl", "default"][2:]
        # Smaller caps flush more often.
        flushes = [len(runs[cap][1]) for cap in (1, 3, 4096)]
        assert flushes[0] > flushes[1] > flushes[2]

    @staticmethod
    def winners(sample, config, reads=None):
        """The winning cost of one search and its winners, printed and
        sorted."""
        names = sorted(sample.alphabet)
        rows, (cost, triples, enum, _) = run_search(sample, config, reads)
        builders = learner._builders(sample.logic, rows)
        return cost, sorted(print_formula(enum.build_formula(
            t, lambda i: Prop(names[i]), builders)) for t in triples)

    def test_winner_sets_do_not_depend_on_the_lane_cap(self, monkeypatch):
        # Every winner of the least winning row, mirrored ones included,
        # and no other: the witness alone would not show a lost or extra
        # mirror, nor a row run past a flush's winner.
        want = {name: (WINNERS[name][0], least_row(WINNERS[name][1],
                                                   s.logic))
                for name, s, _ in self.searches()}
        for cap in (1, 3, 4096):
            monkeypatch.setattr(learner, "_LANE_CAP", cap)
            assert {name: self.winners(s, cfg) for name, s, cfg
                    in self.searches()} == want

    def test_an_unseparated_final_layer_spans_many_flushes(self,
                                                           monkeypatch):
        # No formula of size 4 separates, so every row runs in every
        # flush, and the widest rows overflow a small lane cap many times.
        lanes = []
        real = LtlDomain.lanes
        monkeypatch.setattr(LtlDomain, "lanes",
                            lambda d, k: lanes.append(k) or real(d, k))
        monkeypatch.setattr(learner, "_LANE_CAP", 1024)
        out = learn(reduce_sat(CnfInstance(3, PINNED_CNFS["unsat-a"])),
                    LearnConfig(bound=4, dedup=DedupMode.NONE))
        assert not out.decision
        assert len(lanes) > 10 and max(lanes) >= learner._LANE_CAP


_SAT_B_WINNERS = (5, [
    "(x3_bar <-> x1_bar) -> x2", "(x3_bar <-> x2) -> x1",
    "(x3_bar <-> x2) -> x1_bar", "x1 | (x3_bar | x2)",
    "x1_bar | (x3_bar | x2)", "x2 | (x3_bar | x1)",
    "x2 | (x3_bar | x1_bar)", "x2 | x1 | x3_bar", "x2 | x1_bar | x3_bar",
    "x3_bar | (x2 | x1)", "x3_bar | (x2 | x1_bar)", "x3_bar | x1 | x2",
    "x3_bar | x1_bar | x2", "x3_bar | x2 | x1", "x3_bar | x2 | x1_bar"])

# The winners of `TestFlushBoundaries.searches()` at their winning cost,
# every row's: a search keeps those of the least row (`least_row`).
WINNERS = {
    "three-props": (4, [
        "!(X r <-> r)", "!(r -> X r)", "!(r <-> X r)", "!X r & r",
        "!X r <-> r", "!r <-> X r", "X !r & r", "X !r <-> r", "X r <-> !r",
        "r & !X r", "r & X !r", "r <-> !X r", "r <-> X !r", "r M !X r",
        "r M X !r"]),
    "sat-b/ltl": _SAT_B_WINNERS,
    "sat-b/ctl": _SAT_B_WINNERS,
    "unsat-a/ltl": (None, []),
    "unsat-a/ctl": (None, []),
}


class TestMirroredWinners:
    """A commuting row runs over the forward pairs only, so its mirrored
    winners must still reach the tie-break: here the least witness is a
    mirror, `p` being the older operand."""

    @pytest.mark.parametrize("dedup", list(DedupMode))
    @pytest.mark.parametrize("pos, neg, want", [
        (["| {p,q}"], ["| {p}", "| {q}", "| {}"], "p & q"),
        (["| {p}", "| {q}"], ["| {}", "| {r}"], "p | q"),
    ])
    def test_the_mirror_decides_the_tie_break(self, dedup, pos, neg, want):
        sample = Sample(["p", "q", "r"], "ltl", [word(t) for t in pos],
                        [word(t) for t in neg])
        out = learn(sample, LearnConfig(bound=3, dedup=dedup))
        assert out.decision and out.size == 3
        assert out.witness == parse_ltl(want)

    def test_each_winner_counts_once(self):
        # At a fixed winning cost every winner of the least winning row
        # counts, here `U`, among them a pair `(a, a)` of that
        # non-commuting row, whose mirror lane repeats the forward lane.
        # A size-2 separator `a` makes `a & a` win below `U`, so the row
        # set leaves out `&` and `|`.
        sample = Sample(["p", "q"], "ltl", [word("| {p}"), word("{p} | {q}")],
                        [word("| {q}"), word("{} | {p}")])
        domain, pos_mask, screen, is_separating, _ = _build_domain(sample)
        rows = learner._op_table("ltl", OperatorSet.from_names(["X", "U"]),
                                 False)
        _, triples, enum, _ = learner._run_search(
            ["p", "q"], domain, rows, pos_mask, screen, is_separating, 3,
            False, exhaust=True)
        printed = [print_formula(enum.build_formula(
            t, lambda i: Prop("pq"[i]), learner._builders("ltl", rows)))
            for t in triples]
        assert "(p U p) U p U p" in printed
        assert least_row(printed, "ltl") == printed
        assert any(a == b for _, a, b in triples)
        assert len(set(triples)) == len(triples)


def kripke_sample(rng, states):
    """A CTL sample over p, q of three to six random structures with
    `states` states in all.  The first negative has two initial states,
    every other structure one or two."""
    n = rng.randint(3, max(3, min(6, states // 2)))
    cuts = sorted(rng.choices(range(states - 2 * n + 1), k=n - 1))
    sizes = [2 + b - a for a, b in zip([0, *cuts], [*cuts, states - 2 * n])]
    pos = n // 2
    structures = [kripke(rng, m, 2 if i == pos else rng.randint(1, 2))
                  for i, m in enumerate(sizes)]
    return Sample("pq", "ctl", structures[:pos], structures[pos:])


def lasso_sample(rng, classes):
    """An LTL sample over p, q, r of distinct words with `classes` suffix
    classes in all, the first of them positive."""
    words = distinct_words(rng, classes)
    cut = rng.randint(1, max(1, len(words) - 1))
    return Sample("pqr", "ltl", words[:cut], words[cut:])


def unseparated(rng, draw, bound):
    """The samples `draw(rng)` gives that no formula of size `bound` or
    less separates, without end."""
    while True:
        sample = draw(rng)
        if not learn(sample, LearnConfig(bound=bound,
                                         dedup=DedupMode.NONE)).decision:
            yield sample


class TestFinalLayerWinners:
    """The final layer's winners are exactly the formulas of the bound's
    size that separate and whose top row is the least such: brute force
    over `enumerate_formulas` at bound 3 in NONE mode, on samples with no
    smaller separator.  A lane that passes the screen is read for the full
    test only when some negative has several initial states."""

    @staticmethod
    def check(sample):
        """The least row's separators of size 3, printed, and the
        signatures that the search gave the full test."""
        want = least_row(sorted(print_formula(f) for f in enumerate_formulas(
            sample.alphabet, 3, logic=sample.logic)
            if size(f) == 3 and check_separating(f, sample)), sample.logic)
        reads = []
        assert TestFlushBoundaries.winners(
            sample, LearnConfig(bound=3, dedup=DedupMode.NONE), reads) == (
            (3, want) if want else (None, []))
        return want, reads

    @pytest.mark.parametrize("states, width", [
        (6, 1), (20, 3), (60, 8), (70, 9), (125, 16)])
    def test_structures_with_several_initial_states(self, states, width):
        # At least two samples, and as many more as it takes to find a
        # separator.
        winners = reads = 0
        for k, sample in enumerate(unseparated(
                random.Random(states), lambda rng: kripke_sample(rng, states),
                2)):
            assert _build_domain(sample)[0].lane_bytes == width
            want, read = self.check(sample)
            winners += len(want)
            reads += len(read)
            if k and winners:
                break
        # Some lanes pass the screen and fail the full test.
        assert winners < reads

    @pytest.mark.parametrize("classes, width", [(6, 1), (12, 2)])
    def test_lassos_read_no_lane(self, classes, width):
        winners = 0
        for k, sample in enumerate(unseparated(
                random.Random(classes), lambda rng: lasso_sample(rng, classes),
                2)):
            assert _build_domain(sample)[0].lane_bytes == width
            want, reads = self.check(sample)
            assert reads == []
            winners += len(want)
            if k >= 2 and winners:
                break


# The operator sets whose tables `TestRowOrder` checks, besides
# `SKIP_OPERATORS`.
ROW_SETS = {"full": OperatorSet.full(),
            "boolean": OperatorSet.from_names(["!", "&", "|", "->", "<->"]),
            "temporal": OperatorSet.from_names(["X", "F", "G", "U", "R", "W",
                                                "M"])}


def row_order_violations():
    """The `(logic, operators, skip_trivial)` whose `learner._op_table`
    rows, unary then binary, do not have strictly increasing keys."""
    bad = []
    for logic in ("ltl", "ctl"):
        for name, ops in {**ROW_SETS, **SKIP_OPERATORS}.items():
            for skip in (False, True):
                unary, binary = learner._op_table(logic, ops, skip)
                keys = [_ROW_KEY[row] for row in unary + binary]
                if any(a >= b for a, b in zip(keys, keys[1:])):
                    bad.append((logic, name, skip))
    return bad


class TestRowOrder:
    """The final layer stops after its first winning row because opcode
    order is key order: every formula whose top row comes later has a
    greater `structural_key`."""

    def test_row_order_is_key_order(self):
        assert row_order_violations() == []

    def test_a_planted_swap_fails(self, monkeypatch):
        real = learner._op_table

        def swapped(logic, ops, skip):
            unary, binary = real(logic, ops, skip)
            return unary, binary[1:2] + binary[:1] + binary[2:]

        monkeypatch.setattr(learner, "_op_table", swapped)
        assert ("ltl", "full", False) in row_order_violations()


def until_sample():
    """An LTL sample that `p U q` separates and nothing smaller does."""
    return Sample("pq", "ltl", [word("| {q}"), word("{p} | {q}")],
                  [word("| {p}"), word("{} | {q}")])


@functools.lru_cache(maxsize=None)
def least_separator_samples():
    """Samples and the separators of each up to its largest bound, by
    brute force over `enumerate_formulas`: LTL over two and three
    propositions and CTL whose first negative has two initial states,
    some with no separator of size 2."""
    rng = random.Random(26)
    samples = [(until_sample(), 4)]
    samples += [(random_sample(rng, ("p", "q")), 4) for _ in range(2)]
    samples += [(s, 4) for s, _ in zip(unseparated(
        rng, lambda r: lasso_sample(r, 8), 2), range(2))]

    def structures(r):
        while True:
            try:
                return kripke_sample(r, 12)
            except ValueError:  # a structure drawn on both sides
                pass

    samples += [(s, b) for s, b in zip(unseparated(rng, structures, 2),
                                       (3, 3, 4))]
    out = []
    for sample, bound in samples:
        domain = _build_domain(sample)[0]
        starts, n_pos, cache = domain.starts, len(sample.positives), {}
        separators = []
        for f in enumerate_formulas(sample.alphabet, bound,
                                    logic=sample.logic):
            v = domain.evaluate(f, cache)
            if (all(v & m == m for m in starts[:n_pos])
                    and not any(v & m == m for m in starts[n_pos:])):
                separators.append((size(f), structural_key(f), f))
        out.append((sample, bound, separators))
    return tuple(out)


class TestLeastSeparator:
    """In NONE mode the witness is the least separator of the least size
    (AT_MOST) or of the bound's size (EXACTLY) under `structural_key`,
    however the final layer is split into flushes."""

    def test_the_witness_is_the_least_separator(self, monkeypatch):
        calls = {}
        tops = set()
        for cap in (16, learner._LANE_CAP):
            monkeypatch.setattr(learner, "_LANE_CAP", cap)
            calls[cap] = []
            for cls in (LtlDomain, CtlDomain):
                monkeypatch.setattr(cls, "lanes", lambda d, k, real=cls.lanes:
                                    calls[cap].append(k) or real(d, k))
            for sample, most, separators in least_separator_samples():
                for bound in range(2, most + 1):
                    for mode in BoundMode:
                        fit = [x for x in separators if x[0] <= bound
                               and (mode == BoundMode.AT_MOST
                                    or x[0] == bound)]
                        want = min(fit, key=lambda x: x[:2], default=None)
                        out = learn(sample, LearnConfig(
                            bound=bound, bound_mode=mode,
                            dedup=DedupMode.NONE))
                        assert (out.witness, out.size) == (
                            (want[2], want[0]) if want else (None, None)), (
                            sample, bound, mode, cap)
                        if want and want[2].args:
                            tops.add(want[2].op)
            monkeypatch.undo()
        # The small cap splits the final layers into many more flushes.
        assert len(calls[16]) > 2 * len(calls[learner._LANE_CAP])
        assert tops & {UNTIL, "R", WEAK_UNTIL, STRONG_RELEASE}

    @pytest.mark.parametrize("cap", [16, learner._LANE_CAP])
    def test_the_search_keeps_the_least_rows_winners(self, monkeypatch, cap):
        # At the winning cost, below the bound or at it, the search keeps
        # the separators of the least row and no other.
        monkeypatch.setattr(learner, "_LANE_CAP", cap)
        costs = set()
        for sample, most, separators in least_separator_samples():
            for bound in range(2, most + 1):
                cost = min((x[0] for x in separators if x[0] <= bound),
                           default=None)
                want = least_row(sorted(print_formula(x[2])
                                        for x in separators
                                        if x[0] == cost), sample.logic)
                assert TestFlushBoundaries.winners(sample, LearnConfig(
                    bound=bound, dedup=DedupMode.NONE)) == (cost, want)
                costs.add((cost, bound))
        assert {cost < bound for cost, bound in costs if cost} == {
            False, True}


# The enumerator class itself, before any test replaces it.
_ENUMERATION = learner.ClosureEnumeration


class FullSchedule(_ENUMERATION):
    """The enumerator with empty skip sets: it schedules every
    application, as it does outside SEMANTIC mode."""

    def __init__(self, *args):
        super().__init__(*args[:6])


def schedule_trace(monkeypatch, sample, config, base):
    """The first search `learn` runs on `sample`, by the enumerator class
    `base`: its rows, its registered builds, winner set, `generated` and
    `distinct`, and the triples it composed below the bound, in order."""
    composed = []

    class Traced(base):
        def compose(self, fns, triples):
            composed.extend(triples)
            return super().compose(fns, triples)

    monkeypatch.setattr(learner, "ClosureEnumeration", Traced)
    rows, (cost, winners, enum, stats) = run_search(sample, config)
    return rows, (cost, enum.builds, set(winners),
                  stats["candidates_generated"],
                  stats["distinct_signatures"]), composed


SKIP_OPERATORS = {"or": OperatorSet.from_names(["|"]),
                  "and-or": OperatorSet.from_names(["&", "|"]),
                  "implies-until": OperatorSet.from_names(["->", "U"]),
                  "full": OperatorSet.full()}


@functools.lru_cache(maxsize=None)
def skip_samples(ops):
    """LTL samples over two and three propositions, and CTL samples whose
    first negative has two initial states, at each bound from 2 to 5.  They
    are drawn until the default search over `SKIP_OPERATORS[ops]` finds no
    separator below the bound, so that it runs every layer below it, or for
    half of those at bounds 4 and 5, until it finds one of size 3 or more
    below the bound, in a layer where pairs are composed."""
    rng = random.Random(2024)
    draws = [lambda: random_sample(rng, ("p", "q")),
             lambda: random_sample(rng, ("p", "q", "r")),
             lambda: lasso_sample(rng, 8), lambda: kripke_sample(rng, 20)]
    config = LearnConfig(operators=SKIP_OPERATORS[ops])
    samples = []
    for bound in (2, 3, 4, 5):
        for k, draw in enumerate(draws * 2):
            lower = k >= len(draws) and bound > 3
            while True:
                try:
                    s = draw()
                except ValueError:  # a structure drawn on both sides
                    continue
                s = Sample(s.alphabet, s.logic, s.positives, s.negatives,
                           bound=bound)
                size = learn(s, config).size or bound
                if (2 < size < bound) == lower and (lower or size == bound):
                    break
            samples.append((f"{s.logic}-{k}-{bound}", s))
    return tuple(samples)


def skipped_below_the_bound(rows, triple):
    """Is `triple` an application the SEMANTIC schedule skips: the mirror
    `(op, d, nid)` of a commuting row, `d` the older operand, or the
    self-pair of an idempotent row?"""
    op, a, b = triple
    if b < 0:
        return False
    row = (rows[0] + rows[1])[op]
    return (row in learner._COMMUTING and a < b
            or row[0] in learner._IDEMPOTENT and a == b)


class TestKnownSignatureSkips:
    """Below the final layer SEMANTIC mode composes no mirror of a commuting
    row and no self-pair of an idempotent one, and its search is that of
    the full schedule: the same registered builds in the same order, the
    same winners and the same counts."""

    @pytest.mark.parametrize("ops", sorted(SKIP_OPERATORS))
    def test_the_skipping_schedule_matches_the_full_one(self, monkeypatch,
                                                        ops):
        config = LearnConfig(operators=SKIP_OPERATORS[ops])
        skipped = mirrors_won = 0
        for name, sample in skip_samples(ops):
            rows, full, every = schedule_trace(monkeypatch, sample, config,
                                               FullSchedule)
            _, skipping, composed = schedule_trace(monkeypatch, sample,
                                                   config, _ENUMERATION)
            assert skipping == full, name
            kept = [t for t in every if not skipped_below_the_bound(rows, t)]
            assert composed == kept, name
            skipped += len(every) - len(kept)
            cost, _, winners = full[:3]
            if cost is not None and cost < sample.bound:
                mirrors_won += sum(skipped_below_the_bound(rows, t)
                                   for t in winners)
        assert skipped
        # A winner below the bound that the skipping schedule never
        # composed: a mirror that joined the winners beside its pair.
        assert mirrors_won or not any(row in learner._COMMUTING
                                      for row in rows[1])

    @pytest.mark.parametrize("mode", list(BoundMode))
    @pytest.mark.parametrize("ops", sorted(SKIP_OPERATORS))
    def test_outcomes_match_the_full_schedule(self, monkeypatch, ops, mode):
        config = LearnConfig(operators=SKIP_OPERATORS[ops], bound_mode=mode)

        def outcomes(base):
            monkeypatch.setattr(learner, "ClosureEnumeration", base)
            return [(out.decision, out.witness, out.size,
                     out.stats["candidates_generated"],
                     out.stats["distinct_signatures"])
                    for out in (learn(s, config)
                                for _, s in skip_samples(ops))]

        assert outcomes(_ENUMERATION) == outcomes(FullSchedule)

    def test_none_mode_schedules_everything(self, monkeypatch):
        config = LearnConfig(dedup=DedupMode.NONE)
        for name, sample in skip_samples("full"):
            if sample.bound < 4:
                _, full, every = schedule_trace(monkeypatch, sample, config,
                                                FullSchedule)
                _, none, composed = schedule_trace(monkeypatch, sample,
                                                   config, _ENUMERATION)
                assert (none, composed) == (full, every), name


def identity_violations(rng):
    """The `_COMMUTING` rows with `op(a, b) != op(b, a)`, and the
    `_IDEMPOTENT` rows, each quantifier of CTL included, with `op(a, a) !=
    a`, on random vectors over random lasso and structure domains and over
    lane views of them."""
    domains = []
    for _ in range(4):
        domains.append(LtlDomain(distinct_words(rng, rng.randint(2, 14))))
        domains.append(CtlDomain([kripke(rng, rng.randint(2, 5),
                                         rng.randint(1, 2))
                                  for _ in range(rng.randint(1, 4))]))
    domains += [d.lanes(k) for d in domains for k in (2, 5)]
    bad = set()
    for d in domains:
        n = d.full.bit_length()
        pairs = [(rng.getrandbits(n) & d.full, rng.getrandbits(n) & d.full)
                 for _ in range(25)]
        for row in learner._COMMUTING:
            fn = d.op(*row)
            if any(fn(a, b) != fn(b, a) for a, b in pairs):
                bad.add(row)
        for token in learner._IDEMPOTENT:
            temporal = d.logic == "ctl" and token not in (AND, OR)
            for q in ("E", "A") if temporal else (None,):
                fn = d.op(token, q)
                if any(fn(a, a) != a for a, _ in pairs):
                    bad.add((token, q))
    return bad


class TestSkippedIdentities:
    """The skips rest on `semantics.OPERATOR_TABLE` itself: every
    `_COMMUTING` row commutes and every `_IDEMPOTENT` row maps `(a, a)` to
    `a`."""

    def test_the_table_satisfies_them(self):
        assert identity_violations(random.Random(5)) == set()

    @pytest.mark.parametrize("row, planted", [
        ((AND, None), lambda real: lambda d: lambda a, b: real(d)(
            d.full ^ a, b)),
        ((UNTIL, None), lambda real: lambda d: lambda a, b: d.full ^ real(d)(
            a, b)),
        ((STRONG_RELEASE, "A"), lambda real: lambda d: lambda a, b:
         d.full ^ real(d)(a, b)),
        ((WEAK_UNTIL, "E"), lambda real: lambda d: lambda a, b: real(d)(
            d.full ^ a, b)),
    ], ids=["and-operand", "until", "A-release", "E-weak"])
    def test_a_planted_row_fails(self, monkeypatch, row, planted):
        monkeypatch.setitem(OPERATOR_TABLE, row,
                            planted(OPERATOR_TABLE[row]))
        assert row in identity_violations(random.Random(5))


def traced_enumerations(monkeypatch, fault=None):
    """Make every enumeration record its composed layers, by cost, and its
    final-layer shares `(nid, unary, partners)` in the order handed over;
    returns the list of the enumerations made.  `fault(enum, nids,
    partner_lists)` alters each batch before it is recorded and handed
    on."""
    made = []

    class Traced(_ENUMERATION):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
            self.skips = (args + (frozenset(), frozenset()))[6:8]
            self.layers, self.shares = {}, []
            layer, visit_top = self.layer, self.visit_top

            def traced_layer(cost, triples):
                self.layers[cost] = list(triples)
                return layer(cost, triples)

            def traced_visit_top(nids, unary, partner_lists):
                partner_lists = [list(p) for p in partner_lists]
                if fault:
                    partner_lists = fault(self, nids, partner_lists)
                self.shares += [(nid, unary, p)
                                for nid, p in zip(nids, partner_lists)]
                visit_top(nids, unary, partner_lists)

            self.layer, self.visit_top = traced_layer, traced_visit_top

    monkeypatch.setattr(learner, "ClosureEnumeration", Traced)
    return made


def reference_schedule(enum):
    """An enumeration's layers below its bound, up to the last one it
    composed, and its final-layer shares, recomputed from its closures
    alone by brute force over the pairs of registered ids."""
    closures, ms = enum.closures, enum.max_size
    cost = [c.bit_count() for c in closures]
    unary = range(enum.n_unary)
    binary = range(enum.n_unary, enum.n_ops)
    commuting, idempotent = enum.skips

    def applications(nid, d):
        return [t for op in binary for t in ((op, nid, d), (op, d, nid))[
            :1 if op in commuting else 2]]

    layers = {1: [(-1, i, -1) for i in range(len(enum.seed_payloads))]}
    for c in range(2, max(enum.layers) + 1):
        layers[c] = []
        for nid in range(len(closures)):
            if cost[nid] == c - 1:  # unary, within-closure and self pairs
                layers[c] += [(op, nid, -1) for op in unary]
                for d in range(nid):
                    if closures[nid] >> d & 1:
                        layers[c] += applications(nid, d)
                layers[c] += [(op, nid, nid) for op in binary
                              if op not in idempotent]
            elif cost[nid] < c - 1:  # incomparable pairs
                for g in range(nid):
                    if (closures[nid] | closures[g]).bit_count() + 1 == c:
                        layers[c] += applications(nid, g)
        if not layers[c]:  # an empty layer is not composed
            del layers[c]
    shares = []
    for nid in range(len(closures)):
        if cost[nid] == ms - 1:
            shares.append((nid, True, [d for d in range(nid + 1) if binary
                                       and closures[nid] >> d & 1]))
            continue
        if cost[nid] == ms - 2:
            partners = [g for g in range(nid)
                        if closures[g] & ~closures[nid] == 1 << g]
        else:
            partners = [g for g in range(nid) if (
                closures[nid] | closures[g]).bit_count() == ms - 1]
        if partners and binary:
            shares.append((nid, False, partners))
    return layers, shares


def union_samples():
    """Samples whose searches form union groups at every layer kind:
    `skip_samples` over the full operator set (LTL over two and three
    propositions, CTL with a two-initial-state negative, bounds 2-5), LTL
    and CTL samples drawn at bounds 6 and 7, and the bound-7 reduction of
    a 4-variable CNF with its CTL embedding."""
    rng = random.Random(25)
    samples = [s for _, s in skip_samples("full")]
    for bound in (6, 7):
        for s in (random_sample(rng, ("p", "q", "r")),
                  next(unseparated(rng, lambda r: kripke_sample(r, 20), 2))):
            samples.append(Sample(s.alphabet, s.logic, s.positives,
                                  s.negatives, bound=bound))
    cnf = reduce_sat(CnfInstance(4, PINNED_CNFS["sat-4v"]))
    return samples + [cnf, reduce_ltl_to_ctl(cnf)]


class TestUnionGroups:
    """Candidates registered with the same operand union share their
    bookkeeping, and every composed layer and final-layer share is what
    brute force over the closures gives: the partners at `bound - 1` are
    the closure's ids, at `bound - 2` the older candidates that add only
    themselves to the closure, and below that every older candidate whose
    union with the closure has `bound - 1` ids; an incomparable pair goes
    to the layer of its union's size plus one."""

    @staticmethod
    def mismatches(monkeypatch, ops, fault=None):
        made = traced_enumerations(monkeypatch, fault)
        groups = 0
        for sample in union_samples():
            for dedup in DedupMode:
                for mode in BoundMode:
                    if dedup == DedupMode.NONE and sample.bound > 4:
                        continue
                    made.clear()
                    learn(sample, LearnConfig(
                        operators=SKIP_OPERATORS[ops], bound_mode=mode,
                        dedup=dedup))
                    for enum in made:
                        if reference_schedule(enum) != (enum.layers,
                                                        enum.shares):
                            yield sample, dedup, mode
                        unions = [c & ~(1 << i)
                                  for i, c in enumerate(enum.closures)]
                        groups += len(unions) - len(set(unions))
        assert groups

    @pytest.mark.parametrize("ops", sorted(SKIP_OPERATORS))
    def test_the_schedule_is_the_brute_force_one(self, monkeypatch, ops):
        assert next(self.mismatches(monkeypatch, ops), None) is None

    def test_enumerate_formulas_takes_the_same_path(self, monkeypatch):
        made = traced_enumerations(monkeypatch)
        for logic in ("ltl", "ctl"):
            for bound in (2, 3, 4):
                made.clear()
                list(enumerate_formulas("pq", bound, logic=logic))
                (enum,) = made
                assert reference_schedule(enum) == (enum.layers, enum.shares)

    def test_a_dropped_sibling_fails(self, monkeypatch):
        # Each share two below the bound loses its first partner of its
        # own cost: a sibling with the same operand union.
        def drop_sibling(enum, nids, partner_lists):
            cost = enum.closures[nids[0]].bit_count()
            if cost != enum.max_size - 2:
                return partner_lists
            return [[g for g in p if g != next((
                d for d in p if enum.closures[d].bit_count() == cost), -1)]
                for p in partner_lists]

        assert next(self.mismatches(monkeypatch, "full", drop_sibling),
                    None) is not None


def rotation_sample(alphabet="pq"):
    """A word and a rotation of it: one infinite word, so no formula
    separates them."""
    return Sample(alphabet, "ltl", [word("| {p};{q}")],
                  [word("{p} | {q};{p}")])


# Samples with no separator within the bound each is searched at below.
UNSEPARATED = {
    "rotation": rotation_sample,
    "unsat-a/ltl": lambda: reduce_sat(CnfInstance(3, PINNED_CNFS["unsat-a"])),
    "unsat-b/ctl": lambda: reduce_ltl_to_ctl(
        reduce_sat(CnfInstance(3, PINNED_CNFS["unsat-b"]))),
    "structures": lambda: next(unseparated(
        random.Random(1), lambda rng: kripke_sample(rng, 20), 3)),
}


class TestDistinctSignatures:
    """`distinct_signatures` counts the distinct signatures of the
    candidates composed one at a time: every layer below the bound, or the
    seeds at bound 1.  The final layer adds none."""

    @pytest.mark.parametrize("name, bound", [
        ("rotation", 2), ("rotation", 3), ("rotation", 4),
        ("unsat-a/ltl", 3), ("unsat-b/ctl", 3), ("structures", 3)])
    def test_exhaustive_count_is_that_of_the_smaller_formulas(self, name,
                                                              bound):
        sample = UNSEPARATED[name]()
        out = learn(sample, LearnConfig(bound=bound, dedup=DedupMode.NONE))
        assert not out.decision
        domain = _build_domain(sample)[0]
        assert out.stats["distinct_signatures"] == len(
            {domain.evaluate(f) for f in enumerate_formulas(
                sample.alphabet, bound - 1, logic=sample.logic)})

    @pytest.mark.parametrize("dedup", list(DedupMode))
    @pytest.mark.parametrize("sample, count", [
        (Sample("pq", "ltl", [word("| {p}")], [word("| {}")]), 2),
        # q and r never hold, and nothing separates.
        (Sample("pqr", "ltl", [word("| {p}")], [word("{p} | {}")]), 2),
        (rotation_sample("pqr"), 3),
    ], ids=["separated", "shared", "rotation"])
    def test_bound_one_counts_the_proposition_vectors(self, sample, count,
                                                      dedup):
        domain = _build_domain(sample)[0]
        assert len({domain.prop_vector(p) for p in sample.alphabet}) == count
        out = learn(sample, LearnConfig(bound=1, dedup=dedup))
        assert out.stats["distinct_signatures"] == count

    @pytest.mark.parametrize("name, bound", [
        ("rotation", 4), ("unsat-a/ltl", 5), ("unsat-b/ctl", 5),
        ("structures", 3)])
    def test_pruned_count_is_that_of_the_registered_candidates(self, name,
                                                               bound):
        # Every new signature below the bound is registered once.
        _, (cost, _, enum, stats) = run_search(UNSEPARATED[name](),
                                               LearnConfig(bound=bound))
        assert cost is None
        assert stats["distinct_signatures"] == len(enum.payloads)


class TestClosures:
    """`closures[i]` is the bitset of the ids of candidate `i`'s distinct
    sub-formulas, `i` included, so its popcount is the candidate's cost."""

    @pytest.mark.parametrize("logic", ["ltl", "ctl"])
    @pytest.mark.parametrize("alphabet", ["pq", "pqr"])
    @pytest.mark.parametrize("bound", [3, 4])
    def test_a_closure_is_the_bitset_of_its_subformula_ids(self, logic,
                                                          alphabet, bound):
        if logic == "ltl":
            sample = rotation_sample(alphabet)
        else:
            # A loop and a two-state cycle through the same label are
            # bisimilar, so no formula separates them.
            sample = Sample(alphabet, "ctl", [KripkeStructure(
                ("a",), ("a",), (("a", "a"),), (["p", "q"],))], [
                KripkeStructure(("a", "b"), ("a",), (("a", "b"), ("b", "a")),
                                (["p", "q"], ["p", "q"]))])
        rows, (cost, _, enum, _) = run_search(
            sample, LearnConfig(bound=bound, dedup=DedupMode.NONE))
        assert cost is None
        names = sorted(sample.alphabet)
        builders = learner._builders(logic, rows)
        formulas = [enum.build_formula(b, lambda i: Prop(names[i]), builders)
                    for b in enum.builds]
        ids = {f: i for i, f in enumerate(formulas)}
        assert len(ids) == len(formulas)
        for i, f in enumerate(formulas):
            assert enum.closures[i] == sum(1 << ids[g]
                                           for g in subformulas(f))
            assert enum.closures[i].bit_count() == size(f)


class TestCtlLearning:
    def structures(self):
        good = KripkeStructure(("a", "b"), ("a",),
                               (("a", "b"), ("b", "a")),
                               (["p"], []))
        bad = KripkeStructure(("x",), ("x",), (("x", "x"),), ([],))
        return good, bad

    def test_learn_ctl(self):
        good, bad = self.structures()
        s = Sample(["p"], "ctl", [good], [bad], bound=3)
        out = learn(s)
        assert out.decision and out.size == 1
        assert out.witness == parse_ctl("p")
        assert verify(out.witness, s)

    def test_learn_ctl_needs_quantifier(self):
        # Both structures satisfy !p initially; only one can reach p.
        good = KripkeStructure(("a", "b"), ("a",),
                               (("a", "b"), ("b", "b")),
                               ([], ["p"]))
        bad = KripkeStructure(("x",), ("x",), (("x", "x"),), ([],))
        s = Sample(["p"], "ctl", [good], [bad], bound=3)
        out = learn(s)
        assert out.decision and out.size == 2
        assert out.witness in (parse_ctl("E F p"), parse_ctl("E X p"),
                               parse_ctl("A F p"), parse_ctl("A X p"))

    def test_ctl_dedup_equivalence(self):
        good, bad = self.structures()
        s = Sample(["p"], "ctl", [good], [bad], bound=3)
        fast = learn(s)
        slow = learn(s, LearnConfig(dedup=DedupMode.NONE))
        assert fast.decision == slow.decision and fast.size == slow.size


def naive_formulas(props, ops, bound):
    """Every LTL formula over `props` and `ops` with at most `bound`
    distinct sub-formulas, as the fixpoint of applying every operator to the
    members of a set that starts with the propositions."""
    found = {Prop(p) for p in props}
    while True:
        operands = [f for f in found if len(subformulas(f)) < bound]
        new = {LtlUnary(op, f) for op in ops.unary for f in operands}
        new |= {LtlBinary(op, f, g) for op in ops.binary
                for f in operands for g in operands}
        new = {f for f in new if len(subformulas(f)) <= bound} - found
        if not new:
            return found
        found |= new


class TestEnumeration:
    def test_layer_counts_two_props(self):
        fs = list(enumerate_formulas(["p", "q"], 3))
        by_size = {}
        for f in fs:
            by_size[size(f)] = by_size.get(size(f), 0) + 1
        assert by_size == {1: 2, 2: 24, 3: 688}

    def test_layer_counts_one_prop(self):
        fs = list(enumerate_formulas(["p"], 3))
        by_size = {}
        for f in fs:
            by_size[size(f)] = by_size.get(size(f), 0) + 1
        assert by_size == {1: 1, 2: 12, 3: 336}

    def test_formulas_are_distinct_and_ordered_by_size(self):
        fs = list(enumerate_formulas(["p", "q"], 3))
        assert len(set(fs)) == len(fs)
        sizes = [size(f) for f in fs]
        assert sizes == sorted(sizes)

    def test_operator_restriction(self):
        ops = OperatorSet.from_names(["NOT", "OR"])
        fs = list(enumerate_formulas(["p"], 3, operators=ops))
        assert all(conforms(f, ops) for f in fs)
        # Size counts distinct subformulas, so p|p has size 2 and
        # (p|p)|(p|p) has size 3.
        assert len(fs) == 11

    def test_ctl_enumeration(self):
        fs = list(enumerate_formulas(["p"], 2, logic="ctl"))
        texts = {str(f) for f in fs}
        assert "p" in texts and "!p" in texts
        assert "E X p" in texts and "A G p" in texts
        # Size 2 holds !p, 6 quantified unary forms, 8 quantified binary
        # forms with both operands p, and 4 logical combinations of p
        # with itself.
        assert len(fs) == 1 + 19

    # sha256 of the printed formulas, one a line, in enumeration order.
    @pytest.mark.parametrize("props, bound, logic, count, digest", [
        (["p", "q"], 4, "ltl", 33482, "0ab5b215814107a44069513e7433c231"
                                      "dbba4cbb269a9979d97f40b7a717894f"),
        (["p"], 3, "ctl", 837, "223db1ea6dd003639ec181ea1d70abac"
                               "404b96e35b91cf36095698044b9f6546"),
    ], ids=["ltl-p-q-4", "ctl-p-3"])
    def test_enumeration_order_is_pinned(self, props, bound, logic, count,
                                         digest):
        texts = [print_formula(f)
                 for f in enumerate_formulas(props, bound, logic=logic)]
        assert len(texts) == count
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest

    @pytest.mark.parametrize("props, names", [
        (["p", "q"], ["NOT", "X", "AND", "U"]),
        (["p"], ["NOT", "X", "G", "AND", "OR", "U"]),
    ], ids=["p-q", "p"])
    def test_each_formula_up_to_size_four_exactly_once(self, props, names):
        ops = OperatorSet.from_names(names)
        fs = list(enumerate_formulas(props, 4, operators=ops))
        assert len(set(fs)) == len(fs)
        assert set(fs) == naive_formulas(props, ops, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="alphabet"):
            enumerate_formulas([], 2)
        with pytest.raises(ValueError, match="logic"):
            enumerate_formulas(["p"], 2, logic="nope")


# (decision, printed witness, size, candidates_generated, distinct_signatures)
# per sample and mode.  Any change to the enumeration order, the pruning or
# the tie-break shows here.  NONE mode runs the reduction samples at bound 3:
# at their own bound 5 it visits 7.9 M candidates.
PINNED_SEARCHES = {
    ('sat-a/ltl', 'default'): (True, 'x1 | (x3_bar | x2)', 5, 4538, 68),
    ('sat-a/ltl', 'exactly'): (True, 'x1 | (x3_bar | x2)', 5, 4538, 68),
    ('sat-a/ltl', 'none'): (False, None, None, 2334, 13),
    ('sat-a/ctl', 'default'): (True, 'x1 | (x3_bar | x2)', 5, 4538, 68),
    ('sat-a/ctl', 'exactly'): (True, 'x1 | (x3_bar | x2)', 5, 4538, 68),
    ('sat-a/ctl', 'none'): (False, None, None, 5382, 13),
    ('sat-b/ltl', 'default'): (True, 'x1 | (x3_bar | x2)', 5, 5988, 94),
    ('sat-b/ltl', 'exactly'): (True, 'x1 | (x3_bar | x2)', 5, 5988, 94),
    ('sat-b/ltl', 'none'): (False, None, None, 2334, 13),
    ('sat-b/ctl', 'default'): (True, 'x1 | (x3_bar | x2)', 5, 5988, 94),
    ('sat-b/ctl', 'exactly'): (True, 'x1 | (x3_bar | x2)', 5, 5988, 94),
    ('sat-b/ctl', 'none'): (False, None, None, 5382, 13),
    ('unsat-a/ltl', 'default'): (False, None, None, 4962, 76),
    ('unsat-a/ltl', 'exactly'): (False, None, None, 4962, 76),
    ('unsat-a/ltl', 'none'): (False, None, None, 2334, 13),
    ('unsat-a/ctl', 'default'): (False, None, None, 4962, 76),
    ('unsat-a/ctl', 'exactly'): (False, None, None, 4962, 76),
    ('unsat-a/ctl', 'none'): (False, None, None, 5382, 13),
    ('unsat-b/ltl', 'default'): (False, None, None, 5756, 94),
    ('unsat-b/ltl', 'exactly'): (False, None, None, 5756, 94),
    ('unsat-b/ltl', 'none'): (False, None, None, 2334, 13),
    ('unsat-b/ctl', 'default'): (False, None, None, 5756, 94),
    ('unsat-b/ctl', 'exactly'): (False, None, None, 5756, 94),
    ('unsat-b/ctl', 'none'): (False, None, None, 5382, 13),
    ('sat-4v/ltl', 'default'): (True, 'x1 | (x3 | x2 | x4)', 7, 258521, 1309),
    ('sat-4v/ltl', 'exactly'): (True, 'x1 | (x3 | x2 | x4)', 7, 258521, 1309),
    ('sat-4v/ltl', 'none'): (False, None, None, 3240, 17),
    ('sat-4v/ctl', 'default'): (True, 'x1 | (x3 | x2 | x4)', 7, 258521, 1309),
    ('sat-4v/ctl', 'exactly'): (True, 'x1 | (x3 | x2 | x4)', 7, 258521, 1309),
    ('sat-4v/ctl', 'none'): (False, None, None, 7368, 17),
    ('lasso-0', 'default'): (True, 'X p', 2, 70, 9),
    ('lasso-0', 'exactly'): (True, 'X p & X p', 3, 70, 9),
    ('lasso-0', 'none'): (True, 'X p', 2, 70, 9),
    ('lasso-1', 'default'): (True, 'X (p -> X p)', 4, 1290, 26),
    ('lasso-1', 'exactly'): (True, 'X (p -> X p)', 4, 1290, 26),
    ('lasso-1', 'none'): (True, 'X (p -> X p)', 4, 33482, 26),
    ('lasso-2', 'default'): (True, 'F p', 2, 98, 11),
    ('lasso-2', 'exactly'): (True, 'F p & F p', 3, 98, 11),
    ('lasso-2', 'none'): (True, 'F p', 2, 98, 11),
    ('lasso-3', 'default'): (True, 'X X q', 3, 1354, 32),
    ('lasso-3', 'exactly'): (True, 'X X q & X X q', 4, 1354, 32),
    ('lasso-3', 'none'): (True, 'X X q', 3, 19974, 32),
    ('lasso-4', 'default'): (True, 'p', 1, 2, 2),
    ('lasso-4', 'exactly'): (True, 'p & p & (p & p)', 3, 2, 2),
    ('lasso-4', 'none'): (True, 'p', 1, 2, 2),
    ('lasso-5', 'default'): (True, 'p', 1, 2, 2),
    ('lasso-5', 'exactly'): (True, 'p & p & (p & p) & (p & p & (p & p))',
                             4, 2, 2),
    ('lasso-5', 'none'): (True, 'p', 1, 2, 2),
    ('lasso-6', 'default'): (True, 'X p', 2, 115, 13),
    ('lasso-6', 'exactly'): (True, 'X p & X p', 3, 115, 13),
    ('lasso-6', 'none'): (True, 'X p', 2, 115, 13),
    ('lasso-7', 'default'): (True, 'r -> q', 3, 1835, 59),
    ('lasso-7', 'exactly'): (True, '(r -> q) & (r -> q)', 4, 1835, 59),
    ('lasso-7', 'none'): (True, 'r -> q', 3, 6999, 59),
}

PINNED_CNFS = {
    "sat-a": ((1, -2), (2, 3), (-1, -3)),
    "sat-b": ((1, 2, 3), (-1, 2), (-2, -3), (1, -3)),
    "unsat-a": ((1, 2), (1, -2), (-1, 3), (-1, -3)),
    "unsat-b": ((1, 2), (-1, 2), (1, -2), (-1, -2), (3, -1)),
    # Four variables: a bound-7 search, whose layers below bound - 2 hold
    # candidates with the same operand union.
    "sat-4v": ((-3, 1), (1, -4), (-2, 3), (1, -2), (3, -1, -4), (-1, -3, 2),
               (3, 1, -2), (-2, 4, 3)),
}

PINNED_MODES = {
    "default": {},
    "exactly": {"bound_mode": BoundMode.EXACTLY},
    "none": {"dedup": DedupMode.NONE},
}


def pinned_samples():
    for name, clauses in PINNED_CNFS.items():
        s = reduce_sat(CnfInstance(max(abs(v) for c in clauses for v in c),
                                   clauses))
        yield f"{name}/ltl", s
        yield f"{name}/ctl", reduce_ltl_to_ctl(s)
    rng = random.Random(4417)
    for k, (props, bound) in enumerate(
            [(("p", "q"), 3), (("p", "q"), 4)] * 3
            + [(("p", "q", "r"), 3), (("p", "q", "r"), 4)]):
        yield f"lasso-{k}", random_sample(rng, props, bound=bound)


class TestPinnedSearches:
    """The search's observable outputs, counts included, stay fixed."""

    def test_outputs_match_the_recorded_ones(self):
        seen = {}
        for name, s in pinned_samples():
            for mode, kwargs in PINNED_MODES.items():
                bound = (3 if mode == "none" and not name.startswith("lasso")
                         else None)
                out = learn(s, LearnConfig(bound=bound, **kwargs))
                seen[name, mode] = (
                    out.decision,
                    print_formula(out.witness) if out.witness else None,
                    out.size, out.stats["candidates_generated"],
                    out.stats["distinct_signatures"])
        assert seen == PINNED_SEARCHES
