"""Property-suite plumbing: result objects, generators, and small runs."""

import pytest

from templearn import semantics, suites
from templearn.formulas import (
    ALWAYS, AND, NOT, WEAK_UNTIL, LtlBinary, Prop, size,
)
from templearn.learner import learn
from templearn.reductions import (
    CnfInstance, reduce_ltl_to_ctl, reduce_sat, sat_oracle,
)
from templearn.semantics import LtlDomain
from templearn.suites import (
    SuiteResult, exhaustive_cnfs, random_cnfs, resolve_jobs,
    run_cnf_round_trip, run_formula_sweep,
    run_lasso_oracle_equivalence, run_quantifier_transfer,
    run_reduct_identities, single_letters,
)
from templearn.transforms import SINGLE_LETTER_REDUCT


class TestSuiteResult:
    def make(self, violations=()):
        return SuiteResult(name="demo", checked=10,
                           violation_count=len(violations),
                           violations=tuple(violations),
                           elapsed_seconds=1.25, details={})

    def test_passed(self):
        assert self.make().passed
        assert not self.make(["boom"]).passed

    def test_summary_line(self):
        assert self.make().summary() == \
            "PASS demo: checked=10 violations=0 elapsed=1.2s"
        assert self.make(["boom"]).summary().startswith("FAIL demo:")


class TestGenerators:
    def test_single_letters_order(self):
        letters = single_letters(("p", "q"))
        assert letters == (frozenset(), frozenset({"p"}), frozenset({"q"}),
                           frozenset({"p", "q"}))

    def test_exhaustive_cnfs_count(self):
        # 2 variables -> 4 literals; clause pool: C(4,1)+C(4,2)+C(4,3)
        # = 4+6+4 = 14; CNFs: sum over n<=3 of C(14,n) = 1+14+91+364.
        instances = exhaustive_cnfs(variables=2, max_clauses=3)
        assert len(instances) == 470
        assert len({i for i in instances}) == 470
        assert instances[0].clauses == ()

    def test_exhaustive_cnfs_small(self):
        instances = exhaustive_cnfs(variables=1, max_clauses=1)
        # Pool: {1}, {-1}, {1,-1}; CNFs: empty + 3 singles.
        assert len(instances) == 4

    def test_random_cnfs_are_seeded(self):
        a = random_cnfs(20, seed=5)
        b = random_cnfs(20, seed=5)
        c = random_cnfs(20, seed=6)
        assert a == b
        assert a != c
        assert all(1 <= i.variable_count <= 4 for i in a)
        assert all(1 <= len(i.clauses) <= 6 for i in a)

    def test_resolve_jobs(self, monkeypatch):
        assert resolve_jobs(3) == 3
        for jobs in (0, -5):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                resolve_jobs(jobs)
        monkeypatch.setenv("TEMPLEARN_JOBS", "2")
        assert resolve_jobs() == 2
        for env in ("junk", "0", "-1", "1.5"):
            monkeypatch.setenv("TEMPLEARN_JOBS", env)
            with pytest.raises(ValueError, match=(
                    "TEMPLEARN_JOBS must be an integer of at least 1, "
                    f"not '{env}'")):
                resolve_jobs()
        monkeypatch.setenv("TEMPLEARN_JOBS", "")
        assert resolve_jobs() >= 1
        monkeypatch.delenv("TEMPLEARN_JOBS")
        assert resolve_jobs() >= 1


class TestSmallRuns:
    """Each suite passes at reduced scale (the acceptance module runs the
    full-scale versions)."""

    def test_reducts(self):
        result = run_reduct_identities(max_size=2, props=("p",),
                                       sample_count=100, seed=1)
        assert result.passed and result.checked > 0

    def test_formula_sweep(self):
        results = run_formula_sweep(max_size=3, props=("p", "q"))
        assert set(results) == {"temporal-elimination",
                                "subformula-counting",
                                "concise-representation",
                                "distinguishability"}
        for result in results.values():
            assert result.passed
            assert result.checked == 714

    def test_formula_sweep_three_props(self):
        results = run_formula_sweep(max_size=4, props=("p", "q", "r"))
        for result in results.values():
            assert result.passed
            assert result.checked == 51_879
            assert result.details == {
                "formulas": 51_879, "registered": 1_095,
                "cross_checked": 1_095, "max_size": 4, "image_nodes": 5_316}

    def test_quantifier_transfer(self):
        result = run_quantifier_transfer(literal_max_size=2, props=("p",),
                                         sample_count=50, seed=1)
        assert result.passed

    def test_cnf_round_trip(self):
        # One pass checks each CNF's word learning against satisfiability
        # and its structure learning against the word learning.
        instances = exhaustive_cnfs(variables=1, max_clauses=2)
        results = run_cnf_round_trip(instances, jobs=1)
        assert list(results) == ["cnf-round-trip", "ctl-round-trip"]
        for name, result in results.items():
            assert result.name == name
            assert result.passed
            assert result.checked == len(instances)
        details = results["cnf-round-trip"].details
        assert details["satisfiable"] > 0
        assert details["unsatisfiable"] > 0

    def test_ctl_round_trip(self):
        instances = exhaustive_cnfs(variables=1, max_clauses=2)
        ctl = run_cnf_round_trip(instances, jobs=1)["ctl-round-trip"]
        assert ctl.passed
        assert (ctl.checked, ctl.violation_count) == (len(instances), 0)

    def test_ctl_round_trip_without_reference(self):
        # Structure learning decides satisfiability on its own, without
        # the word learning the pass compares it with.
        instances = exhaustive_cnfs(variables=1, max_clauses=1)
        for cnf in instances:
            decision = learn(reduce_ltl_to_ctl(reduce_sat(cnf))).decision
            assert decision == (sat_oracle(cnf) is not None), cnf
        assert run_cnf_round_trip(instances, jobs=1)["ctl-round-trip"].passed

    def test_lasso(self):
        result = run_lasso_oracle_equivalence(pairs=200, seed=3)
        assert result.passed
        assert result.details["positions_checked"] >= 200


class TestPlantedFaults:
    """With a fault planted in what a suite compares against, the suite
    reports each wrong example under its own letter or word: the counts and
    first messages below were recorded with the per-letter checkers."""

    @staticmethod
    def and_p(formula):
        return LtlBinary(AND, formula, Prop("p"))

    def test_quantifier_transfer_reports_each_wrong_letter(self,
                                                           monkeypatch):
        strip = suites.strip_quantifiers
        monkeypatch.setattr(
            suites, "strip_quantifiers",
            lambda f: self.and_p(strip(f)) if size(f) == 2 else strip(f))
        result = run_quantifier_transfer(literal_max_size=3,
                                         props=("p", "q"),
                                         sample_count=300, seed=5)
        assert (result.checked, result.violation_count) == (1998, 55)
        assert result.violations[:8] == (
            "!p vs !p & p on letter []",
            "!p vs !p & p on letter ['q']",
            "p -> p vs (p -> p) & p on letter []",
            "p -> p vs (p -> p) & p on letter ['q']",
            "p <-> p vs (p <-> p) & p on letter []",
            "p <-> p vs (p <-> p) & p on letter ['q']",
            "!q vs !q & p on letter []",
            "E X q vs X q & p on letter ['q']",
        )

    def test_quantifier_transfer_reports_each_wrong_table_row(
            self, monkeypatch):
        # One unary and one binary universal row complemented: on one-state
        # structures each now differs from its token at every signature.
        # Formulas of size 1 and no samples leave only the closing table to
        # report.  (An `E F` fault would not show: E and A agree there.)
        for row in ((ALWAYS, "A"), (WEAK_UNTIL, "A")):
            right = semantics.OPERATOR_TABLE[row]
            monkeypatch.setitem(
                semantics.OPERATOR_TABLE, row,
                lambda d, right=right: lambda *a: d.full ^ right(d)(*a))
        result = run_quantifier_transfer(literal_max_size=1, props=("p", "q"),
                                         sample_count=0)
        assert (result.checked, result.violation_count) == (2, 16 + 256)
        assert result.details["signature_combinations"] == 256
        assert result.violations[:3] == (
            "AG differs at signature 0",
            "A(W) differs at signatures 0,0",
            "A(W) differs at signatures 0,1",
        )

    def test_reducts_report_each_wrong_word(self, monkeypatch):
        # The M reduct is the only conjunction the suite builds.
        build = suites.LtlBinary

        def binary(op, left, right):
            f = build(op, left, right)
            return self.and_p(f) if op == AND else f

        monkeypatch.setattr(suites, "LtlBinary", binary)
        result = run_reduct_identities(max_size=2, props=("p", "q"),
                                       sample_count=200, seed=3)
        assert (result.checked, result.violation_count) == (902, 17)
        assert result.violations[:3] == (
            "G q M G q vs G q & G q & p on | {q}",
            "(p -> p) M X q vs (p -> p) & X q & p on | {q}",
            "(q U q) M q M q vs q U q & q M q & p on | {q}",
        )

    def test_formula_sweep_reports_each_wrong_image(self, monkeypatch):
        # `temporal_eliminate` reads the same table, so the cross-check
        # agrees with the wrong images.  Nothing here may call the learner:
        # its operator rows are cached across calls.
        monkeypatch.setitem(SINGLE_LETTER_REDUCT, WEAK_UNTIL, AND)
        results = run_formula_sweep(max_size=3)
        elim = results.pop("temporal-elimination")
        assert (elim.checked, elim.violation_count) == (714, 14)
        assert elim.violations[:4] == (
            "image of q W p disagrees on a constant word",
            "image of p W q disagrees on a constant word",
            "image of !p W p disagrees on a constant word",
            "image of p W !p disagrees on a constant word",
        )
        assert all(r.passed for r in results.values())

    def test_formula_sweep_reports_each_distinguishing_formula(self,
                                                               monkeypatch):
        # `p` also holds on the constant word of letter {q} (bit 2), so
        # every formula whose signature follows `p` tells {} from {q}.
        prop_vector = LtlDomain.prop_vector
        monkeypatch.setattr(
            LtlDomain, "prop_vector",
            lambda self, name: prop_vector(self, name) | (name == "p") << 2)
        results = run_formula_sweep(max_size=3)
        disting = results.pop("distinguishability")
        assert (disting.checked, disting.violation_count) == (714, 33)
        assert disting.violations[:3] == (
            "p distinguishes letters differing only in q",
            "!p distinguishes letters differing only in q",
            "p & p distinguishes letters differing only in q",
        )
        assert all(r.passed for r in results.values())

    def test_formula_sweep_reports_each_image_outside_its_bounds(
            self, monkeypatch):
        # Every `&` image takes the negation of its right operand: it grows
        # by one node that is no image of a sub-formula, and flips meaning.
        node = suites._TemporalFreeUniverse.node

        def wrong(self, op, a, b=-1):
            if op == AND:
                b = node(self, NOT, b)
            return node(self, op, a, b)

        monkeypatch.setattr(suites._TemporalFreeUniverse, "node", wrong)
        results = run_formula_sweep(max_size=3)
        elim = results.pop("temporal-elimination")
        assert (elim.checked, elim.violation_count) == (714, 568)
        assert elim.violations[:3] == (
            "image of q & p is larger than the formula",
            "image of q & p has a sub-formula outside the image of its "
            "sub-formulas",
            "image of q & p disagrees on a constant word",
        )
        assert all(r.passed for r in results.values())

    def test_cnf_round_trip_reports_each_wrong_branching_decision(
            self, monkeypatch):
        # The structures forget the clauses: they encode the empty CNF over
        # the same variables, which is satisfiable, so structure learning
        # says yes on each unsatisfiable CNF.
        reduce = suites.reduce_ltl_to_ctl
        monkeypatch.setattr(
            suites, "reduce_ltl_to_ctl",
            lambda s: reduce(reduce_sat(CnfInstance(len(s.alphabet) // 2,
                                                    ()))))
        instances = exhaustive_cnfs(variables=2, max_clauses=3)
        results = run_cnf_round_trip(instances, jobs=1)
        assert results["cnf-round-trip"].passed
        assert results["cnf-round-trip"].details["unsatisfiable"] == 34
        ctl = results["ctl-round-trip"]
        assert (ctl.checked, ctl.violation_count) == (470, 34)
        unsat = [cnf for cnf in instances if sat_oracle(cnf) is None]
        assert ctl.violations == tuple(
            f"branching-time decision mismatch on {cnf}: expected False "
            f"got True" for cnf in unsat[:20])
        assert ctl.violations[0] == (
            "branching-time decision mismatch on CnfInstance("
            "variable_count=2, clauses=((1,), (-1,))): expected False "
            "got True")
