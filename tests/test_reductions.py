"""CNF round trips: satisfiability as a formula-learning problem."""

import random

import pytest

from templearn import (
    CnfInstance, ExtractionError, LearnConfig, Word, check_separating,
    extract_disjunction, extract_valuation, formula_from_valuation, learn,
    parse_dimacs, parse_ltl, reduce_ltl_to_ctl, reduce_sat, sat_oracle,
    size, verify, write_dimacs,
)
from templearn import reductions
from templearn.formulas import LtlBinary
from templearn.reductions import satisfies
from templearn.semantics import LtlDomain


class TestCnfInstance:
    def test_valid(self):
        cnf = CnfInstance(2, [[1, -2], [2]])
        assert cnf.variable_count == 2
        assert cnf.clauses == ((1, -2), (2,))

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CnfInstance(2, [[1], []])

    def test_out_of_range_literal(self):
        with pytest.raises(ValueError, match="references"):
            CnfInstance(2, [[3]])
        with pytest.raises(ValueError, match="not a"):
            CnfInstance(2, [[0]])

    def test_negative_variable_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CnfInstance(-1, [])

    def test_no_clauses_is_fine(self):
        assert CnfInstance(2, []).clauses == ()


class TestDimacs:
    def test_parse(self):
        cnf = parse_dimacs("c comment\np cnf 3 2\n1 -3 0\n2 0\n")
        assert cnf == CnfInstance(3, [[1, -3], [2]])

    def test_clause_may_span_lines(self):
        cnf = parse_dimacs("p cnf 2 1\n1\n-2 0\n")
        assert cnf == CnfInstance(2, [[1, -2]])

    def test_final_clause_may_omit_its_terminator(self):
        assert parse_dimacs("p cnf 2 1\n1 -2\n") == CnfInstance(2, [[1, -2]])

    @pytest.mark.parametrize("text,message", [
        ("1 0\n", "header"),
        ("p cnf 2 1\np cnf 2 1\n1 0\n", "repeated"),
        ("p cnf two 1\n1 0\n", "non-numeric"),
        ("p dnf 2 1\n1 0\n", "malformed header"),
        ("p cnf 2 1\n1 x 0\n", "not an"),
        ("p cnf 2 2\n1 0\n", "declares 2 clauses"),
        ("p cnf 2 1\n3 0\n", "references"),
        ("", "missing"),
    ])
    def test_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_dimacs(text)

    def test_round_trip(self):
        cnf = CnfInstance(3, [[1, -2], [-1, 2, 3], [2]])
        assert parse_dimacs(write_dimacs(cnf)) == cnf

    def test_write_format(self):
        assert write_dimacs(CnfInstance(2, [[1, -2]])) == \
            "p cnf 2 1\n1 -2 0\n"


class TestSatOracle:
    def test_counting_order_prefers_all_false(self):
        # Both all-false and all-true satisfy; all-false comes first.
        cnf = CnfInstance(2, [[1, -2], [-1, 2]])
        assert sat_oracle(cnf) == {1: False, 2: False}

    def test_first_variable_toggles_fastest(self):
        cnf = CnfInstance(2, [[1]])
        assert sat_oracle(cnf) == {1: True, 2: False}

    def test_unsat(self):
        cnf = CnfInstance(1, [[1], [-1]])
        assert sat_oracle(cnf) is None

    def test_empty_cnf_is_satisfiable(self):
        assert sat_oracle(CnfInstance(1, [])) == {1: False}

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            sat_oracle(CnfInstance(25, [[1]]))

    def test_satisfies(self):
        cnf = CnfInstance(2, [[1, 2], [-1, -2]])
        assert satisfies(cnf, {1: True, 2: False})
        assert not satisfies(cnf, {1: True, 2: True})


class TestReduceSat:
    def example(self):
        return CnfInstance(3, ((1,), (-1, 2, -3), (-2, 3)))

    def test_structure(self):
        s = reduce_sat(self.example())
        assert s.logic == "ltl"
        assert s.alphabet == frozenset(
            {"x1", "x1_bar", "x2", "x2_bar", "x3", "x3_bar"})
        assert s.bound == 2 * 3 - 1

    def test_clause_words(self):
        s = reduce_sat(self.example())
        assert s.positives[0] == Word([], [["x1"]])
        assert s.positives[1] == Word([], [["x1_bar", "x2", "x3_bar"]])
        assert s.positives[2] == Word([], [["x2_bar", "x3"]])

    def test_consistency_words_and_negative(self):
        s = reduce_sat(self.example())
        assert s.positives[3:] == (
            Word([], [["x1", "x1_bar"]]),
            Word([], [["x2", "x2_bar"]]),
            Word([], [["x3", "x3_bar"]]),
        )
        assert s.negatives == (Word([], [[]]),)

    def test_requires_a_variable(self):
        with pytest.raises(ValueError, match="at least one variable"):
            reduce_sat(CnfInstance(0, []))

    def test_decision_matches_satisfiability(self):
        sat = self.example()
        unsat = CnfInstance(1, [[1], [-1]])
        assert learn(reduce_sat(sat)).decision
        assert not learn(reduce_sat(unsat)).decision


class TestReduceLtlToCtl:
    def test_single_letter_words_become_loops(self):
        s = reduce_sat(CnfInstance(1, [[1]]))
        t = reduce_ltl_to_ctl(s)
        assert t.logic == "ctl"
        assert t.alphabet == s.alphabet and t.bound == s.bound
        assert len(t.positives) == len(s.positives)
        k = t.positives[0]
        assert k.states == ("q",) and k.edges == frozenset({("q", "q")})
        assert k.labels == (frozenset({"x1"}),)

    def test_rejects_ctl_samples(self):
        s = reduce_sat(CnfInstance(1, [[1]]))
        with pytest.raises(ValueError, match="linear-time"):
            reduce_ltl_to_ctl(reduce_ltl_to_ctl(s))

    def test_rejects_longer_words(self):
        from templearn import Sample
        s = Sample(["p"], "ltl", [Word(["p"], [["p"]])], [])
        with pytest.raises(ValueError):
            reduce_ltl_to_ctl(s)

    def test_decision_carries_over(self):
        sat = CnfInstance(2, [[1, 2]])
        unsat = CnfInstance(1, [[1], [-1]])
        assert learn(reduce_ltl_to_ctl(reduce_sat(sat))).decision
        assert not learn(reduce_ltl_to_ctl(reduce_sat(unsat))).decision


class TestFormulaFromValuation:
    def test_literals_in_variable_order(self):
        f = formula_from_valuation({1: True, 2: False, 3: True})
        assert f == parse_ltl("x1 | x2_bar | x3")
        assert size(f) == 5

    def test_single_variable(self):
        assert formula_from_valuation({1: False}) == parse_ltl("x1_bar")

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            formula_from_valuation({})
        with pytest.raises(ValueError, match="total"):
            formula_from_valuation({2: True})

    def test_result_separates_the_reduced_sample(self):
        cnf = CnfInstance(3, ((1,), (-1, 2, -3), (-2, 3)))
        valuation = sat_oracle(cnf)
        f = formula_from_valuation(valuation)
        assert check_separating(f, reduce_sat(cnf))


class TestExtractDisjunction:
    def test_iff_tower(self):
        f = parse_ltl("(x1 <-> x2) <-> x3")
        assert extract_disjunction(f) == parse_ltl("x1 | x2 | x3")

    def test_plain_disjunction(self):
        f = parse_ltl("x1 | x2_bar")
        assert extract_disjunction(f) == f

    def test_implication(self):
        # x1 <-> x2 accepts the empty word and rejects its consistency
        # words, so it sits in ->'s negative left slot.
        f = parse_ltl("(x1 <-> x2) -> x3")
        assert extract_disjunction(f) == parse_ltl("x1 | x2 | x3")

    def test_blocks_in_any_order(self):
        blocks = {k: frozenset((f"x{k}", f"x{k}_bar")) for k in (3, 1, 2)}
        f = parse_ltl("(x2_bar <-> x3) -> x1")
        assert extract_disjunction(f, blocks) == parse_ltl("x1 | x2_bar | x3")

    def test_negative_child_two_levels_down(self):
        f = parse_ltl("x3_bar | ((x1 <-> x2_bar) -> x4)")
        assert extract_disjunction(f) == parse_ltl(
            "x1 | x2_bar | x3_bar | x4")

    def test_temporal_operand_is_rejected(self):
        with pytest.raises(ExtractionError, match="temporal-free"):
            extract_disjunction(parse_ltl("F x1"))

    def test_non_concise_is_rejected(self):
        with pytest.raises(ExtractionError, match="concise"):
            extract_disjunction(parse_ltl("x1 | x1"))
        with pytest.raises(ExtractionError, match="concise"):
            extract_disjunction(parse_ltl("!x1"))

    def test_wrong_polarity_is_rejected(self):
        with pytest.raises(ExtractionError, match="polarity|neither"):
            extract_disjunction(parse_ltl("(x1_bar -> x2) | x3"))

    def test_formula_accepting_every_word_fits_no_polarity(self):
        # x1 -> (x2 -> x3) holds on the empty word and on every consistency
        # word, so it is neither positive nor negative.
        with pytest.raises(ExtractionError,
                           match="x1 -> x2 -> x3 fits neither polarity"):
            extract_disjunction(parse_ltl("x1 -> (x2 -> x3)"))

    def test_unknown_block_is_rejected(self):
        with pytest.raises(ExtractionError, match="no"):
            extract_disjunction(parse_ltl("x1 | other"))


class TestExtractValuation:
    CNF = CnfInstance(3, ((1,), (-1, 2, -3), (-2, 3)))

    def test_plain_disjunction_witness(self):
        v = extract_valuation(parse_ltl("x1 | x2 | x3"), self.CNF)
        assert v == {1: True, 2: True, 3: True}
        assert satisfies(self.CNF, v)

    def test_iff_witness(self):
        v = extract_valuation(parse_ltl("(x1 <-> x2) <-> x3"), self.CNF)
        assert satisfies(self.CNF, v)

    def test_learned_witness(self):
        out = learn(reduce_sat(self.CNF))
        assert out.decision
        v = extract_valuation(out.witness, self.CNF)
        assert satisfies(self.CNF, v)

    def test_oversized_formula_is_rejected(self):
        f = parse_ltl("x1 | x2 | x3 | (x1 & x2 & x3)")
        with pytest.raises(ExtractionError, match="exceeds the bound"):
            extract_valuation(f, self.CNF)

    def test_non_separating_formula_is_rejected(self):
        with pytest.raises(ExtractionError, match="separate"):
            extract_valuation(parse_ltl("x1 & x2"), self.CNF)

    def test_extraction_is_linear_in_the_witness(self, monkeypatch):
        # Every sub-formula is evaluated once, so the operator applications
        # grow with the chain witness, not with its square.
        calls = []
        real = LtlDomain.binary
        monkeypatch.setattr(LtlDomain, "binary",
                            lambda d, *args: calls.append(1) or real(d, *args))
        counts = {}
        for m in (200, 800):
            valuation = {k: k % 3 != 0 for k in range(1, m + 1)}
            cnf = CnfInstance(m, [[k if valuation[k] else -k]
                                  for k in range(1, m + 1)])
            calls.clear()
            assert extract_valuation(formula_from_valuation(valuation),
                                     cnf) == valuation
            counts[m] = len(calls)
            assert counts[m] < 3 * m
        assert counts[800] < 5 * counts[200]

    @pytest.mark.parametrize("name, fault, message", [
        ("temporal_eliminate",
         lambda real: lambda f: LtlBinary("|", real(f), real(f)),
         "the temporal-free image is not concise"),
        ("satisfies", lambda real: lambda cnf, valuation: False,
         "the extracted assignment does not satisfy the CNF"),
    ], ids=["image-not-concise", "assignment-unsatisfying"])
    def test_a_planted_fault_is_an_internal_error(self, monkeypatch, caplog,
                                                  name, fault, message):
        monkeypatch.setattr(reductions, name,
                            fault(getattr(reductions, name)))
        with pytest.raises(RuntimeError, match="^internal error: " + message):
            extract_valuation(parse_ltl("x1 | x2 | x3"), self.CNF)
        assert [(r.name, r.levelname) for r in caplog.records] == [
            ("templearn.reductions", "ERROR")]


class TestRoundTripProperty:
    def random_cnf(self, rng):
        m = rng.randint(1, 3)
        clauses = []
        for _ in range(rng.randint(1, 4)):
            arity = rng.randint(1, min(3, m))
            variables = rng.sample(range(1, m + 1), arity)
            clauses.append([v if rng.random() < 0.5 else -v
                            for v in variables])
        return CnfInstance(m, clauses)

    def test_learning_decides_satisfiability(self):
        rng = random.Random(20260814)
        seen_sat = seen_unsat = 0
        for _ in range(25):
            cnf = self.random_cnf(rng)
            expected = sat_oracle(cnf) is not None
            sample = reduce_sat(cnf)
            out = learn(sample)
            assert out.decision == expected, write_dimacs(cnf)
            if expected:
                seen_sat += 1
                assert verify(out.witness, sample)
                v = extract_valuation(out.witness, cnf)
                assert satisfies(cnf, v)
            else:
                seen_unsat += 1
        assert seen_sat and seen_unsat
