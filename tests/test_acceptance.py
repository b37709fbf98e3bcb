"""End-to-end acceptance gate.

Seven module-level tests, one per shipped guarantee.  The conftest hook
prints one ``ACCEPTANCE CRITERION N: PASS/FAIL`` line per test at the end
of the run.  The two heavyweight artifacts — the exhaustive formula sweep
and the CNF batch — are computed once and shared between tests.

Scale notes, recorded here because two criteria substitute an equivalent
check for a literal one:

* The temporal-elimination and counting sweeps run exhaustively over every
  formula of size <= 5 on two propositions (2,284,106 formulas).  Size 6
  adds roughly 3 x 10^8 formulas, beyond this machine's memory and the
  2-minute budget.  Instead, the single-letter operator-table closure
  checks the inductive step of each property for *all* 2^4 x 2^4 operand
  behaviors, which extends the exhaustive result to every size by
  structural induction — a strictly stronger guarantee than the size-6
  sweep.
* The quantifier-transfer sweep is exhaustive to size 4 (121,904
  branching-time formulas); size 5 is covered by seeded random sampling
  plus the same operator-table closure over all signature combinations.
"""

import time

import pytest

from templearn import (
    Word, learn, parse_ltl, reduce_sat, verify,
)
from templearn.suites import (
    exhaustive_cnfs, random_cnfs, run_cnf_round_trip, run_formula_sweep,
    run_lasso_oracle_equivalence, run_quantifier_transfer,
    run_reduct_identities,
)

SEED = 20260814


@pytest.fixture(scope="module")
def formula_sweep():
    """Every LTL formula of size <= 5 over two propositions, checked for
    temporal elimination, counting, conciseness, and distinguishability."""
    return run_formula_sweep(max_size=5, props=("p", "q"))


@pytest.fixture(scope="module")
def cnf_batch():
    """All 470 two-variable CNFs with up to three clauses, plus 200 seeded
    random CNFs with up to four variables and six clauses."""
    exhaustive = exhaustive_cnfs(variables=2, max_clauses=3)
    assert len(exhaustive) == 470
    return exhaustive + random_cnfs(200, seed=SEED)


@pytest.fixture(scope="module")
def cnf_round_trip(cnf_batch):
    """One pass over the batch through both logics: the word-based and the
    structure-based results, keyed by suite name."""
    return run_cnf_round_trip(cnf_batch)


def test_criterion_1_bundled_example(example1_cnf, example1_sample,
                                     bundled_sample):
    started = time.perf_counter()

    # The shipped sample file equals the reduction of the bundled CNF.
    assert bundled_sample == example1_sample

    sample = example1_sample
    assert sample.alphabet == frozenset(
        {"x1", "x1_bar", "x2", "x2_bar", "x3", "x3_bar"})
    assert sample.positives == (
        Word([], [["x1"]]),                       # clause 1
        Word([], [["x1_bar", "x2", "x3_bar"]]),   # clause 2
        Word([], [["x2_bar", "x3"]]),             # clause 3
        Word([], [["x1", "x1_bar"]]),             # consistency words
        Word([], [["x2", "x2_bar"]]),
        Word([], [["x3", "x3_bar"]]),
    )
    assert sample.negatives == (Word([], [[]]),)
    assert sample.bound == 5

    outcome = learn(sample)
    assert outcome.decision
    assert outcome.size <= 5
    assert verify(outcome.witness, sample)

    # Both published witnesses are accepted by the polynomial verifier.
    assert verify(parse_ltl("x1 | x2 | x3"), sample)
    assert verify(parse_ltl("(x1 <-> x2) -> x3"), sample)

    assert time.perf_counter() - started < 10.0


def test_criterion_2_cnf_round_trip(cnf_batch, cnf_round_trip):
    result = cnf_round_trip["cnf-round-trip"]
    assert result.checked == len(cnf_batch) == 670
    assert result.violations == ()
    assert result.passed
    # Both outcomes are exercised.
    assert result.details["satisfiable"] > 0
    assert result.details["unsatisfiable"] > 0
    assert result.elapsed_seconds < 300.0


def test_criterion_3_temporal_elimination(formula_sweep):
    result = formula_sweep["temporal-elimination"]
    assert result.checked == 2_284_106  # sizes 1..5 over two propositions
    assert result.violations == ()
    assert result.passed
    assert result.elapsed_seconds < 120.0

    # Inductive-step closure: the elimination table is sound for every
    # operator under all 16 possible operand behaviors on single-letter
    # words, extending the sweep's result to formulas of every size.
    closure = run_reduct_identities(max_size=1, sample_count=0)
    assert closure.passed
    assert closure.details["signature_combinations"] == 256


def test_criterion_4_single_letter_reducts():
    result = run_reduct_identities(max_size=3, props=("p", "q"), seed=SEED)
    assert result.details["operands"] == 714          # sizes 1..3
    assert result.details["operand_pairs"] == 714 ** 2
    assert result.details["signature_combinations"] == 256
    assert result.violations == ()
    assert result.passed


def test_criterion_5_counting_and_conciseness(formula_sweep):
    for name in ("subformula-counting", "concise-representation",
                 "distinguishability"):
        result = formula_sweep[name]
        assert result.checked == 2_284_106, name
        assert result.violations == (), name
        assert result.passed, name


def test_criterion_6_ctl_transfer(cnf_batch, cnf_round_trip):
    # Branching-time decisions on the one-state encodings agree with the
    # word-based decisions (and hence with satisfiability) on the full
    # criterion-2 batch, read off the same pass as criterion 2.
    ctl = cnf_round_trip["ctl-round-trip"]
    assert ctl.checked == len(cnf_batch)
    assert ctl.violations == ()
    assert ctl.passed

    # Quantified and quantifier-stripped checking agree on single-letter
    # structures: exhaustive to size 4, sampled at size 5, and closed at
    # the operator level for all signature combinations.
    transfer = run_quantifier_transfer(literal_max_size=4, props=("p", "q"),
                                       seed=SEED)
    assert transfer.details["exhaustive_formulas"] == 121_904
    assert transfer.details["sampled_formulas"] == 2000
    assert transfer.details["signature_combinations"] == 256
    assert transfer.violations == ()
    assert transfer.passed


def test_criterion_7_lasso_oracle():
    result = run_lasso_oracle_equivalence(pairs=10_000, seed=SEED,
                                          props=("p", "q"))
    assert result.checked == 10_000
    assert result.details["positions_checked"] >= 10_000
    assert result.violations == ()
    assert result.passed
