"""Shared fixtures and the acceptance-criteria terminal summary."""

import pathlib

import pytest

from templearn import CnfInstance, load_sample, reduce_sat

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def example1_cnf():
    """The bundled three-variable, three-clause satisfiable CNF."""
    return CnfInstance(3, ((1,), (-1, 2, -3), (-2, 3)))


@pytest.fixture(scope="session")
def example1_sample(example1_cnf):
    return reduce_sat(example1_cnf)


@pytest.fixture(scope="session")
def example1_sample_file():
    return ROOT / "samples" / "example1.sample"


@pytest.fixture(scope="session")
def example1_cnf_file():
    return ROOT / "samples" / "example1.cnf"


@pytest.fixture
def sample_file(tmp_path):
    """A small LTL sample file with a bound."""
    path = tmp_path / "basic.sample"
    path.write_text(
        "alphabet: p, q\nlogic: ltl\nbound: 3\n"
        "pos: | {p}\npos: {q} | {p};{q}\nneg: | {}\n")
    return str(path)


@pytest.fixture
def ctl_sample_file(tmp_path):
    """A small CTL sample file of three structures."""
    path = tmp_path / "basic_ctl.sample"
    path.write_text(
        "alphabet: p\nlogic: ctl\nbound: 3\n"
        "pos-kripke:\nstate a {p}\ninit a\nedge a a\nend\n"
        "pos-kripke:\nstate a {}\nstate b {p}\ninit a\nedge a b\n"
        "edge b b\nend\n"
        "neg-kripke:\nstate a {}\ninit a\nedge a a\nend\n")
    return str(path)


@pytest.fixture(scope="session")
def bundled_sample(example1_sample_file):
    return load_sample(example1_sample_file)


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion after the run.
# ---------------------------------------------------------------------------

ACCEPTANCE_CRITERIA = {
    "test_criterion_1_bundled_example": (
        1, "bundled example: sample layout, learner, verification, < 10 s"),
    "test_criterion_2_cnf_round_trip": (
        2, "CNF round trip: oracle vs learner, extraction, < 5 min"),
    "test_criterion_3_temporal_elimination": (
        3, "temporal elimination: exhaustive sweep + operator closure, "
           "< 2 min"),
    "test_criterion_4_single_letter_reducts": (
        4, "single-letter reduct identities over all operand pairs"),
    "test_criterion_5_counting_and_conciseness": (
        5, "sub-formula counting and conciseness bounds"),
    "test_criterion_6_ctl_transfer": (
        6, "branching-time transfer: learner agreement + quantifier "
           "stripping"),
    "test_criterion_7_lasso_oracle": (
        7, "lasso checker agrees with the naive evaluator on 10k pairs"),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            name = report.location[2].split("[")[0]
            if name in ACCEPTANCE_CRITERIA:
                number, title = ACCEPTANCE_CRITERIA[name]
                verdict = "PASS" if outcome == "passed" else "FAIL"
                results[number] = (verdict, title)
    if not results:
        return
    writer = terminalreporter
    writer.section("acceptance criteria")
    for number in sorted(results):
        verdict, title = results[number]
        writer.write_line(f"ACCEPTANCE CRITERION {number}: {verdict} — "
                          f"{title}")
