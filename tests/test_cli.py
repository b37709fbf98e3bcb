"""The templearn command-line interface."""

import builtins
import collections
import hashlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import templearn
from templearn import cli, load_sample
from templearn.cli import (
    EXIT_ERROR, EXIT_NO_FORMULA, EXIT_OK, EXIT_PROPERTY_FAILURE, EXIT_USAGE,
    main,
)
from templearn.formulas import MAX_HEIGHT, MAX_NESTING, print_formula
from templearn.reductions import formula_from_valuation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Runs the CLI in a child interpreter with one name in `templearn.cli`
# replaced by a function that returns False.
_PATCHED_MAIN = """
import sys
from templearn import cli
cli.{name} = lambda *args: False
sys.exit(cli.main(sys.argv[1:]))
"""


def run_optimized(patched, *argv):
    """Run the CLI under `python -O`, which strips assert statements."""
    package_dir = Path(templearn.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-O", "-c", _PATCHED_MAIN.format(name=patched),
         *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(package_dir)})


@pytest.fixture
def zero_cnf_file(tmp_path):
    path = tmp_path / "zero.cnf"
    path.write_text("p cnf 0 0\n")
    return str(path)


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "tiny.cnf"
    path.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    return str(path)


class TestCheck:
    def test_separating_formula(self, capsys, sample_file):
        code, out, err = run(capsys, "check", "--formula", "F p",
                             "--sample", sample_file)
        assert code == EXIT_OK and err == ""
        assert "pos | {p}: true" in out
        assert "neg | {}: false" in out
        assert "separating: true" in out

    def test_non_separating_formula(self, capsys, sample_file):
        code, out, _ = run(capsys, "check", "--formula", "q",
                           "--sample", sample_file)
        assert code == EXIT_OK
        assert "separating: false" in out

    def test_inconsistent_verdicts_stop_the_report_under_O(self,
                                                           sample_file):
        result = run_optimized("check_separating", "check", "--formula",
                               "F p", "--sample", sample_file)
        assert result.returncode != 0
        assert "separating:" not in result.stdout
        assert "internal error" in result.stderr

    def test_json_report(self, capsys, sample_file):
        code, out, _ = run(capsys, "check", "--json", "--formula", "F p",
                           "--sample", sample_file)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["command"] == "check"
        assert data["outcome"]["separating"] is True
        assert data["outcome"]["verdicts"]["positives"] == [True, True]
        assert len(data["inputs"]["sample"]["sha256"]) == 64

    def test_ctl_sample_labels_structures_by_index(self, capsys,
                                                  ctl_sample_file):
        code, out, err = run(capsys, "check", "--formula", "E F p",
                             "--sample", ctl_sample_file)
        assert code == EXIT_OK and err == ""
        assert out.splitlines() == [
            "pos structure[0]: true",
            "pos structure[1]: true",
            "neg structure[0]: false",
            "separating: true",
        ]
        code, out, _ = run(capsys, "check", "--json", "--formula", "p",
                           "--sample", ctl_sample_file)
        assert code == EXIT_OK
        outcome = json.loads(out)["outcome"]
        assert outcome["verdicts"] == {"positives": [True, False],
                                       "negatives": [False]}
        assert outcome["separating"] is False

    def test_unparseable_formula(self, capsys, sample_file):
        code, _, err = run(capsys, "check", "--formula", "p |",
                           "--sample", sample_file)
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    def test_missing_sample_file(self, capsys):
        code, _, err = run(capsys, "check", "--formula", "p",
                           "--sample", "/nonexistent.sample")
        assert code == EXIT_ERROR and "error:" in err

    def test_malformed_sample_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.sample"
        path.write_text("alphabet: p\nlogic: ltl\npos: oops\n")
        code, _, err = run(capsys, "check", "--formula", "p",
                           "--sample", str(path))
        assert code == EXIT_ERROR and "line 3" in err


class TestLearn:
    def test_decision_true(self, capsys, sample_file):
        code, out, _ = run(capsys, "learn", "--sample", sample_file)
        assert code == EXIT_OK
        assert "decision: true" in out
        assert "witness: X p" in out
        assert "size: 2" in out
        assert "# search_seconds:" in out

    def test_decision_false_exit_code(self, capsys, sample_file):
        code, out, _ = run(capsys, "learn", "--sample", sample_file,
                           "--bound", "1")
        assert code == EXIT_NO_FORMULA
        assert "decision: false" in out
        assert "witness" not in out

    def test_operator_restriction(self, capsys, sample_file):
        code, out, _ = run(capsys, "learn", "--sample", sample_file,
                           "--ops", "OR,AND,U")
        assert code == EXIT_OK
        data = [l for l in out.splitlines() if l.startswith("witness:")]
        assert data == ["witness: p | q"]

    @pytest.mark.parametrize("dedup", [(), ("--no-dedup",)])
    def test_operator_restriction_keeps_both_quantifiers(
            self, capsys, tmp_path, dedup):
        # Naming no path quantifier allows both, so `E X p` is in reach.
        path = tmp_path / "next.sample"
        path.write_text(
            "alphabet: p\nlogic: ctl\n"
            "pos-kripke:\nstate a {}\nstate b {p}\ninit a\nedge a b\n"
            "edge b b\nend\n"
            "neg-kripke:\nstate a {}\ninit a\nedge a a\nend\n")
        code, out, _ = run(capsys, "learn", "--sample", str(path),
                           "--bound", "2", "--ops", "X", *dedup)
        assert code == EXIT_OK
        assert "witness: E X p" in out and "size: 2" in out

    def test_exactly_mode(self, capsys, sample_file):
        code, out, _ = run(capsys, "learn", "--sample", sample_file,
                           "--bound", "3", "--exactly")
        assert code == EXIT_OK
        sizes = [l for l in out.splitlines() if l.startswith("size:")]
        assert sizes == ["size: 3"]

    def test_no_dedup_agrees(self, capsys, sample_file):
        code, out, _ = run(capsys, "learn", "--sample", sample_file,
                           "--no-dedup")
        assert code == EXIT_OK and "witness: X p" in out

    def test_unverified_witness_is_not_printed_under_O(self, sample_file):
        result = run_optimized("verify", "learn", "--sample", sample_file)
        assert result.returncode != 0
        assert "witness:" not in result.stdout
        assert "internal error" in result.stderr

    def test_bound_cap(self, capsys, sample_file):
        # The cap itself is allowed; one above it is refused with a message
        # that names no option the command line lacks.
        code, out, _ = run(capsys, "learn", "--sample", sample_file,
                           "--bound", "12")
        assert code == EXIT_OK and "witness: X p" in out
        code, out, err = run(capsys, "learn", "--sample", sample_file,
                             "--bound", "13")
        assert code == EXIT_ERROR and not out
        assert err == ("error: bound 13 exceeds the command line's cap of "
                       "12; the search is exponential in the bound, and "
                       "only the library can raise the cap "
                       "(LearnConfig.bound_limit)\n")

    def test_sample_without_bound(self, capsys, tmp_path):
        path = tmp_path / "unbounded.sample"
        path.write_text("alphabet: p\nlogic: ltl\npos: | {p}\nneg: | {}\n")
        code, out, err = run(capsys, "learn", "--sample", str(path))
        assert code == EXIT_ERROR and not out
        assert err == ("error: no size bound: set LearnConfig.bound or the "
                       "sample's bound\n")

    def test_bad_operator_name(self, capsys, sample_file):
        code, _, err = run(capsys, "learn", "--sample", sample_file,
                           "--ops", "XOR")
        assert code == EXIT_ERROR and "unknown operator" in err

    def test_json_structure(self, capsys, sample_file):
        code, out, _ = run(capsys, "learn", "--json", "--sample", sample_file)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["outcome"]["decision"] is True
        assert data["outcome"]["witness"] == "X p"
        assert data["outcome"]["size"] == 2
        assert data["outcome"]["candidates_generated"] >= 1
        assert "search" in data["timing"]

    def test_json_runs_are_identical_without_timing(self, capsys,
                                                    sample_file):
        _, out1, _ = run(capsys, "learn", "--json", "--sample", sample_file)
        _, out2, _ = run(capsys, "learn", "--json", "--sample", sample_file)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timing"), d2.pop("timing")
        assert d1 == d2


# `learn --json` outside `timing`, recorded for four searches; the sample
# path is filled in per run.  The last sample has a separator of size 4
# that the default search misses (ROADMAP item 1); `--no-dedup` finds it.
_THREE_PROPOSITIONS = """alphabet: p, q, r
logic: ltl
bound: 5
pos: {p,q,r} | {};{}
neg: {p,q,r};{p,r} | {}
neg: {p,q};{} | {p,q,r};{}
neg: {p};{} | {}
neg: {} | {}
"""
_EXAMPLE1_SHA = ("1833a4d86687d84432067db92519e963"
                 "37b9b2c15184091a6f834df2f98dd81a")
_GOLDEN_LEARN = {
    "example1": (("--sample", "example1"), _EXAMPLE1_SHA, 5, "at_most",
                 "semantic", "x1 | (x3 | x2)", 5, 4150, 64),
    "example1-exactly": (("--sample", "example1", "--exactly"), _EXAMPLE1_SHA,
                         5, "exactly", "semantic", "x1 | (x3 | x2)", 5, 4150,
                         64),
    # `|` alone: layer 2 holds only self-pairs, skipped but counted.
    "example1-or": (("--sample", "example1", "--ops", "OR"), _EXAMPLE1_SHA, 5,
                    "at_most", "semantic", "x1 | (x3 | x2)", 5, 224, 20),
    "three-props-no-dedup": (
        ("--sample", "three-props", "--no-dedup"),
        "32da21fa2e8a2fa34771e81da613f0048e2681961af5bf5603f438d28c72d566",
        5, "at_most", "none", "!(r -> X r)", 4, 688143, 90),
    # Its first negative has two initial states: the screen is not the
    # whole separation test.
    "example-kripke": (
        ("--sample", "example-kripke"),
        "93ca01bf09d074870a83310e8da48918f3bce0b4501e12172180643d63f84129",
        3, "at_most", "semantic", "p <-> q", 3, 408, 10),
}


class TestLearnGolden:
    """`learn --json` is byte-identical outside `timing` to the recorded
    reports: same inputs, witness, size and search counts, in the same
    order."""

    @pytest.mark.parametrize("name", sorted(_GOLDEN_LEARN))
    def test_report_matches_the_recorded_one(self, capsys, tmp_path,
                                             example1_sample_file, name):
        argv, sha, bound, mode, dedup, witness, size, generated, distinct = (
            _GOLDEN_LEARN[name])
        three = tmp_path / "three.sample"
        three.write_text(_THREE_PROPOSITIONS)
        paths = {"example1": str(example1_sample_file),
                 "three-props": str(three),
                 "example-kripke": str(example1_sample_file.parent
                                       / "example-kripke.sample")}
        argv = [paths.get(a, a) for a in argv]
        code, out, _ = run(capsys, "learn", "--json", *argv)
        assert code == EXIT_OK
        data = json.loads(out)
        assert list(data.pop("timing")) == ["search"]
        expected = {
            "command": "learn",
            "version": templearn.__version__,
            "inputs": {"sample": {"path": argv[1], "sha256": sha},
                       "bound": bound, "bound_mode": mode, "dedup": dedup},
            "outcome": {"decision": True, "witness": witness, "size": size,
                        "candidates_generated": generated,
                        "distinct_signatures": distinct},
        }
        assert json.dumps(data) == json.dumps(expected)


class TestReduce:
    def test_sat2ltl(self, capsys, cnf_file, tmp_path):
        out_path = str(tmp_path / "reduced.sample")
        code, out, _ = run(capsys, "reduce", "sat2ltl", "--cnf", cnf_file,
                           "--out", out_path)
        assert code == EXIT_OK
        assert f"wrote {out_path}" in out
        sample = load_sample(out_path)
        assert sample.logic == "ltl"
        assert sample.bound == 3  # two variables
        assert len(sample.positives) == 2 + 2 and len(sample.negatives) == 1

    def test_ltl2ctl(self, capsys, cnf_file, tmp_path):
        mid = str(tmp_path / "mid.sample")
        out_path = str(tmp_path / "ctl.sample")
        run(capsys, "reduce", "sat2ltl", "--cnf", cnf_file, "--out", mid)
        code, out, _ = run(capsys, "reduce", "ltl2ctl", "--sample", mid,
                           "--out", out_path)
        assert code == EXIT_OK
        sample = load_sample(out_path)
        assert sample.logic == "ctl"
        assert sample.positives[0].states == ("q",)

    def test_sat2ltl_requires_cnf(self, capsys, tmp_path):
        code, _, err = run(capsys, "reduce", "sat2ltl",
                           "--out", str(tmp_path / "x.sample"))
        assert code == EXIT_ERROR and "requires --cnf" in err

    def test_ltl2ctl_requires_sample(self, capsys, tmp_path):
        code, _, err = run(capsys, "reduce", "ltl2ctl",
                           "--out", str(tmp_path / "x.sample"))
        assert code == EXIT_ERROR and "requires --sample" in err

    def test_sat2ltl_refuses_zero_variables(self, capsys, tmp_path,
                                            zero_cnf_file):
        out_path = tmp_path / "z.sample"
        code, out, err = run(capsys, "reduce", "sat2ltl", "--cnf",
                             zero_cnf_file, "--out", str(out_path))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: the reduction needs at least one variable\n"
        assert not out_path.exists()

    def test_failed_write_names_its_path(self, capsys, example1_cnf_file):
        code, out, err = run(capsys, "reduce", "sat2ltl", "--cnf",
                             str(example1_cnf_file),
                             "--out", "/nonexistent-dir/x.sample")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == ("error: cannot write /nonexistent-dir/x.sample: "
                       "No such file or directory\n")

    def test_bad_direction_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["reduce", "nowhere", "--out", str(tmp_path / "x")])
        assert info.value.code == EXIT_USAGE


class TestInputFiles:
    """Each input file is read once, and the report records the SHA-256 of
    the bytes that were parsed."""

    @pytest.mark.parametrize("command", ["check", "learn", "reduce sat2ltl",
                                         "reduce ltl2ctl", "extract"])
    def test_each_input_is_opened_once(self, capsys, monkeypatch, tmp_path,
                                       sample_file, cnf_file, command):
        reduced = str(tmp_path / "reduced.sample")
        out = str(tmp_path / "out.sample")
        run(capsys, "reduce", "sat2ltl", "--cnf", cnf_file, "--out", reduced)
        argv, inputs = {
            "check": (["check", "--formula", "F p", "--sample", sample_file],
                      [sample_file]),
            "learn": (["learn", "--sample", sample_file], [sample_file]),
            "reduce sat2ltl": (["reduce", "sat2ltl", "--cnf", cnf_file,
                                "--out", out], [cnf_file]),
            "reduce ltl2ctl": (["reduce", "ltl2ctl", "--sample", reduced,
                                "--out", out], [reduced]),
            "extract": (["extract", "--formula", "x1 | x2", "--cnf", cnf_file,
                         "--sample", reduced], [cnf_file, reduced]),
        }[command]
        opened = collections.Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert {path: opened[path] for path in inputs} == dict.fromkeys(
            inputs, 1)

    def test_report_hashes_the_bytes_it_parsed(self, capsys, monkeypatch,
                                               sample_file):
        original = Path(sample_file).read_bytes()
        parse_sample = cli.parse_sample

        def rewrite_then_parse(text):
            Path(sample_file).write_text(
                "alphabet: p\nlogic: ltl\npos: | {}\nneg: | {p}\n")
            return parse_sample(text)

        monkeypatch.setattr(cli, "parse_sample", rewrite_then_parse)
        code, out, _ = run(capsys, "check", "--json", "--formula", "F p",
                           "--sample", sample_file)
        assert code == EXIT_OK
        assert Path(sample_file).read_bytes() != original
        data = json.loads(out)
        assert data["inputs"]["sample"] == {
            "path": sample_file,
            "sha256": hashlib.sha256(original).hexdigest()}
        assert data["outcome"]["verdicts"] == {"positives": [True, True],
                                               "negatives": [False]}
        assert data["outcome"]["separating"] is True


class TestNormalizeAndTranslate:
    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "--formula", "G (x1 W x2)")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "x1 | x2"

    def test_normalize_json(self, capsys):
        code, out, _ = run(capsys, "normalize", "--json",
                           "--formula", "!(p U q)")
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["outcome"]["result"] == "!q"
        assert data["outcome"]["size"] == 2

    def test_translate_to_ctl(self, capsys):
        code, out, _ = run(capsys, "translate", "--to", "ctl",
                           "--formula", "F p & G q")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "E F p & E G q"

    def test_translate_to_ctl_universal(self, capsys):
        code, out, _ = run(capsys, "translate", "--to", "ctl",
                           "--formula", "F p", "--quantifier", "A")
        assert code == EXIT_OK and out.splitlines()[0] == "A F p"

    def test_translate_to_ltl(self, capsys):
        code, out, _ = run(capsys, "translate", "--to", "ltl",
                           "--formula", "A (p U (E X q))")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "p U X q"

    def test_translate_round_trip(self, capsys):
        _, out, _ = run(capsys, "translate", "--to", "ctl",
                        "--formula", "!(p U q) | X p")
        ctl = out.splitlines()[0]
        _, out, _ = run(capsys, "translate", "--to", "ltl", "--formula", ctl)
        assert out.splitlines()[0] == "!(p U q) | X p"


class TestExtract:
    def test_extract_valuation(self, capsys, cnf_file):
        code, out, _ = run(capsys, "extract", "--cnf", cnf_file,
                           "--formula", "x1 | x2")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "x1=1 x2=1"

    def test_extract_json(self, capsys, cnf_file):
        code, out, _ = run(capsys, "extract", "--json", "--cnf", cnf_file,
                           "--formula", "x1 | x2")
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["outcome"]["valuation"] == {"x1": True, "x2": True}

    def test_extract_with_sample_check(self, capsys, cnf_file, tmp_path):
        reduced = str(tmp_path / "r.sample")
        run(capsys, "reduce", "sat2ltl", "--cnf", cnf_file, "--out", reduced)
        code, out, _ = run(capsys, "extract", "--cnf", cnf_file,
                           "--formula", "x1 | x2", "--sample", reduced)
        assert code == EXIT_OK and "x1=1 x2=1" in out

    def test_extract_rejects_non_witness(self, capsys, cnf_file):
        code, _, err = run(capsys, "extract", "--cnf", cnf_file,
                           "--formula", "x1 & x2_bar")
        assert code == EXIT_ERROR and "separate" in err

    def test_extract_refuses_a_proposition_outside_the_alphabet(
            self, capsys, example1_cnf_file):
        code, out, err = run(capsys, "extract", "--formula", "y", "--cnf",
                             str(example1_cnf_file))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == ("error: formula uses 'y' outside the sample "
                       "alphabet\n")

    def test_extract_refuses_zero_variables(self, capsys, zero_cnf_file):
        code, out, err = run(capsys, "extract", "--formula", "x1", "--cnf",
                             zero_cnf_file)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: the reduction needs at least one variable\n"


def nested_text(shape, depth, logic):
    """A formula text `depth` levels deep: parentheses around `p`, a chain
    of prefix operators, or a chain of `&` (left-associative) or `->`
    (right-associative)."""
    if shape == "parens":
        return "(" * depth + "p" + ")" * depth
    if shape == "prefix":
        return ("X " if logic == "ltl" else "E X ") * depth + "p"
    return f" {shape} ".join(["p"] * (depth + 1))


# The limit each shape reaches first: a chain of `&` nests no deeper with
# each operator, but grows as high.
LIMITS = {"parens": MAX_NESTING, "prefix": MAX_NESTING, "->": MAX_NESTING,
          "&": MAX_HEIGHT}
NESTS = f"nests deeper than {MAX_NESTING} levels"
HIGH = f"is more than {MAX_HEIGHT} levels deep"


class TestNestingLimit:
    """A formula text deeper than the parser's limits is one input error;
    a text at the limits goes through every command that reads one."""

    @pytest.fixture
    def samples(self, tmp_path):
        ltl = tmp_path / "one.sample"
        ltl.write_text("alphabet: p\nlogic: ltl\npos: | {p}\n")
        ctl = tmp_path / "one-ctl.sample"
        ctl.write_text("alphabet: p\nlogic: ctl\npos-kripke:\nstate a {p}\n"
                       "init a\nedge a a\nend\n")
        return {"ltl": str(ltl), "ctl": str(ctl)}

    @pytest.mark.parametrize("logic, shape, depth, error, offset", [
        ("ltl", "parens", 200, NESTS, 64), ("ctl", "parens", 150, NESTS, 64),
        ("ltl", "prefix", 985, NESTS, 128), ("ctl", "prefix", 985, NESTS, 256),
        ("ltl", "&", 2999, HIGH, 3202), ("ctl", "&", 2999, HIGH, 3202),
        ("ltl", "->", 2999, NESTS, 322), ("ctl", "->", 2999, NESTS, 322)])
    def test_a_deeper_text_is_refused(self, capsys, samples, logic, shape,
                                      depth, error, offset):
        code, out, err = run(capsys, "check", "--sample", samples[logic],
                             "--formula", nested_text(shape, depth, logic))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == (f"error: cannot parse formula: formula {error} "
                       f"(at offset {offset})\n")

    @pytest.mark.parametrize("logic", ["ltl", "ctl"])
    @pytest.mark.parametrize("shape", ["parens", "prefix", "&", "->"])
    def test_a_text_at_the_limit_checks_and_translates(self, capsys, samples,
                                                       shape, logic):
        text = nested_text(shape, LIMITS[shape], logic)
        code, out, _ = run(capsys, "check", "--sample", samples[logic],
                           "--formula", text)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "separating: true"
        code, _, _ = run(capsys, "translate", "--to",
                         "ctl" if logic == "ltl" else "ltl",
                         "--formula", text)
        assert code == EXIT_OK
        if logic == "ltl":
            assert run(capsys, "normalize", "--formula", text)[0] == EXIT_OK
        # One level more is refused.
        code, _, _ = run(capsys, "check", "--sample", samples[logic],
                         "--formula", nested_text(shape, LIMITS[shape] + 1,
                                                  logic))
        assert code == EXIT_ERROR

    def test_two_equal_branches_at_the_limit_check(self, capsys, samples):
        # Each branch is built apart, so every memo lookup compares two
        # equal trees as deep as the formula.
        branch = "(" + nested_text("|", MAX_HEIGHT - 2, "ltl") + ")"
        code, out, _ = run(capsys, "check", "--sample", samples["ltl"],
                           "--formula", f"{branch} & {branch}")
        assert code == EXIT_OK and out.splitlines()[-1] == "separating: true"

    def test_a_text_at_the_nesting_limit_is_extracted_from(self, capsys,
                                                           cnf_file):
        # Parentheses keep the formula within the reduction's bound; with
        # the right operand of its `|` they nest 64 levels.
        code, out, _ = run(capsys, "extract", "--cnf", cnf_file, "--formula",
                           "(" * 63 + "x1 | x2" + ")" * 63)
        assert code == EXIT_OK and out.splitlines()[0] == "x1=1 x2=1"

    @pytest.mark.parametrize("m", [120, MAX_HEIGHT + 1])
    def test_a_long_witness_is_checked_and_extracted(self, capsys, tmp_path,
                                                     m):
        # The witness of an m-variable CNF is a chain of m literals, as
        # `formula_from_valuation` prints it: the longest chain read has
        # `MAX_HEIGHT` operators.
        cnf, sample = tmp_path / "long.cnf", tmp_path / "long.sample"
        cnf.write_text(f"p cnf {m} 1\n1 0\n")
        assert run(capsys, "reduce", "sat2ltl", "--cnf", str(cnf), "--out",
                   str(sample))[0] == EXIT_OK
        valuation = {k: k == 1 for k in range(1, m + 1)}
        witness = print_formula(formula_from_valuation(valuation))
        code, out, _ = run(capsys, "check", "--sample", str(sample),
                           "--formula", witness)
        assert code == EXIT_OK and out.splitlines()[-1] == "separating: true"
        code, out, _ = run(capsys, "extract", "--cnf", str(cnf), "--formula",
                           witness)
        assert code == EXIT_OK
        assert out.splitlines()[0] == " ".join(
            f"x{k}={int(valuation[k])}" for k in range(1, m + 1))


class TestVerifyProperties:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify-properties", "--props", "1", "--max-size", "2",
            "--pairs", "50", "--cnf-variables", "1", "--cnf-clauses", "1",
            "--cnf-random", "3", "--jobs", "1")
        assert code == EXIT_OK
        assert "all suites passed: true" in out
        assert out.count("PASS") >= 6

    def test_suite_selection(self, capsys):
        code, out, _ = run(
            capsys, "verify-properties", "--suite", "reducts",
            "--max-size", "2", "--jobs", "1")
        assert code == EXIT_OK
        assert "reduct" in out and "lasso" not in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify-properties", "--json", "--suite", "lasso",
            "--pairs", "30", "--jobs", "1")
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["outcome"]["passed"] is True
        suites = data["outcome"]["suites"]
        assert all(entry["violation_count"] == 0 for entry in suites.values())

    def test_props_validation(self, capsys):
        code, _, err = run(capsys, "verify-properties", "--props", "9")
        assert code == EXIT_ERROR and "--props" in err

    @pytest.mark.parametrize("argv, option", [
        (("--suite", "cnf", "--cnf-variables", "0"), "--cnf-variables"),
        (("--suite", "cnf", "--cnf-variables", "-2"), "--cnf-variables"),
        (("--suite", "reducts", "--max-size", "0"), "--max-size"),
        (("--suite", "sweep", "--max-size", "0"), "--max-size"),
        (("--suite", "quantifier-transfer", "--max-size", "-1"),
         "--max-size"),
        (("--suite", "lasso", "--pairs", "0"), "--pairs"),
        (("--suite", "lasso", "--pairs", "-3"), "--pairs"),
        (("--suite", "cnf", "--cnf-clauses", "-1", "--cnf-random", "0"),
         "--cnf-clauses"),
        (("--suite", "cnf", "--cnf-random", "-1"), "--cnf-random"),
        (("--suite", "lasso", "--jobs", "0"), "--jobs"),
        (("--suite", "cnf", "--jobs", "-1"), "--jobs"),
    ])
    def test_size_validation(self, capsys, argv, option):
        # Each of these used to crash or to pass having checked nothing,
        # or, for --jobs, to run on one worker.  Counts of CNFs may be 0;
        # sizes, the number of pairs and of workers may not.
        least = 0 if option in ("--cnf-clauses", "--cnf-random") else 1
        code, out, err = run(capsys, "verify-properties", "--jobs", "1",
                             *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"error: {option} must be at least {least}\n"

    @pytest.mark.parametrize("env", ["abc", "0", "-2"])
    def test_bad_jobs_variable_is_refused(self, capsys, monkeypatch, env):
        # TEMPLEARN_JOBS stands in for an unset --jobs, so it is checked as
        # --jobs is, but only when the CNF suite runs.
        monkeypatch.setenv("TEMPLEARN_JOBS", env)
        code, out, err = run(capsys, "verify-properties", "--suite", "cnf",
                             "--cnf-clauses", "0", "--cnf-random", "1")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == ("error: TEMPLEARN_JOBS must be an integer of at "
                       f"least 1, not '{env}'\n")
        code, _, err = run(capsys, "verify-properties", "--suite", "lasso",
                           "--pairs", "5")
        assert code == EXIT_OK, err

    def test_zero_clauses_is_the_empty_cnf(self, capsys):
        # `--cnf-clauses 0` stays valid: the one CNF with no clauses.
        code, out, err = run(capsys, "verify-properties", "--suite", "cnf",
                             "--cnf-clauses", "0", "--cnf-random", "0",
                             "--cnf-variables", "1", "--jobs", "1", "--json")
        assert code == EXIT_OK, err
        suites = json.loads(out)["outcome"]["suites"]
        assert [(name, entry["checked"]) for name, entry in suites.items()] \
            == [("cnf-round-trip", 1), ("ctl-round-trip", 1)]

    def test_golden_report(self, capsys):
        # Every suite at a small scale: the report outside `timing` is
        # fixed byte for byte, and `timing` names the suites in run order.
        code, out, _ = run(
            capsys, "verify-properties", "--json", "--max-size", "3",
            "--cnf-random", "30", "--jobs", "1")
        assert code == EXIT_OK
        golden = Path(__file__).parent / "golden" / "verify_properties.json"
        assert out[:out.index(',\n  "timing"')] + "\n}\n" == \
            golden.read_text()
        assert list(json.loads(out)["timing"]) == [
            "single-letter-reducts", "temporal-elimination",
            "subformula-counting", "concise-representation",
            "distinguishability", "quantifier-transfer", "cnf-round-trip",
            "ctl-round-trip", "lasso-oracle-equivalence"]


class TestTopLevel:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["learn", "--frobnicate"])
        assert info.value.code == EXIT_USAGE

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("templearn ")

    def test_module_runs_the_cli(self):
        package_dir = Path(templearn.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "templearn", "--version"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(package_dir)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == f"templearn {templearn.__version__}"

    def test_package_import_leaves_out_the_cli_and_the_suites(self):
        # The benchmark's `setup_s` times `import templearn`; the command
        # line and the property suites are imported only by their users.
        package_dir = Path(templearn.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, templearn; print(json.dumps(sorted(m for m "
             "in sys.modules if m.startswith('templearn.'))))"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(package_dir)})
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout)
        assert "templearn.models" in loaded
        assert "templearn.cli" not in loaded
        assert "templearn.suites" not in loaded

    def test_console_script_is_installed(self):
        # The launcher contract is checked from pyproject.toml and the
        # imported package, so it holds in a source checkout run from
        # PYTHONPATH; the PATH check needs an installed distribution.
        tomllib = pytest.importorskip(
            "tomllib" if sys.version_info >= (3, 11) else "tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        scripts = project.get("scripts", {})
        assert "templearn" in scripts, "[project.scripts] has no templearn"
        module_name, _, attr = scripts["templearn"].partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr))

        expected = f"templearn {project['version']}"
        package_dir = Path(templearn.__file__).resolve().parents[1]
        launcher = (f"import sys; from {module_name} import {attr}; "
                    f"sys.exit({attr}())")
        result = subprocess.run(
            [sys.executable, "-c", launcher, "--version"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(package_dir)})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == expected

        try:
            importlib.metadata.distribution("templearn")
        except importlib.metadata.PackageNotFoundError:
            return
        executable = shutil.which("templearn")
        assert executable is not None
        result = subprocess.run([executable, "--version"], capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == expected
