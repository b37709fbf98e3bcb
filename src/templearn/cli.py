"""Command-line interface.

Subcommands: ``check``, ``learn``, ``reduce sat2ltl``, ``reduce ltl2ctl``,
``normalize``, ``translate``, ``extract``, ``verify-properties``.

Exit codes: 0 success; 1 input error; 2 usage error; 3 ``learn`` found no
formula within the bound (a proof that none exists only with
``--no-dedup``); 4 a property suite failed.

Commands raise and :func:`main` reports: it alone turns a ``ValueError``
(every input error the package raises) or an ``OSError`` into exit 1 with
a single ``error:`` line.

Every command supports ``--json``, which emits one JSON report with stable
key order.  Timing lives under the separate ``"timing"`` key (and in
``# ...`` comment lines in text mode) so that reports are byte-identical
across repeated runs apart from that segregated section.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .formulas import (
    FormulaSyntaxError, OperatorSet, parse_ctl, parse_ltl, print_formula,
    size,
)
from .learner import (
    BoundMode, DedupMode, LearnConfig, _resolve_bound, learn, verify,
)
from .models import (
    CTL, LTL, parse_sample, save_sample, word_to_text,
)
from .reductions import (
    extract_valuation, parse_dimacs, reduce_ltl_to_ctl, reduce_sat,
)
from .semantics import check_separating, check_ctl, check_ltl
from .transforms import insert_quantifiers, strip_quantifiers, temporal_eliminate
from . import suites

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NO_FORMULA = 3
EXIT_PROPERTY_FAILURE = 4


def _parse_formula(text: str, logic: str):
    try:
        return parse_ltl(text) if logic == LTL else parse_ctl(text)
    except FormulaSyntaxError as exc:
        raise ValueError(f"cannot parse formula: {exc}") from exc


class _Report:
    """Accumulates ordered report fields, with timing segregated."""

    def __init__(self, command: str, as_json: bool):
        self.as_json = as_json
        self.data = {"command": command, "version": __version__,
                     "inputs": {}, "outcome": {}}
        self.timing = {}
        self.lines = []

    def input_file(self, name: str, path: str, parse):
        """`parse` of the UTF-8 text of the file at `path`, read once;
        records the path and the SHA-256 of the bytes that were parsed,
        and names the path in the message of an error."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise OSError(f"cannot read {path}: {exc.strerror}") from exc
        self.data["inputs"][name] = {
            "path": path, "sha256": hashlib.sha256(data).hexdigest()}
        try:
            return parse(data.decode("utf-8"))
        except ValueError as exc:  # includes SampleFormatError
            raise ValueError(f"{path}: {exc}") from exc

    def input_value(self, name: str, value):
        self.data["inputs"][name] = value

    def field(self, name: str, value, text: str | None = None):
        self.data["outcome"][name] = value
        self.lines.append(text if text is not None else f"{name}: "
                          f"{_text_value(value)}")

    def line(self, text: str):
        self.lines.append(text)

    def time(self, name: str, seconds: float):
        self.timing[name] = round(seconds, 6)

    def emit(self):
        if self.as_json:
            self.data["timing"] = self.timing
            print(json.dumps(self.data, indent=2))
        else:
            for line in self.lines:
                print(line)
            for name, seconds in self.timing.items():
                print(f"# {name}_seconds: {seconds}")


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    report = _Report("check", args.json)
    sample = report.input_file("sample", args.sample, parse_sample)
    formula = _parse_formula(args.formula, sample.logic)
    report.input_value("formula", args.formula)

    ltl = sample.logic == LTL
    check = check_ltl if ltl else check_ctl
    verdicts = {"positives": [], "negatives": []}
    ok = True
    for kind, key, examples in (("pos", "positives", sample.positives),
                                ("neg", "negatives", sample.negatives)):
        for i, example in enumerate(examples):
            value = check(formula, example)
            ok &= value if kind == "pos" else not value
            verdicts[key].append(value)
            label = word_to_text(example) if ltl else f"structure[{i}]"
            report.line(f"{kind} {label}: {_text_value(value)}")
    separating = check_separating(formula, sample)
    if separating != ok:
        raise RuntimeError("internal error: the per-example verdicts "
                           "disagree with the separation check")
    report.data["outcome"]["verdicts"] = verdicts
    report.field("separating", separating)
    report.emit()
    return EXIT_OK


def _learn_config(args) -> LearnConfig:
    operators = (OperatorSet.from_names(args.ops.split(","))
                 if args.ops else OperatorSet.full())
    return LearnConfig(
        bound=args.bound,
        bound_mode=BoundMode.EXACTLY if args.exactly else BoundMode.AT_MOST,
        operators=operators,
        dedup=DedupMode.NONE if args.no_dedup else DedupMode.SEMANTIC,
    )


def _cmd_learn(args) -> int:
    report = _Report("learn", args.json)
    sample = report.input_file("sample", args.sample, parse_sample)
    config = _learn_config(args)
    bound = _resolve_bound(sample, config)
    if bound > config.bound_limit:
        raise ValueError(
            f"bound {bound} exceeds the command line's cap of "
            f"{config.bound_limit}; the search is exponential in the bound, "
            f"and only the library can raise the cap "
            f"(LearnConfig.bound_limit)")
    outcome = learn(sample, config)
    report.input_value("bound", bound)
    report.input_value("bound_mode", config.bound_mode.value)
    report.input_value("dedup", config.dedup.value)
    report.field("decision", outcome.decision)
    if outcome.decision:
        report.field("witness", print_formula(outcome.witness))
        report.field("size", outcome.size)
        if not verify(outcome.witness, sample, config):
            raise RuntimeError("internal error: the learned witness failed "
                               "verification")
    stats = dict(outcome.stats)
    elapsed = stats.pop("elapsed_seconds", None)
    for name in sorted(stats):
        report.field(name, stats[name])
    if elapsed is not None:
        report.time("search", elapsed)
    report.emit()
    return EXIT_OK if outcome.decision else EXIT_NO_FORMULA


def _cmd_reduce(args) -> int:
    report = _Report(f"reduce {args.direction}", args.json)
    if args.direction == "sat2ltl":
        if not args.cnf:
            raise ValueError("reduce sat2ltl requires --cnf")
        sample = reduce_sat(report.input_file("cnf", args.cnf, parse_dimacs))
    else:
        if not args.sample:
            raise ValueError("reduce ltl2ctl requires --sample")
        sample = reduce_ltl_to_ctl(
            report.input_file("sample", args.sample, parse_sample))
    try:
        save_sample(sample, args.out)
    except OSError as exc:
        raise OSError(f"cannot write {args.out}: {exc.strerror}") from exc
    report.field("out", args.out, f"wrote {args.out}")
    report.field("alphabet_size", len(sample.alphabet))
    report.field("positives", len(sample.positives))
    report.field("negatives", len(sample.negatives))
    report.field("bound", sample.bound)
    report.emit()
    return EXIT_OK


def _cmd_normalize(args) -> int:
    image = temporal_eliminate(_parse_formula(args.formula, LTL))
    report = _Report("normalize", args.json)
    report.input_value("formula", args.formula)
    report.field("result", print_formula(image),
                 print_formula(image))
    report.field("size", size(image))
    report.emit()
    return EXIT_OK


def _cmd_translate(args) -> int:
    report = _Report("translate", args.json)
    report.input_value("formula", args.formula)
    report.input_value("to", args.to)
    if args.to == "ctl":
        formula = _parse_formula(args.formula, LTL)
        result = insert_quantifiers(formula, quantifier=args.quantifier)
    else:
        formula = _parse_formula(args.formula, CTL)
        result = strip_quantifiers(formula)
    report.field("result", print_formula(result), print_formula(result))
    report.field("size", size(result))
    report.emit()
    return EXIT_OK


def _cmd_extract(args) -> int:
    report = _Report("extract", args.json)
    cnf = report.input_file("cnf", args.cnf, parse_dimacs)
    formula = _parse_formula(args.formula, LTL)
    report.input_value("formula", args.formula)
    if args.sample:
        sample = report.input_file("sample", args.sample, parse_sample)
        if not check_separating(formula, sample):
            raise ValueError("formula does not separate the sample")
    try:
        valuation = extract_valuation(formula, cnf)
    except RuntimeError as exc:  # reported like an input error
        raise ValueError(str(exc)) from exc
    text = " ".join(f"x{k}={1 if valuation[k] else 0}"
                    for k in sorted(valuation))
    report.field("valuation",
                 {f"x{k}": valuation[k] for k in sorted(valuation)}, text)
    report.emit()
    return EXIT_OK


def _cmd_verify_properties(args) -> int:
    if args.props < 1 or args.props > 3:
        raise ValueError("--props must be between 1 and 3")
    for name, least in (("max_size", 1), ("cnf_variables", 1), ("pairs", 1),
                        ("cnf_clauses", 0), ("cnf_random", 0), ("jobs", 1)):
        value = getattr(args, name)
        if value is not None and value < least:  # an unset --jobs is None
            raise ValueError(
                f"--{name.replace('_', '-')} must be at least {least}")
    props = ("p", "q", "r")[:args.props]
    results = []

    jobs = args.jobs
    if not args.suite or "cnf" in args.suite:
        # A bad TEMPLEARN_JOBS fails before any suite runs.
        jobs = suites.resolve_jobs(jobs)

    def run(enabled, fn, *fn_args, **fn_kwargs):
        if args.suite and enabled not in args.suite:
            return
        out = fn(*fn_args, **fn_kwargs)
        results.extend(out.values() if isinstance(out, dict) else [out])

    run("reducts", suites.run_reduct_identities,
        max_size=min(3, args.max_size), props=props, seed=args.seed)
    run("sweep", suites.run_formula_sweep,
        max_size=args.max_size, props=props)
    run("quantifier-transfer", suites.run_quantifier_transfer,
        literal_max_size=min(4, args.max_size), props=props, seed=args.seed)
    # The instances are built only when the suite runs: the exhaustive
    # ones are combinatorial in --cnf-variables and --cnf-clauses.
    run("cnf", lambda: suites.run_cnf_round_trip(
        suites.exhaustive_cnfs(args.cnf_variables, args.cnf_clauses)
        + suites.random_cnfs(args.cnf_random, seed=args.seed),
        jobs=jobs))
    run("lasso", suites.run_lasso_oracle_equivalence,
        pairs=args.pairs, seed=args.seed, props=props[:2] or ("p",))

    report = _Report("verify-properties", args.json)
    for name in ("props", "max_size", "seed", "pairs", "cnf_variables",
                 "cnf_clauses", "cnf_random"):
        report.input_value(name, getattr(args, name))
    all_passed = True
    suites_out = {}
    for result in results:
        all_passed &= result.passed
        suites_out[result.name] = {
            "passed": result.passed,
            "checked": result.checked,
            "violation_count": result.violation_count,
            "violations": list(result.violations),
        }
        report.line(result.summary())
        for violation in result.violations:
            report.line(f"  violation: {violation}")
        report.time(result.name, result.elapsed_seconds)
    report.data["outcome"]["suites"] = suites_out
    report.field("passed", all_passed, f"all suites passed: "
                 f"{_text_value(all_passed)}")
    report.emit()
    return EXIT_OK if all_passed else EXIT_PROPERTY_FAILURE


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="templearn",
        description="Temporal-logic checking, learning, and reductions.")
    parser.add_argument("--version", action="version",
                        version=f"templearn {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report with stable key order")

    p = commands.add_parser("check",
                            help="evaluate a formula against a sample")
    p.add_argument("--formula", required=True)
    p.add_argument("--sample", required=True)
    add_json(p)
    p.set_defaults(fn=_cmd_check)

    p = commands.add_parser("learn",
                            help="search for a minimal separating formula")
    p.add_argument("--sample", required=True)
    p.add_argument("--bound", type=int, default=None,
                   help="size bound (defaults to the sample's)")
    p.add_argument("--exactly", action="store_true",
                   help="require the witness size to equal the bound")
    p.add_argument("--ops", default=None,
                   help="comma-separated operator allow-list, e.g. OR,NOT,U")
    p.add_argument("--no-dedup", action="store_true",
                   help="exhaustive search without signature pruning")
    add_json(p)
    p.set_defaults(fn=_cmd_learn)

    p = commands.add_parser("reduce",
                            help="build samples from CNFs or word samples")
    p.add_argument("direction", choices=("sat2ltl", "ltl2ctl"))
    p.add_argument("--cnf", default=None, help="DIMACS CNF input")
    p.add_argument("--sample", default=None, help="word sample input")
    p.add_argument("--out", required=True, help="output sample file")
    add_json(p)
    p.set_defaults(fn=_cmd_reduce)

    p = commands.add_parser("normalize",
                            help="print the temporal-free image of a formula")
    p.add_argument("--formula", required=True)
    add_json(p)
    p.set_defaults(fn=_cmd_normalize)

    p = commands.add_parser("translate",
                            help="insert or strip path quantifiers")
    p.add_argument("--to", choices=("ctl", "ltl"), required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--quantifier", choices=("E", "A"), default="E",
                   help="quantifier used when translating to ctl")
    add_json(p)
    p.set_defaults(fn=_cmd_translate)

    p = commands.add_parser("extract",
                            help="read a satisfying valuation off a witness")
    p.add_argument("--formula", required=True)
    p.add_argument("--cnf", required=True)
    p.add_argument("--sample", default=None,
                   help="optional sample the formula must separate")
    add_json(p)
    p.set_defaults(fn=_cmd_extract)

    p = commands.add_parser("verify-properties",
                            help="run the exhaustive property suites")
    p.add_argument("--props", type=int, default=2,
                   help="number of propositions for the formula suites")
    p.add_argument("--max-size", type=int, default=5,
                   help="exhaustive sweep size cap")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized suites")
    p.add_argument("--pairs", type=int, default=10000,
                   help="random formula/word pairs for the checker suite")
    p.add_argument("--cnf-variables", type=int, default=2,
                   help="variable count for the exhaustive CNF suite")
    p.add_argument("--cnf-clauses", type=int, default=3,
                   help="clause cap for the exhaustive CNF suite")
    p.add_argument("--cnf-random", type=int, default=200,
                   help="number of random CNF instances")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: TEMPLEARN_JOBS or CPUs)")
    p.add_argument("--suite", action="append", default=None,
                   choices=("reducts", "sweep", "quantifier-transfer",
                            "cnf", "lasso"),
                   help="run only the named suites (repeatable)")
    add_json(p)
    p.set_defaults(fn=_cmd_verify_properties)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
