"""The four benchmark workloads: seeded inputs, the op, and its check.

Every workload feeds ops in *cycles*: a fixed tuple of slot kinds whose
inputs are drawn afresh, from `--seed`, for each cycle.  The kinds fix the
mix (which pattern, how many variables, which expected verdict), so two
seeds differ in the random words, structures, clauses and formulas, not in
how much of each kind of work a run holds.  A slot's random generator is
seeded with the string "<workload>:<seed>:<cycle>:<slot>", so inputs do not
depend on `PYTHONHASHSEED` or on how many cycles ran before.

The program sees only what a user would hand it: sample files for the
`learn-*` workloads, DIMACS text for `learn-sat`, formula text for `verify`.
An op is one user request and mirrors the CLI: `learn` loads the sample,
learns, prints the witness, re-parses the printed text and verifies it.
Checks run outside the timed op and use only `reference.py` and the naive
LTL evaluator.

The package is passed in as `tl`: the benchmark imports it fresh for every
set-up it times, so no module-level import of it appears here.
"""

from __future__ import annotations

import os
import random

from reference import (
    Structure, ctl_holds, dag_size, formula_text, satisfiable, satisfies,
)

LTL_PROPS = ("p", "q", "r")
CTL_PROPS = ("p", "q")


def _rng(workload, seed, cycle, slot) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}:{slot}")


# ---------------------------------------------------------------------------
# Text formats, written here rather than with the package's own writers
# ---------------------------------------------------------------------------

def _letter_text(letter) -> str:
    return "{" + ",".join(sorted(letter)) + "}"


def _word_text(prefix, period) -> str:
    pre = ";".join(_letter_text(a) for a in prefix)
    per = ";".join(_letter_text(a) for a in period)
    return f"{pre} | {per}" if pre else f"| {per}"


def _kripke_text(tag, labels, succ) -> list:
    lines = [f"{tag}-kripke:"]
    lines += [f"state s{i} {_letter_text(l)}" for i, l in enumerate(labels)]
    lines.append("init s0")
    lines += [f"edge s{i} s{j}" for i, js in enumerate(succ)
              for j in sorted(js)]
    lines.append("end")
    return lines


def _sample_text(props, logic, bound, body) -> str:
    head = [f"alphabet: {', '.join(props)}", f"logic: {logic}",
            f"bound: {bound}"]
    return "\n".join(head + body) + "\n"


def _dimacs_text(m, clauses) -> str:
    lines = [f"p cnf {m} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random examples and formulas
# ---------------------------------------------------------------------------

def _letter(rng, props) -> frozenset:
    return frozenset(p for p in props if rng.random() < 0.5)


def _lasso(rng, props, length, max_prefix):
    """A random lasso of `length` letters, the prefix at most `max_prefix`."""
    cut = rng.randint(0, max_prefix)
    letters = tuple(_letter(rng, props) for _ in range(length))
    return letters[:cut], letters[cut:]


def _kripke(rng, props, min_states, max_states, max_out):
    """A random total structure; every state has 1..max_out successors."""
    n = rng.randint(min_states, max_states)
    labels = tuple(_letter(rng, props) for _ in range(n))
    succ = tuple(
        frozenset(rng.sample(range(n), rng.randint(1, min(max_out, n))))
        for _ in range(n))
    return labels, succ


def _random_formula(tl, rng, logic, props, budget, min_size, max_size):
    """A random formula with DAG size in [min_size, max_size].

    `budget` caps the temporal nesting that the naive LTL evaluator pays
    for: F, G cost 1 and the binary temporal operators 2 (X is free), so
    the reference check stays polynomial of low degree.
    """
    while True:
        f = _grow(tl, rng, logic, props, rng.randint(min_size, max_size + 4),
                  budget)
        if min_size <= dag_size(f) <= max_size:
            return f


def _grow(tl, rng, logic, props, n, budget):
    if n <= 1:
        return tl.Prop(rng.choice(props))
    ltl = logic == "ltl"
    if n == 2 or rng.random() < 0.35:
        ops = ["!", "X"] + (["F", "G"] if budget >= 1 else [])
        op = rng.choice(ops)
        cost = op in ("F", "G")
        child = _grow(tl, rng, logic, props, n - 1, budget - cost)
        if ltl:
            return tl.LtlUnary(op, child)
        if op == "!":
            return tl.CtlNot(child)
        return tl.CtlQuantUnary(rng.choice("EA"), op, child)
    ops = ["&", "|", "->", "<->"] + (["U", "R", "W", "M"] if budget >= 2
                                     else [])
    op = rng.choice(ops)
    cost = 2 if op in ("U", "R", "W", "M") else 0
    k = rng.randint(1, n - 2)
    left = _grow(tl, rng, logic, props, k, budget - cost)
    right = _grow(tl, rng, logic, props, n - 1 - k, budget - cost)
    if ltl:
        return tl.LtlBinary(op, left, right)
    if cost:
        return tl.CtlQuantBinary(rng.choice("EA"), op, left, right)
    return tl.CtlBinary(op, left, right)


# ---------------------------------------------------------------------------
# Planted patterns
# ---------------------------------------------------------------------------

def _ltl_pattern(tl, kind, a, b):
    A, B = tl.Prop(a), tl.Prop(b)
    U, Bi = tl.LtlUnary, tl.LtlBinary
    return {
        "F": lambda: U("F", A),
        "G": lambda: U("G", A),
        "U": lambda: Bi("U", A, B),
        "W": lambda: Bi("W", A, B),
        "FG": lambda: U("F", U("G", A)),
        "GF": lambda: U("G", U("F", A)),
        "G(a->Xb)": lambda: U("G", Bi("->", A, U("X", B))),
        "G(a->Fb)": lambda: U("G", Bi("->", A, U("F", B))),
        "F(a&b)": lambda: U("F", Bi("&", A, B)),
    }[kind]()


def _ctl_pattern(tl, kind, a, b):
    A, B = tl.Prop(a), tl.Prop(b)
    Q, QB, Bi = tl.CtlQuantUnary, tl.CtlQuantBinary, tl.CtlBinary
    if len(kind) == 2:  # "EX", "AG", ...
        return Q(kind[0], kind[1], A)
    return {
        "E(aUb)": lambda: QB("E", "U", A, B),
        "A(aUb)": lambda: QB("A", "U", A, B),
        "AG EF a": lambda: Q("A", "G", Q("E", "F", A)),
        "EF(a&b)": lambda: Q("E", "F", Bi("&", A, B)),
    }[kind]()


class _Planted:
    """Shared shape of `learn-lasso` and `learn-kripke`: plant a pattern,
    label random examples with the reference, learn it back."""

    name = ""
    logic = ""
    props: tuple = ()
    cycle: tuple = ()
    per_class = 6

    def inputs(self, tl, seed, cycle, workdir) -> list:
        out = []
        for slot, kind in enumerate(self.cycle):
            rng = _rng(self.name, seed, cycle, slot)
            a, b = rng.sample(self.props, 2)
            planted = self.pattern(tl, kind, a, b)
            pos, neg, seen = [], [], set()
            while len(pos) < self.per_class or len(neg) < self.per_class:
                text, ref = self.example(tl, rng)
                if text in seen:
                    continue
                seen.add(text)
                side = pos if self.holds(tl, planted, ref) else neg
                if len(side) < self.per_class:
                    side.append((text, ref))
            size = dag_size(planted)
            body = self.body(pos, neg)
            path = os.path.join(workdir, f"{self.name}-{cycle}-{slot}.sample")
            with open(path, "w") as fh:
                fh.write(_sample_text(self.props, self.logic, size, body))
            out.append({"kind": kind, "path": path, "planted_size": size,
                        "pos": [r for _, r in pos],
                        "neg": [r for _, r in neg]})
        return out

    def op(self, tl, inp):
        sample = tl.load_sample(inp["path"])
        return learn_request(tl, sample)

    def check(self, tl, inp, out):
        outcome, text, parsed, verified = out
        w = outcome.witness
        ok = (outcome.decision and dag_size(w) <= inp["planted_size"]
              and parsed == w and verified is True
              and all(self.holds(tl, w, r) for r in inp["pos"])
              and not any(self.holds(tl, w, r) for r in inp["neg"]))
        return ok, f"{outcome.decision}:{text}"


class LearnLasso(_Planted):
    name = "learn-lasso"
    logic = "ltl"
    props = LTL_PROPS
    trace_cycles = 1
    # 94 slots.  The median falls among the size-3 patterns (mostly FG and
    # GF: planted U and W often have a smaller separator), the 90th
    # percentile among the F(a&b) searches.  The two size-5 patterns, one
    # each, vary most in cost (0.1-1.5 s); keeping them to about a fifth of
    # the time keeps that variance out of the throughput.
    cycle = ((("F", "G") * 3 + ("U", "W") * 3 + ("FG", "GF") * 10
              + ("F(a&b)",) * 14) * 2
             + ("G(a->Fb)", "G(a->Xb)"))

    def pattern(self, tl, kind, a, b):
        return _ltl_pattern(tl, kind, a, b)

    def example(self, tl, rng):
        prefix, period = _lasso(rng, self.props, 5, 3)
        return _word_text(prefix, period), tl.Word(prefix, period)

    def holds(self, tl, f, word):
        return tl.naive_check_ltl(f, word)

    def body(self, pos, neg):
        return ([f"pos: {t}" for t, _ in pos] + [f"neg: {t}" for t, _ in neg])


class LearnKripke(_Planted):
    name = "learn-kripke"
    logic = "ctl"
    props = CTL_PROPS
    trace_cycles = 1
    # 30 slots.  The median falls among the size-3 patterns, the 90th
    # percentile among the EF(a&b) searches, which carry most of the time.
    cycle = (("EX", "AX", "EF", "AF", "EG", "AG")
             + ("AG EF a",) * 14 + ("E(aUb)", "A(aUb)")
             + ("EF(a&b)",) * 8)

    def pattern(self, tl, kind, a, b):
        return _ctl_pattern(tl, kind, a, b)

    def example(self, tl, rng):
        labels, succ = _kripke(rng, self.props, 4, 4, 2)
        return "\n".join(_kripke_text("x", labels, succ)), (labels, succ)

    def holds(self, tl, f, ref):
        labels, succ = ref
        return ctl_holds(f, Structure(labels, succ, {0}))

    def body(self, pos, neg):
        lines = []
        for tag, side in (("pos", pos), ("neg", neg)):
            for _, (labels, succ) in side:
                lines += _kripke_text(tag, labels, succ)
        return lines


def learn_request(tl, sample):
    """What `templearn learn` does for one sample, plus the round trip of
    the printed witness through the parser that `templearn check` uses."""
    outcome = tl.learn(sample)
    if not outcome.decision:
        return outcome, None, None, None
    text = tl.print_formula(outcome.witness)
    parse = tl.parse_ltl if sample.logic == "ltl" else tl.parse_ctl
    parsed = parse(text)
    return outcome, text, parsed, tl.verify(parsed, sample)


class LearnSat:
    """Random CNFs through the paper's reductions: SAT -> LTL learning ->
    assignment, then LTL -> CTL learning on the embedded sample."""

    name = "learn-sat"
    # (variables, clauses, satisfiable?)  Instances of each kind are drawn
    # by rejection against the brute-force reference.  4-variable
    # unsatisfiable instances exhaust a bound-7 search over 8 propositions
    # (seconds each) and are left out for run time.
    # Satisfiable 3-variable instances run faster than unsatisfiable ones;
    # one to two puts the median inside the unsatisfiable group rather than
    # in the gap between the two.  One 4-variable instance per 120
    # 3-variable ones keeps it to about a quarter of the time.
    cycle = ((3, 5, True), (3, 8, False), (3, 8, False)) * 40 + ((4, 8, True),)
    trace_cycles = 1

    def inputs(self, tl, seed, cycle, workdir) -> list:
        out = []
        for slot, (m, n_clauses, want) in enumerate(self.cycle):
            rng = _rng(self.name, seed, cycle, slot)
            while True:
                clauses = []
                for _ in range(n_clauses):
                    vs = rng.sample(range(1, m + 1), rng.randint(2, 3))
                    clauses.append(tuple(v if rng.random() < 0.5 else -v
                                         for v in vs))
                if satisfiable(m, clauses) == want:
                    break
            out.append({"kind": f"{m}{'sat' if want else 'unsat'}", "m": m,
                        "clauses": clauses, "sat": want,
                        "text": _dimacs_text(m, clauses)})
        return out

    def op(self, tl, inp):
        cnf = tl.parse_dimacs(inp["text"])
        sample = tl.reduce_sat(cnf)
        ltl = learn_request(tl, sample)
        valuation = (tl.extract_valuation(ltl[0].witness, cnf)
                     if ltl[0].decision else None)
        ctl_sample = tl.reduce_ltl_to_ctl(sample)
        return sample, ltl, valuation, learn_request(tl, ctl_sample)

    def check(self, tl, inp, out):
        sample, ltl, valuation, ctl = out
        bound = 2 * inp["m"] - 1
        ok = ltl[0].decision == inp["sat"] == ctl[0].decision
        if ok and inp["sat"]:
            pos = [(w, w.period[0]) for w in sample.positives]
            neg = [(w, w.period[0]) for w in sample.negatives]
            ok = (satisfies(inp["clauses"], valuation)
                  and self._separates(tl, ltl, ctl, pos, neg, bound))
        verdict = (f"{inp['sat']}:{ltl[1]}:{sorted((valuation or {}).items())}"
                   f":{ctl[1]}")
        return ok, verdict

    @staticmethod
    def _separates(tl, ltl, ctl, pos, neg, bound):
        def one_state(letter):
            return Structure((letter,), (frozenset((0,)),), {0})

        for (outcome, _, parsed, verified), holds in (
                (ltl, lambda f, w, l: tl.naive_check_ltl(f, w)),
                (ctl, lambda f, w, l: ctl_holds(f, one_state(l)))):
            w = outcome.witness
            if not (dag_size(w) <= bound and parsed == w and verified is True
                    and all(holds(w, *e) for e in pos)
                    and not any(holds(w, *e) for e in neg)):
                return False
        return True


class Verify:
    """The polynomial-time verifier on long lassos and large structures:
    parse a size-8..20 formula from text and `verify` it against 8..24
    examples labelled by the reference; every other op has one example
    moved to the wrong side, so half the verdicts are false."""

    name = "verify"
    cycle = (("ltl", False), ("ltl", True), ("ctl", False), ("ctl", True))
    trace_cycles = 40
    bound = 25

    def inputs(self, tl, seed, cycle, workdir) -> list:
        out = []
        for slot, (logic, flip) in enumerate(self.cycle):
            rng = _rng(self.name, seed, cycle, slot)
            ltl = logic == "ltl"
            props = LTL_PROPS if ltl else CTL_PROPS
            f = _random_formula(tl, rng, logic, props, 2, 8, 20)
            examples, seen = [], set()
            n_examples = rng.randint(8, 24)
            while len(examples) < n_examples:
                if ltl:
                    prefix, period = _lasso(rng, props,
                                            rng.randint(8, 16), 6)
                    key = _word_text(prefix, period)
                    ex = tl.Word(prefix, period)
                    value = tl.naive_check_ltl(f, ex)
                else:
                    labels, succ = _kripke(rng, props, 10, 30, 3)
                    key = (labels, succ)
                    ex = tl.KripkeStructure(
                        [f"s{i}" for i in range(len(labels))], ["s0"],
                        [(f"s{i}", f"s{j}") for i, js in enumerate(succ)
                         for j in js], labels)
                    value = ctl_holds(f, Structure(labels, succ, {0}))
                if key not in seen:
                    seen.add(key)
                    examples.append((ex, value))
            if flip:
                i = rng.randrange(len(examples))
                ex, value = examples[i]
                examples[i] = (ex, not value)
            pos = [ex for ex, label in examples if label]
            neg = [ex for ex, label in examples if not label]
            # After a flip one example sits on the wrong side, so the
            # expected verdict is false; without one it is true.
            expected = not flip and dag_size(f) <= self.bound
            out.append({"kind": f"{logic}-{'flip' if flip else 'keep'}",
                        "logic": logic, "formula": f,
                        "text": formula_text(f), "expected": expected,
                        "sample": tl.Sample(props, logic, pos, neg,
                                            self.bound)})
        return out

    def op(self, tl, inp):
        parse = tl.parse_ltl if inp["logic"] == "ltl" else tl.parse_ctl
        f = parse(inp["text"])
        return f, tl.verify(f, inp["sample"])

    def check(self, tl, inp, out):
        parsed, verdict = out
        ok = parsed == inp["formula"] and verdict is inp["expected"]
        return ok, f"{inp['kind']}:{verdict}"


WORKLOADS = {w.name: w for w in (LearnLasso(), LearnKripke(), LearnSat(),
                                 Verify())}
