"""Ultimately periodic words, Kripke structures, and labelled samples.

A word is a pair (prefix, period) of letter sequences read as
prefix . period . period . ...; a letter is a set of proposition names.
Words are kept verbatim: two words denoting the same infinite sequence but
written with different prefix/period splits are distinct objects.

The on-disk sample format is line based:

    # comment
    alphabet: p, q
    logic: ltl            (or ctl)
    bound: 3              (optional)
    pos: {p};{} | {p,q}   (prefix | period, letters separated by ';')
    neg: | {}             (empty prefix is allowed, empty period is not)

Branching-time samples replace `pos:`/`neg:` lines with blocks:

    pos-kripke:
    state s0 {p}
    state s1 {}
    init s0
    edge s0 s1
    edge s1 s0
    end

`parse_sample` parses each distinct letter text once per file, and builds
the examples from letters it has checked against the alphabet;
`load_sample` reads a file and parses it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .formulas import CTL, LTL, validate_proposition


class SampleFormatError(ValueError):
    """Raised on malformed sample files; `line` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _letter(props: Iterable[str]) -> frozenset:
    letter = frozenset(props)
    for name in letter:
        validate_proposition(name)
    return letter


@dataclass(frozen=True)
class Word:
    """An ultimately periodic word prefix . period^omega."""

    prefix: tuple
    period: tuple

    def __init__(self, prefix: Iterable, period: Iterable):
        object.__setattr__(self, "prefix", tuple(_letter(a) for a in prefix))
        object.__setattr__(self, "period", tuple(_letter(a) for a in period))
        if not self.period:
            raise ValueError("the period of a word must not be empty")

    @classmethod
    def _of(cls, prefix: tuple, period: tuple) -> "Word":
        """The word of letters already checked: tuples of frozensets of
        legal names, the period not empty."""
        word = object.__new__(cls)
        object.__setattr__(word, "prefix", prefix)
        object.__setattr__(word, "period", period)
        return word

    @property
    def length(self) -> int:
        """|prefix| + |period|, the size of the finite presentation."""
        return len(self.prefix) + len(self.period)

    @property
    def loop_start(self) -> int:
        return len(self.prefix)

    def letter_at(self, i: int) -> frozenset:
        """The letter at position `i` of the infinite word."""
        if i < 0:
            raise IndexError("negative position")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def suffix_class(self, i: int) -> int:
        """Canonical representative in [0, length) of the suffix at `i`.

        Two positions with the same class start identical suffixes of the
        infinite word.
        """
        if i < 0:
            raise IndexError("negative position")
        if i < self.length:
            return i
        return len(self.prefix) + (i - len(self.prefix)) % len(self.period)

    def next_class(self, i: int) -> int:
        """Suffix class reached by reading one letter from class `i`."""
        if not 0 <= i < self.length:
            raise IndexError(f"no suffix class {i}")
        return i + 1 if i < self.length - 1 else self.loop_start

    def props(self) -> frozenset:
        return frozenset().union(*self.prefix, *self.period)

    def __str__(self) -> str:
        return word_to_text(self)


@dataclass(frozen=True)
class KripkeStructure:
    """A finite total transition system with propositionally labelled states."""

    states: tuple
    initial: frozenset
    edges: frozenset
    labels: tuple  # aligned with `states`

    def __init__(self, states, initial, edges, labels):
        states, initial, edges = _shape(states, initial, edges)
        if isinstance(labels, dict):
            if set(labels) != set(states):
                raise ValueError("labels must cover exactly the declared states")
            labels = tuple(_letter(labels[s]) for s in states)
        else:
            labels = tuple(_letter(l) for l in labels)
            if len(labels) != len(states):
                raise ValueError("labels must cover exactly the declared states")
        self._fill(states, initial, edges, labels)

    @classmethod
    def _of(cls, states, initial, edges, labels: tuple) -> "KripkeStructure":
        """The structure whose labels, aligned with `states`, are letters
        already checked."""
        structure = object.__new__(cls)
        structure._fill(*_shape(states, initial, edges), labels)
        return structure

    def _fill(self, states, initial, edges, labels):
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)

    def label_of(self, state: str) -> frozenset:
        return self.labels[self.states.index(state)]

    def successors(self, state: str):
        order = {s: i for i, s in enumerate(self.states)}
        return tuple(sorted((b for a, b in self.edges if a == state),
                            key=order.__getitem__))

    def props(self) -> frozenset:
        return frozenset().union(*self.labels)


def _shape(states, initial, edges) -> tuple:
    """Check and normalise the states, initial states and edges of a
    finite total transition system."""
    states = tuple(states)
    if len(set(states)) != len(states):
        raise ValueError("duplicate state names")
    if not states:
        raise ValueError("a structure needs at least one state")
    index = {s: i for i, s in enumerate(states)}
    initial = frozenset(initial)
    if not initial:
        raise ValueError("at least one initial state is required")
    for s in initial:
        if s not in index:
            raise ValueError(f"unknown initial state {s!r}")
    edges = frozenset((a, b) for a, b in edges)
    for a, b in edges:
        if a not in index or b not in index:
            raise ValueError(f"edge ({a!r}, {b!r}) uses an unknown state")
    missing = [s for s in states if not any(a == s for a, _ in edges)]
    if missing:
        raise ValueError(
            f"transition relation is not total: {missing[0]!r} has no successor"
        )
    return states, initial, edges


def embed_word(word: Word) -> KripkeStructure:
    """The one-state structure tracing a purely periodic single-letter word."""
    if word.prefix or len(word.period) != 1:
        raise ValueError(
            "only a word consisting of a single repeated letter can be "
            "embedded into a one-state structure"
        )
    return KripkeStructure(
        states=("q",),
        initial=frozenset(("q",)),
        edges=frozenset((("q", "q"),)),
        labels=(word.period[0],),
    )


Example = Union[Word, KripkeStructure]


@dataclass(frozen=True)
class Sample:
    """Positive and negative examples over a fixed alphabet."""

    alphabet: frozenset
    logic: str
    positives: tuple
    negatives: tuple
    bound: int | None = None

    def __init__(self, alphabet, logic, positives, negatives, bound=None):
        alphabet = frozenset(alphabet)
        for name in alphabet:
            validate_proposition(name)
        if logic not in (LTL, CTL):
            raise ValueError(f"logic must be {LTL!r} or {CTL!r}, not {logic!r}")
        wanted = Word if logic == LTL else KripkeStructure
        # dicts keep the first occurrence of each example, in order
        positives = dict.fromkeys(positives)
        negatives = dict.fromkeys(negatives)
        examples = (*positives, *negatives)
        letters: set = set()  # each distinct letter once: examples share them
        mismatch = None  # reported after any earlier example outside alphabet
        for example in examples:
            if not isinstance(example, wanted):
                mismatch = example
                break
            letters.update(example.prefix + example.period if logic == LTL
                           else example.labels)
        if not all(letter <= alphabet for letter in letters):
            extra = next(e.props() - alphabet for e in examples
                         if not e.props() <= alphabet)
            raise ValueError(f"example uses {min(extra)!r} outside the alphabet")
        if mismatch is not None:
            raise ValueError(
                f"a {logic} sample cannot contain {type(mismatch).__name__}")
        if not positives.keys().isdisjoint(negatives):
            raise ValueError(
                "the same example appears as both positive and negative"
            )
        if bound is not None and bound < 1:
            raise ValueError("bound must be at least 1")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "logic", logic)
        object.__setattr__(self, "positives", tuple(positives))
        object.__setattr__(self, "negatives", tuple(negatives))
        object.__setattr__(self, "bound", bound)

    @property
    def examples(self) -> tuple:
        return self.positives + self.negatives


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_SET_RE = re.compile(r"\{([^{}]*)\}\Z")


def _parse_letter(text: str, line: int, memo: dict) -> frozenset:
    """The letter written `text`; `memo` maps each text already read to
    its letter, so that a text is parsed once however often it repeats."""
    letter = memo.get(text)
    if letter is None:
        m = _SET_RE.match(text.strip())
        if m is None:
            raise SampleFormatError(f"malformed letter {text.strip()!r}", line)
        inner = m.group(1).strip()
        letter = memo[text] = frozenset(
            map(str.strip, inner.split(","))) if inner else frozenset()
    return letter


def _parse_letters(text: str, line: int, memo: dict) -> tuple:
    text = text.strip()
    if not text:
        return ()
    parts = text.split(";")
    letters = tuple(map(memo.get, parts))
    if None in letters:
        letters = tuple([_parse_letter(part, line, memo) for part in parts])
    return letters


def _word_letters(text: str, line: int, memo: dict) -> tuple:
    """The prefix and the period of `prefix | period` word notation, each a
    tuple of letters whose names are not checked yet."""
    halves = text.split("|")
    if len(halves) != 2:
        raise SampleFormatError(
            "a word needs exactly one '|' between prefix and period", line
        )
    prefix_text, period_text = halves
    period = _parse_letters(period_text, line, memo)
    if not period:
        raise SampleFormatError("the period must contain at least one letter", line)
    return _parse_letters(prefix_text, line, memo), period


def parse_word_text(text: str, line: int = 0) -> Word:
    """Parse `prefix | period` word notation."""
    prefix, period = _word_letters(text, line, {})
    try:
        return Word(prefix, period)
    except ValueError as exc:
        raise SampleFormatError(str(exc), line) from exc


def _letter_text(letter: frozenset) -> str:
    return "{" + ",".join(sorted(letter)) + "}"


def word_to_text(word: Word) -> str:
    prefix = ";".join(_letter_text(a) for a in word.prefix)
    period = ";".join(_letter_text(a) for a in word.period)
    return f"{prefix} | {period}" if prefix else f"| {period}"


def load_sample(path) -> Sample:
    """Read a sample file; raises SampleFormatError with a line number."""
    with open(path) as fh:
        return parse_sample(fh.read())


def parse_sample(text: str) -> Sample:
    """Parse the text of a sample file; raises SampleFormatError with a
    line number.

    Each distinct letter text is parsed once per file, and checked on the
    line or block that first reads it: a bad letter stops the parse there,
    so a line of texts read before needs no check.  The alphabet's names
    are checked when it is declared, so a letter inside the alphabet has
    legal names, and the examples are built from their letters without
    checking the names again.
    """
    lines = text.splitlines()
    alphabet = None
    logic = None
    bound = None
    positives: list = []
    negatives: list = []
    memo: dict = {}  # letter text -> letter, shared by every example

    def require_header(lineno: int):
        if alphabet is None or logic is None:
            raise SampleFormatError(
                "alphabet and logic must be declared before any example", lineno
            )

    i = 0
    n = len(lines)
    while i < n:
        lineno = i + 1
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise SampleFormatError(f"expected 'key: value', got {line!r}", lineno)
        key = key.strip()
        value = value.strip()
        if key == "alphabet":
            if alphabet is not None:
                raise SampleFormatError("alphabet declared twice", lineno)
            try:
                alphabet = _letter(p.strip() for p in value.split(",") if p.strip())
            except ValueError as exc:
                raise SampleFormatError(str(exc), lineno) from exc
        elif key == "logic":
            if logic is not None:
                raise SampleFormatError("logic declared twice", lineno)
            if value not in (LTL, CTL):
                raise SampleFormatError(f"unknown logic {value!r}", lineno)
            logic = value
        elif key == "bound":
            if bound is not None:
                raise SampleFormatError("bound declared twice", lineno)
            try:
                bound = int(value)
            except ValueError:
                raise SampleFormatError(f"bound must be an integer, got {value!r}", lineno)
            if bound < 1:
                raise SampleFormatError("bound must be at least 1", lineno)
        elif key in ("pos", "neg"):
            require_header(lineno)
            if logic != LTL:
                raise SampleFormatError(f"'{key}:' lines belong to ltl samples", lineno)
            known = len(memo)
            prefix, period = _word_letters(value, lineno, memo)
            if len(memo) > known:
                _check_letters(prefix + period, alphabet, lineno, lineno)
            (positives if key == "pos" else negatives).append(
                Word._of(prefix, period))
        elif key in ("pos-kripke", "neg-kripke"):
            require_header(lineno)
            if logic != CTL:
                raise SampleFormatError(f"'{key}:' blocks belong to ctl samples", lineno)
            if value:
                raise SampleFormatError(f"unexpected text after '{key}:'", lineno)
            known = len(memo)
            structure, i = _parse_kripke_block(lines, i, memo)
            if len(memo) > known:  # `i` is now the line number of `end`
                _check_letters(structure.labels, alphabet, i, lineno)
            (positives if key == "pos-kripke" else negatives).append(structure)
        else:
            raise SampleFormatError(f"unknown directive {key!r}", lineno)

    if alphabet is None or logic is None:
        raise SampleFormatError("missing alphabet or logic declaration", n + 1)
    return Sample(alphabet, logic, positives, negatives, bound)


def _check_letters(letters: tuple, alphabet: frozenset, name_line: int,
                   line: int):
    """Raise for the first illegal name in `letters`, at `name_line`, or
    else for the least name outside `alphabet`, at `line`."""
    if all(map(alphabet.issuperset, letters)):
        return
    try:
        for letter in letters:
            _letter(letter)
    except ValueError as exc:
        raise SampleFormatError(str(exc), name_line) from exc
    extra = frozenset().union(*letters) - alphabet
    raise SampleFormatError(
        f"proposition {sorted(extra)[0]!r} is not in the alphabet", line
    )


def _parse_kripke_block(lines, i, memo):
    states: list = []
    labels: dict = {}
    initial: list = []
    edges: list = []
    start = i
    n = len(lines)
    while i < n:
        lineno = i + 1
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        if line == "end":
            try:
                return KripkeStructure._of(states, initial, edges,
                                           tuple(labels.values())), i
            except ValueError as exc:
                raise SampleFormatError(str(exc), lineno) from exc
        parts = line.split(None, 2)
        if parts[0] == "state" and len(parts) == 3:
            name, letter_text = parts[1], parts[2]
            if name in labels:
                raise SampleFormatError(f"state {name!r} declared twice", lineno)
            states.append(name)
            labels[name] = _parse_letter(letter_text, lineno, memo)
        elif parts[0] == "init" and len(parts) == 2:
            initial.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            src, dst = parts[1], parts[2].split()
            if len(dst) != 1:
                raise SampleFormatError("edge takes exactly two states", lineno)
            edges.append((src, dst[0]))
        else:
            raise SampleFormatError(f"unexpected line in structure block: {line!r}", lineno)
    raise SampleFormatError("structure block is missing its 'end' line", start + 1)


def save_sample(sample: Sample, path) -> None:
    """Write `sample` in the format accepted by load_sample; a state name
    that is not a one-word string raises `ValueError` before anything is
    written."""
    out = [f"alphabet: {', '.join(sorted(sample.alphabet))}"]
    out.append(f"logic: {sample.logic}")
    if sample.bound is not None:
        out.append(f"bound: {sample.bound}")
    for tag, examples in (("pos", sample.positives), ("neg", sample.negatives)):
        for example in examples:
            if isinstance(example, Word):
                out.append(f"{tag}: {word_to_text(example)}")
            else:
                out.append(f"{tag}-kripke:")
                order = {s: i for i, s in enumerate(example.states)}
                for s, letter in zip(example.states, example.labels):
                    if not isinstance(s, str) or s.split() != [s]:
                        raise ValueError(f"state name {s!r} cannot be saved: "
                                         "it must be a one-word string")
                    out.append(f"state {s} {_letter_text(letter)}")
                for s in example.states:
                    if s in example.initial:
                        out.append(f"init {s}")
                for a, b in sorted(example.edges,
                                   key=lambda e: (order[e[0]], order[e[1]])):
                    out.append(f"edge {a} {b}")
                out.append("end")
    Path(path).write_text("\n".join(out) + "\n")
