"""Words, structures, samples, and the on-disk sample format."""

import random

import pytest

from templearn import (
    KripkeStructure, Sample, SampleFormatError, Word, embed_word,
    load_sample, save_sample,
)
from templearn.models import parse_word_text, word_to_text


class TestWord:
    def test_letters_are_normalized(self):
        w = Word(["p"], [["p", "q"], []])
        assert w.prefix == (frozenset({"p"}),)
        assert w.period == (frozenset({"p", "q"}), frozenset())

    def test_indexing_wraps_into_period(self):
        w = Word(["p"], [["p", "q"], []])
        assert [sorted(w.letter_at(i)) for i in range(6)] == [
            ["p"], ["p", "q"], [], ["p", "q"], [], ["p", "q"]]

    def test_suffix_classes(self):
        w = Word(["p"], [["p", "q"], []])
        assert w.length == 3 and w.loop_start == 1
        assert [w.suffix_class(i) for i in range(8)] == [
            0, 1, 2, 1, 2, 1, 2, 1]
        assert [w.next_class(i) for i in range(w.length)] == [1, 2, 1]

    def test_next_class_rejects_out_of_range(self):
        w = Word([], [["p"]])
        with pytest.raises(IndexError):
            w.next_class(1)

    def test_empty_period_is_rejected(self):
        with pytest.raises(ValueError, match="period"):
            Word(["p"], [])

    def test_props(self):
        assert Word(["p"], [["q"], []]).props() == frozenset({"p", "q"})

    def test_text_round_trip(self):
        w = Word(["p"], [["p", "q"], []])
        assert word_to_text(w) == "{p} | {p,q};{}"
        assert parse_word_text(word_to_text(w)) == w

    def test_purely_periodic_text(self):
        w = Word([], [["p"]])
        assert word_to_text(w) == "| {p}"
        assert parse_word_text("| {p}") == w

    def test_malformed_word_text(self):
        with pytest.raises(SampleFormatError):
            parse_word_text("{p}")  # missing the separator
        with pytest.raises(SampleFormatError):
            parse_word_text("{p} | ")  # empty period
        with pytest.raises(SampleFormatError):
            parse_word_text("{p} | p")  # letters need braces


class TestKripkeStructure:
    def make(self):
        return KripkeStructure(
            states=("a", "b"),
            initial=("a",),
            edges=(("a", "b"), ("b", "a"), ("b", "b")),
            labels=(["p"], []),
        )

    def test_accessors(self):
        k = self.make()
        assert k.label_of("a") == frozenset({"p"})
        assert k.successors("b") == ("a", "b")
        assert k.props() == frozenset({"p"})

    def test_labels_as_dict(self):
        k = KripkeStructure(("a",), ("a",), (("a", "a"),), {"a": ["p"]})
        assert k.label_of("a") == frozenset({"p"})

    @pytest.mark.parametrize("args,message", [
        ((("a", "a"), ("a",), (("a", "a"),), ([], [])), "duplicate state"),
        ((("a", "b"), ("a",), (("a", "b"),), ([], [])), "not total"),
        ((("a",), (), (("a", "a"),), ([],)), "initial state is required"),
        ((("a",), ("x",), (("a", "a"),), ([],)), "unknown initial"),
        ((("a",), ("a",), (("a", "x"),), ([],)), "unknown state"),
        ((("a",), ("a",), (("a", "a"),), {"x": []}), "exactly the declared"),
        ((("a",), ("a",), (("a", "a"),), ([], [])), "exactly the declared"),
    ])
    def test_validation(self, args, message):
        with pytest.raises(ValueError, match=message):
            KripkeStructure(*args)

    def test_embed_word(self):
        k = embed_word(Word([], [["p"]]))
        assert k.states == ("q",)
        assert k.initial == frozenset({"q"})
        assert k.edges == frozenset({("q", "q")})
        assert k.labels == (frozenset({"p"}),)

    def test_embed_word_rejects_longer_words(self):
        with pytest.raises(ValueError):
            embed_word(Word(["p"], [["p"]]))
        with pytest.raises(ValueError):
            embed_word(Word([], [["p"], []]))


class TestSample:
    def test_duplicates_are_dropped_keeping_first(self):
        w = Word([], [["p"]])
        s = Sample(["p"], "ltl", [w, Word([], [["p"]])], [], bound=2)
        assert s.positives == (w,)

    def test_examples_property(self):
        a, b = Word([], [["p"]]), Word([], [[]])
        s = Sample(["p"], "ltl", [a], [b])
        assert s.examples == (a, b)

    def test_alphabet_must_cover_examples(self):
        with pytest.raises(ValueError, match="outside the alphabet"):
            Sample(["p"], "ltl", [Word([], [["q"]])], [])

    def test_positive_negative_overlap(self):
        w = Word([], [["p"]])
        with pytest.raises(ValueError, match="both positive and negative"):
            Sample(["p"], "ltl", [w], [w])

    def test_logic_example_type_mismatch(self):
        w = Word([], [["p"]])
        k = embed_word(w)
        with pytest.raises(ValueError):
            Sample(["p"], "ctl", [w], [])
        with pytest.raises(ValueError):
            Sample(["p"], "ltl", [k], [])

    def test_bound_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            Sample(["p"], "ltl", [], [], bound=0)

    def test_bad_logic(self):
        with pytest.raises(ValueError, match="logic"):
            Sample(["p"], "xtl", [], [])

    def test_bad_proposition_name(self):
        with pytest.raises(ValueError):
            Sample(["p q"], "ltl", [], [])


class TestSampleFiles:
    def test_ltl_round_trip(self, tmp_path):
        s = Sample(
            ["p", "q"], "ltl",
            [Word(["p"], [["p", "q"], []])],
            [Word([], [[]])],
            bound=4,
        )
        path = tmp_path / "a.sample"
        save_sample(s, path)
        assert load_sample(path) == s

    def test_ctl_round_trip(self, tmp_path):
        k = KripkeStructure(
            ("a", "b"), ("a",),
            (("a", "b"), ("b", "a"), ("b", "b")),
            (["p"], []),
        )
        s = Sample(["p"], "ctl", [k], [embed_word(Word([], [[]]))])
        path = tmp_path / "b.sample"
        save_sample(s, path)
        loaded = load_sample(path)
        assert loaded == s
        assert loaded.positives[0].successors("b") == ("a", "b")

    @pytest.mark.parametrize("name", ["a b", "", 0, None])
    def test_unreadable_state_names_are_refused(self, tmp_path, name):
        # `load_sample` reads a state name as one word of its line, so as a
        # string: the name 0 would come back as "0".
        k = KripkeStructure(("s", name), ("s",),
                            (("s", name), (name, "s")), ([], ["p"]))
        path = tmp_path / "bad.sample"
        with pytest.raises(ValueError, match=f"state name {name!r}"):
            save_sample(Sample(["p"], "ctl", [k], []), path)
        assert not path.exists()

    def test_random_structures_round_trip(self, tmp_path):
        # Any one-word name survives, also one that holds the format's
        # own punctuation.
        rng = random.Random("save-sample-names")
        chars = "ab0#{},;:|-é"
        path = tmp_path / "r.sample"
        for _ in range(100):
            names = list({"".join(rng.choices(chars, k=rng.randint(1, 4)))
                          for _ in range(rng.randint(1, 4))})
            structures = [KripkeStructure(
                names, rng.sample(names, rng.randint(1, len(names))),
                {(s, rng.choice(names)) for s in names},
                [rng.sample(("p", "q"), rng.randint(0, 2)) for _ in names])
                for _ in range(2)]
            if structures[0] == structures[1]:
                continue
            s = Sample(["p", "q"], "ctl", structures[:1], structures[1:],
                       bound=rng.choice((None, 3)))
            save_sample(s, path)
            loaded = load_sample(path)
            assert loaded == s
            assert [k.states for k in loaded.examples] == \
                [k.states for k in s.examples]

    def test_comments_and_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "c.sample"
        path.write_text(
            "# header comment\n\nalphabet: p\nlogic: ltl\n\n"
            "# an example\npos: | {p}\n")
        s = load_sample(path)
        assert s.positives == (Word([], [["p"]]),)
        assert s.bound is None

    @pytest.mark.parametrize("text,line,message", [
        ("pos: | {p}\n", 1, "before any example"),
        ("alphabet: p\nlogic: ltl\nnope\n", 3, "key: value"),
        ("alphabet: p\nlogic: ltl\npos: | {q}\n", 3, "not in the alphabet"),
        ("alphabet: p\nlogic: ltl\nbound: zero\n", 3, "integer"),
        ("alphabet: p\nlogic: ltl\nbound: 0\n", 3, "at least 1"),
        ("alphabet: p\nlogic: ltl\nalphabet: q\n", 3, "twice"),
        ("alphabet: p\nlogic: nope\n", 2, "unknown logic"),
        ("alphabet: p\nlogic: ltl\nfoo: bar\n", 3, "unknown directive"),
        ("alphabet: p\nlogic: ltl\npos-kripke:\n", 3, "belong to ctl"),
        ("alphabet: p\nlogic: ctl\npos: | {p}\n", 3, "belong to ltl"),
        ("alphabet: p\nlogic: ctl\npos-kripke:\nstate a {p}\ninit a\n", 4,
         "missing its 'end'"),
        ("alphabet: p\nlogic: ctl\npos-kripke:\nstate a {p}\ninit a\nend\n",
         6, "not total"),
        ("alphabet: p\n", 2, "missing alphabet or logic"),
    ])
    def test_format_errors_carry_line_numbers(self, tmp_path, text, line,
                                              message):
        path = tmp_path / "bad.sample"
        path.write_text(text)
        with pytest.raises(SampleFormatError, match=message) as info:
            load_sample(path)
        assert info.value.line == line

    def test_kripke_block_parsing(self, tmp_path):
        path = tmp_path / "k.sample"
        path.write_text(
            "alphabet: p, q\nlogic: ctl\n"
            "pos-kripke:\n"
            "state s0 {p,q}\n"
            "state s1 {}\n"
            "init s0\n"
            "edge s0 s1\n"
            "edge s1 s0\n"
            "end\n")
        s = load_sample(path)
        k = s.positives[0]
        assert k.states == ("s0", "s1")
        assert k.label_of("s0") == frozenset({"p", "q"})
        assert k.initial == frozenset({"s0"})


# The exact message and line of each malformed file.  On one line the
# period's letters are read before the prefix's, a malformed letter is
# reported before an illegal name, and an illegal name before a name
# outside the alphabet; a structure's labels are checked at its `end`
# line, against the alphabet at its first line.
_LTL = "alphabet: p, q\nlogic: ltl\n"
_CTL = "alphabet: p\nlogic: ctl\n"
_STRUCTURE = "state a {p}\ninit a\nedge a a\nend\n"


class TestSampleFormatErrors:
    @pytest.mark.parametrize("text,line,message", [
        # an illegal name in a letter that repeats on a later line
        (_LTL + "pos: {1} | {p}\nneg: {1} | {q}\n", 3,
         "illegal proposition name '1'"),
        (_LTL + "pos: | {p};{p,1}\nneg: {p,1} | {q}\n", 3,
         "illegal proposition name '1'"),
        (_LTL + "pos: {p} | {q}\nneg: {q} | {p};{2}\npos: | {2}\n", 4,
         "illegal proposition name '2'"),
        # reserved words
        (_LTL + "pos: | {p}\nneg: {p};{X} | {p}\n", 4,
         "proposition name 'X' is a reserved word"),
        (_LTL + "pos: | {U,p}\n", 3,
         "proposition name 'U' is a reserved word"),
        # names outside the alphabet
        (_LTL + "pos: {p} | {q}\nneg: {p} | {p};{r}\n", 4,
         "proposition 'r' is not in the alphabet"),
        (_LTL + "pos: | {r,s}\n", 3, "proposition 'r' is not in the alphabet"),
        (_LTL + "pos: {r} | {1}\n", 3, "illegal proposition name '1'"),
        (_LTL + "pos: {1} | {r}\n", 3, "illegal proposition name '1'"),
        # a malformed letter after a good copy of the same text
        (_LTL + "pos: {p} | {p}\nneg: {q} | {p};{p\n", 4,
         "malformed letter '{p'"),
        (_LTL + "pos: | {p};{p}}\n", 3, "malformed letter '{p}}'"),
        (_LTL + "pos: | {p}\nneg: | p\n", 4, "malformed letter 'p'"),
        (_LTL + "pos: {1} | {p\n", 3, "malformed letter '{p'"),
        # an empty name; whitespace inside a letter is not part of a name
        (_LTL + "pos: | {p,,q}\n", 3, "illegal proposition name ''"),
        (_LTL + "pos: | { p , q }\nneg: | { p , 1 }\n", 4,
         "illegal proposition name '1'"),
        # word structure
        (_LTL + "pos: {p}\n", 3,
         "a word needs exactly one '|' between prefix and period"),
        (_LTL + "pos: {p} | | {q}\n", 3,
         "a word needs exactly one '|' between prefix and period"),
        (_LTL + "pos: {1} |\n", 3,
         "the period must contain at least one letter"),
        # Kripke state labels
        (_CTL + "pos-kripke:\nstate a {1}\ninit a\nedge a a\nend\n", 7,
         "illegal proposition name '1'"),
        (_CTL + "pos-kripke:\n" + _STRUCTURE + "neg-kripke:\nstate a {}\n"
         "state b {p,E}\ninit a\nedge a b\nedge b b\nend\n", 14,
         "proposition name 'E' is a reserved word"),
        (_CTL + "pos-kripke:\n" + _STRUCTURE
         + "neg-kripke:\nstate a {q}\ninit a\nedge a a\nend\n", 8,
         "proposition 'q' is not in the alphabet"),
        (_CTL + "pos-kripke:\nstate a {1}\nedge a a\nend\n", 6,
         "at least one initial state is required"),
        (_CTL + "pos-kripke:\nstate a {p}\nstate b {p\ninit a\nedge a a\n"
         "end\n", 5, "malformed letter '{p'"),
        (_CTL + "pos-kripke:\nstate a {p}\nstate a {p}\nend\n", 5,
         "state 'a' declared twice"),
    ])
    def test_message_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.sample"
        path.write_text(text)
        with pytest.raises(SampleFormatError) as info:
            load_sample(path)
        assert str(info.value) == f"line {line}: {message}"
        assert info.value.line == line

    def test_malformed_prefix_letter_names_its_line_once(self, tmp_path):
        path = tmp_path / "bad.sample"
        path.write_text(_LTL + "pos: | {p}\nneg: {p | {q}\n")
        with pytest.raises(SampleFormatError) as info:
            load_sample(path)
        assert str(info.value) == "line 4: malformed letter '{p'"
        with pytest.raises(SampleFormatError) as info:
            parse_word_text("{q};{p | {q}", 7)
        assert str(info.value) == "line 7: malformed letter '{p'"


def _letter_text(rng, letter) -> str:
    names = sorted(letter)
    rng.shuffle(names)
    pad = rng.choice(("", " "))
    return "{" + pad + rng.choice((",", ", ", " , ")).join(names) + pad + "}"


def _letters_text(rng, letters) -> str:
    return rng.choice((";", " ; ", "; ")).join(
        _letter_text(rng, a) for a in letters)


class TestLoadSampleDifferential:
    """`load_sample` of a written file equals the sample built through the
    public constructors, whatever the spacing inside and between letters."""

    PROPS = ("p", "q", "r")

    def pool(self, rng):
        # few distinct letters, so that letter texts repeat within a file
        return [frozenset(rng.sample(self.PROPS, rng.randint(0, 3)))
                for _ in range(rng.randint(1, 5))]

    def ltl_case(self, rng):
        pool = self.pool(rng)
        lines, examples = [], ([], [])
        for _ in range(rng.randint(1, 8)):
            prefix = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            period = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            side = rng.randrange(2)
            tag = ("pos", "neg")[side]
            bar = rng.choice(("|", " | ", "| ", " |"))
            lines.append(f"{tag}: {_letters_text(rng, prefix)}{bar}"
                         f"{_letters_text(rng, period)}")
            examples[side].append(Word([sorted(a) for a in prefix],
                                       [sorted(a) for a in period]))
        return lines, examples

    def ctl_case(self, rng):
        pool = self.pool(rng)
        lines, examples = [], ([], [])
        for _ in range(rng.randint(1, 5)):
            states = [f"s{i}" for i in range(rng.randint(1, 4))]
            labels = [rng.choice(pool) for _ in states]
            initial = rng.sample(states, rng.randint(1, len(states)))
            edges = sorted({(s, rng.choice(states)) for s in states}
                           | {(rng.choice(states), rng.choice(states))})
            side = rng.randrange(2)
            lines.append(("pos", "neg")[side] + "-kripke:")
            lines += [f"state {s} {_letter_text(rng, a)}"
                      for s, a in zip(states, labels)]
            lines += [f"init {s}" for s in initial]
            lines += [f"edge {a} {b}" for a, b in edges]
            lines.append("end")
            examples[side].append(KripkeStructure(
                states, initial, edges, [sorted(a) for a in labels]))
        return lines, examples

    @pytest.mark.parametrize("logic", ["ltl", "ctl"])
    def test_files_equal_constructed_samples(self, tmp_path, logic):
        rng = random.Random(f"load-sample-{logic}")
        path = tmp_path / "s.sample"
        checked = 0
        for _ in range(150):
            lines, (pos, neg) = getattr(self, f"{logic}_case")(rng)
            if set(pos) & set(neg):
                continue
            bound = rng.choice((None, rng.randint(1, 6)))
            head = [f"alphabet: {', '.join(self.PROPS)}", f"logic: {logic}"]
            if bound is not None:
                head.append(f"bound: {bound}")
            path.write_text("\n".join(head + ["# examples", ""] + lines)
                            + "\n")
            want = Sample(self.PROPS, logic, pos, neg, bound)
            got = load_sample(path)
            assert got == want
            assert [type(e) for e in got.examples] == \
                [type(e) for e in want.examples]
            checked += 1
        assert checked > 100
