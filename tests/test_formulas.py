"""Parsing, printing, sizes, and operator sets."""

import pytest

from templearn import (
    FormulaSyntaxError, OperatorSet, Sample, Word, analyze_conciseness,
    check_separating, conforms, embed_word, enumerate_formulas,
    insert_quantifiers, parse_ctl,
    parse_ltl, print_formula, prop_names, size, strip_quantifiers,
    subformulas, temporal_eliminate, verify,
)
from templearn.formulas import (
    MAX_HEIGHT, MAX_NESTING, CtlBinary, CtlNot, CtlQuantBinary,
    CtlQuantUnary, LtlBinary, LtlUnary, Prop, is_ctl, is_ltl, structural_key,
)


class TestParsing:
    def test_atom(self):
        f = parse_ltl("p")
        assert isinstance(f, Prop) and f.name == "p"

    def test_precedence_chain(self):
        f = parse_ltl("!p & q | r -> s <-> t")
        # <-> binds loosest, then ->, |, &, unary.
        assert f == LtlBinary(
            "<->",
            LtlBinary(
                "->",
                LtlBinary(
                    "|",
                    LtlBinary("&", LtlUnary("!", Prop("p")), Prop("q")),
                    Prop("r")),
                Prop("s")),
            Prop("t"))

    def test_until_is_right_associative(self):
        assert parse_ltl("p U q U r") == parse_ltl("p U (q U r)")

    def test_implication_is_right_associative(self):
        assert parse_ltl("p -> q -> r") == parse_ltl("p -> (q -> r)")

    def test_and_is_left_associative(self):
        assert parse_ltl("p & q & r") == parse_ltl("(p & q) & r")

    def test_temporal_binds_tighter_than_and(self):
        assert parse_ltl("p U q & r") == parse_ltl("(p U q) & (r)")

    def test_unary_stacking(self):
        f = parse_ltl("G F !p")
        assert f == LtlUnary("G", LtlUnary("F", LtlUnary("!", Prop("p"))))

    def test_parse_error_position(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_ltl("p | | q")
        assert info.value.position == 4

    def test_reserved_word_is_not_a_proposition(self):
        with pytest.raises(FormulaSyntaxError):
            parse_ltl("U")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(FormulaSyntaxError):
            parse_ltl("(p | q")

    def test_trailing_junk(self):
        with pytest.raises(FormulaSyntaxError):
            parse_ltl("p q")


class TestCtlParsing:
    def test_quantified_unary(self):
        assert parse_ctl("E F p") == CtlQuantUnary("E", "F", Prop("p"))
        assert parse_ctl("A G p") == CtlQuantUnary("A", "G", Prop("p"))

    def test_quantified_binary(self):
        assert parse_ctl("A (p U q)") == CtlQuantBinary(
            "A", "U", Prop("p"), Prop("q"))
        assert parse_ctl("E (p W q)") == CtlQuantBinary(
            "E", "W", Prop("p"), Prop("q"))

    def test_nested(self):
        f = parse_ctl("A(p U (E G q)) & !E X p")
        assert f == CtlBinary(
            "&",
            CtlQuantBinary("A", "U", Prop("p"),
                           CtlQuantUnary("E", "G", Prop("q"))),
            CtlNot(CtlQuantUnary("E", "X", Prop("p"))))

    def test_bare_temporal_operator_is_rejected(self):
        with pytest.raises(FormulaSyntaxError, match="path quantifier"):
            parse_ctl("p U q")

    def test_bare_unary_temporal_is_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_ctl("F p")


class TestSyntaxErrors:
    @pytest.mark.parametrize("parse,text,message,position", [
        (parse_ltl, "", "unexpected end of input", 0),
        (parse_ltl, "p |", "unexpected end of input", 3),
        (parse_ltl, "p | | q", "unexpected token '|'", 4),
        (parse_ltl, "p q", "unexpected token 'q'", 2),
        (parse_ltl, "(p | q", "expected ')' but found 'end of input'", 6),
        (parse_ltl, "E F p", "path quantifier 'E' is not part of this logic",
         0),
        (parse_ltl, "U", "unexpected token 'U'", 0),
        (parse_ltl, "p $", "unexpected character '$'", 2),
        (parse_ltl, "p U q R", "unexpected end of input", 7),
        (parse_ctl, "p U q",
         "temporal operator 'U' requires a path quantifier", 2),
        (parse_ctl, "F p", "temporal operator 'F' requires a path quantifier",
         0),
        (parse_ctl, "E p", "expected a temporal operator after 'E'", 2),
        (parse_ctl, "E (p & q)", "expected a binary temporal operator", 8),
        (parse_ctl, "A (p U q", "expected ')' but found 'end of input'", 8),
        (parse_ctl, "p & U q",
         "temporal operator 'U' requires a path quantifier", 4),
        (parse_ctl, "E (p U q) W r",
         "temporal operator 'W' requires a path quantifier", 10),
    ])
    def test_message_and_offset(self, parse, text, message, position):
        with pytest.raises(FormulaSyntaxError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at offset {position})"
        assert info.value.position == position


class TestNestingLimit:
    """Each pair of parentheses and each operator is one level.  A text
    nesting deeper than `MAX_NESTING`, or deeper than `MAX_HEIGHT` with the
    steps of its left-associative chains, fails at the token that opens the
    level past the limit.  `test_cli.TestNestingLimit` covers each shape at
    and past its limit."""

    @pytest.mark.parametrize("parse, prefix", [
        (parse_ltl, "X "), (parse_ctl, "! "), (parse_ctl, "A F ")],
        ids=["ltl-next", "ctl-not", "ctl-af"])
    def test_a_chain_counts_the_levels_of_its_left_operand(self, parse,
                                                           prefix):
        # The parenthesised operand is 61 levels deep, so that many fewer
        # operators of the chain reach the height limit.
        left = "(" + prefix * 60 + "p)"
        parse(left + " & q" * (MAX_HEIGHT - 61))
        text = left + " & q" * (MAX_HEIGHT - 60)
        with pytest.raises(FormulaSyntaxError,
                           match=f"more than {MAX_HEIGHT} levels deep") as info:
            parse(text)
        assert info.value.position == text.rindex("&")

    def test_a_quantified_group_is_one_level(self):
        text = "E (p U " * MAX_NESTING + "p" + ")" * MAX_NESTING
        assert size(parse_ctl(text)) == MAX_NESTING + 1
        deeper = "A (" + text + " U p)"
        with pytest.raises(FormulaSyntaxError,
                           match=f"nests deeper than {MAX_NESTING}") as info:
            parse_ctl(deeper)
        assert info.value.position == deeper.rindex("E")

    def test_deep_equal_trees_compare_without_recursion(self):
        # Far deeper than any parsed formula: equality walks no stack.
        def chain(n):
            f = Prop("p")
            for _ in range(n):
                f = LtlBinary("|", f, Prop("q"))
            return f
        assert chain(5000) == chain(5000)
        assert chain(5000) != chain(4999)
        assert len({chain(5000), chain(5000)}) == 1


class TestPrinting:
    ROUND_TRIPS = [
        "p", "!p", "p & q", "p | q & r", "(p | q) & r", "p U q U r",
        "(p U q) U r", "X (p | q)", "G F p", "p -> q -> r", "(p -> q) -> r",
        "p <-> q <-> r", "p M q | r W s", "!(p & q)", "F (p & X q)",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_ltl_round_trip(self, text):
        f = parse_ltl(text)
        assert parse_ltl(print_formula(f)) == f

    CTL_ROUND_TRIPS = [
        "E F p", "A G (p -> E X q)", "A (p U q)", "E (p R (A G q))",
        "!A F p & E (p M q)",
    ]

    @pytest.mark.parametrize("text", CTL_ROUND_TRIPS)
    def test_ctl_round_trip(self, text):
        f = parse_ctl(text)
        assert parse_ctl(print_formula(f)) == f

    # Size 3 over one proposition nests every pair of binary operators
    # both ways, so this covers each pair of binding strengths.
    @pytest.mark.parametrize("props", [("p",), ("p", "q")])
    @pytest.mark.parametrize("logic,parse", [("ltl", parse_ltl),
                                             ("ctl", parse_ctl)])
    def test_every_small_formula_round_trips(self, props, logic, parse):
        for f in enumerate_formulas(props, 3, logic=logic):
            assert parse(print_formula(f)) == f

    def test_minimal_parentheses(self):
        assert print_formula(parse_ltl("(p & q) | r")) == "p & q | r"
        assert print_formula(parse_ltl("p & (q | r)")) == "p & (q | r)"
        assert print_formula(parse_ltl("p U (q U r)")) == "p U q U r"
        assert print_formula(parse_ltl("(p U q) U r")) == "(p U q) U r"
        assert print_formula(parse_ltl("X(p)")) == "X p"

    def test_str_matches_print(self):
        f = parse_ltl("p U (q & r)")
        assert str(f) == print_formula(f)


class TestSizeAndSubformulas:
    def test_size_counts_distinct_subformulas(self):
        f = parse_ltl("(p | q) & (p | q)")
        # Sub-formulas: p, q, p|q, the conjunction.
        assert size(f) == 4
        assert len(subformulas(f)) == 4

    def test_size_examples(self):
        assert size(parse_ltl("p")) == 1
        assert size(parse_ltl("p U p")) == 2
        assert size(parse_ltl("G (p W q)")) == 4
        assert size(parse_ctl("A (p U (E G q))")) == 4

    def test_prop_names(self):
        assert prop_names(parse_ltl("p U (q & p)")) == frozenset({"p", "q"})

    def test_formulas_are_hashable_and_comparable(self):
        a = parse_ltl("p & (q | p)")
        b = parse_ltl("p & (q | p)")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != parse_ltl("p & (q | q)")


class TestOperatorSet:
    def test_from_names_accepts_tokens_and_names(self):
        ops = OperatorSet.from_names(["OR", "!", "U", "E"])
        assert "|" in ops.binary and "!" in ops.unary
        assert "U" in ops.binary and "E" in ops.quantifiers

    def test_from_names_allows_both_quantifiers_unless_one_is_named(self):
        assert OperatorSet.from_names(["X"]).quantifiers == {"E", "A"}
        assert OperatorSet.from_names(["F", "G", "E"]).quantifiers == {"E"}

    def test_from_names_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown operator"):
            OperatorSet.from_names(["XOR"])

    def test_constructor_rejects_unknown(self):
        with pytest.raises(ValueError):
            OperatorSet(unary=frozenset({"?"}), binary=frozenset(),
                        quantifiers=frozenset())

    def test_conforms(self):
        ops = OperatorSet.from_names(["OR", "NOT"])
        assert conforms(parse_ltl("!p | q"), ops)
        assert not conforms(parse_ltl("p & q"), ops)
        assert not conforms(parse_ltl("F p"), ops)

    def test_conforms_quantifiers(self):
        ops = OperatorSet.from_names(["F", "G", "E"])
        assert conforms(parse_ctl("E F p"), ops)
        assert not conforms(parse_ctl("A F p"), ops)


class TestStructuralKey:
    def test_props_come_before_compounds(self):
        assert structural_key(parse_ltl("p")) < structural_key(
            parse_ltl("!p"))

    def test_operator_order_next_before_eventually(self):
        assert structural_key(parse_ltl("X p")) < structural_key(
            parse_ltl("F p"))

    def test_key_is_injective_on_distinct_formulas(self):
        texts = ["p", "q", "!p", "X p", "p & q", "q & p", "p U q",
                 "p W q", "p | (q & p)", "(p | q) & p"]
        keys = {structural_key(parse_ltl(t)) for t in texts}
        assert len(keys) == len(texts)

    def test_quantifier_distinguishes_ctl_keys(self):
        assert structural_key(parse_ctl("E F p")) != structural_key(
            parse_ctl("A F p"))

    # Recorded before the operator nodes shared one row shape; the learner
    # breaks ties between witnesses by these keys.
    PINNED_LTL = [
        ("p", "0p;"), ("!p", "1A0p;"), ("X p", "1B0p;"), ("F p", "1C0p;"),
        ("G p", "1D0p;"), ("p & q", "1E0p;0q;"), ("p | q", "1F0p;0q;"),
        ("p -> q", "1G0p;0q;"), ("p <-> q", "1H0p;0q;"),
        ("p U q", "1I0p;0q;"), ("p R q", "1J0p;0q;"), ("p W q", "1K0p;0q;"),
        ("p M q", "1L0p;0q;"), ("G (p U !q)", "1D1I0p;1A0q;"),
    ]
    PINNED_CTL = [
        ("p", "0p;"), ("!p", "1A0p;"), ("p & q", "1E0p;0q;"),
        ("q -> p", "1G0q;0p;"), ("E X p", "1B00p;"), ("A X p", "1B10p;"),
        ("E F p", "1C00p;"), ("A F p", "1C10p;"), ("E G p", "1D00p;"),
        ("A G p", "1D10p;"), ("E (p U q)", "1I00p;0q;"),
        ("A (p U q)", "1I10p;0q;"), ("E (p R q)", "1J00p;0q;"),
        ("A (p W q)", "1K10p;0q;"), ("E (p M q)", "1L00p;0q;"),
        ("!A F (p | E (q W p))", "1A1C11F0p;1K00q;0p;"),
    ]

    @pytest.mark.parametrize("text,key", PINNED_LTL)
    def test_pinned_ltl_keys(self, text, key):
        assert structural_key(parse_ltl(text)) == key

    @pytest.mark.parametrize("text,key", PINNED_CTL)
    def test_pinned_ctl_keys(self, text, key):
        assert structural_key(parse_ctl(text)) == key


class TestMixedLogicTrees:
    """A tree that mixes nodes of both logics belongs to neither."""

    MIXED_LTL = LtlBinary("&", Prop("p"), CtlNot(Prop("q")))
    MIXED_CTL = CtlBinary("&", Prop("p"), LtlUnary("X", Prop("q")))

    def test_neither_logic(self):
        for f in (self.MIXED_LTL, self.MIXED_CTL):
            assert not is_ltl(f) and not is_ctl(f)
        assert is_ltl(Prop("p")) and is_ctl(Prop("p"))

    def test_verify_rejects(self):
        sample = Sample(["p", "q"], "ltl", [Word([], [["p"]])],
                        [Word([], [[]])], bound=5)
        assert not verify(self.MIXED_LTL, sample)
        ctl_sample = Sample(["p", "q"], "ctl",
                            [embed_word(Word([], [["p"]]))],
                            [embed_word(Word([], [[]]))], bound=5)
        assert not verify(self.MIXED_CTL, ctl_sample)

    def test_check_separating_raises_value_error(self):
        sample = Sample(["p", "q"], "ltl", [Word([], [["p"]])],
                        [Word([], [[]])])
        with pytest.raises(ValueError, match="branching-time"):
            check_separating(self.MIXED_LTL, sample)

    @pytest.mark.parametrize("transform", [
        temporal_eliminate, insert_quantifiers, analyze_conciseness,
    ])
    def test_ltl_transforms_raise_type_error(self, transform):
        with pytest.raises(TypeError):
            transform(self.MIXED_LTL)

    def test_strip_raises_type_error(self):
        with pytest.raises(TypeError):
            strip_quantifiers(self.MIXED_CTL)
