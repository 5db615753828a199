"""Hypothesis strategies for random source rules, shared by the property suites,
and a reader for one rendered AD rule.

The splitting laws compare the rendered rules with the source rule's own
constraints rendered one by one, an expectation that splitting did not produce.
"""

from typing import NamedTuple

from hypothesis import strategies as st

from eropc.codegen import DEFAULT_LOOKUP, constraint_expr, emit_rule, event_line
from eropc.sema import SymbolTable, split
from eropc.syntax import (
    Historical,
    IfAct,
    Outcome,
    ResetAct,
    RopManip,
    RopMembership,
    RuleAst,
    TimeDirect,
    TimePartial,
)

# the laws compare rendered text, which holds no token index, so any index serves
positions = st.integers(0, 100_000)

players = st.sampled_from(("buyer", "seller", "store", "broker"))
ops = st.sampled_from(("BuyRequest", "Payment", "Cancellation", "Shipment"))
rop_sets = st.sampled_from(("rights", "obligs", "prohibs"))


def _fields(pairs) -> tuple[str, ...]:
    """A field list as the parser holds it: each name, then its value."""
    return tuple(lexeme for pair in pairs for lexeme in pair)


constraints = st.one_of(
    st.builds(lambda player, rop_set, bo, pos: RopMembership(bo, player, rop_set, pos),
              players, rop_sets, ops, positions),
    st.builds(Outcome, ops, st.sampled_from(("true", "false")), positions),
    st.builds(
        lambda op, timestamp, pos: TimeDirect("e", op, timestamp, pos),
        st.sampled_from(("==", "<", ">")),
        st.sampled_from(('"01-01-2016 12:00:00"', '"31-12-2020 23:59:59"')),  # STRING lexemes
        positions,
    ),
    st.builds(
        lambda unit, lo, hi, pos: TimePartial("e", unit, lo, hi, pos),
        st.sampled_from(("hour", "minute", "day", "month", "year")),
        st.integers(0, 30),
        st.integers(0, 59),
        positions,
    ),
    st.builds(
        lambda happened, fields, pos: Historical(happened, _fields(fields), pos),
        st.booleans(),
        st.sampled_from((
            (("botype", "BUYREQ"),),
            (("botype", "BUYPAY"), ("originator", "buyer")),
            (("originator", "seller"), ("responder", "buyer"), ("outcome", "success")),
        )),
        positions,
    ),
)


def _rop_manip(player, rop_set, op, bo, beneficiary, deadline, deadline_first, pos):
    """The beneficiary and any deadline (a STRING lexeme) as actuals, in either source order."""
    actuals = (beneficiary,) if deadline is None else (beneficiary, deadline)
    return RopManip(player, rop_set, op, bo, actuals[::-1] if deadline_first else actuals, pos)


simple_actions = st.one_of(
    st.builds(
        _rop_manip,
        players,
        rop_sets,
        st.sampled_from(("add", "remove")),
        ops,
        players,
        st.none() | st.just('"01-01-2016 12:00:00"'),
        st.booleans(),
        positions,
    ),
    st.builds(Outcome, ops, st.sampled_from(("true", "false")), positions),
    st.builds(ResetAct, players, positions),
)


@st.composite
def source_rules(draw, names=ops) -> RuleAst:
    event = _fields((
        ("botype", draw(st.sampled_from(("BUYREQ", "BUYPAY", "BUYCONF")))),
        ("originator", draw(players)),
        ("responder", draw(players)),
        ("outcome", draw(st.sampled_from(("success", "tecFail", "bizFail")))),
    ))
    # every sequence a tuple, as the parser builds it
    own = draw(st.lists(constraints, max_size=3).map(tuple))
    shape = draw(st.sampled_from(("plain", "if", "ifelse")))
    if shape == "plain":
        actions = draw(st.lists(simple_actions, min_size=1, max_size=3).map(tuple))
    else:
        cond = draw(st.lists(constraints, min_size=1, max_size=3).map(tuple))
        then_acts = draw(st.lists(simple_actions, min_size=1, max_size=3).map(tuple))
        else_acts = (
            draw(st.lists(simple_actions, min_size=1, max_size=2).map(tuple))
            if shape == "ifelse" else None
        )
        actions = (IfAct(cond, then_acts, else_acts, draw(positions)),)
    return RuleAst(draw(names), draw(positions), "e", event, own, actions)


def expected_piece_count(rule: RuleAst) -> int:
    conditional = rule.actions[0]
    return 2 if isinstance(conditional, IfAct) and conditional.else_actions is not None else 1


class ReadRule(NamedTuple):
    name: str
    when_lines: list[str]
    then_lines: list[str]


def read_rule(text: str) -> ReadRule:
    """The name and the when- and then-block lines of one rendered AD rule."""
    head, when, *lines, end = text.split("\n")[:-1]
    assert text.endswith("\n") and when == "when" and end == "end"
    assert head.startswith('rule "') and head.endswith('"')
    then = lines.index("then")
    body = lines[:then] + lines[then + 1 :]
    assert all(line.startswith("    ") and line[4] != " " for line in body)
    return ReadRule(head[6:-1], [line[4:] for line in lines[:then]],
                    [line[4:] for line in lines[then + 1 :]])


def render_split(rule: RuleAst) -> list[ReadRule]:
    """The AD rules one source rule renders to, read back."""
    event = event_line(rule)
    tab = SymbolTable()
    return [read_rule(emit_rule(piece, event, DEFAULT_LOOKUP, tab)) for piece in split(rule)]


def assert_split_laws(rule: RuleAst) -> None:
    """Rule-count, naming, constraint-preservation and negation laws for one rule."""
    lookup = DEFAULT_LOOKUP
    emitted = render_split(rule)
    assert len(emitted) == expected_piece_count(rule)
    suffixes = ["IfThen", "IfElse"] if isinstance(rule.actions[0], IfAct) else [""]
    names = [rule.name + suffix for suffix in suffixes]
    assert [ad_rule.name for ad_rule in emitted] == names[: len(emitted)]

    for constraint in rule.constraints:
        line = f"eval({constraint_expr(constraint, lookup)})"
        for ad_rule in emitted:
            assert line in ad_rule.when_lines

    conditional = rule.actions[0]
    if isinstance(conditional, IfAct):
        then_rule = emitted[0]
        extras = [f"eval({constraint_expr(c, lookup)})" for c in conditional.cond]
        assert then_rule.when_lines[1 : 1 + len(extras)] == extras
    if len(emitted) == 2:
        else_rule = emitted[1]
        conjunction = " && ".join(constraint_expr(c, lookup) for c in conditional.cond)
        assert else_rule.when_lines[1] == f"eval(!({conjunction}))"
