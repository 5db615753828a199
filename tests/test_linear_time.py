"""Each family of adversarial inputs compiles in time linear in its size.

A family is compiled at size n and at 8n, best of 3 each: a linear compile
takes ~8 times as long at 8n and a quadratic one ~64 times, so a bound of
x24 tells them apart on a noisy machine.  n is doubled until the 8n input
takes at least 50 ms, so that timer noise cannot decide the test.  Each family
also runs with the lexer scanning 16 characters at a time, so that a comment
or string across many stretches, which the lexer scans again, is timed too.
"""

import time

import pytest

from eropc import lexer
from eropc.codegen import translate

DECLS = "roleplayer buyer;\nbusinessoperation Pay;\n"
EVENT = "when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)\n"


def rule(name="R", constraints="", actions="reset buyer"):
    return f'rule "{name}"\n{EVENT}{constraints}then\n    {actions}\nend\n'


def listed(item, n):
    return ", ".join([item] * n)


# name -> (source of size n, the diagnostic codes the source gives)
FAMILIES = {
    "unclosed_block_comments": (lambda n: "/* x\n" * n, {"E-LEX"}),
    "unclosed_strings": (lambda n: '"x\n' * n, {"E-LEX"}),
    "undeclared_identifiers": (
        lambda n: DECLS + rule(actions="\n    ".join(f"p{i}.rights += Pay(buyer)" for i in range(n))),
        {"E004"},
    ),
    "repeated_declarations": (lambda n: DECLS * n + rule(actions="Pay.BizFail == true"), {"E001"}),
    "long_happened_list": (
        lambda n: DECLS + rule(constraints=f"    happened ({listed('botype == X', n)})\n"),
        {"E006", "W001"},
    ),
    "long_if_condition": (
        lambda n: DECLS + rule(actions=f"if ({listed('Pay in buyer.rights', n)}) then reset buyer endif"),
        set(),
    ),
    "e007_repeats": (lambda n: DECLS + rule(actions="buyer.rights += Pay(buyer)") * n, {"E007"}),
    "long_argument_list": (
        lambda n: DECLS + rule(actions=f"buyer.rights += Pay({listed('buyer', n)})"),
        {"E009"},
    ),
}


def best_of_3(source):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        translate(source, "P")
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compile_time_is_linear(family):
    make, codes = FAMILIES[family]
    _, diags = translate(make(2), "P")
    assert {d.code for d in diags} == codes  # each input reaches the stage it is meant for
    n = 64
    while (large := best_of_3(make(8 * n))) < 0.05:
        n *= 2
    assert large / best_of_3(make(n)) < 24


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compile_time_is_linear_in_short_stretches(family, monkeypatch):
    monkeypatch.setattr(lexer, "_CHUNK", 16)
    test_compile_time_is_linear(family)
