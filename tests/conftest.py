import re
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "corpus"

_AD_TOKEN = re.compile(r'"[^"]*"|\w+|==|\+=|-=|<=|>=|&&|[^\s\w]')


def ad_tokens(text: str, lower_strings: bool = False) -> list[str]:
    """Split AD text into comparison tokens, ignoring all whitespace/layout."""
    tokens = _AD_TOKEN.findall(text)
    if lower_strings:
        tokens = [t.lower() if t.startswith('"') else t for t in tokens]
    return tokens


def extract_rule(text: str, name: str) -> str:
    """The ``rule "<name>" ... end`` block of a rendered AD file."""
    m = re.search(rf'^rule "{re.escape(name)}"\n.*?^end$', text, re.M | re.S)
    assert m is not None, f"rule {name!r} not found in output"
    return m.group(0)


def wide_contract(players=300, ops=800):
    """Hundreds of declarations, a quarter of the operations unused, one rule per player."""
    source = [
        "roleplayer " + ", ".join(f"p{i:03d}" for i in range(players)) + ";\n",
        "businessoperation " + ", ".join(f"Op{i:03d}" for i in range(ops)) + ";\n",
    ]
    for i in range(players):
        source.append(f"""\
rule "R{i:03d}"
when e matches (botype == T, originator == p{i:03d}, responder == p{i:03d}, outcome == success)
    Op{2 * i % 600:03d} in p{i:03d}.rights
    e.hour in [9, 17]
then
    p{i:03d}.rights -= Op{(2 * i + 1) % 600:03d}(p{i:03d})
end
""")
    return "".join(source)


@pytest.fixture
def case_study_source() -> str:
    return (CORPUS / "buyer_store.erop").read_text(encoding="utf-8")


@pytest.fixture
def golden_drl() -> str:
    return (CORPUS / "buyer_store.drl").read_text(encoding="utf-8")
