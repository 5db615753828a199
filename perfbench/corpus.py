"""Seeded workload inputs and their reference outputs.

Every generator takes a ``random.Random`` and returns a ``Case``: the EROP
source handed to the compiler, the package name, and the expected AD text.
The seed changes names only (rule suffixes, which operations go unused, how
responders are paired); sizes, token counts and rule counts are the same for
every seed.  No reference is produced by eropc itself: the case-study
reference is the hand-checked golden file with the same renames applied, and
the wide contract's reference comes from a hand-written per-rule AD template.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "corpus"
CASE_PACKAGE = "BuyerStoreContractEx"

CASE_COPIES = 200
WIDE_PLAYERS = 2400
WIDE_OPS = 6400  # a quarter of them never used: W001 warnings, compile succeeds
TIMESTAMP = "01-01-2016 12:00:00"


@dataclass(frozen=True)
class Case:
    source: str
    package: str
    reference: str
    warnings: int = 0  # diagnostics expected alongside the output


def _split_at_first_rule(text: str) -> tuple[str, str]:
    """(everything before the first rule, the rule blocks)."""
    at = text.index('\nrule "') + 1
    return text[:at], text[at:]


def case_study() -> Case:
    """The unmodified buyer/store case study and its golden output."""
    source = (CORPUS / "buyer_store.erop").read_text(encoding="utf-8")
    golden = (CORPUS / "buyer_store.drl").read_text(encoding="utf-8")
    return Case(source, CASE_PACKAGE, golden)


def case_repeated(rng: random.Random, copies: int = CASE_COPIES) -> Case:
    """The case study's rules repeated ``copies`` times, copy k renamed Name_<k>.

    Suffixes are distinct four-digit numbers drawn from ``rng``, so every
    seed gives the same byte count.  The reference applies the same renames
    to the golden rules, with the IfThen/IfElse split suffixes kept last.
    """
    base = case_study()
    decls, rules = _split_at_first_rule(base.source)
    header, golden_rules = _split_at_first_rule(base.reference)
    names = set(re.findall(r'^rule "(\w+)"$', rules, re.M))

    def rename_golden(k: int, m: re.Match) -> str:
        if m[1] not in names:
            raise ValueError(f"golden rule {m[0]!r} has no source rule")
        return f'rule "{m[1]}_{k}{m[2] or ""}"'

    source_parts, reference_parts = [], []
    for k in rng.sample(range(1000, 10000), copies):
        source_parts.append(re.sub(r'^rule "(\w+)"$', rf'rule "\1_{k}"', rules, flags=re.M))
        reference_parts.append(
            re.sub(r'^rule "(\w+?)(IfThen|IfElse)?"$',
                   lambda m, k=k: rename_golden(k, m), golden_rules, flags=re.M)
        )
    return Case(decls + "\n".join(source_parts), CASE_PACKAGE, header + "\n".join(reference_parts))


_ROP_SETS = (("rights", "Rights", "Right"), ("obligs", "Obligations", "Obligation"),
             ("prohibs", "Prohibitions", "Prohibition"))


def wide_symbols(rng: random.Random, players: int = WIDE_PLAYERS, ops: int = WIDE_OPS) -> Case:
    """Thousands of declarations, one plain rule per role player, no ``if``.

    Rule i is guarded by membership of one operation in player i's ROP set,
    an hour window and a timestamp bound, and removes a second operation.
    The two operations per rule are drawn so that a quarter of all
    operations stay unused.
    """
    player_names = [f"p{i:04d}" for i in range(players)]
    op_names = [f"Op{i:04d}" for i in range(ops)]
    used = sorted(rng.sample(range(ops), ops - ops // 4))
    responders = list(range(players))
    rng.shuffle(responders)

    src = ["roleplayer " + ", ".join(player_names) + ";\n",
           "businessoperation " + ", ".join(op_names) + ";\n"]
    ref_header = [f"package WideSymbols\n\nimport uk.ac.ncl.erop.*;\n"
                  "import uk.ac.ncl.logging.CCCLogger;\n\n"
                  "global RelevanceEngine engine;\nglobal EventLogger logger;\n"]
    ref_header += [f"global RolePlayer {p};\nglobal ROPSet rop{p.title()};\n" for p in player_names]
    ref_header += [f"global BusinessOperation op{o[2:]};\n" for o in op_names]
    ref_rules = []
    for i, orig in enumerate(player_names):
        resp = player_names[responders[i]]
        guard = op_names[used[(2 * i) % len(used)]]
        removed = op_names[used[(2 * i + 1) % len(used)]]
        rop_set, matches, singular = _ROP_SETS[i % 3]
        rop = f"rop{orig.title()}"
        src.append(
            f'\nrule "R{i:04d}"\n'
            f"when e matches (botype == T{i:04d}, originator == {orig}, "
            f"responder == {resp}, outcome == success)\n"
            f"    {guard} in {orig}.{rop_set}\n"
            f"    e.hour in [9, 17]\n"
            f'    e.timestamp < "{TIMESTAMP}"\n'
            f"then\n"
            f"    {orig}.{rop_set} -= {removed}({resp})\n"
            f"end\n"
        )
        ref_rules.append(
            f'rule "R{i:04d}"\n'
            f"when\n"
            f'    $e: Event(type=="T{i:04d}", originator=="{orig}", '
            f'responder=="{resp}", status=="success")\n'
            f"    eval({rop}.matches{matches}(op{guard[2:]}))\n"
            f"    eval($e.getHour() >= 9 && $e.getHour() <= 17)\n"
            f'    eval($e.getTimestamp() < "{TIMESTAMP}")\n'
            f"then\n"
            f"    {rop}.remove{singular}(op{removed[2:]}, {resp});\n"
            f"end\n"
        )
    return Case("".join(src), "WideSymbols", "".join(ref_header) + "\n" + "\n".join(ref_rules),
                ops // 4)
