"""Acceptance suite: one test per shipped criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Everything here is golden-file or property based and runs at desk
scale; criterion 7 additionally relies on CI running this same suite on at
least two operating systems (the output contract is LF-only bytes, asserted
below, so any OS produces identical files).
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager

from hypothesis import given, settings

from conftest import CORPUS, ad_tokens, extract_rule
from eropc.cli import run
from eropc.codegen import translate
from irgen import assert_split_laws, source_rules

CASE_STUDY = CORPUS / "buyer_store.erop"


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"acceptance: {label}: FAIL")
        raise
    print(f"acceptance: {label}: PASS")


def compile_case_study():
    source = CASE_STUDY.read_text(encoding="utf-8")
    text, diags = translate(source, "BuyerStoreContractEx")
    assert text is not None and diags == []
    return text


# Declaration listing for the case-study contract, store appended as a third
# role player.  Spacing quirks are deliberate: the comparison must survive
# run-of-space collapse, blank lines and line re-wrapping.
EXPECTED_DECLARATIONS = """\
package BuyerStoreContractEx
import uk . ac . ncl . erop . * ;

import uk . ac . ncl . logging . CCCLogger ;

global RelevanceEngine engine ; global EventLogger logger ;
global RolePlayer buyer ;
global   ROPSet   ropBuyer ;
global   RolePlayer   seller ;
global   ROPSet   ropSeller ;
global   RolePlayer   store ;
global   ROPSet   ropStore ;
global   BusinessOperation   buyRequest ;
global   BusinessOperation   payment ;
global   BusinessOperation   buyConfirm ;
global   BusinessOperation   buyReject ;
global   BusinessOperation   cancellation ;
"""

EXPECTED_FIRST_RULE = """\
rule "BuyRequestReceived"
  when $e: Event(type=="BUYREQ", originator=="buyer", responder=="store", status=="success")
    eval(ropBuyer.matchesRights(buyRequest))
  then
    ropBuyer.removeRight(buyRequest, seller);
    BusinessOperation[] bos = {buyConfirm, buyReject};
    ropSeller.addObligation("ReactToBuyRequest", bos, buyer,"01-01-2016 12:00:00");
  end
"""

EXPECTED_EVENT_LINE_FAILURE_RULES = (
    '$e: Event(type == "buyreq",originator == "buyer",responder == "store",'
    'status == "tecfail")'
)


def test_criterion_1_golden_declarations():
    with criterion("1 declaration block matches the reference listing"):
        started = time.perf_counter()
        text = compile_case_study()
        elapsed = time.perf_counter() - started
        header = text.split('rule "', 1)[0]
        assert ad_tokens(header) == ad_tokens(EXPECTED_DECLARATIONS)
        assert elapsed < 1.0


def test_criterion_2_first_rule_token_for_token():
    with criterion("2 first rule matches its reference translation"):
        text = compile_case_study()
        emitted = extract_rule(text, "BuyRequestReceived")
        assert ad_tokens(emitted) == ad_tokens(EXPECTED_FIRST_RULE)


def test_criterion_3_conditional_rule_splits_as_published():
    with criterion("3 conditional rule splits into IfThen/IfElse"):
        text = compile_case_study()
        then_rule = extract_rule(text, "BuyRequestBnessFailureIfThen")
        else_rule = extract_rule(text, "BuyRequestBnessFailureIfElse")

        # event pattern: string-literal comparison is case-insensitive (D4)
        for block in (then_rule, else_rule):
            event_line = block.splitlines()[2].strip()
            assert ad_tokens(event_line, lower_strings=True) == ad_tokens(
                EXPECTED_EVENT_LINE_FAILURE_RULES, lower_strings=True
            )

        assert "eval(buyRequest.getBusinessFailure() == false)" in then_rule
        assert "buyRequest.setBusinessFailure(true);" in then_rule  # setter as a call (D1)
        assert "eval(!(buyRequest.getBusinessFailure() == false))" in else_rule  # (D2)
        assert "ropBuyer.reset();" in else_rule and "ropSeller.reset();" in else_rule
        # the rule's own constraint survives in both halves
        assert "eval(ropBuyer.matchesRights(buyRequest))" in then_rule
        assert "eval(ropBuyer.matchesRights(buyRequest))" in else_rule


def test_criterion_4_ten_source_rules_emit_fifteen():
    with criterion("4 ten source rules emit fifteen target rules"):
        text = compile_case_study()
        assert sum(line.startswith('rule "') for line in text.splitlines()) == 15


@settings(max_examples=1000, deadline=None)
@given(source_rules())
def _check_split_laws(case):
    assert_split_laws(case)


def test_criterion_5_splitting_laws():
    with criterion("5 splitting laws hold on 1000 random rules"):
        _check_split_laws()


BAD_CONTRACTS = [
    ("e001.erop", "E001", 2, 12),
    ("e002.erop", "E002", 3, 22),
    ("e003.erop", "E003", 2, 19),
    ("e004.erop", "E004", 6, 5),
    ("e005.erop", "E005", 7, 11),
    ("e006.erop", "E006", 5, 6),
    ("e007.erop", "E007", 10, 6),
    ("e008.erop", "E008", 6, 20),
    ("e010.erop", "E010", 8, 5),
    ("e011.erop", "E011", 6, 5),
]


def test_criterion_6_diagnostic_suite(capsys):
    with criterion("6 crafted contracts trigger E001-E008, E010 and E011"):
        for filename, code, line, col in BAD_CONTRACTS:
            path = CORPUS / "bad" / filename
            exit_code = run([str(path), "--check"])
            err = capsys.readouterr().err
            assert exit_code == 1, filename
            assert f"{path}:{line}:{col}: error[{code}]" in err, filename


def test_criterion_7_determinism(tmp_path):
    with criterion("7 byte-identical output across repeated compiles"):
        outputs = []
        for seed in ("0", "1"):  # fresh interpreters with different hash seeds
            out = tmp_path / f"seed{seed}.drl"
            proc = subprocess.run(
                [sys.executable, "-m", "eropc", str(CASE_STUDY),
                 "--package", "BuyerStoreContractEx", "-o", str(out)],
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"\r" not in outputs[0]  # LF-only bytes make the output OS-independent


def test_criterion_8_lookup_override_is_surgical(tmp_path):
    with criterion("8 lookup override changes only its call sites"):
        base = tmp_path / "base.drl"
        renamed = tmp_path / "renamed.drl"
        assert run([str(CASE_STUDY), "--package", "BuyerStoreContractEx", "-o", str(base)]) == 0
        assert run([
            str(CASE_STUDY), "--package", "BuyerStoreContractEx",
            "--lookup", str(CORPUS / "revoke.lookup"), "-o", str(renamed),
        ]) == 0
        base_lines = base.read_text().splitlines()
        renamed_lines = renamed.read_text().splitlines()
        assert len(base_lines) == len(renamed_lines)
        changed = [(a, b) for a, b in zip(base_lines, renamed_lines) if a != b]
        assert changed
        for a, b in changed:
            assert "removeRight" in a
            assert a.replace("removeRight", "revokeRight") == b
