import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CORPUS
from eropc.cli import render_diagnostic, run, sanitize_package_name
from eropc.codegen import is_java_identifier
from eropc.lexer import SourcePos
from eropc.sema import Diagnostic

CASE_STUDY = CORPUS / "buyer_store.erop"


def test_compile_writes_golden_output(tmp_path, golden_drl):
    out = tmp_path / "contract.drl"
    code = run([str(CASE_STUDY), "--package", "BuyerStoreContractEx", "-o", str(out)])
    assert code == 0
    assert out.read_bytes() == golden_drl.encode()


def test_default_output_path_swaps_extension(tmp_path):
    src = tmp_path / "contract.erop"
    shutil.copy(CASE_STUDY, src)
    assert run([str(src), "--package", "BuyerStoreContractEx"]) == 0
    assert (tmp_path / "contract.drl").exists()


def test_stdout_output(capsys):
    assert run([str(CASE_STUDY), "--package", "BuyerStoreContractEx", "-o", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("package BuyerStoreContractEx\n")
    assert captured.err == ""


def test_default_package_name_is_sanitized_stem(tmp_path, capsys):
    src = tmp_path / "2 buyer-store.erop"
    shutil.copy(CASE_STUDY, src)
    assert run([str(src), "-o", "-"]) == 0
    assert capsys.readouterr().out.startswith("package _2_buyer_store\n")


def test_reserved_word_stem_gets_a_trailing_underscore(tmp_path, capsys):
    src = tmp_path / "class.erop"
    shutil.copy(CASE_STUDY, src)
    assert run([str(src), "-o", "-"]) == 0
    assert capsys.readouterr().out.startswith("package class_\n")


@pytest.mark.parametrize(
    "stem,expected",
    [
        ("contract", "contract"),
        ("2fast", "_2fast"),
        ("a-b c.d", "a_b_c_d"),
        ("", "__"),
        ("class", "class_"),
        ("_", "__"),
    ],
)
def test_sanitize_package_name(stem, expected):
    assert sanitize_package_name(stem) == expected


@given(st.text())
def test_sanitized_package_name_is_a_java_identifier(stem):
    assert is_java_identifier(sanitize_package_name(stem))


def test_missing_input_exits_2(capsys):
    assert run(["missing.erop"]) == 2
    assert "cannot read missing.erop" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.drl"
    assert run([str(CASE_STUDY), "-o", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_bad_flag_exits_2(capsys):
    assert run(["--bogus"]) == 2


def test_check_mode_reports_errors_and_exit_1(capsys):
    code = run([str(CORPUS / "bad" / "e006.erop"), "--check"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error[E006]" in err


def test_check_writes_nothing(tmp_path):
    out = tmp_path / "x.drl"
    assert run([str(CASE_STUDY), "--check", "-o", str(out)]) == 0
    assert not out.exists()


def test_failed_compile_leaves_output_untouched(tmp_path):
    out = tmp_path / "keep.drl"
    out.write_text("sentinel")
    code = run([str(CORPUS / "bad" / "e004.erop"), "-o", str(out)])
    assert code == 1
    assert out.read_text() == "sentinel"


def test_check_and_compile_agree_on_diagnostics(tmp_path, capsys):
    bad = str(CORPUS / "bad" / "e008.erop")
    run([bad, "--check"])
    check_err = capsys.readouterr().err
    run([bad, "-o", str(tmp_path / "x.drl")])
    compile_err = capsys.readouterr().err
    assert check_err == compile_err


# The complete ``--check`` stderr (``{}`` is the file) and exit code of each contract.
CHECK_OUTPUT = {
    "buyer_store.erop": (0, []),
    "bad/e001.erop": (1, ["{}:2:12: error[E001]: duplicate declaration of 'buyer'"]),
    "bad/e002.erop": (1, [
        "{}:3:22: error[E002]: composite obligation member 'Ship' is not a declared "
        "business operation"
    ]),
    "bad/e003.erop": (1, [
        "{}:2:19: error[E003]: business operation 'payment' must begin with an upper-case letter"
    ]),
    "bad/e004.erop": (1, ["{}:6:5: error[E004]: 'Ship' is not declared"]),
    "bad/e005.erop": (1, ["{}:7:11: error[E005]: 'Pay' is not a role player"]),
    "bad/e006.erop": (1, [
        "{}:5:6: error[E006]: event match must specify botype, originator, responder and "
        "outcome exactly once"
    ]),
    "bad/e007.erop": (1, ['{}:10:6: error[E007]: duplicate rule name "R"']),
    "bad/e008.erop": (1, [
        "{}:6:20: error[E008]: outcome check expects 'true' or 'false', found 'maybe'"
    ]),
    "bad/e010.erop": (1, [
        "{}:8:5: error[E010]: an 'if' action must be the only action of its rule"
    ]),
    "bad/e011.erop": (1, ["{}:6:5: error[E011]: empty or out-of-range hour window [30, 2]"]),
}


@pytest.mark.parametrize("name", sorted(CHECK_OUTPUT))
def test_check_output_is_pinned_byte_for_byte(capsys, name):
    path = str(CORPUS / name)
    code, lines = CHECK_OUTPUT[name]
    assert run([path, "--check"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(line.format(path) + "\n" for line in lines)


def test_warnings_do_not_change_exit_code(tmp_path, capsys):
    src = tmp_path / "warn.erop"
    src.write_text(
        "roleplayer buyer, idle;\nbusinessoperation Pay;\n"
        'rule "R"\n'
        "when e matches (botype == X, originator == buyer, responder == buyer, "
        "outcome == success)\n"
        "then\n    buyer.rights -= Pay(buyer)\nend\n"
    )
    assert run([str(src), "-o", "-"]) == 0
    err = capsys.readouterr().err
    assert "warning[W001]" in err and "'idle'" in err


def test_emit_ir_prints_one_line_per_rule(capsys):
    assert run([str(CASE_STUDY), "--emit-ir"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 15
    assert out[0].startswith("rule 'BuyRequestReceived'")


# W001 (line 1) is found after E004 (line 5) but sorts first
SEMA_INVALID = """\
roleplayer buyer, idle;
businessoperation Pay;
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
    Ship in buyer.rights
then
    buyer.rights -= Pay(buyer)
end
"""


def test_emit_ast_prints_the_tree_of_a_sema_invalid_contract(tmp_path, capsys):
    src = tmp_path / "invalid.erop"
    src.write_text(SEMA_INVALID)
    assert run([str(src), "--emit-ast"]) == 0
    captured = capsys.readouterr()
    assert "Decl(kind='role player'" in captured.out and "RuleAst" in captured.out
    assert captured.err == ""


def test_emit_ir_reports_sema_diagnostics_in_position_order(tmp_path, capsys):
    src = tmp_path / "invalid.erop"
    src.write_text(SEMA_INVALID)
    assert run([str(src), "--emit-ir"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{src}:1:19: warning[W001]: role player 'idle' declared but never used\n"
        f"{src}:5:5: error[E004]: 'Ship' is not declared\n"
    )


def test_emit_ir_lex_error_exits_1(tmp_path, capsys):
    src = tmp_path / "lex.erop"
    src.write_text("roleplayer buyer $;\n")
    assert run([str(src), "--emit-ir"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{src}:1:18: error[E-LEX]: illegal character '$'\n"


def test_emit_ast_prints_tree(capsys):
    assert run([str(CASE_STUDY), "--emit-ast"]) == 0
    out = capsys.readouterr().out
    assert "Decl(kind='role player', names=[Token(IDENT, 'buyer', 11)" in out and "RuleAst" in out
    assert "deadlines=['01-01-2016 12:00:00']" in out


def test_emit_ast_parse_error_exits_1(tmp_path, capsys):
    src = tmp_path / "broken.erop"
    src.write_text("roleplayer buyer\n")
    assert run([str(src), "--emit-ast"]) == 1
    assert "error[E-PARSE]" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--check"], ["--emit-ast"]])
def test_superscript_digit_exits_1_with_a_diagnostic(tmp_path, capsys, mode):
    src = tmp_path / "hour.erop"
    src.write_text(
        "roleplayer buyer;\nbusinessoperation BuyRequest;\n"
        'rule "R"\n'
        "when e matches (botype == X, originator == buyer, responder == buyer, "
        "outcome == success)\n"
        "    e.hour in [\u00b2,3]\n"
        "then\n    reset buyer\nend\n",
        encoding="utf-8",
    )
    assert run([str(src), "-o", str(tmp_path / "hour.drl")] + mode) == 1
    assert capsys.readouterr().err == f"{src}:5:16: error[E-LEX]: illegal character '\u00b2'\n"
    assert not (tmp_path / "hour.drl").exists()


@pytest.mark.parametrize(
    "rule_name,deadline,where",
    [("x\\", "01-01-2016", "3:6"), ("R", "d\\", "7:32")],
)
def test_backslash_in_a_string_exits_1(tmp_path, capsys, rule_name, deadline, where):
    src = tmp_path / "slash.erop"
    src.write_text(
        "roleplayer buyer;\nbusinessoperation Pay;\n"
        f'rule "{rule_name}"\n'
        "when e matches (botype == X, originator == buyer, responder == buyer, "
        "outcome == success)\n"
        "    Pay in buyer.rights\n"
        "then\n"
        f'    buyer.rights -= Pay(buyer, "{deadline}")\n'
        "end\n"
    )
    out = tmp_path / "slash.drl"
    assert run([str(src), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"{src}:{where}: error[E-LEX]: backslash in string literal\n"
    assert not out.exists()


def test_lookup_file_is_honoured(tmp_path, capsys):
    assert run([
        str(CASE_STUDY), "--package", "BuyerStoreContractEx",
        "--lookup", str(CORPUS / "revoke.lookup"), "-o", "-",
    ]) == 0
    out = capsys.readouterr().out
    assert "revokeRight(buyRequest, seller);" in out
    assert "removeRight" not in out


def test_malformed_lookup_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.lookup"
    bad.write_text("no equals sign here\n")
    assert run([str(CASE_STUDY), "--lookup", str(bad)]) == 2
    assert "key = value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("rop.remove.rigth = revokeRight\n", "line 1: unknown key 'rop.remove.rigth'"),
        ("# reset\nreset = not a name\n", "line 2: 'not a name' is not a Java identifier"),
    ],
)
def test_lookup_mistake_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.lookup"
    bad.write_text(text)
    out = tmp_path / "x.drl"
    assert run([str(CASE_STUDY), "--lookup", str(bad), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"eropc: {bad}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("package", ["a b;", "a..b", "com.2fast", "org.class", ""])
def test_package_that_is_not_a_dotted_java_identifier_exits_2(tmp_path, capsys, package):
    out = tmp_path / "x.drl"
    assert run([str(CASE_STUDY), "--package", package, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"eropc: --package {package!r} is not a dotted Java identifier\n"
    )
    assert not out.exists()


def test_dotted_package_is_accepted(capsys):
    assert run([str(CASE_STUDY), "--package", "org.example.deals", "-o", "-"]) == 0
    assert capsys.readouterr().out.startswith("package org.example.deals\n")


@pytest.mark.parametrize("mode", [[], ["--check"], ["--emit-ast"]])
def test_non_utf8_source_exits_2(tmp_path, capsys, mode):
    src = tmp_path / "bad.erop"
    src.write_bytes(b"roleplayer \xff;\n")
    out = tmp_path / "bad.drl"
    assert run([str(src), "-o", str(out)] + mode) == 2
    captured = capsys.readouterr()
    assert captured.err == f"eropc: cannot read {src}: not valid UTF-8\n"
    assert captured.out == ""
    assert not out.exists()


def test_non_utf8_lookup_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.lookup"
    bad.write_bytes(b"rop.remove.right = revoke\xffRight\n")
    out = tmp_path / "x.drl"
    assert run([str(CASE_STUDY), "--lookup", str(bad), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"eropc: cannot read {bad}: not valid UTF-8\n"
    assert not out.exists()


def test_byte_order_mark_source_compiles_to_the_golden(tmp_path, golden_drl):
    src = tmp_path / "bom.erop"
    src.write_bytes(b"\xef\xbb\xbf" + CASE_STUDY.read_bytes())
    out = tmp_path / "bom.drl"
    assert run([str(src), "--package", "BuyerStoreContractEx", "-o", str(out)]) == 0
    assert out.read_bytes() == golden_drl.encode()


def test_byte_order_mark_keeps_line_1_columns(tmp_path, capsys):
    body = (CORPUS / "bad" / "e003.erop").read_bytes()
    plain, bom = tmp_path / "plain.erop", tmp_path / "bom.erop"
    plain.write_bytes(b"roleplayer buyer $;\n" + body)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run([str(plain), "--check"]) == 1
    plain_err = capsys.readouterr().err
    assert run([str(bom), "--check"]) == 1
    assert plain_err == f"{plain}:1:18: error[E-LEX]: illegal character '$'\n"
    assert capsys.readouterr().err == plain_err.replace(str(plain), str(bom))


def test_byte_order_mark_lookup_is_honoured(tmp_path, capsys):
    lookup = tmp_path / "bom.lookup"
    lookup.write_bytes(b"\xef\xbb\xbfrop.remove.right = revokeRight\n")
    assert run([str(CASE_STUDY), "--lookup", str(lookup), "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert "revokeRight(buyRequest, seller);" in out
    assert "removeRight" not in out


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("eropc ")


def test_render_diagnostic_format():
    e003 = Diagnostic(
        "error", "E003",
        "business operation 'payment' must begin with an upper-case letter",
        SourcePos(2, 19, 0),
    )
    assert render_diagnostic(e003, "c.erop") == (
        "c.erop:2:19: error[E003]: business operation 'payment' must begin with an "
        "upper-case letter"
    )
    w001 = Diagnostic(
        "warning", "W001", "role player 'seller' declared but never used", SourcePos(1, 12, 0)
    )
    assert render_diagnostic(w001, "c.erop") == (
        "c.erop:1:12: warning[W001]: role player 'seller' declared but never used"
    )
    e006 = Diagnostic(
        "error", "E006",
        "event match must specify botype, originator, responder and outcome exactly once",
        SourcePos(5, 8, 0),
    )
    assert render_diagnostic(e006, "c.erop") == (
        "c.erop:5:8: error[E006]: event match must specify botype, originator, responder "
        "and outcome exactly once"
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    # Both cost a CLI run tens of milliseconds at start-up.  -S keeps site
    # hooks, which may import anything, out of the measured process.
    probe = "import sys, eropc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(CORPUS.parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
