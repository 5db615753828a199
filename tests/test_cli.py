import errno
import functools
import itertools
import os
import shutil
import stat
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
SRC = str(CORPUS.parent.parent / "src")


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


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_output_mode_follows_the_umask(tmp_path, umask):
    out = tmp_path / "contract.drl"
    old = os.umask(umask)
    try:
        assert run([str(CASE_STUDY), "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def fail(src, dst):
        raise OSError("no rename")

    out = tmp_path / "contract.drl"
    monkeypatch.setattr(os, "replace", fail)  # the final rename fails
    assert run([str(CASE_STUDY), "-o", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_symlinked_output_writes_through_the_link(tmp_path, golden_drl):
    real = tmp_path / "real.drl"
    real.write_text("old text")
    out = tmp_path / "out.drl"
    out.symlink_to("real.drl")  # relative, as `ln -s real.drl out.drl` makes it
    code = run([str(CASE_STUDY), "--package", "BuyerStoreContractEx", "-o", str(out)])
    assert code == 0
    assert out.is_symlink() and os.readlink(out) == "real.drl"
    assert real.read_bytes() == golden_drl.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.drl", "real.drl"]


@pytest.mark.parametrize("case", ["-o the input", "-o a link to it", "input named .drl"])
def test_output_that_is_the_input_exits_2_and_keeps_the_source(tmp_path, capsys, case):
    src = tmp_path / ("contract.drl" if case == "input named .drl" else "contract.erop")
    shutil.copy(CASE_STUDY, src)
    args = [str(src), "--package", "BuyerStoreContractEx"]
    if case == "-o a link to it":
        (tmp_path / "link.drl").symlink_to(src.name)
        args += ["-o", str(tmp_path / "link.drl")]
    elif case == "-o the input":
        args += ["-o", str(src)]
    assert run(args) == 2
    assert "is the input file" in capsys.readouterr().err
    assert src.read_bytes() == CASE_STUDY.read_bytes()
    assert len(list(tmp_path.iterdir())) == (2 if case == "-o a link to it" else 1)


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.drl"
    assert run([str(CASE_STUDY), "-o", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_bad_flag_exits_2(capsys):
    assert run(["--bogus"]) == 2


def test_emit_ir_is_no_option(capsys):
    # the split pieces show in the .drl, one AD rule each
    assert run([str(CASE_STUDY), "--emit-ir"]) == 2
    assert "unrecognized arguments: --emit-ir" in capsys.readouterr().err


def test_check_mode_reports_errors_and_exit_1(capsys):
    code = run([str(CORPUS / "bad" / "e006.erop"), "--check"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error[E006]" in err


def test_check_writes_nothing(tmp_path):
    src = tmp_path / "contract.erop"
    shutil.copy(CASE_STUDY, src)
    assert run([str(src), "--check"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["contract.erop"]


@pytest.mark.parametrize("mode", ["--check", "--emit-ast"])
def test_output_with_a_mode_that_writes_nothing_exits_2(tmp_path, capsys, mode):
    out = tmp_path / "x.drl"
    assert run([str(CASE_STUDY), "-o", str(out), mode]) == 2
    assert f"argument {mode}: not allowed with argument -o/--output" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option,value",
    [("--package", "org.x"), ("--lookup", str(CORPUS / "revoke.lookup"))],
    ids=["package", "lookup"],
)
def test_option_the_tree_ignores_with_emit_ast_exits_2(capsys, option, value):
    # the tree has no package and calls no method, so either would be ignored without a word
    assert run([str(CASE_STUDY), "--emit-ast", option, value]) == 2
    captured = capsys.readouterr()
    assert f"argument {option}: not allowed with argument --emit-ast" in captured.err
    assert captured.out == ""


def test_check_loads_and_validates_the_lookup(tmp_path, capsys):
    assert run([str(CASE_STUDY), "--check", "--lookup", str(CORPUS / "revoke.lookup")]) == 0
    bad = tmp_path / "bad.lookup"
    bad.write_text("no.such.key = x\n")
    assert run([str(CASE_STUDY), "--check", "--lookup", str(bad)]) == 2
    assert "unknown key 'no.such.key'" in capsys.readouterr().err
    assert run([str(CASE_STUDY), "--check", "--lookup", str(tmp_path / "missing")]) == 2


@pytest.fixture
def work(tmp_path, monkeypatch):
    """The working directory ``tmp_path/work``, holding bs.erop."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    shutil.copy(CASE_STUDY, work / "bs.erop")
    return work


@pytest.fixture
def opened_outside(work, monkeypatch):
    """A function giving each path os.open was given that lies outside ``work``."""
    opened = []
    real_open = os.open

    def spy(path, *args, **kwargs):
        opened.append(os.path.realpath(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    return lambda: [path for path in opened if not path.startswith(f"{work}{os.sep}")]


def test_empty_output_name_is_no_default(tmp_path, capsys, work, opened_outside):
    # an unset shell variable in `-o "$OUT"` must not overwrite <stem>.drl; the
    # empty path resolves to the working directory, which no file can replace
    assert run(["bs.erop", "-o", ""]) == 2
    assert capsys.readouterr().err == "eropc: cannot write \n"
    assert opened_outside() == []
    assert list(tmp_path.iterdir()) == [work]
    assert [p.name for p in work.iterdir()] == ["bs.erop"]


def test_directory_output_is_refused_before_any_file_is_made(tmp_path, capsys, work,
                                                             opened_outside):
    # a temp file beside the directory would be made in its parent, outside it;
    # renamed over a FIFO, or over a link's FIFO, it would leave a regular file there
    targets = ["."]
    if hasattr(os, "mkfifo"):  # the FIFO rows need it
        os.mkfifo(work / "fifo")
        (work / "link").symlink_to("fifo")
        targets += ["fifo", "link"]
    for target in targets:
        assert run(["bs.erop", "-o", target]) == 2
        assert capsys.readouterr().err == f"eropc: cannot write {target}\n"
    assert opened_outside() == []
    assert list(tmp_path.iterdir()) == [work]
    assert sorted(p.name for p in work.iterdir()) == ["bs.erop", *targets[1:]]
    if "fifo" in targets:
        assert stat.S_ISFIFO(os.lstat(work / "fifo").st_mode)
        assert os.readlink(work / "link") == "fifo"


class _Stdout:
    """A stdout whose write or flush fails as on a full disk."""

    def __init__(self, failing: str):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("stdout", ["write", "flush", None], ids=["write fails", "flush fails",
                                                                  "no stdout"])
@pytest.mark.parametrize("mode", [["-o", "-"], ["--emit-ast"]], ids=" ".join)
def test_a_failed_write_to_stdout_exits_2_with_one_line(capsys, monkeypatch, stdout, mode):
    # None: the process started with its stdout closed (`eropc ... >&-`)
    monkeypatch.setattr(sys, "stdout", stdout and _Stdout(stdout))
    assert run([str(CASE_STUDY), *mode]) == 2
    assert capsys.readouterr().err == "eropc: cannot write <stdout>\n"


@pytest.mark.parametrize("mode", [["-o", "-"], ["--emit-ast"]], ids=" ".join)
def test_a_closed_pipe_on_stdout_exits_0(mode):
    # the reader went away, as `eropc ... | head -1` does: no failure of eropc's
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "eropc", str(CASE_STUDY), *mode],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC},
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (0, b"")


class _Handle:
    """A text file handle whose write is the given function."""

    def __init__(self, handle, write):
        self.handle, self.write = handle, write

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self.handle.__exit__(*exc_info)


def _tree(root):
    """Each path under root, with its bytes or the target of its link."""
    return {
        str(p.relative_to(root)): os.readlink(p) if p.is_symlink() else p.read_bytes()
        for p in root.rglob("*")
    }


# the library calls of the CLI's write path, besides the write of the handle os.fdopen gives
_IO_CALLS = {f"os.{name}": getattr(os, name) for name in ("stat", "open", "fdopen", "replace")}
_IO_CALLS["os.path.realpath"] = os.path.realpath


@pytest.mark.parametrize("target", ["new", "regular", "link"])
@pytest.mark.parametrize("point", ["os.path.realpath", "os.stat", "os.open", "write", "os.replace"])
def test_an_injected_io_fault_exits_2_or_writes_the_whole_output(tmp_path, capsys, golden_drl,
                                                                  point, target):
    # Library-level fault injection (Marinescu and Candea, "LFI", DSN 2009): the
    # k-th call at one point raises, for every k up to the first run it misses.
    # A failed write writes half the text first, as on a full disk.
    for k in itertools.count(1):
        work = tmp_path / str(k)
        work.mkdir()
        out = work / "out.drl"
        if target != "new":
            (work / "real.drl").write_text("old text")
        if target == "link":
            out.symlink_to("real.drl")
        elif target == "regular":
            os.rename(work / "real.drl", out)
        before = _tree(work)
        calls = 0

        def fault(function, *args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == k:
                if function.__name__ == "write":
                    function(args[0][: len(args[0]) // 2])
                raise OSError(errno.ENOSPC, "injected")
            return function(*args, **kwargs)

        def fdopen(*args, **kwargs):
            handle = _IO_CALLS["os.fdopen"](*args, **kwargs)
            return _Handle(handle, functools.partial(fault, handle.write))

        with pytest.MonkeyPatch.context() as patch:
            if point == "write":
                patch.setattr("os.fdopen", fdopen)
            else:
                patch.setattr(point, functools.partial(fault, _IO_CALLS[point]))
            code = run([str(CASE_STUDY), "--package", "BuyerStoreContractEx", "-o", str(out)])
        err = capsys.readouterr().err
        if code == 2:
            assert calls >= k and err == f"eropc: cannot write {out}\n"
            assert _tree(work) == before
        else:
            assert (code, err) == (0, "")
            written = work / ("real.drl" if target == "link" else "out.drl")
            assert _tree(work) == {**before, written.name: golden_drl.encode()}
        if calls < k:  # the fault was never reached: a clean run, which wrote it all
            assert code == 0
            break


def test_failed_compile_leaves_output_untouched(tmp_path):
    out = tmp_path / "keep.drl"
    out.write_text("sentinel")
    code = run([str(CORPUS / "bad" / "e004.erop"), "-o", str(out)])
    assert code == 1
    assert out.read_text() == "sentinel"


@pytest.mark.parametrize(
    "name", ["buyer_store.erop", *sorted(f"bad/{p.name}" for p in (CORPUS / "bad").glob("*.erop"))]
)
def test_check_and_compile_agree_on_diagnostics(tmp_path, capsys, name):
    path = str(CORPUS / name)
    check_code = run([path, "--check"])
    check_err = capsys.readouterr().err
    compile_code = run([path, "-o", str(tmp_path / "x.drl")])
    compile_err = capsys.readouterr().err
    assert (check_code, check_err) == (compile_code, compile_err)


def test_check_builds_and_renders_no_ad_text(monkeypatch, capsys):
    from eropc import cli, codegen

    def refuse(*args):
        raise AssertionError("--check built or rendered AD text")

    for module, name in ((codegen, "build_ad_file"), (codegen, "render_file"), (cli, "translate")):
        monkeypatch.setattr(module, name, refuse)
    assert run([str(CASE_STUDY), "--check"]) == 0
    assert run([str(CORPUS / "bad" / "e007.erop"), "--check"]) == 1
    assert "error[E007]" in capsys.readouterr().err


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
    "bad/e009.erop": (1, [
        "{}:7:21: error[E009]: ROP manipulation takes one beneficiary role player and an "
        "optional deadline string"
    ]),
    "bad/e010.erop": (1, [
        "{}:8:5: error[E010]: an 'if' action must be the only action of its rule"
    ]),
    "bad/e011.erop": (1, ["{}:6:5: error[E011]: empty or out-of-range hour window [30, 2]"]),
    "bad/e012.erop": (1, [
        "{}:2:24: error[E012]: business operation 'Buyer' and role player 'buyer' both become "
        "'buyer'"
    ]),
    # three diagnostics at one token keep their discovery order: build_symbol_table's
    # E003, check_contract's W001, then check_globals' E012
    "bad/same_position.erop": (1, [
        "{}:2:24: error[E003]: business operation 'class' must begin with an upper-case letter",
        "{}:2:24: warning[W001]: business operation 'class' declared but never used",
        "{}:2:24: error[E012]: business operation 'class' becomes 'class', which is not a Java "
        "identifier",
    ]),
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


def test_check_reports_sema_diagnostics_in_position_order(tmp_path, capsys):
    src = tmp_path / "invalid.erop"
    src.write_text(SEMA_INVALID)
    assert run([str(src), "--check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{src}:1:19: warning[W001]: role player 'idle' declared but never used\n"
        f"{src}:5:5: error[E004]: 'Ship' is not declared\n"
    )


def test_check_lex_error_exits_1(tmp_path, capsys):
    src = tmp_path / "lex.erop"
    src.write_text("roleplayer buyer $;\n")
    assert run([str(src), "--check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{src}:1:18: error[E-LEX]: illegal character '$'\n"


def test_emit_ast_prints_tree(capsys):
    assert run([str(CASE_STUDY), "--emit-ast"]) == 0
    out = capsys.readouterr().out
    assert "Decl(kind='role player', names=[Token(lexeme='buyer', index=1)" in out
    assert "RuleAst" in out
    assert "deadlines=['01-01-2016 12:00:00']" in out


def test_emit_ast_of_the_case_study_is_pinned_byte_for_byte(capsys):
    assert run([str(CASE_STUDY), "--emit-ast"]) == 0
    assert capsys.readouterr().out == (CORPUS / "buyer_store.ast").read_text(encoding="utf-8")


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
    # --check and --emit-ast take no -o; hour.drl is their input's default output path
    assert run([str(src), *(mode or ["-o", str(tmp_path / "hour.drl")])]) == 1
    assert capsys.readouterr().err == f"{src}:5:16: error[E-LEX]: illegal character '\u00b2'\n"
    assert not (tmp_path / "hour.drl").exists()


def test_oversized_integer_exits_1_with_one_diagnostic(tmp_path, capsys):
    src = tmp_path / "day.erop"
    src.write_text(
        "roleplayer buyer;\nbusinessoperation BuyRequest;\n"
        'rule "R"\n'
        "when e matches (botype == X, originator == buyer, responder == buyer, "
        "outcome == success)\n"
        f"    e.day in [1, {'5' * 5000}]\n"
        "then\n    reset buyer\nend\n"
    )
    assert run([str(src), "-o", str(tmp_path / "day.drl")]) == 1
    err = capsys.readouterr().err
    assert err == f"{src}:5:18: error[E-PARSE]: integer out of range (at most 2147483647)\n"
    assert not (tmp_path / "day.drl").exists()


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
        ("reset\n", "line 1: expected 'key = value', got 'reset'"),
        ("reset =\n", "line 1: expected 'key = value', got 'reset ='"),
        ("= wipe\n", "line 1: expected 'key = value', got '= wipe'"),
        ("# map\n reset =  # none\n", "line 2: expected 'key = value', got 'reset =  # none'"),
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
    out = tmp_path / "bad.drl"  # also the default output path
    assert run([str(src), *(mode or ["-o", str(out)])]) == 2
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
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
