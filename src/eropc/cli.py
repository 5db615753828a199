"""Command-line driver: argument handling, file I/O, diagnostics, exit codes.

Exit codes: 0 success, 1 any error diagnostic (warnings alone stay 0), 2 a usage or config
problem, or a failed read or write: stdout's unless its reader went away, never stderr's.
-o writes a regular file atomically; it refuses a FIFO, a device or a path ending in /.
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys

from . import __version__
from .codegen import (
    DEFAULT_LOOKUP,
    ConfigError,
    analyze,
    is_java_identifier,
    load_lookup,
    translate,
)
from .sema import Diagnostic


# the characters of one write of the output: a text stream encodes what one write gives it
# at once, so writing the whole text at once would hold a whole encoded copy of it
_SLICE = 1 << 16


def render_diagnostic(d: Diagnostic, file: str) -> str:
    return f"{file}:{d.pos}: {d.severity}[{d.code}]: {d.message}"


def sanitize_package_name(stem: str) -> str:
    """Turn a file stem into a package name that passes is_java_identifier."""
    name = re.sub(r"[^0-9A-Za-z_]", "_", stem) or "_"
    if name[0].isdigit():
        name = "_" + name
    return name if is_java_identifier(name) else name + "_"  # a reserved word


def _build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eropc",
        description="Compile an EROP contract into an Augmented Drools rule file.",
    )
    p.add_argument("input", help="EROP source file")
    p.add_argument("--package", help="dotted Java package name (default: input file stem)")
    p.add_argument("--lookup", help="method-mapping overrides file")
    mode = p.add_mutually_exclusive_group()  # -o names a file --check and --emit-ast never write
    mode.add_argument("-o", "--output", help="output file ('-' for standard output)")
    mode.add_argument("--check", action="store_true", help="report diagnostics, write nothing")
    mode.add_argument("--emit-ast", action="store_true", help="dump the parse tree (debug)")
    p.add_argument("--version", action="version", version=f"eropc {__version__}")
    p._print_message = _print_message  # Python 3.10's lets a failed write through; 3.11's loses it
    return p


def run(argv: list[str]) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
        for name in ("package", "lookup"):  # the tree has neither
            if args.emit_ast and getattr(args, name) is not None:
                parser.error(f"argument --{name}: not allowed with argument --emit-ast")
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.package is not None and not all(map(is_java_identifier, args.package.split("."))):
        _say(f"eropc: --package {args.package!r} is not a dotted Java identifier")
        return 2

    source = _read_text(args.input)
    if source is None:
        return 2

    lookup = DEFAULT_LOOKUP
    if args.lookup:
        lookup_text = _read_text(args.lookup)
        if lookup_text is None:
            return 2
        try:
            lookup = load_lookup(lookup_text)
        except ConfigError as err:
            _say(f"eropc: {args.lookup}: {err}")
            return 2

    stem = os.path.splitext(args.input)[0]
    if args.check or args.emit_ast:
        ast, _, _, diags = analyze(source)
        if args.emit_ast and ast is not None:  # the parse tree is printed even when checks fail
            dump = "\n".join([*map(str, ast.decls), *map(str, ast.rules), ""])  # ends in "\n"
            return _write("-", dump, args.input)
        text = None  # --check, or a lexical or syntax error
    else:
        package_name = args.package or sanitize_package_name(os.path.basename(stem))
        text, diags = translate(source, package_name, lookup)  # None on any error
    for d in diags:
        _say(render_diagnostic(d, args.input))
    if text is None:
        return int(any(d.is_error for d in diags))
    return _write(stem + ".drl" if args.output is None else args.output, text, args.input)


def _read_text(path: str) -> str | None:
    """The file's text without a UTF-8 byte-order mark, or None once the failure is reported."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError:
        reason = ""
    except UnicodeDecodeError:
        reason = ": not valid UTF-8"
    _say(f"eropc: cannot read {path}{reason}")
    return None


def _write(path: str, text: str, source: str) -> int:
    """Write text to path ('-' for stdout): 0, or 2 once the failure is reported.

    A file is written to a temp file renamed over the link-resolved path, so no failure
    leaves a partial output. A target that is not a regular file, or ends in '/' or '/.', is
    refused: a rename would replace a FIFO or a device, or put a directory's temp file outside it.
    """
    try:
        if path == "-":
            if sys.stdout is None:  # started with stdout closed
                raise OSError("no stdout")
            _write_slices(sys.stdout, text)
            sys.stdout.flush()
            return 0
        os.stat(os.path.dirname(path) or ".")  # realpath drops the ".." of "f/.." for a file f
        real = os.path.realpath(path)  # a link stays and its target changes
        try:
            st = os.stat(real)
        except FileNotFoundError:
            st = None
        if st is not None and os.path.samestat(st, os.stat(source)):
            _say(f"eropc: output {path} is the input file")
            return 2
        if os.path.basename(path) in ("", ".") or st and not stat.S_ISREG(st.st_mode):
            raise OSError("not a regular file")
        tmp = f"{real}.{os.urandom(4).hex()}"  # os.open applies the umask, as open() does
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                _write_slices(handle, text)
            os.replace(tmp, real)
        except OSError:
            os.unlink(tmp)  # a failure here is reported as the write's
            raise
        return 0
    except BrokenPipeError:  # stdout's reader went away, as `| head` does: no failure
        sys.stdout = None  # and no text is left for the interpreter's exit flush
        return 0
    except OSError:
        _say(f"eropc: cannot write {'<stdout>' if path == '-' else path}")
        return 2


def _write_slices(stream, text: str) -> None:
    for start in range(0, len(text), _SLICE):
        stream.write(text[start : start + _SLICE])


def _say(line: str) -> None:
    _print_message(line + "\n")


def _print_message(text: str, file=None) -> None:
    """The one write of stderr's lines and of argparse's: a stream (stderr by default) that is
    None, closed, full or without a reader loses the text, and nothing else changes."""
    try:  # stderr is line-buffered, so a failed flush raises here
        (file or sys.stderr).write(text)
    except (AttributeError, OSError, ValueError):
        pass


def main() -> None:
    sys.stderr = sys.stderr or open(os.devnull, "w")  # closed at start: usage stays off stdout
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
