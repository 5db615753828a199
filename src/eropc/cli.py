"""Command-line driver: argument handling, file I/O, diagnostics, exit codes.

Exit codes: 0 success, 1 any error diagnostic (warnings alone stay 0),
2 a usage or config problem, or a failed read or write (stdout's too).
-o refuses an existing target that is not a regular file, such as a FIFO
or a device: use -o - to stream the output and --check to discard it.
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
        print(f"eropc: --package {args.package!r} is not a dotted Java identifier", file=sys.stderr)
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
            print(f"eropc: {args.lookup}: {err}", file=sys.stderr)
            return 2

    stem = os.path.splitext(args.input)[0]
    if args.check or args.emit_ast:
        ast, _, _, diags = analyze(source)
        if args.emit_ast and ast is not None:  # the parse tree is printed even when checks fail
            return _write("-", "\n".join(map(str, [*ast.decls, *ast.rules])) + "\n", args.input)
        text = None  # --check, or a lexical or syntax error
    else:
        package_name = args.package or sanitize_package_name(os.path.basename(stem))
        text, diags = translate(source, package_name, lookup)  # None on any error
    for d in diags:
        print(render_diagnostic(d, args.input), file=sys.stderr)
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
    print(f"eropc: cannot read {path}{reason}", file=sys.stderr)
    return None


def _write(path: str, text: str, source: str) -> int:
    """Write text to path ('-' for stdout): 0, or 2 once the failure is reported.

    A file is written to a temp file renamed over the link-resolved path, so no failure
    leaves a partial output. An existing target that is not a regular file is refused:
    a rename would replace a FIFO or a device, or put a directory's temp file outside it.
    """
    try:
        if path == "-":
            if sys.stdout is None:  # started with stdout closed
                raise OSError("no stdout")
            sys.stdout.write(text)
            sys.stdout.flush()
            return 0
        real = os.path.realpath(path)  # a link stays and its target changes
        try:
            st = os.stat(real)
        except FileNotFoundError:
            st = None
        if st is not None and os.path.samestat(st, os.stat(source)):
            print(f"eropc: output {path} is the input file", file=sys.stderr)
            return 2
        if st is not None and not stat.S_ISREG(st.st_mode):
            raise OSError("not a regular file")
        tmp = f"{real}.{os.urandom(4).hex()}"  # os.open applies the umask, as open() does
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp, real)
        except OSError:
            os.unlink(tmp)  # a failure here is reported as the write's
            raise
        return 0
    except BrokenPipeError:
        raise  # the reader went away: main exits 0
    except OSError:
        print(f"eropc: cannot write {'<stdout>' if path == '-' else path}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except BrokenPipeError:
        # downstream closed the pipe (e.g. piping into head); not our error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
