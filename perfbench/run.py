"""The eropc benchmark: compile throughput, sema-heavy contracts and CLI cost.

Usage (from the root of an eropc checkout, or anywhere else):

    python3 perfbench/run.py --workload case_x200 --seed 1 --seconds 36 --trace 0

Each run generates one seeded input, compiles it in a closed loop (one
compile in flight at a time) for ``--seconds``, checks every output against
an independent reference, and prints each metric with its unit.  The last
line of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
is a separate run that records spans around every public stage call and
reports the per-layer metrics.  See README.md for the workloads and for
which layer metric should move which end-to-end metric.

The compiler is imported from ``src/`` of the checkout this file sits in,
and the case study from ``tests/corpus``; without them the run exits 2.
Scratch files and traces go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
MIN_SAMPLES = 3  # compiles per run even when one compile outlasts --seconds


# --------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    start_ns: int
    end_ns: int
    maxrss_kb: int
    stderr: str

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Launcher:
    """Client of launcher.py: runs ``python3 ARGS...`` in the work directory."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        pythonpath = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # see main()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(workdir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited unexpectedly")
        return json.loads(line)

    def run(self, *args: str) -> Child:
        stderr = self.workdir / "stderr.txt"
        request = {"argv": [sys.executable, *args], "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        return Child(reply["code"], reply["start_ns"], reply["end_ns"], reply["maxrss_kb"],
                     stderr.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# correctness


class Tally:
    """Compiles attempted, and failures counted by reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.first_output: dict[str, str | None] = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check(self, case: corpus.Case, output: str | None, diagnostics: int) -> None:
        """Count one compile; it passes only if its output is the reference."""
        self.attempted += 1
        first = self.first_output.setdefault(case.source, output)
        if output is None:
            reason = "no output"
        elif output != case.reference:
            reason = "differs from reference"
        elif output != first:
            reason = "differs from an earlier compile of the same input"
        elif diagnostics != case.warnings:
            reason = f"{diagnostics} diagnostics, expected {case.warnings}"
        else:
            return
        self.failures[reason] += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failures[reason] += 1


# --------------------------------------------------------------------------
# tracing


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    compile_id: int
    counts: dict[str, int] = field(default_factory=dict)


def _symtab_counts(result) -> dict[str, int]:
    tab, diags = result
    symbols = len(tab.role_players) + len(tab.business_ops) + len(tab.comp_obligs)
    return {"symbols": symbols, "diagnostics": len(diags)}


# (module, attribute, span name, counts taken from the call's result).  The
# stage functions are wrapped where translate() looks them up, so a traced
# translate() makes exactly the calls an untraced one makes.
TRACE_POINTS = [
    ("codegen", "tokenize", "lexer.tokenize", lambda r: {"tokens": len(r)}),
    ("codegen", "parse_contract", "syntax.parse_contract",
     lambda r: {"source_rules": len(r.rules)}),
    ("codegen", "build_symbol_table", "sema.build_symbol_table", _symtab_counts),
    ("codegen", "check_contract", "sema.check_contract", lambda r: {"diagnostics": len(r)}),
    ("codegen", "lower_contract", "ir.lower_contract", lambda r: {"ir_rules": len(r.rules)}),
    ("codegen", "build_ad_file", "codegen.build_ad_file", lambda r: {"ad_rules": len(r.rules)}),
    ("codegen", "render_file", "codegen.render_file", None),
    ("codegen", "translate", "codegen.translate", None),
    ("cli", "translate", "codegen.translate", None),
    ("cli", "run", "cli.run", None),
]


class Tracer:
    """Spans kept in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.compile_id = 0

    def new_compile(self) -> int:
        self.compile_id += 1
        return self.compile_id

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span measured elsewhere (a child process), as its own compile."""
        self.spans.append(Span(name, start_ns, end_ns, None, self.new_compile()))

    def wrap(self, name: str, fn, counts):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(Span(name, 0, 0, parent, self.compile_id))
            self.stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[index].start_ns, self.spans[index].end_ns = start, end
            if counts is not None:
                self.spans[index].counts = counts(result)
            return result

        return traced

    @contextlib.contextmanager
    def compiling(self):
        """One compile: a new compile id, with every trace point installed."""
        import eropc.cli
        import eropc.codegen

        modules = {"cli": eropc.cli, "codegen": eropc.codegen}
        saved = [(modules[m], attr, getattr(modules[m], attr)) for m, attr, _, _ in TRACE_POINTS]
        for (module, attr, original), (_, _, name, counts) in zip(saved, TRACE_POINTS):
            setattr(module, attr, self.wrap(name, original, counts))
        self.new_compile()
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_times(self) -> dict[int, dict[str, int]]:
        """Per compile: nanoseconds inside each span name minus its children."""
        child_ns = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        result: dict[int, Counter[str]] = {}
        for index, span in enumerate(self.spans):
            own = span.end_ns - span.start_ns - child_ns[index]
            result.setdefault(span.compile_id, Counter())[span.name] += own
        return result

    def durations(self, name: str) -> list[float]:
        return [(s.end_ns - s.start_ns) / 1e9 for s in self.spans if s.name == name]

    def counts(self) -> dict[int, Counter[str]]:
        result: dict[int, Counter[str]] = {}
        for span in self.spans:
            result.setdefault(span.compile_id, Counter()).update(span.counts)
        return result

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


# --------------------------------------------------------------------------
# one compile


def compile_in_process(case: corpus.Case, tally: Tally) -> float:
    """translate() once; returns its wall seconds."""
    from eropc import codegen

    start = time.perf_counter()
    try:
        text, diags = codegen.translate(case.source, case.package)
    except Exception as err:  # a crash is a failed compile, not a failed benchmark
        tally.fail(f"raised {type(err).__name__}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    tally.check(case, text, len(diags))
    return elapsed


def _read_output(path: Path) -> str | None:
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None


def compile_cli_process(launcher: Launcher, case: corpus.Case, source: Path,
                        tally: Tally) -> Child:
    """One fresh ``python3 -m eropc SOURCE`` process writing SOURCE.drl."""
    output = source.with_suffix(".drl")
    output.unlink(missing_ok=True)
    child = launcher.run("-m", "eropc", source.name, "--package", case.package)
    if child.code != 0:
        tally.fail(f"exit code {child.code}")
    else:
        tally.check(case, _read_output(output), len(child.stderr.splitlines()))
    return child


def compile_cli_in_process(case: corpus.Case, source: Path, tally: Tally) -> float:
    """eropc.cli.run() once in this process; returns its wall seconds."""
    from eropc import cli

    output = source.with_suffix(".drl")
    output.unlink(missing_ok=True)
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.run([str(source), "--package", case.package])
    except Exception as err:
        tally.fail(f"raised {type(err).__name__}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if code != 0:
        tally.fail(f"exit code {code}")
    else:
        tally.check(case, _read_output(output), len(stderr.getvalue().splitlines()))
    return elapsed


# --------------------------------------------------------------------------
# workloads


WORKLOADS = {
    "case_x200": corpus.case_repeated,
    "wide_symbols": corpus.wide_symbols,
    "cli_case": lambda rng: corpus.case_study(),
}


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    workdir: Path
    launcher: Launcher
    tally: Tally = field(default_factory=Tally)
    samples: int = 0

    @property
    def in_process(self) -> bool:
        return self.workload != "cli_case"

    def setup(self) -> tuple[corpus.Case, Path, float]:
        """Generate and write the input, then warm up; median of several set-ups.

        The warm-up compiles the case study once, in this process or, on
        cli_case, in a fresh CLI process (which also fills the byte-code
        cache of a fresh checkout).
        """
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            rng = random.Random(self.seed)
            case = WORKLOADS[self.workload](rng)
            source = self.workdir / f"{self.workload}_{rng.randrange(1000, 10000)}.erop"
            source.write_bytes(case.source.encode("utf-8"))
            warm = corpus.case_study()
            if self.in_process:
                compile_in_process(warm, self.tally)
            else:
                compile_cli_process(self.launcher, warm, source, self.tally)
            times.append(time.perf_counter() - start)
        return case, source, statistics.median(times)

    def until_deadline(self):
        deadline = time.perf_counter() + self.seconds
        count = 0
        while count < MIN_SAMPLES or time.perf_counter() < deadline:
            yield count
            count += 1

    def end_to_end(self, import_s: float) -> dict[str, tuple[float, str]]:
        case, source, median_setup = self.setup()
        if self.in_process:
            samples = [compile_in_process(case, self.tally) for _ in self.until_deadline()]
            peak_kb = [compile_cli_process(self.launcher, case, source, self.tally).maxrss_kb]
        else:
            children = [compile_cli_process(self.launcher, case, source, self.tally)
                        for _ in self.until_deadline()]
            samples = [child.seconds for child in children]
            peak_kb = [child.maxrss_kb for child in children]
        self.samples = len(samples)
        source_kb = len(case.source.encode("utf-8")) / 1e3
        output = self.tally.first_output.get(case.source) or ""
        return {
            "setup_s": (import_s + median_setup, "s"),
            "compile_kb_per_s": (source_kb * len(samples) / sum(samples), "KB/s"),
            "compile_ms_p50": (statistics.median(samples) * 1e3, "ms"),
            "compile_ms_p90": (statistics.quantiles(samples, n=10, method="inclusive")[-1] * 1e3,
                               "ms"),
            "peak_rss_mb": (statistics.median(peak_kb) * 1024 / 1e6, "MB"),
            "output_kb": (len(output.encode("utf-8")) / 1e3, "KB"),
            "success_ratio": ((self.tally.attempted - self.tally.failed) / self.tally.attempted,
                              "ratio"),
        }

    def per_layer(self, tracer: Tracer) -> dict[str, tuple[float, str]]:
        """Untraced and traced compiles alternate, so both see the same host."""
        case, source, _ = self.setup()
        if self.in_process:
            compile_once, args = compile_in_process, (case, self.tally)
        else:
            compile_once, args = compile_cli_in_process, (case, source, self.tally)
        untraced = []
        for i in self.until_deadline():
            if i % 2 == 0:
                self.spawn_probes(tracer)
                untraced.append(compile_once(*args))
            else:
                with tracer.compiling():
                    compile_once(*args)
        if self.in_process:
            with tracer.compiling():
                compile_cli_in_process(case, source, self.tally)
        self.samples = len(untraced)
        root = "codegen.translate" if self.in_process else "cli.run"
        overhead = statistics.median(tracer.durations(root)) / statistics.median(untraced) - 1
        return layer_metrics(tracer) | {"trace.overhead_pct": (overhead * 100, "%")}

    def spawn_probes(self, tracer: Tracer) -> None:
        bare = self.launcher.run("-c", "pass")
        imported = self.launcher.run("-c", "import eropc.cli")
        for name, child in (("cli.interpreter", bare), ("cli.import", imported)):
            if child.code != 0:
                self.tally.fail(f"{name} exit code {child.code}")
            tracer.record(name, child.start_ns, child.end_ns)


# span name -> per-layer metric of its median self time
SELF_TIME_METRICS = {
    "lexer.tokenize": "lexer.tokenize_ms",
    "syntax.parse_contract": "syntax.parse_ms",
    "sema.build_symbol_table": "sema.symtab_ms",
    "sema.check_contract": "sema.check_ms",
    "ir.lower_contract": "ir.lower_ms",
    "codegen.build_ad_file": "codegen.build_ms",
    "codegen.render_file": "codegen.render_ms",
    "codegen.translate": "codegen.translate_self_ms",
}
COUNT_METRICS = {
    "tokens": "lexer.tokens",
    "source_rules": "syntax.source_rules",
    "symbols": "sema.symbols",
    "diagnostics": "sema.diagnostics",
    "ir_rules": "ir.ir_rules",
    "ad_rules": "codegen.ad_rules",
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    def median_of(per_compile: dict[int, Counter], key: str) -> float:
        values = [c[key] for c in per_compile.values() if key in c]
        if not values:
            raise RuntimeError(f"the traced run recorded no {key}")
        return statistics.median(values)

    self_ns = tracer.self_times()
    counts = tracer.counts()
    metrics = {metric: (median_of(self_ns, span) / 1e6, "ms")
               for span, metric in SELF_TIME_METRICS.items()}
    metrics |= {metric: (median_of(counts, key), "count") for key, metric in COUNT_METRICS.items()}
    tokens_per_s = [c["tokens"] / (self_ns[i]["lexer.tokenize"] / 1e9)
                    for i, c in counts.items() if "tokens" in c]
    interpreter = statistics.median(tracer.durations("cli.interpreter"))
    metrics |= {
        "lexer.tokens_per_s": (statistics.median(tokens_per_s), "1/s"),
        "codegen.split_ratio": (metrics["codegen.ad_rules"][0] / metrics["ir.ir_rules"][0],
                                "ratio"),
        "cli.interpreter_ms": (interpreter * 1e3, "ms"),
        "cli.import_ms": ((statistics.median(tracer.durations("cli.import")) - interpreter) * 1e3,
                          "ms"),
        "cli.run_ms": (statistics.median(tracer.durations("cli.run")) * 1e3, "ms"),
    }
    return metrics


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eropc" / "__init__.py").is_file() or not corpus.CORPUS.is_dir():
        print(f"perfbench: no eropc checkout around {HERE} (src/eropc, tests/corpus)",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp, \
            Launcher(Path(tmp)) as launcher:
        sys.path.insert(0, str(SRC))
        # Every process loads eropc from its byte-code cache, as an installed
        # eropc would, whatever the caller's environment says; the first
        # set-up in a fresh checkout fills the cache.
        sys.dont_write_bytecode = False
        start = time.perf_counter()
        import eropc.cli  # noqa: F401  (imports every stage)

        import_s = time.perf_counter() - start
        run = Run(args.workload, args.seed, args.seconds, Path(tmp), launcher)
        if args.trace:
            tracer = Tracer()
            metrics = run.per_layer(tracer)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = run.end_to_end(import_s)

    tally = run.tally
    print(f"{args.workload} seed {args.seed}: {run.samples} timed compiles, "
          f"{tally.attempted} checked, {tally.failed} failed")
    for reason, count in sorted(tally.failures.items()):
        print(f"  failed: {count} x {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
