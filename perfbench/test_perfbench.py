"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import os
import random
import resource
import sys

import pytest

import corpus
import run

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {
    "case_repeated": lambda rng: corpus.case_repeated(rng, copies=3),
    "wide_symbols": lambda rng: corpus.wide_symbols(rng, players=30, ops=80),
}


@pytest.mark.parametrize("make", [corpus.case_repeated, corpus.wide_symbols])
def test_same_seed_same_bytes_and_other_seeds_same_sizes(make):
    first, again, other = make(random.Random(5)), make(random.Random(5)), make(random.Random(6))
    assert first == again
    assert other.source != first.source and other.reference != first.reference
    assert len(other.source) == len(first.source)
    assert len(other.reference) == len(first.reference)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reference_check_accepts_compiler_output_and_rejects_one_changed_byte(name):
    case = SMALL[name](random.Random(1))
    tally = run.Tally()
    run.compile_in_process(case, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    text = case.reference
    mutated = text[:100] + chr(ord(text[100]) ^ 1) + text[101:]
    tally.check(case, mutated, case.warnings)
    assert tally.failures == {"differs from reference": 1}


def test_reference_check_counts_unexpected_diagnostics():
    case = SMALL["wide_symbols"](random.Random(1))
    assert case.warnings == 20
    tally = run.Tally()
    tally.check(case, case.reference, 0)
    assert tally.failures == {"0 diagnostics, expected 20": 1}


def _bad_contract() -> corpus.Case:
    source = (corpus.CORPUS / "bad" / "e004.erop").read_text(encoding="utf-8")
    return corpus.Case(source, "Bad", "")


def test_bad_contract_counts_as_failed_in_process(tmp_path):
    tally = run.Tally()
    run.compile_in_process(_bad_contract(), tally)
    source = tmp_path / "bad.erop"
    source.write_text(_bad_contract().source, encoding="utf-8")
    run.compile_cli_in_process(_bad_contract(), source, tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.failures == {"no output": 1, "exit code 1": 1}


def test_bad_contract_counts_as_failed_in_a_cli_process(tmp_path):
    source = tmp_path / "bad.erop"
    source.write_text(_bad_contract().source, encoding="utf-8")
    tally = run.Tally()
    with run.Launcher(tmp_path) as launcher:
        child = run.compile_cli_process(launcher, _bad_contract(), source, tally)
    assert child.code == 1 and "E004" in child.stderr
    assert tally.failures == {"exit code 1": 1}


def test_peak_rss_excludes_harness_memory(tmp_path):
    with run.Launcher(tmp_path) as launcher:
        ballast = b"\x01" * (160 << 20)  # the harness holding a large corpus
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > 160 << 10
        bare = launcher.run("-c", "pass")
        # a child of this process would start from the ballast's peak
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", "pass"], os.environ)
        _, _, usage = os.wait4(pid, 0)
        del ballast
    assert bare.code == 0
    assert bare.maxrss_kb < 64 << 10
    assert usage.ru_maxrss > 160 << 10


def test_traced_translate_records_each_stage_once_and_restores_modules():
    from eropc import codegen

    original = codegen.tokenize
    tracer = run.Tracer()
    with tracer.compiling():
        run.compile_in_process(corpus.case_study(), run.Tally())
    assert codegen.tokenize is original

    names = [span.name for span in tracer.spans]
    assert names[0] == "codegen.translate"
    assert sorted(names[1:]) == sorted(span for span in run.SELF_TIME_METRICS
                                       if span != "codegen.translate")
    assert all(span.parent == 0 for span in tracer.spans[1:])
    counts = tracer.counts()[1]
    assert counts["source_rules"] == 10 and counts["ad_rules"] == 15
    self_ns = tracer.self_times()[1]
    root = tracer.spans[0]
    assert sum(self_ns.values()) == root.end_ns - root.start_ns


def _run_main(*args: str) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(list(args)) == 0
    return json.loads(stdout.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_reports_every_declared_metric_with_its_unit(trace, section):
    result = _run_main("--workload", "cli_case", "--seed", "1", "--seconds", "0.1",
                       "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_without_a_checkout_exits_2_and_prints_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli_case", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
