"""Tests of the benchmark itself, run on demand (the package's own test
suite does not collect this file):

    python3 -m pytest -q perfbench/selftest.py

Every workload runs for one cycle, untraced and traced, and must report
every metric named in BENCHMARK.json with no failed op.  A fault in one
output bin of one public kernel must fail the run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def _run(capsys, workload, trace=0, seed=3):
    rc = run.main(["--workload", workload, "--seed", str(seed),
                   "--seconds", "0.01", "--trace", str(trace)])
    out = capsys.readouterr().out
    return rc, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_without_failures(capsys, workload, trace):
    rc, res, _ = _run(capsys, workload, trace)
    assert rc == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_large_flops_per_op_is_mean_closed_form(capsys):
    pkg = common.import_package()
    _, res, _ = _run(capsys, "large")
    expect = []
    for name, n, norm in workloads.Large(pkg, 0, None).configs:
        base = (pkg.formula_classic_dct2(n) if name == "dct2_classic"
                else pkg.formula_new_dct2(n))
        if name == "dct2_scaled":
            base -= n
        elif norm == "UNITARY_SQRT_N":
            base -= 2
        expect.append(base)
    assert res["metrics"]["flops_per_op"]["value"] == sum(expect) / len(expect)


def test_fault_in_one_bin_fails_the_run(capsys, monkeypatch):
    pkg = common.import_package()
    real = pkg.dct2_new

    def bent(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        out[3] += 1e-6 * max(abs(v) for v in out)
        return out

    monkeypatch.setattr(pkg, "dct2_new", bent)
    rc, res, out = _run(capsys, "large")
    assert rc != 0
    assert not res["correct"]
    assert res["failed"] / res["attempted"] > 0
    assert "FAIL dct2_new" in out


def test_renamed_hook_is_reported_absent(capsys, monkeypatch):
    renamed = tuple(
        (mod, "reorder_even_odd_renamed" if path == "reorder_even_odd" else path,
         layer) for mod, path, layer in spans.HOOKS)
    monkeypatch.setattr(spans, "HOOKS", renamed)
    rc, res, out = _run(capsys, "blocks", trace=1)
    assert rc == 0
    line = next(s for s in out.splitlines() if "dct2.reorder_ms" in s)
    assert "absent" in line
    assert "fastdcst.dct2:reorder_even_odd_renamed" in out


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def child():
        sum(range(20000))

    def parent():
        tracer.call("child", "b", child)
        sum(range(20000))

    tracer.call("parent", "a", parent)
    p, c = tracer.stats["parent"], tracer.stats["child"]
    assert p.self == pytest.approx(p.total - c.total)
    ids = {s[0]: s for s in tracer.spans}
    child_span = next(s for s in tracer.spans if s[2] == "child")
    assert ids[child_span[1]][2] == "parent"


def test_calls_inside_record_are_not_spans():
    tracer = spans.Tracer()

    def kernel():
        sum(range(20000))

    tracer.call("record", "transpose_net.record",
                lambda: tracer.call("kernel", "fft_real", kernel))
    assert "kernel" not in tracer.stats
    rec = tracer.stats["record"]
    assert rec.self == rec.total
    tracer.call("kernel", "fft_real", kernel)
    assert tracer.stats["kernel"].count == 1


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
