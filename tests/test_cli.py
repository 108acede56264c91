import hashlib
import io
import itertools
from unittest import mock

import numpy as np
import pytest
from conftest import corrupted_tables, rng

from fastdcst import cli, naive_dct2, naive_dst2
from fastdcst.cli import (
    KERNELS,
    MAX_FLOPS_SIZE,
    REPORT_HEADER,
    main,
    read_signal,
    write_signal,
)
from fastdcst.flops import FlopLedger
from fastdcst.trig_family import _transposed_spectrum_net

# (kind, algorithm, normalization) -> (adds, mults) of every verify row at N=16
VERIFY_ROWS_16 = {
    ("dct2", "classic", "two-sided"): (72, 42),
    ("dct2", "classic", "unitary"): (72, 42),
    ("dct2", "classic", "unitary-sqrtn"): (72, 40),
    ("dct2", "new", "two-sided"): (72, 40),
    ("dct2", "new", "unitary"): (72, 40),
    ("dct2", "new", "unitary-sqrtn"): (72, 38),
    ("dct2", "scaled", "two-sided"): (72, 24),
    ("dct3", "new", "two-sided"): (72, 40),
    ("dct3", "new", "unitary"): (72, 40),
    ("dct3", "new", "unitary-sqrtn"): (72, 38),
    ("dst2", "new", "two-sided"): (72, 40),
    ("dst2", "new", "unitary"): (72, 40),
    ("dst2", "new", "unitary-sqrtn"): (72, 38),
    ("dst3", "new", "two-sided"): (72, 40),
    ("dst3", "new", "unitary"): (72, 40),
    ("dst3", "new", "unitary-sqrtn"): (72, 38),
    ("fft", "conjpair", "-"): (144, 24),
    ("fft", "new", "-"): (144, 24),
    ("fft", "new-s1", "-"): (144, 20),
    ("fft", "new-s2", "-"): (144, 40),
    ("fft", "new-s4", "-"): (144, 50),
    ("rfft", "conjpair", "-"): (58, 12),
    ("rfft", "new", "-"): (58, 12),
    ("rfft", "new-s1", "-"): (58, 10),
    ("rfft", "new-s2", "-"): (58, 20),
    ("rfft", "new-s4", "-"): (58, 25),
}


def _write(path, values, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for v in values:
            fh.write(f"{v:.17g}\n")


def test_signal_roundtrip(tmp_path):
    p = tmp_path / "sig.txt"
    x = list(rng(70).standard_normal(16))
    write_signal(p, x)
    assert read_signal(p) == x  # 17 significant digits round-trip doubles


def test_read_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "sig.txt"
    p.write_text("# header\n\n1.5\n# mid\n-2.5\n")
    assert read_signal(p) == [1.5, -2.5]


def test_transform_zero_file(tmp_path):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    _write(src, [0.0] * 8)
    rc = main(["transform", "--kind", "dct2", "--algo", "new",
               "--input", str(src), "--output", str(dst)])
    assert rc == 0
    assert read_signal(dst) == [0.0] * 8


def test_transform_new_matches_naive(tmp_path):
    src = tmp_path / "in.txt"
    x = rng(71).standard_normal(16)
    _write(src, x, header="# test vector")
    out_new, out_naive = tmp_path / "new.txt", tmp_path / "naive.txt"
    assert main(["transform", "--kind", "dct2", "--algo", "new",
                 "--input", str(src), "--output", str(out_new)]) == 0
    assert main(["transform", "--kind", "dct2", "--algo", "naive",
                 "--input", str(src), "--output", str(out_naive)]) == 0
    a = np.array(read_signal(out_new))
    b = np.array(read_signal(out_naive))
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_transform_dst2_matches_oracle(tmp_path):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    x = rng(72).standard_normal(16)
    _write(src, x)
    assert main(["transform", "--kind", "dst2", "--input", str(src),
                 "--output", str(dst)]) == 0
    got = np.array(read_signal(dst))
    want = naive_dst2(x)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_transform_scaled_writes_sidecar(tmp_path):
    src = tmp_path / "in.txt"
    x = rng(73).standard_normal(8)
    _write(src, x)
    out, scales = tmp_path / "out.txt", tmp_path / "scales.txt"
    assert main(["transform", "--kind", "dct2", "--algo", "scaled",
                 "--input", str(src), "--output", str(out),
                 "--scales-output", str(scales)]) == 0
    v = np.array(read_signal(out))
    s = np.array(read_signal(scales))
    want = naive_dct2(x)
    assert np.max(np.abs(v * s - want)) < 1e-12 * np.max(np.abs(want))


def test_transform_scaled_rejects_other_norms(tmp_path, capsys):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    scales = tmp_path / "scales.txt"
    _write(src, [1.0, 2.0, 3.0, 4.0])
    for norm in ("unitary", "unitary-sqrtn"):
        rc = main(["transform", "--kind", "dct2", "--algo", "scaled",
                   "--norm", norm, "--input", str(src), "--output", str(dst),
                   "--scales-output", str(scales)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'scaled'" in err and "two-sided" in err
        assert not dst.exists() and not scales.exists()
    assert main(["transform", "--kind", "dct2", "--algo", "scaled",
                 "--norm", "two-sided", "--input", str(src), "--output", str(dst),
                 "--scales-output", str(scales)]) == 0


def test_transform_scaled_requires_sidecar(tmp_path, capsys):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    _write(src, [0.0] * 8)
    rc = main(["transform", "--kind", "dct2", "--algo", "scaled",
               "--input", str(src), "--output", str(dst)])
    assert rc == 2
    assert "--scales-output" in capsys.readouterr().err


def test_transform_malformed_file(tmp_path, capsys):
    src, dst = tmp_path / "bad.txt", tmp_path / "out.txt"
    src.write_text("1.0\nnot-a-number\n")
    rc = main(["transform", "--kind", "dct2", "--algo", "new",
               "--input", str(src), "--output", str(dst)])
    assert rc == 2
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e400"])
def test_transform_rejects_non_finite(tmp_path, capsys, bad):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text(f"1.0\n{bad}\n0.5\n-1.0\n")
    rc = main(["transform", "--kind", "dct2", "--algo", "new",
               "--input", str(src), "--output", str(dst)])
    assert rc == 2
    assert f"{src}:2:" in capsys.readouterr().err
    assert not dst.exists()


def test_transform_rejects_non_pow2_for_fast(tmp_path, capsys):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    _write(src, [1.0] * 12)
    rc = main(["transform", "--kind", "dct2", "--algo", "new",
               "--input", str(src), "--output", str(dst)])
    assert rc == 2
    # naive accepts any length
    rc = main(["transform", "--kind", "dct2", "--algo", "naive",
               "--input", str(src), "--output", str(dst)])
    assert rc == 0


def test_transform_classic_only_dct2(tmp_path, capsys):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    _write(src, [1.0] * 8)
    rc = main(["transform", "--kind", "dst2", "--algo", "classic",
               "--input", str(src), "--output", str(dst)])
    assert rc == 2


def test_flops_table(capsys):
    assert main(["flops", "--max-size", "1024"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,classic_ledger,new_ledger,classic_formula,new_formula,match"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert rows[16][1:] == ["114", "112", "114", "112", "True"]
    assert rows[64][1:] == ["706", "686", "706", "686", "True"]
    assert rows[1024][1:] == ["19458", "18698", "19458", "18698", "True"]
    assert all(r[-1] == "True" for r in rows.values())


def test_flops_markdown(capsys):
    assert main(["flops", "--max-size", "16", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| n |")
    assert "| 16 | 114 | 112 | 114 | 112 | True |" in out


def test_flops_rejects_bad_max(capsys):
    assert main(["flops", "--max-size", "100"]) == 2


def test_flops_max_size_is_largest_verified_size(capsys):
    assert MAX_FLOPS_SIZE == 1 << 16
    assert main(["flops", "--max-size", str(2 * MAX_FLOPS_SIZE)]) == 2
    assert str(MAX_FLOPS_SIZE) in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--trials", "0"], "--trials"),
    (["verify", "--max-size", "1"], "--max-size"),
    (["accuracy", "--trials", "0"], "--trials"),
    (["accuracy", "--max-size", "8"], "--max-size"),
    (["flops", "--max-size", "1"], "--max-size"),
])
def test_rejects_too_small_arguments(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


def test_verify_small_run_passes(capsys):
    assert main(["verify", "--max-size", "32", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == REPORT_HEADER
    assert "dct2,new,two-sided" in out


def test_verify_report_rows(capsys):
    assert main(["verify", "--max-size", "16", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == REPORT_HEADER
    rows = {}
    for line in lines[1:]:
        size, kind, algo, norm, adds, mults = line.split(",")[:6]
        rows.setdefault(int(size), []).append(((kind, algo, norm), (int(adds), int(mults))))
    assert sorted(rows) == [2, 4, 8, 16]
    for size, got in rows.items():
        assert len(got) == 26
        assert {key for key, _ in got} == set(VERIFY_ROWS_16)
    assert dict(rows[16]) == VERIFY_ROWS_16


def test_verify_seed_stability(capsys):
    assert main(["verify", "--max-size", "16", "--trials", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--max-size", "16", "--trials", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def _one_signal_at_a_time(oracle):
    # the unbatched reference: one oracle call per signal and norm
    def per_signal(xs, norm=None):
        norms = norm if isinstance(norm, tuple) else (norm,)
        args = [() if nm is None else (nm,) for nm in norms]
        out = np.array([[oracle(x.copy(), *a) for x in np.atleast_2d(xs)] for a in args])
        out = out if np.ndim(xs) == 2 else out[:, 0]
        return out if isinstance(norm, tuple) else out[0]
    return per_signal


def test_verify_report_is_the_per_signal_oracles_report(monkeypatch):
    # the batched references give the report byte for byte
    batched = io.StringIO()
    assert cli.cmd_verify(max_size=256, trials=3, out=batched) == 0
    monkeypatch.setattr(cli, "naive_dft", _one_signal_at_a_time(cli.naive_dft))
    monkeypatch.setattr(cli, "_NAIVE", {kind: _one_signal_at_a_time(fn)
                                        for kind, fn in cli._NAIVE.items()})
    single = io.StringIO()
    assert cli.cmd_verify(max_size=256, trials=3, out=single) == 0
    assert batched.getvalue() == single.getvalue()
    assert len(batched.getvalue().splitlines()) == 1 + 26 * 8


# sha256 of the cmd_verify(max_size=256, trials=3) report for each seed
VERIFY_REPORT_SHA256 = {
    0: "52499950134308d23255e66669048fda6e8816a601bb3a3da328f0669f341702",
    11: "75e84b9e7ab299bd3cdaf4013cc7132292e95fc0f09389c0de6589304cfde76d",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_REPORT_SHA256))
def test_verify_report_is_pinned(seed):
    out = io.StringIO()
    assert cli.cmd_verify(max_size=256, trials=3, seed=seed, out=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == VERIFY_REPORT_SHA256[seed]


def test_stacked_rel_errors_equal_per_row_calls_bitwise():
    g = rng(80)
    want = g.standard_normal((7, 33)) + 1j * g.standard_normal((7, 33))
    got = want * (1 + 1e-13 * g.standard_normal((7, 33)))
    want[2] = got[2] = 0.0  # an all-zero reference met exactly: 0.0
    want[4] = 0.0  # and missed: inf
    got[5, 11] = np.nan
    got[6] = want[6]
    stacked = cli._rel_errors(got, want)
    rows = [cli._rel_errors(got[i:i + 1], want[i:i + 1]) for i in range(7)]
    for stack, per_row in zip(stacked, zip(*rows)):
        assert np.array(stack).tobytes() == np.array(sum(per_row, [])).tobytes()
    max_rel, rms_rel = stacked
    assert max_rel[2] == rms_rel[2] == 0.0 and max_rel[6] == rms_rel[6] == 0.0
    assert max_rel[4] == rms_rel[4] == float("inf")
    assert np.isnan(max_rel[5]) and np.isnan(rms_rel[5])


def _verify_size_row_by_row(n, trials, seed, tab, reports):
    # the reference form of cli._verify_size: each row is judged, from its
    # own _rel_errors call, before the next row runs
    diag = cli._diagonals(n)
    seen = {}
    for family in cli._TAGS:
        kernels = [k for k in KERNELS if k.family == family]
        inputs = [cli._signal(family, seed, n, trial) for trial in range(trials)]
        normnames = tuple(dict.fromkeys(nm for k in kernels for nm in k.norms))
        norms = tuple(cli._NORMS.get(nm) for nm in normnames)
        block = np.array(inputs)
        wants = {}
        for k in kernels:
            if k.kind not in wants:
                wants[k.kind] = k.reference(block, norms)
        for i, (normname, norm) in enumerate(zip(normnames, norms)):
            for k in kernels:
                if normname not in k.norms:
                    continue
                ledgers, gots = [], []
                for x in inputs:
                    ledgers.append(FlopLedger())
                    gots.append(k.outputs(x, norm, tab, diag, ledgers[-1]))
                row = (k.kind, k.algo, normname)
                if any(led != ledgers[0] for led in ledgers):
                    return row + ("ledger varies with input values",)
                max_rels, rms_rels = cli._rel_errors(gots, wants[k.kind][i])
                max_rel = cli._worst(max_rels)
                reports.append((n, *row, *ledgers[0].as_tuple(), max_rel,
                                cli._worst(rms_rels)))
                reason = k.ledger_fault(n, normname, ledgers[0], seen)
                if reason:
                    return row + (reason,)
                if not max_rel < cli._VERIFY_TOL:
                    return row + (f"max_rel_error {max_rel:.3e} >= {cli._VERIFY_TOL:.0e}",)
                seen[row] = ledgers[0].as_tuple()
    return None


def _bent(real, at_norm, n):
    # real's outputs with bin n/2 bent under one norm at size n only
    def run(x, norm=cli.Normalization.TWO_SIDED, *args, **kwargs):
        out = list(real(x, norm, *args, **kwargs))
        if norm is at_norm and len(out) == n:
            out[n // 2] += 1e-6
        return out
    return run


def _verify_run(max_size):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stderr", err):
        rc = cli.cmd_verify(max_size=max_size, trials=2, seed=3, out=out)
    return rc, out.getvalue(), err.getvalue()


def test_stacked_judge_fails_the_row_the_row_by_row_judge_fails(monkeypatch):
    # one dst2/new bin bent under the middle norm, in the middle of the
    # trig family's rows at N=16
    monkeypatch.setattr(cli, "dst2_new", _bent(cli.dst2_new, cli.Normalization.UNITARY, 16))
    stacked = _verify_run(64)
    monkeypatch.setattr(cli, "_verify_size", _verify_size_row_by_row)
    assert _verify_run(64) == stacked
    rc, out, err = stacked
    assert rc == 1
    assert err.startswith("FAIL dst2/new norm=unitary: max_rel_error ")
    assert "16,rfft,new-s4,-," in out and "\n32," not in out
    assert "16,dst2,new,unitary," in out and "16,dst3,new,unitary," not in out


def test_a_kernel_that_raises_after_a_failing_row_still_fails_that_row(monkeypatch):
    # dct2/new fails at N=8, and dst3/new raises later in the same family
    real, dst3_new = cli.dct2_new, cli.dst3_new
    monkeypatch.setattr(cli, "dct2_new", _bent(real, cli.Normalization.TWO_SIDED, 8))

    def broken(x, *args):
        if len(x) == 8:
            raise RuntimeError("dst3 broke")
        return dst3_new(x, *args)
    monkeypatch.setattr(cli, "dst3_new", broken)
    rc, out, err = _verify_run(16)
    assert rc == 1
    assert err.startswith("FAIL dct2/new norm=two-sided: max_rel_error ")
    assert "8,dct2,new,two-sided," in out
    # with no failing row before it, the kernel's exception propagates
    monkeypatch.setattr(cli, "dct2_new", real)
    with pytest.raises(RuntimeError, match="dst3 broke"):
        _verify_run(16)


def test_verify_fault_injection(capsys):
    # verify on tables with one dct2/new stage constant bent; the DCT-III
    # networks cached while the bent build is in place are dropped after it
    try:
        with mock.patch.object(cli.sf, "build_tables", corrupted_tables):
            rc = main(["verify", "--max-size", "16", "--trials", "1"])
    finally:
        _transposed_spectrum_net.cache_clear()
    assert rc == 1
    err = capsys.readouterr().err
    assert "dct2/new" in err


def test_accuracy_report(capsys):
    assert main(["accuracy", "--max-size", "128", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kernel,n,rms_rel_error,fit_c,bound,flagged"
    new_rows = [l.split(",") for l in lines[1:] if l.startswith("dct2_new,")]
    classic_rows = [l.split(",") for l in lines[1:] if l.startswith("dct2_classic,")]
    assert len(new_rows) == len(classic_rows) == 4  # 16..128
    assert all(r[-1] == "False" for r in new_rows)
    # doubling N never blows up the error: same order of magnitude throughout
    errs = [float(r[2]) for r in new_rows]
    for a, b in zip(errs, errs[1:]):
        assert b < 4 * max(a, 1e-17)
    # no accuracy sacrifice vs the classic kernel
    for nr, cr in zip(new_rows, classic_rows):
        assert float(nr[2]) < 2.5 * float(cr[2])


def test_accuracy_covers_every_kernel(capsys):
    assert main(["accuracy", "--max-size", "32", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kernel,n,rms_rel_error,fit_c,bound,flagged"
    rows = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert rows == [(f"{k.kind}_{k.algo}", n) for k in KERNELS for n in ("16", "32")]
    assert all(float(l.split(",")[2]) < 1e-14 for l in lines[1:])


def test_accuracy_flags_uniform_error(capsys, monkeypatch):
    # an error of 1e-6 at every size does not grow, but it is far too large
    real = cli.dct2_new
    monkeypatch.setattr(
        cli, "dct2_new", lambda *a, **k: [v * (1 + 1e-6) for v in real(*a, **k)])
    assert main(["accuracy", "--max-size", "64", "--trials", "1"]) == 1
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
            if l.startswith("dct2_new,")]
    assert len(rows) == 3 and all(r[-1] == "True" for r in rows)


def _faulty(real, fault):
    # real's outputs all NaN or all inf, or NaN on every second call only,
    # which verify and accuracy make on their second trial
    calls = itertools.count()

    def run(*args, **kwargs):
        out = np.array(real(*args, **kwargs), dtype=float)
        if fault != "later-nan" or next(calls) % 2:
            out[:] = np.inf if fault == "inf" else np.nan
        return out.tolist()
    return run


@pytest.mark.parametrize("fault", ["nan", "inf", "later-nan"])
@pytest.mark.parametrize("command", ["verify", "accuracy"])
def test_non_finite_errors_fail(command, fault, capsys, monkeypatch):
    # an error that compares False with every bound (NaN) still fails the row
    monkeypatch.setattr(cli, "dst2_new", _faulty(cli.dst2_new, fault))
    assert main([command, "--max-size", "16", "--trials", "2"]) == 1
    out, err = capsys.readouterr()
    rows = [line.split(",") for line in out.splitlines()]
    rows = [r for r in rows if r[1:3] == ["dst2", "new"] or r[0] == "dst2_new"]
    assert rows
    if command == "verify":
        assert "FAIL dst2/new" in err
        assert all(r[-2] == ("inf" if fault == "inf" else "nan") for r in rows)
    else:
        assert all(r[-1] == "True" for r in rows)


def test_accuracy_zero_error_on_zero_input():
    # zero inputs are not part of the random battery; check the kernels
    from fastdcst import dct2_new

    assert dct2_new([0.0] * 32) == [0.0] * 32


def test_transform_expected_size_flag(tmp_path, capsys):
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    _write(src, [1.0] * 8)
    assert main(["transform", "--kind", "dct2", "--n", "8",
                 "--input", str(src), "--output", str(dst)]) == 0
    assert main(["transform", "--kind", "dct2", "--n", "16",
                 "--input", str(src), "--output", str(dst)]) == 2


def test_missing_input_file(capsys):
    rc = main(["transform", "--kind", "dct2", "--algo", "new",
               "--input", "/nonexistent/in.txt", "--output", "/tmp/x.txt"])
    assert rc == 2
