import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

from dmtlab import cli, dmt, lattice, sim
from dmtlab.channel import MODES, SystemConfig
from dmtlab.cli import _build_parser, run


SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def read(path):
    return path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# curves

def test_curves_csv_content(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["curves", "--n", "4", "--m", "2", "--out", str(out)]) == 0
    lines = read(out).strip().split("\n")
    assert lines[0] == "r,d_star,d1,d2"
    rows = {float(l.split(",")[0]): [float(v) for v in l.split(",")[1:]]
            for l in lines[1:]}
    assert rows[0.5] == [5.5, 4.5, 5.0]
    assert rows[1.5] == [1.5, 0.5, 1.0]
    assert all(r[1] <= r[2] <= r[0] for r in rows.values())  # d1 <= d2 <= d*


def test_curves_anchors_json(tmp_path):
    out = tmp_path / "c.csv"
    anchors = tmp_path / "anchors.json"
    assert run(["curves", "--n", "2", "--m", "1", "--out", str(out),
                "--anchors-out", str(anchors)]) == 0
    data = json.loads(read(anchors))
    by_name = {d["curve"]: d["anchors"] for d in data}
    assert by_name["d1"] == [[0.0, 2.0], [0.5, 0.5], [1.0, 0.0]]
    assert by_name["d2"] == [[0.0, 2.0], [1.0, 0.0]]


def test_curves_rejects_odd_n(capsys):
    assert run(["curves", "--n", "3", "--m", "2"]) == 2
    assert "even n" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["curves", "--n", "3000000", "--m", "3000000"], "--n/--m"),
    (["curves", "--n", str(10**400), "--m", str(10**400)], "--n/--m")])
def test_grid_size_exit_2(argv, flag, monkeypatch, capsys):
    # these grids would need gigabytes.  The curve grid is counted from
    # --n/--m before any curve is built, even for a count beyond a float
    def no_curves(n, m):
        raise AssertionError("a curve was built before the grid was bounded")

    monkeypatch.setattr(dmt, "curve_family", no_curves)
    assert run(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("gridstep", [["--gridstep", "0.0001"], ["--gridstep", "0.05"], []],
                         ids=["0.0001", "0.05", "none"])
def test_lemma2_gridstep_sets_no_grid(gridstep, monkeypatch, capsys):
    # the oracle enumerates vertices, so no --gridstep builds a grid, however
    # fine and whatever dmt.GRID_CAP; at 0.0001 the old grid held gigabytes
    monkeypatch.setattr(dmt, "GRID_CAP", 1000)
    assert run(["lemma2-verify", "--qmax", "3", "--lmax", "3", "--sstep", "0.5"]
               + gridstep) == 0
    out, err = capsys.readouterr()
    assert out == "all 26 cases within tolerance (q in 1..3, l in 1..3, q >= l)\n" and not err


def test_lemma2_verify_catches_rounded_floor(monkeypatch, capsys):
    # the closed form with floor(s) mutated to round(s), its minimizer's
    # feasibility left unchecked so that the value check is tested alone:
    # at q = 6, l = 4, s = 2.75 the value is off by 0.5 and the minimizer
    # attains it, which the grid tolerance l (q + l) 0.02 = 0.8 let through
    monkeypatch.setattr(dmt, "math", types.SimpleNamespace(**{**vars(math), "floor": round}))
    monkeypatch.setattr(dmt, "a0_membership", lambda alpha, s: True)
    assert run(["lemma2-verify", "--qmax", "6", "--lmax", "4", "--sstep", "0.25",
                "--gridstep", "0.02"]) == 1
    out = capsys.readouterr().out
    assert ("VIOLATION q=6 l=4 s=2.75: closed=3.75 brute=4.25 tol=1e-12 "
            "feasible=True attained=True") in out


def test_curves_has_no_step_option(capsys):
    # the anchors JSON carries each curve exactly; the CSV grid is fixed at 0.01
    assert run(["curves", "--n", "4", "--m", "2", "--step", "0.01"]) == 2
    assert "unrecognized arguments: --step" in capsys.readouterr().err


@pytest.mark.parametrize("qmax,lmax,sstep,code", [
    ("1", "1", "1e-300", 2), ("1", "1", "5e-324", 2), ("10000000000", "1", "1", 2),
    ("10000000000", "10000000000", "1", 2),
    ("1", "10000000000", "1", 0)])  # an l above qmax has no case and is never visited
def test_lemma2_case_count(qmax, lmax, sstep, code, capsys):
    # counted before the first case: s += 1e-300 would never pass l = 1
    assert run(["lemma2-verify", "--qmax", qmax, "--lmax", lmax, "--sstep", sstep,
                "--gridstep", "0.25"]) == code
    out, err = capsys.readouterr()
    assert ("--sstep/--qmax/--lmax" in err) == (code == 2)
    assert code == 2 or "all 2 cases within tolerance" in out
    # the library's sweep gives the same count, or the same refusal
    if code == 0:
        assert len(dmt.lemma2_cases(int(qmax), int(lmax), float(sstep))) == 2
    else:
        with pytest.raises(ValueError, match="--sstep/--qmax/--lmax"):
            dmt.lemma2_cases(int(qmax), int(lmax), float(sstep))
    # the benchmark's sweep (qmax 6, lmax 4, sstep 0.25) has 178 cases
    assert 178 <= dmt.CASE_CAP


@pytest.mark.parametrize("qmax,lmax", [("0", "3"), ("3", "0"), ("0", "0"), ("-2", "1")])
def test_lemma2_empty_sweep_exit_2(qmax, lmax, capsys):
    # a verification with no case to check must not report success
    assert run(["lemma2-verify", "--qmax", qmax, "--lmax", lmax, "--sstep", "0.5",
                "--gridstep", "0.25"]) == 2
    out, err = capsys.readouterr()
    assert "--qmax/--lmax" in err and "within tolerance" not in out


@pytest.mark.parametrize("gridstep", ["0.5", "0.75", "1", "1e300"])
def test_lemma2_coarse_gridstep_exit_2(gridstep, capsys):
    # --gridstep no longer sets the tolerance, but a value that once made
    # it cover every value of f (l (q + l) gridstep >= l q at q = l) still
    # exits 2, as it did
    assert run(["lemma2-verify", "--qmax", "3", "--lmax", "2", "--sstep", "0.5",
                "--gridstep", gridstep]) == 2
    out, err = capsys.readouterr()
    assert "--gridstep must be below 0.5" in err and "within tolerance" not in out


@pytest.mark.parametrize("sstep,gridstep,flag", [
    ("1", "inf", "--gridstep"), ("1", "nan", "--gridstep"), ("1", "0", "--gridstep"),
    ("inf", "0.5", "--sstep"), ("nan", "0.5", "--sstep"), ("-1", "0.5", "--sstep")])
def test_lemma2_step_not_positive_finite_exit_2(sstep, gridstep, flag, capsys):
    # an --sstep that is not positive and finite would never end the sweep;
    # such a --gridstep once made every case pass, and still exits 2
    assert run(["lemma2-verify", "--qmax", "2", "--lmax", "2", "--sstep", sstep,
                "--gridstep", gridstep]) == 2
    out, err = capsys.readouterr()
    assert f"{flag} must be positive and finite" in err and "within tolerance" not in out


def test_grid_size_patched_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(dmt, "GRID_CAP", 1000)
    # 201 rows of 4 fit 1000 entries at r_max = 2, and 301 rows do not at r_max = 3
    assert run(["curves", "--n", "4", "--m", "2"]) == 0
    capsys.readouterr()
    assert run(["curves", "--n", "6", "--m", "3"]) == 2
    assert "--n/--m" in capsys.readouterr().err


@pytest.mark.parametrize("n,m", [(10**400, 1), (2, 10**400), (10**200, 10**200)],
                         ids=["n-1e400", "m-1e400", "nm-1e400"])
def test_curves_beyond_float_exit_2(n, m, capsys):
    # the grid is small (r_max = min(m, n/2) = 1 or huge and capped) but the
    # first anchor's d = m n is no float
    assert run(["curves", "--n", str(n), "--m", str(m)]) == 2
    assert "--n/--m" in capsys.readouterr().err


def test_curves_csv_blocks_byte_identical(tmp_path, monkeypatch, capsys):
    # the CSV is formatted a block of rows at a time, to a file or to stdout;
    # the bytes are those of the whole text joined at once
    fam, rows = dmt.sample_curves(40, 7)
    whole = "\n".join(["r,d_star,d1,d2"] + [",".join(f"{v:.12g}" for v in row)
                                            for row in rows.tolist()]) + "\n"
    for block in (1, 7, len(rows), 10_000):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        out = tmp_path / f"{block}.csv"
        assert run(["curves", "--n", "40", "--m", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == whole.encode()
        assert run(["curves", "--n", "40", "--m", "7"]) == 0
        assert capsys.readouterr().out == whole


def test_curves_idempotent(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["curves", "--n", "4", "--m", "2", "--out", str(a)])
    run(["curves", "--n", "4", "--m", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# outage / error

def test_outage_csv_and_summary(tmp_path):
    out = tmp_path / "o.csv"
    summary = tmp_path / "o.json"
    rc = run(["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0.5",
              "--snr-db", "10,20", "--trials", "20000", "--seed", "11",
              "--out", str(out), "--summary", str(summary)])
    assert rc == 0
    lines = read(out).strip().split("\n")
    assert lines[0].startswith("# seed=11 ")
    assert lines[1] == "snr_db,rate_bits,trials,events,prob,stderr"
    assert len(lines) == 4
    meta = json.loads(read(summary))
    assert meta["theory_d1"] == pytest.approx(0.5)
    assert meta["theory_d2"] == pytest.approx(1.0)
    assert meta["seed"] == 11
    assert meta["slope"] is not None


def test_outage_idempotent(tmp_path):
    args = ["outage", "--mode", "quaternion", "--n", "2", "--m", "1", "--r", "0.5",
            "--snr-db", "10,16", "--trials", "5000", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(args + ["--out", str(a), "--summary", str(tmp_path / "sa.json")])
    run(args + ["--out", str(b), "--summary", str(tmp_path / "sb.json")])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "sa.json").read_bytes() == (tmp_path / "sb.json").read_bytes()


def test_outage_trials_per_point(tmp_path):
    out = tmp_path / "o.csv"
    rc = run(["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0.5",
              "--snr-db", "10,20", "--trials", "1000,2000", "--seed", "11",
              "--out", str(out), "--summary", str(tmp_path / "o.json")])
    assert rc == 0
    rows = read(out).strip().split("\n")[2:]
    assert [row.split(",")[2] for row in rows] == ["1000", "2000"]


@pytest.mark.parametrize("trials", ["2.7,3000.9", "3000.5", "1e5,x", "0"])
def test_fractional_trials_exit_2(trials, tmp_path, capsys):
    out = tmp_path / "e.csv"
    rc = run(["error", "--mode", "quaternion", "--lattice", "hamilton", "--n", "2",
              "--m", "1", "--r", "0", "--snr-db", "10,14", "--trials", trials,
              "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_snr_db_help_shows_the_equals_form(capsys):
    # argparse takes a separate "-10,0" for an option, so a grid below 0 dB
    # needs --snr-db=-10,0; the help says so (rejoined across line wraps)
    assert run(["outage", "--help"]) == 0
    assert "--snr-db=-10,0" in "".join(capsys.readouterr().out.split())
    assert run(["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0.5",
                "--snr-db=-10,0", "--trials", "100", "--seed", "1"]) == 0


@pytest.mark.parametrize("snr_db", ["", "10,x"], ids=["empty", "not-a-number"])
def test_bad_snr_db_exit_2(snr_db, capsys):
    assert run(["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0.5",
                "--snr-db", snr_db, "--trials", "100", "--seed", "1"]) == 2
    assert "--snr-db must be numbers" in capsys.readouterr().err


def test_one_trials_entry_serves_every_point(tmp_path):
    out = tmp_path / "o.csv"
    assert run(["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0.5",
                "--snr-db", "10,20", "--trials", "1000", "--seed", "1",
                "--out", str(out), "--summary", str(tmp_path / "o.json")]) == 0
    rows = read(out).strip().split("\n")[2:]
    assert [row.split(",")[2] for row in rows] == ["1000", "1000"]


@pytest.mark.parametrize("argv", [
    ["outage", "--mode", "real", "--r", "0.5", "--snr-db", "10", "--trials", "100"],
    ["error", "--mode", "real", "--lattice", "split", "--r", "0", "--snr-db", "10",
     "--trials", "100"],
    ["wishart-check", "--mode", "real", "--samples", "100"]],
    ids=["outage", "error", "wishart-check"])
def test_negative_seed_exit_2(argv, capsys):
    assert run(argv + ["--n", "2", "--m", "1", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: --seed must be >= 0, got -1\n" and not out


def test_large_seed_echoed_exactly(tmp_path):
    # a seed beyond float precision reaches the generator and the header exact
    out = tmp_path / "o.csv"
    assert run(["outage", "--mode", "quaternion", "--n", "2", "--m", "1", "--r", "0",
                "--snr-db", "10", "--trials", "100", "--seed", str(2**60 + 1),
                "--out", str(out), "--summary", str(tmp_path / "o.json")]) == 0
    assert read(out).startswith(f"# seed={2**60 + 1} command=outage mode=quaternion n=2 m=1")


def test_outage_requires_seed(capsys):
    rc = run(["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0.5",
              "--snr-db", "10", "--trials", "100"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["outage", "error"])
def test_config_option_exit_2(command, capsys):
    # the flags are the one way to give a sweep its parameters
    argv = [command, "--mode", "real", "--n", "2", "--m", "1", "--r", "0",
            "--snr-db", "10", "--trials", "100", "--seed", "1", "--config", "run.json"]
    assert run(argv + (["--lattice", "split"] if command == "error" else [])) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_outage_weighting_option(tmp_path):
    base = ["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0.5",
            "--snr-db", "10,20,30", "--trials", "30000", "--seed", "12"]
    sa, sb = tmp_path / "a.json", tmp_path / "b.json"
    run(base + ["--out", str(tmp_path / "a.csv"), "--summary", str(sa)])
    run(base + ["--weighting", "uniform",
                "--out", str(tmp_path / "b.csv"), "--summary", str(sb)])
    slope_a = json.loads(sa.read_text())["slope"]
    slope_b = json.loads(sb.read_text())["slope"]
    assert slope_a != slope_b  # event weights tilt toward the shallow end
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["outage", "--r", "0.5", "--snr-db", "10", "--trials", "100"],
    ["error", "--lattice", "hamilton", "--r", "0.5", "--snr-db", "10", "--trials", "100"],
    ["wishart-check", "--samples", "100"]], ids=["outage", "error", "wishart-check"])
def test_outage_quaternion_rejects_odd_n(argv, capsys):
    # one rule, raised by SystemConfig, with one message for every command
    rc = run(argv + ["--mode", "quaternion", "--n", "3", "--m", "1", "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: quaternion mode needs even n\n"


def test_outage_invalid_r(capsys):
    rc = run(["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "1.5",
              "--snr-db", "10", "--trials", "100", "--seed", "1"])
    assert rc == 2
    assert "r=" in capsys.readouterr().err


def test_error_command(tmp_path):
    out = tmp_path / "e.csv"
    summary = tmp_path / "e.json"
    rc = run(["error", "--mode", "quaternion", "--lattice", "hamilton",
              "--n", "2", "--m", "1", "--r", "0", "--snr-db", "14,20",
              "--trials", "4000,8000", "--seed", "5",
              "--out", str(out), "--summary", str(summary)])
    assert rc == 0
    lines = read(out).strip().split("\n")
    assert lines[1] == "snr_db,rate_bits,trials,events,prob,stderr"
    assert lines[2].split(",")[2] == "4000"
    assert lines[3].split(",")[2] == "8000"


def test_error_lattice_from_file(tmp_path):
    from dmtlab import lattice as lat
    path = tmp_path / "split.json"
    path.write_text(json.dumps(lat.lattice_to_json(lat.load_lattice("split"))),
                    encoding="utf-8")
    rc = run(["error", "--mode", "real", "--lattice", str(path),
              "--n", "2", "--m", "1", "--r", "0", "--snr-db", "14",
              "--trials", "2000", "--seed", "6",
              "--out", str(tmp_path / "e.csv"),
              "--summary", str(tmp_path / "e.json")])
    assert rc == 0


def test_error_unknown_lattice(capsys):
    rc = run(["error", "--mode", "quaternion", "--lattice", "nonexistent",
              "--n", "2", "--m", "1", "--r", "0", "--snr-db", "14",
              "--trials", "100", "--seed", "1"])
    assert rc == 2


@pytest.mark.parametrize("mode,name,n", [("quaternion", "hamilton", "4"),
                                         ("real", "split", "3")])
def test_error_n_lattice_mismatch_exit_2(mode, name, n, capsys):
    rc = run(["error", "--mode", mode, "--lattice", name, "--n", n, "--m", "1",
              "--r", "0", "--snr-db", "10,20", "--trials", "1000", "--seed", "1"])
    assert rc == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["outage", "--mode", "real", "--n", "40", "--m", "20", "--r", "0",
      "--snr-db", "10,20", "--trials", "1000000", "--seed", "1"], "--n/--m"),
    (["wishart-check", "--mode", "real", "--n", "2", "--m", "1",
      "--samples", "100000000", "--seed", "1"], "--samples"),
    (["outage", "--mode", "real", "--n", "2", "--m", "42", "--r", "0",
      "--snr-db", "10", "--trials", "100000", "--seed", "1"], "--n/--m")])
def test_monte_carlo_array_budget_exit_2(argv, flag, capsys):
    # the benchmark's largest chunk (100k rows of 64 bytes: quaternion
    # n = 2, m = 1 blocks, whose 2 x 2 complex Gram lift is the widest)
    # fits the budget; these inputs are rejected before any draw: 84 x 2
    # real blocks take 1,344 bytes a row, 134.4 MB a chunk, over 128 MiB
    assert 100_000 * 64 <= sim.ARRAY_BUDGET_BYTES
    assert run(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("mode,n,m", [("real", "2", "41"), ("quaternion", "16", "1")])
def test_outage_priced_by_its_draw(mode, n, m, capsys):
    # a chunk is priced by its widest array a row: the 82 x 2 real draw
    # (1,312 bytes, 131.2 MB a chunk, under 128 MiB) over its 2 x 2 Gram,
    # and the parts of 1 x 8 quaternion blocks (256 bytes) over their one
    # lifted 2 x 2 Gram (64 bytes); neither forms the Gram on the larger side
    assert run(["outage", "--mode", mode, "--n", n, "--m", m, "--r", "0",
                "--snr-db", "10", "--trials", "100000", "--seed", "1"]) == 0
    out, err = capsys.readouterr()
    assert "10,0,100000," in out and not err


HAMILTON_R05 = ["error", "--mode", "quaternion", "--lattice", "hamilton", "--n", "2",
                "--m", "1", "--r", "0.5", "--seed", "1"]


@pytest.mark.parametrize("snr_db,message", [
    ("0,3,6.1", "--snr-db/--r: at 0 dB and r = 0.5 the codebook holds only the zero word"),
    ("-10,0", "--snr-db >= 0")], ids=["zero-word-codebook", "below-0-dB"])
def test_shaped_codebook_not_a_code_exit_2(snr_db, message, monkeypatch, capsys):
    # hamilton's shortest nonzero point has norm sqrt(2), over rho^(1/4) at 0
    # and 3 dB; a codebook of one word would report 0 errors
    def never(*args, **kwargs):
        raise AssertionError("a chunk ran before every codebook was checked")

    monkeypatch.setattr(sim.channel, "draw_real", never)
    assert run(HAMILTON_R05 + [f"--snr-db={snr_db}", "--trials", "2000"]) == 2
    assert message in capsys.readouterr().err


def test_shaped_codebooks_over_one_shell_exit_2(dmtlab_process):
    # eight 55 dB points of 389,977 words each: the third passes the
    # 1,000,000 words one shell may list and the sweep stops before any
    # chunk runs, holding two points' codebooks and features (about 75 MB
    # each); unchecked, the eight peaked at 656 MB
    code, err, peak_mib, _ = dmtlab_process(
        HAMILTON_R05 + ["--snr-db", ",".join(["55"] * 8), "--trials", "1"],
        DMTLAB_THREADS="1")
    assert code == 2
    assert "--snr-db/--r: at 55 dB and r = 0.5 the sweep's codebooks hold 1169931 words" in err
    assert peak_mib < 250


@pytest.mark.parametrize("label,faults", [("error-r0", 1_415), ("outage-quaternion", 1_208),
                                          ("outage-real", 1_454), ("error-shaped", 1_705),
                                          ("lemma2", 12)])
def test_benchmark_command_page_faults(dmtlab_process, monkeypatch, label, faults):
    # the benchmark times its commands after a calibration kernel that raises
    # glibc's trim thresholds, so allocation churn that costs a plain process
    # thousands of page faults does not show there.  Here the command runs
    # in a fresh process (DMTLAB_THREADS=1, the benchmark's default seed), and
    # its minor faults over those of `dmtlab --help`, which starts and imports
    # the same, stay within 10% of the count this code made on a 2-vCPU box
    # with numpy 2.4.6, or within 100 pages for a count too small for 10% to
    # cover the box's noise.  The count is the highest of three PYTHONPATH
    # layouts (Tier-1's `src`, the absolute `src` alone, `src` and one more
    # entry), which move it by up to 100 pages (error-r0 1,320-1,415).
    # Before `sim._sweep` raised glibc's trim thresholds, error-r0 faulted
    # about 5,700 pages, and decoding whole chunks about 1,000 more.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    argv = dict(cmd for name in workloads.WORKLOADS
                for cmd in workloads.commands(name, workloads.DEFAULT_SEED))[label]
    code, err, _, start = dmtlab_process(["--help"])
    assert code == 0, err
    code, err, _, total = dmtlab_process(argv, DMTLAB_THREADS="1")
    assert code == 0, err
    assert total - start <= max(1.1 * faults, 100), (total, start)


@pytest.mark.parametrize("label,faults", [("error-r0", 2), ("error-shaped", 20)])
def test_benchmark_command_steady_page_faults(dmtlab_steady_faults, monkeypatch, label,
                                              faults):
    # a second run of the command in the same process (DMTLAB_THREADS=1, the
    # benchmark's default seed) starts from a heap the first has grown, and
    # `sim._sweep` has raised glibc's trim thresholds, so its chunks reuse
    # the memory the first run freed: on a 2-vCPU box with numpy 2.4.6 it
    # faulted 1-2 pages at error-r0 and 2-20 at error-shaped over three
    # PYTHONPATH layouts.  It stays within 100 pages of that count; a heap
    # top handed back to the system after each chunk faults about 1,800
    # (1,891 and 1,773 before the thresholds were raised)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    argv = dict(cmd for name in workloads.WORKLOADS
                for cmd in workloads.commands(name, workloads.DEFAULT_SEED))[label]
    first, second, err, steady = dmtlab_steady_faults(argv, DMTLAB_THREADS="1")
    assert first == second == 0, err
    assert steady <= faults + 100, steady


@pytest.mark.parametrize("command", ["outage", "error"])
def test_cli_events_match_library(command, tmp_path):
    # the CSV's events are the library's at the same seed: the chunk sizes,
    # and so the substreams, are the same whoever runs the sweep; the first
    # point spans two chunks of either estimator
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.5)
    snr_db, trials, seed = [12.0, 18.0], [120_000, 3000], 17
    out = tmp_path / "s.csv"
    argv = [command, "--mode", "quaternion", "--n", "2", "--m", "1", "--r", "0.5",
            "--snr-db", "12,18", "--trials", "120000,3000", "--seed", str(seed),
            "--out", str(out), "--summary", str(tmp_path / "s.json")]
    if command == "error":
        argv += ["--lattice", "hamilton"]
        est = sim.estimate_error_prob(lattice.load_lattice("hamilton"), cfg, snr_db,
                                      trials, seed)
    else:
        est = sim.estimate_outage(cfg, snr_db, trials, seed)
    assert run(argv) == 0
    rows = read(out).strip().split("\n")[2:]
    assert tuple(int(row.split(",")[3]) for row in rows) == est.events
    assert all(est.events)


# ---------------------------------------------------------------------------
# lemma2-verify / lattice-audit / wishart-check

def test_lemma2_verify(capsys):
    rc = run(["lemma2-verify", "--qmax", "4", "--lmax", "3",
              "--sstep", "0.25", "--gridstep", "0.02"])
    assert rc == 0
    assert "within tolerance" in capsys.readouterr().out


def test_lemma2_verify_peak_rss(dmtlab_process):
    # the benchmark's sweep holds O(l) integers a case, so the process peaks
    # near the interpreter with numpy alone, about 30 MiB; its grid oracle
    # peaked at 46.5 MiB, and a sorted float copy of that grid at 61.3 MiB
    code, err, peak_mib, _ = dmtlab_process(["lemma2-verify", "--qmax", "6", "--lmax", "4",
                                          "--sstep", "0.25", "--gridstep", "0.02"])
    assert code == 0, err
    assert peak_mib <= 40


def test_lattice_audit(tmp_path):
    out = tmp_path / "audit.json"
    rc = run(["lattice-audit", "--lattice", "hamilton", "--radius", "2",
              "--out", str(out)])
    assert rc == 0
    data = json.loads(read(out))
    assert data == {"min_det": 1.0, "nvd": True, "points": 33}


def test_lattice_audit_empty_shell(capsys):
    # only the origin lies within radius 0.5: no nonzero point to audit
    assert run(["lattice-audit", "--lattice", "hamilton", "--radius", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out) == {"min_det": None, "nvd": False, "points": 1}


def test_lattice_audit_split(tmp_path):
    out = tmp_path / "audit.json"
    assert run(["lattice-audit", "--lattice", "split", "--radius", "3",
                "--out", str(out)]) == 0
    data = json.loads(read(out))
    assert data["nvd"] is True
    assert data["min_det"] == pytest.approx(1.0, abs=1e-9)


def test_lattice_audit_rejects_m2z(capsys):
    # negative control: M2(Z) is the order of a non-division algebra, so its
    # shell holds nonzero singular points and the audit must fail it
    m2z = Path(__file__).resolve().parent.parent / "lattices" / "m2z.json"
    assert run(["lattice-audit", "--lattice", str(m2z), "--radius", "3"]) == 0
    assert capsys.readouterr().out == '{"min_det": 0.0, "nvd": false, "points": 425}\n'


@pytest.mark.parametrize("radius,report", [
    ("2", '{"min_det": 1.0, "nvd": true, "points": 3}'),
    ("4", '{"min_det": 0.8584073464102071, "nvd": false, "points": 29}'),
    ("8", '{"min_det": 0.8584073464102071, "nvd": false, "points": 519}'),
    ("12", '{"min_det": 0.4336293856408274, "nvd": false, "points": 2719}'),
    ("16", '{"min_det": 0.2300767579509048, "nvd": false, "points": 8559}'),
    ("24", '{"min_det": 0.11503837897543023, "nvd": false, "points": 43353}'),
    ("32", '{"min_det": 0.017672705389521617, "nvd": false, "points": 137159}'),
    ("48", '{"min_det": 0.0176727053895003, "nvd": false, "points": 694673}')])
def test_lattice_audit_split_pi(radius, report, capsys):
    # negative control: split with i^2 = pi is full rank but not NVD; its
    # determinants x^2 - pi y^2 - 3 z^2 + 3 pi w^2 vanish only at 0, yet
    # their minimum falls as the shell grows.  A radius-2 shell cannot see it.
    path = Path(__file__).resolve().parent.parent / "lattices" / "split_pi.json"
    assert run(["lattice-audit", "--lattice", str(path), "--radius", radius]) == 0
    text = capsys.readouterr().out
    if radius == "48":  # 99 pi - 311 again, at another point, so rounded otherwise
        out, expect = json.loads(text), json.loads(report)
        assert out == {**expect, "min_det": pytest.approx(expect["min_det"], rel=1e-9)}
    else:
        assert text == report + "\n"


def test_lattice_audit_rejects_complex_flavor(tmp_path, capsys):
    data = lattice.lattice_to_json(lattice.load_lattice("hamilton"))
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({**data, "flavor": "complex"}), encoding="utf-8")
    assert run(["lattice-audit", "--lattice", str(path), "--radius", "2"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: flavor must be one of ('real', 'quaternionic')\n" and not out


@pytest.mark.parametrize("argv", [
    ["lattice-audit", "--radius", "2"],
    ["error", "--mode", "real", "--n", "2", "--m", "1", "--r", "0", "--snr-db", "10",
     "--trials", "100", "--seed", "1"]], ids=["lattice-audit", "error"])
@pytest.mark.parametrize("payload,fragment", [
    (None, "lat.json"), (b"[", "Expecting value"), ([1, 2], "must be an object, got list"),
    ({"ambient_n": 2, "flavor": "real", "basis": [[1, 2, 3, 4]]}, "'basis' is missing"),
    ({"ambient_n": 2, "flavor": "real"}, "'basis' is missing"),
    ({"flavor": "real", "basis": [[[1, 0]] * 4]}, "'ambient_n' is missing")],
    ids=["directory", "not-json", "list", "bare-number-basis", "no-basis", "no-ambient-n"])
def test_bad_lattice_file_exit_2(argv, payload, fragment, tmp_path, capsys):
    # every bad --lattice file is named, a malformed document with the key at
    # fault; none ends in a traceback
    path = tmp_path / "lat.json"
    if payload is None:
        path.mkdir()
    elif isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload), encoding="utf-8")
    assert run(argv + ["--lattice", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and str(path) in err and fragment in err and not out


@pytest.mark.parametrize("radius", ["nan", "inf", "1e200", "-1"])
def test_lattice_audit_bad_radius_exit_2(radius, capsys):
    assert run(["lattice-audit", "--lattice", "hamilton", "--radius", radius]) == 2
    assert "radius" in capsys.readouterr().err


def test_wishart_check_real(tmp_path):
    out = tmp_path / "w.json"
    rc = run(["wishart-check", "--mode", "real", "--n", "2", "--m", "1",
              "--samples", "50000", "--seed", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(read(out))
    assert data["pass"] is True and data["seed"] == 2


def test_wishart_check_quaternion(tmp_path):
    out = tmp_path / "w.json"
    rc = run(["wishart-check", "--mode", "quaternion", "--n", "2", "--m", "1",
              "--samples", "50000", "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert json.loads(read(out))["pass"] is True


@pytest.mark.parametrize("mode,n,m,report", [
    ("real", "4", "3",
     '{"count_ok": true, "expected_trace": 12.0, "m": 3, "mean_trace": 11.913408983149441, '
     '"mode": "real", "n": 4, "pass": true, "rel_err": 0.007215918070879883, '
     '"samples": 2000, "seed": 7}\n'),
    ("quaternion", "6", "2",
     '{"count_ok": true, "expected_trace": 24.0, "m": 2, "mean_trace": 23.826817966298886, '
     '"mode": "quaternion", "n": 6, "pairing_checked": true, "pass": true, '
     '"rel_err": 0.007215918070879734, "samples": 2000, "seed": 7}\n')], ids=MODES)
def test_wishart_check_report_pinned(mode, n, m, report, capsys):
    # one seed's report, byte for byte, in both code classes: the smaller
    # side of the real 6 x 4 blocks is n, of the quaternion 2 x 3 ones m
    assert run(["wishart-check", "--mode", mode, "--n", n, "--m", m,
                "--samples", "2000", "--seed", "7"]) == 0
    assert capsys.readouterr().out == report


@pytest.mark.parametrize("mode,n,m", [("real", "2", "0"), ("real", "0", "1"),
                                      ("real", "2", "-1"), ("quaternion", "2", "0"),
                                      ("quaternion", "0", "1")])
def test_wishart_check_antenna_count_exit_2(mode, n, m, capsys):
    # checked before any draw: zero antennas give an expected trace of 0
    assert run(["wishart-check", "--mode", mode, "--n", n, "--m", m,
                "--samples", "10", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert "--n/--m must be >= 1" in err and not out


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("argv,flag", [
    (["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0.5", "--snr-db", "10,20",
      "--trials", "100,200,300", "--seed", "1"], "--trials"),
    (["curves", "--n", "0", "--m", "1"], "--n/--m"),
    (["curves", "--n", "3", "--m", "1"], "--n"),
    (["wishart-check", "--mode", "real", "--n", "2", "--m", "1", "--samples", "0",
      "--seed", "1"], "--samples")], ids=["trials-list", "curves-zero", "curves-odd-n", "samples"])
def test_exit_2_message_names_flag(argv, flag, capsys):
    # a bad input exits 2 with a message that names the flag at fault
    assert run(argv) == 2
    assert flag in capsys.readouterr().err


def test_unknown_command_exit_2():
    assert run(["frobnicate"]) == 2


def test_unwritable_output_exit_3():
    rc = run(["curves", "--n", "4", "--m", "2",
              "--out", "/nonexistent-dir/x.csv"])
    assert rc == 3


def test_cached_parser_keeps_no_state(capsys):
    # the parser is built once per process; after a rejected argv, each
    # command prints through it what it prints in a fresh process
    assert run(["curves", "--n", "9", "--anchors-out", "a.json", "--m", "x"]) == 2
    capsys.readouterr()
    assert _build_parser() is _build_parser()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    for argv in (["lattice-audit", "--lattice", "split", "--radius", "4"],
                 ["curves", "--n", "4", "--m", "2"],
                 ["lemma2-verify", "--qmax", "3", "--lmax", "2", "--sstep", "0.5",
                  "--gridstep", "0.1"]):
        assert run(argv) == 0
        fresh = subprocess.run([sys.executable, "-m", "dmtlab", *argv], capture_output=True,
                               text=True, env=env, timeout=120, check=True)
        assert capsys.readouterr().out == fresh.stdout


def test_missing_required_flag_exit_2():
    assert run(["lattice-audit", "--radius", "2"]) == 2


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_thread_count_exit_2(value, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("codebook shaped before the thread count was checked")

    monkeypatch.setenv("DMTLAB_THREADS", value)
    monkeypatch.setattr(sim, "shape_codebook", never)
    out = tmp_path / "e.csv"
    rc = run(["error", "--mode", "quaternion", "--lattice", "hamilton", "--n", "2",
              "--m", "1", "--r", "0.5", "--snr-db", "10", "--trials", "100",
              "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert "DMTLAB_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["outage", "error"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "4000", "-4000"])
def test_non_finite_snr_exit_2(command, value, tmp_path, capsys):
    # 4000 dB gives rho = inf (an OverflowError before), -4000 dB rho = 0
    out = tmp_path / "s.csv"
    argv = [command, "--mode", "quaternion", "--n", "2", "--m", "1", "--r", "0",
            "--snr-db", f"10,{value}", "--trials", "1000", "--seed", "1",
            "--out", str(out)]
    if command == "error":
        argv += ["--lattice", "hamilton"]
    assert run(argv) == 2
    assert "--snr-db" in capsys.readouterr().err
    assert not out.exists()


def test_zero_rate_below_0_db_prints_0(tmp_path):
    # r log2(rho) at r = 0 and rho < 1 is -0.0 in floats; the CSV writes 0
    out = tmp_path / "s.csv"
    assert run(["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0",
                "--snr-db=-10,0", "--trials", "1000", "--seed", "1", "--out", str(out),
                "--summary", str(tmp_path / "s.json")]) == 0
    rows = read(out).strip().split("\n")[2:]
    assert [row.split(",")[:2] for row in rows] == [["-10", "0"], ["0", "0"]]


# ---------------------------------------------------------------------------
# README

def test_readme_commands_parse():
    # every `dmtlab ...` invocation in the README's sh blocks, its backslash
    # continuations joined, is one the parser accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line, comments=True)[1:] for line in lines
             if line.startswith("dmtlab ")]
    parser = _build_parser()
    for argv in argvs:
        parser.parse_args(argv)
    assert {argv[0] for argv in argvs} == {"curves", "outage", "error", "lemma2-verify",
                                           "lattice-audit", "wishart-check"}
