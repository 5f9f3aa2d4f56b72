import json
from pathlib import Path

import pytest

from dmtlab import dmt, sim
from dmtlab.cli import run


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
    (["curves", "--n", "2", "--m", "1", "--step", "1e-9"], "--step"),
    (["curves", "--n", "2", "--m", "1", "--step", "1e-320"], "--step"),
    (["lemma2-verify", "--qmax", "3", "--lmax", "3", "--sstep", "0.5",
      "--gridstep", "0.0001"], "--gridstep")])
def test_grid_size_exit_2(argv, flag, capsys):
    # the benchmark's Lemma-2 grid (gridstep 0.02 at lmax 4: 316,251 rows of
    # 4) fits the cap; these grids would need gigabytes
    assert 316_251 * 4 <= dmt.GRID_CAP
    assert run(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("qmax,lmax,sstep,code", [
    ("1", "1", "1e-300", 2), ("1", "1", "5e-324", 2), ("10000000000", "1", "1", 2),
    ("10000000000", "10000000000", "1", 2),
    ("1", "10000000000", "1", 0)])  # an l above qmax has no case and is never visited
def test_lemma2_case_count(qmax, lmax, sstep, code, capsys):
    # counted before the first case: s += 1e-300 would never pass l = 1
    assert run(["lemma2-verify", "--qmax", qmax, "--lmax", lmax, "--sstep", sstep,
                "--gridstep", "0.5"]) == code
    out, err = capsys.readouterr()
    assert ("--sstep/--qmax/--lmax" in err) == (code == 2)
    assert code == 2 or "all 2 cases within tolerance" in out
    # the benchmark's sweep (qmax 6, lmax 4, sstep 0.25) has 178 cases
    assert 178 <= dmt.CASE_CAP


@pytest.mark.parametrize("qmax,lmax", [("0", "3"), ("3", "0"), ("0", "0"), ("-2", "1")])
def test_lemma2_empty_sweep_exit_2(qmax, lmax, capsys):
    # a verification with no case to check must not report success
    assert run(["lemma2-verify", "--qmax", qmax, "--lmax", lmax, "--sstep", "0.5",
                "--gridstep", "0.5"]) == 2
    out, err = capsys.readouterr()
    assert "--qmax/--lmax" in err and "within tolerance" not in out


def test_grid_size_patched_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(dmt, "GRID_CAP", 1000)
    assert run(["curves", "--n", "2", "--m", "1", "--step", "0.01"]) == 0
    assert run(["curves", "--n", "2", "--m", "1", "--step", "0.001"]) == 2
    assert "--step" in capsys.readouterr().err
    assert run(["lemma2-verify", "--qmax", "3", "--lmax", "3", "--sstep", "0.5",
                "--gridstep", "0.05"]) == 2
    assert "--gridstep" in capsys.readouterr().err


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


@pytest.mark.parametrize("trials", ["2.7,3000.9", "3000.5", "1e5,x"])
def test_fractional_trials_exit_2(trials, tmp_path, capsys):
    out = tmp_path / "e.csv"
    rc = run(["error", "--mode", "quaternion", "--lattice", "hamilton", "--n", "2",
              "--m", "1", "--r", "0", "--snr-db", "10,14", "--trials", trials,
              "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,config", [
    (["--snr-db", ""], {}),
    (["--snr-db", "10,x"], {}),
    ([], {"snr-db": ["a"]})], ids=["empty", "not-a-number", "config-list"])
def test_bad_snr_db_exit_2(flag, config, tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"mode": "real", "n": 2, "m": 1, "r": 0.5,
                                   "trials": 100, "seed": 1, **config}), encoding="utf-8")
    assert run(["outage", "--config", str(cfgfile)] + flag) == 2
    assert "--snr-db" in capsys.readouterr().err


def test_one_trials_entry_serves_every_point(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"mode": "real", "n": 2, "m": 1, "r": 0.5,
                                   "snr-db": [10.0, 20.0], "trials": [1000], "seed": 1}),
                       encoding="utf-8")
    out = tmp_path / "o.csv"
    assert run(["outage", "--config", str(cfgfile), "--out", str(out),
                "--summary", str(tmp_path / "o.json")]) == 0
    rows = read(out).strip().split("\n")[2:]
    assert [row.split(",")[2] for row in rows] == ["1000", "1000"]


def test_outage_requires_seed(capsys):
    rc = run(["outage", "--mode", "real", "--n", "2", "--m", "1", "--r", "0.5",
              "--snr-db", "10", "--trials", "100"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_outage_config_file(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"mode": "real", "n": 2, "m": 1, "r": 0.5,
                                   "snr-db": [10.0, 16.0], "trials": 2000,
                                   "seed": 4}), encoding="utf-8")
    out = tmp_path / "o.csv"
    rc = run(["outage", "--config", str(cfgfile), "--out", str(out),
              "--summary", str(tmp_path / "s.json")])
    assert rc == 0
    assert "# seed=4 " in read(out)


def test_outage_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"mode": "real", "n": 2, "m": 1, "r": 0.5,
                                   "snr-db": [10.0], "trials": 1000, "seed": 4}),
                       encoding="utf-8")
    out = tmp_path / "o.csv"
    rc = run(["outage", "--config", str(cfgfile), "--seed", "9",
              "--out", str(out), "--summary", str(tmp_path / "s.json")])
    assert rc == 0
    assert "# seed=9 " in read(out)


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


def test_config_unknown_mode_exit_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"mode": "banana", "n": 2, "m": 1, "r": 0.5,
                                   "snr-db": [10.0], "trials": 100, "seed": 4}),
                       encoding="utf-8")
    assert run(["outage", "--config", str(cfgfile)]) == 2
    assert "banana" in capsys.readouterr().err


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
    path.write_text(json.dumps(lat.lattice_to_json(lat.build_split_order())),
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


@pytest.mark.parametrize("command", ["outage", "error"])
@pytest.mark.parametrize("payload", ["[1, 2]", '"x"', "3", "null"])
def test_config_not_an_object_exit_2(command, payload, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(payload, encoding="utf-8")
    assert run([command, "--config", str(cfg)]) == 2
    assert "--config must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["outage", "--mode", "real", "--n", "40", "--m", "20", "--r", "0",
      "--snr-db", "10,20", "--trials", "1000000", "--seed", "1"], "--n/--m"),
    (["wishart-check", "--mode", "real", "--n", "2", "--m", "1",
      "--samples", "100000000", "--seed", "1"], "--samples")])
def test_monte_carlo_array_budget_exit_2(argv, flag, capsys):
    # the benchmark's largest chunk (100k rows of 2 x 2 lifted complex
    # blocks) fits the budget; these inputs need gigabytes and are
    # rejected before any draw
    assert 100_000 * 64 <= sim.ARRAY_BUDGET_BYTES
    assert run(argv) == 2
    assert flag in capsys.readouterr().err


# ---------------------------------------------------------------------------
# lemma2-verify / lattice-audit / wishart-check

def test_lemma2_verify(capsys):
    rc = run(["lemma2-verify", "--qmax", "4", "--lmax", "3",
              "--sstep", "0.25", "--gridstep", "0.02"])
    assert rc == 0
    assert "within tolerance" in capsys.readouterr().out


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

def test_unknown_command_exit_2():
    assert run(["frobnicate"]) == 2


def test_unwritable_output_exit_3():
    rc = run(["curves", "--n", "4", "--m", "2",
              "--out", "/nonexistent-dir/x.csv"])
    assert rc == 3


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
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_snr_exit_2(command, value, tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = [command, "--mode", "quaternion", "--n", "2", "--m", "1", "--r", "0",
            "--snr-db", f"10,{value}", "--trials", "1000", "--seed", "1",
            "--out", str(out)]
    if command == "error":
        argv += ["--lattice", "hamilton"]
    assert run(argv) == 2
    assert "--snr-db" in capsys.readouterr().err
    assert not out.exists()
