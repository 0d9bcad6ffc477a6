import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crt_equidist import cli
from crt_equidist.cli import load_config
from crt_equidist.experiments import ExperimentConfig
from conftest import read_json


def listdir(path):
    return sorted(p.name for p in Path(path).iterdir())


def test_table_smoke(run_cli, tmp_path):
    out = tmp_path / "t"
    run_cli(["table", "--pseudo", "f1", "--x", "1000", "--quiet", "--out", out])
    assert listdir(out) == [
        "config.txt",
        "histogram.csv",
        "manifest.json",
        "moments.csv",
        "report.json",
        "table.txt",
    ]
    report = read_json(out / "report.json")
    assert report["kind"] == "table"
    assert report["extra"]["pi_x"] == 168
    assert sum(row[1] for row in report["rows"]) == 168
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0] == "j,value"
    assert len(lines) == 5
    assert (out / "table.txt").read_text().splitlines()[1].lstrip().startswith("empirical")


def test_sweep_smoke(run_cli, tmp_path):
    out = tmp_path / "s"
    run_cli(["sweep", "--poly", "1,0,1", "--ladder", "1000,10000",
             "--theorem", "1", "--quiet", "--out", out])
    assert listdir(out) == ["config.txt", "manifest.json", "report.csv", "report.json"]
    report = read_json(out / "report.json")
    assert report["kind"] == "sweep"
    assert len(report["rows"]) == 2
    cols = report["columns"]
    discs = [row[cols.index("avg_disc")] for row in report["rows"]]
    assert discs[1] < discs[0]
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert csv_lines[0].split(",") == cols
    assert len(csv_lines) == 3


def test_manifest_checksums(run_cli, tmp_path):
    out = tmp_path / "m"
    run_cli(["table", "--pseudo", "f2", "--x", "500", "--quiet", "--out", out])
    manifest = read_json(out / "manifest.json")
    names = [e["name"] for e in manifest["files"]]
    assert names == sorted(names)
    assert "manifest.json" not in names
    for entry in manifest["files"]:
        data = (out / entry["name"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]


def test_config_file_override_and_echo(run_cli, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# sweep settings\n"
        "poly = 1,0,1\n"
        "ladder = 100,1000\n"
        "weighting = uniform\n"
        "seed = 3\n",
        encoding="utf-8",
    )
    out1 = tmp_path / "o1"
    run_cli(["--config", cfg_file, "sweep", "--weighting", "rho", "--quiet", "--out", out1])
    echo = (out1 / "config.txt").read_text()
    assert "weighting = rho" in echo.splitlines()  # explicit flag beats the file
    assert "ladder = 100,1000" in echo.splitlines()
    # the echo itself is a valid config file and reloads to the same state
    reloaded = ExperimentConfig.from_mapping(load_config(out1 / "config.txt"))
    assert tuple(reloaded.to_lines()) == tuple(echo.splitlines())
    out2 = tmp_path / "o2"
    run_cli(["--config", out1 / "config.txt", "sweep", "--quiet", "--out", out2])
    assert (out2 / "config.txt").read_text() == echo
    assert (out2 / "report.json").read_bytes() == (out1 / "report.json").read_bytes()


def test_usage_errors(run_cli, tmp_path, capsys):
    out = tmp_path / "u"
    run_cli(["table", "--pseudo", "f1", "--quiet", "--out", out], expect=2)
    run_cli(["table", "--x", "100", "--quiet", "--out", out], expect=2)
    run_cli(["table", "--pseudo", "f1", "--poly", "0,1", "--x", "100",
             "--quiet", "--out", out], expect=2)
    run_cli(["sweep", "--poly", "1,0,1", "--theorem", "3", "--quiet", "--out", out], expect=2)
    run_cli(["disc", "--poly", "1,0,1", "--quiet", "--out", out], expect=2)
    run_cli(["expsum", "--q", "7", "--quiet", "--out", out], expect=2)
    run_cli(["expsum", "--f1", "1,0,1", "--quiet", "--out", out], expect=2)
    run_cli(["ffield", "--quiet", "--out", out], expect=2)
    run_cli(["ffield", "--curve", "2,0,1;0,1,-1", "--quiet", "--out", out], expect=2)
    run_cli(["sweep", "--ladder", "10,abc", "--quiet", "--out", out], expect=2)
    run_cli(["sweep", "--threads", "0", "--quiet", "--out", out], expect=2)
    run_cli(["sweep", "--k", "0", "--quiet", "--out", out], expect=2)
    run_cli(["sweep", "--k", "-1", "--quiet", "--out", out], expect=2)
    # table draws no random numbers, so it takes no --seed
    run_cli(["table", "--pseudo", "f1", "--x", "100", "--seed", "1", "--quiet", "--out", out], expect=2)
    # sweep has no bounds-mode search, so it takes no --seed either
    run_cli(["sweep", "--poly", "1,0,1", "--ladder", "30", "--seed", "1", "--quiet", "--out", out], expect=2)
    run_cli(["nonsense"], expect=2)
    capsys.readouterr()


def test_config_file_errors(run_cli, tmp_path, capsys):
    out = tmp_path / "c"
    run_cli(["--config", tmp_path / "absent.cfg", "sweep", "--quiet", "--out", out], expect=2)
    dup = tmp_path / "dup.cfg"
    dup.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
    run_cli(["--config", dup, "sweep", "--quiet", "--out", out], expect=2)
    assert f"{dup}:2: duplicate key 'seed'" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed\n", encoding="utf-8")
    run_cli(["--config", bad, "sweep", "--quiet", "--out", out], expect=2)
    assert f"{bad}:1:" in capsys.readouterr().err
    unk = tmp_path / "unk.cfg"
    unk.write_text("sede = 1\n", encoding="utf-8")
    run_cli(["--config", unk, "sweep", "--quiet", "--out", out], expect=2)
    assert "unknown key 'sede'" in capsys.readouterr().err


def test_threads_env(run_cli, tmp_path, monkeypatch):
    out = tmp_path / "e"
    monkeypatch.setenv("CRT_EQUIDIST_THREADS", "junk")
    run_cli(["sweep", "--poly", "0,1", "--ladder", "30", "--quiet", "--out", out], expect=2)
    monkeypatch.setenv("CRT_EQUIDIST_THREADS", "2")
    run_cli(["sweep", "--poly", "0,1", "--ladder", "30", "--quiet", "--out", out])


def test_computational_error_exit(run_cli, tmp_path, capsys):
    # A_3 is empty for X^2+1, a well-formed request with no answer
    out = tmp_path / "creq"
    run_cli(["disc", "--poly", "1,0,1", "--q", "3", "--quiet", "--out", out], expect=1)
    assert "empty" in capsys.readouterr().err
    run_cli(["table", "--poly", "1,x", "--x", "100", "--quiet", "--out", out], expect=1)
    capsys.readouterr()
    # an exact scan over budget is an error, not a sweep row without moduli
    run_cli(["sweep", "--system", "graph:1,0,1:0,0,1", "--ladder", "30", "--disc-mode", "exact",
             "--budget", "1", "--quiet", "--out", out], expect=1)
    assert "over budget" in capsys.readouterr().err
    # q = 2^40 * 8388617 is past 2^63, where the int64 CRT assembly stops
    system = tmp_path / "big.txt"
    system.write_text("2 40 1,2\n2 40 3,4\n8388617 1 5,6\n", encoding="utf-8")
    run_cli(["disc", "--system", f"file:{system}", "--q", str(2**40 * 8388617), "--disc-mode", "bounds",
             "--quiet", "--out", out], expect=1)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2^63" in err
    # q = 2^39 * 8388617 assembles, but n*H*(q-1) passes 2^63 in the Weyl
    # dot products of the Erdos-Turan bound
    system.write_text("2 39 1,2\n2 39 3,4\n8388617 1 5,6\n", encoding="utf-8")
    run_cli(["disc", "--system", f"file:{system}", "--q", str(2**39 * 8388617), "--disc-mode", "bounds",
             "--quiet", "--out", out], expect=1)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2^63" in err


def test_explicit_H_over_budget_is_refused(run_cli, tmp_path, capsys):
    # 8 points of A_1105 at H = 3000 would need (8, 36012000) complex sums
    out = tmp_path / "hb"
    run_cli(["disc", "--system", "graph:1,0,1:0,0,1", "--q", "1105", "--disc-mode", "bounds", "--H", "3000",
             "--quiet", "--out", out], expect=1)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "over budget 50000000" in err
    assert listdir(out) == ["config.txt"]
    # the exact 1-D scan takes no budget, but its spectrum.json does:
    # 4 points * (2*8 + 1) = 68 terms
    run_cli(["disc", "--poly", "1,0,1", "--q", "65", "--H", "8", "--budget", "67", "--quiet", "--out", out],
            expect=1)
    assert "over budget 67" in capsys.readouterr().err
    run_cli(["disc", "--poly", "1,0,1", "--q", "65", "--H", "8", "--budget", "68", "--quiet", "--out", out])
    assert "spectrum.json" in listdir(out)


def test_disc_bounds_automatic_H_over_budget_is_refused(run_cli, tmp_path, capsys):
    # A_65 holds 4 points, so even the smallest automatic H = 1 needs
    # 4 * (2*1 + 1)^2 = 36 terms
    args = ["disc", "--system", "graph:1,0,1:0,0,1", "--q", "65", "--disc-mode", "bounds", "--quiet"]
    out = tmp_path / "ab"
    run_cli([*args, "--budget", "35", "--out", out], expect=1)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "needs 36 terms, over budget 35" in err
    assert listdir(out) == ["config.txt"]
    run_cli([*args, "--budget", "36", "--out", out])
    assert read_json(out / "result.json")["H"] == 1


def test_spectrum_budget_advice_names_what_was_chosen(run_cli, tmp_path, capsys):
    # the automatic H is already 1 here, so only the budget can move
    out = tmp_path / "adv"
    run_cli(["disc", "--system", "graph:1,0,1:0,0,1", "--q", "65", "--disc-mode", "bounds", "--budget", "35",
             "--quiet", "--out", out], expect=1)
    err = capsys.readouterr().err
    assert "over budget 35" in err and "--budget" in err and "lower H" not in err
    run_cli(["sweep", "--system", "graph:1,0,1:0,0,1", "--ladder", "30", "--budget", "1000", "--quiet",
             "--out", out], expect=1)
    err = capsys.readouterr().err
    assert "over budget 1000" in err and "--budget" in err and "lower H" not in err
    # an explicit H is the caller's to lower
    run_cli(["disc", "--poly", "1,0,1", "--q", "65", "--H", "8", "--budget", "67", "--quiet", "--out", out],
            expect=1)
    assert "over budget 67; lower H" in capsys.readouterr().err
    run_cli(["sweep", "--system", "graph:1,0,1:0,0,1", "--ladder", "30", "--H", "2", "--budget", "10",
             "--quiet", "--out", out], expect=1)
    assert "over budget 10; lower H" in capsys.readouterr().err


def test_sweep_et_spectrum_over_budget_is_refused(run_cli, tmp_path, capsys):
    # at x = 30 the automatic H is 48 and the largest A_q holds 2 points,
    # so the largest spectrum has 2 * (2*48 + 1)^2 = 18818 terms
    args = ["sweep", "--system", "graph:1,0,1:0,0,1", "--ladder", "30", "--quiet"]
    out = tmp_path / "sb"
    run_cli([*args, "--budget", "1000", "--out", out], expect=1)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "over budget 1000" in err
    assert listdir(out) == ["config.txt"]
    run_cli([*args, "--budget", "18817", "--out", out], expect=1)
    assert "needs 18818 terms, over budget 18817" in capsys.readouterr().err
    run_cli([*args, "--budget", "18818", "--out", out])
    report = read_json(out / "report.json")
    assert report["rows"][0][report["columns"].index("method")] == "erdos_turan"


def test_sweep_ladder_below_3_is_a_usage_error(run_cli, tmp_path, capsys):
    for i, ladder in enumerate(("2", "2,5")):
        out = tmp_path / f"low{i}"
        run_cli(["sweep", "--poly", "1,0,1", "--ladder", ladder, "--quiet", "--out", out], expect=2)
        assert "sweep ladder points must be >= 3, got 2" in capsys.readouterr().err
        assert listdir(out) == ["config.txt"]
    # the counterexample contrast takes no theorem bound and keeps x = 1, 2
    for ladder in ("1", "2"):
        run_cli(["counterexample", "--ladder", ladder, "--quiet", "--out", tmp_path / f"ce{ladder}"])


def test_table_refuses_root_count_limit(run_cli, tmp_path, capsys):
    # refused before the sieve, so no report and no long pass
    out = tmp_path / "big"
    run_cli(["table", "--pseudo", "f1", "--x", "33554432", "--quiet", "--out", out], expect=1)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "below 2^25 = 33554432" in err
    assert listdir(out) == ["config.txt"]


def test_disc_outputs(run_cli, tmp_path):
    out = tmp_path / "d"
    run_cli(["disc", "--poly", "1,0,1", "--q", "65", "--H", "8", "--quiet", "--out", out])
    assert listdir(out) == ["config.txt", "manifest.json", "result.json", "spectrum.json"]
    result = read_json(out / "result.json")
    assert result["method"] == "exact"
    assert result["q"] == 65
    assert result["rho"] == 4
    assert result["value"] == pytest.approx(29 / 65, abs=1e-15)
    assert result["witness"]["deviation"] == "116/260"
    spectrum = read_json(out / "spectrum.json")
    assert spectrum["q"] == 65 and spectrum["H"] == 8
    assert len(spectrum["value"]) == 16
    for freq, re, im in spectrum["value"]:
        assert freq[0] != 0 and math.hypot(re, im) <= 1 + 1e-12
    out2 = tmp_path / "d2"
    run_cli(["disc", "--poly", "1,0,1", "--q", "65", "--quiet", "--out", out2])
    assert "spectrum.json" not in listdir(out2)


def test_disc_past_int64_rows(run_cli, tmp_path):
    # q = 5000000029 is a prime = 1 mod 4 past the int64 rows of the root
    # finder for X^2 + 1, so its two roots come from Python-int rows
    q = 5000000029
    out = tmp_path / "dq"
    run_cli(["disc", "--poly", "1,0,1", "--q", str(q), "--quiet", "--out", out])
    result = read_json(out / "result.json")
    assert result["q"] == q and result["rho"] == 2
    for end in result["witness"]["closed_arc"]:
        num, den = map(int, end.split("/"))
        assert den == q and (num * num + 1) % q == 0


def test_coefficients_past_int64(run_cli, tmp_path):
    # each coefficient is reduced mod the modulus before it meets an array
    reports = []
    for name, f1 in (("big", "100000000000000000000,1"), ("small", f"{10**20 % 7},1")):
        run_cli(["expsum", "--f1", f1, "--f2", "0,1", "--q", "7", "--quiet", "--out", tmp_path / name])
        reports.append(read_json(tmp_path / name / "report.json")["rows"])
    c = -100000000000000000017
    for name, const in (("ffbig", c), ("ffsmall", c % (101 * 211))):
        run_cli(["ffield", "--curve", f"0,2,1;3,0,-1;0,0,{const}", "--p-set", "101,211",
                 "--quiet", "--out", tmp_path / name])
        reports.append(read_json(tmp_path / name / "report.json")["rows"])
    assert reports[0] == reports[1] and reports[2] == reports[3]
    assert len(reports[0]) == 1 and len(reports[2]) == 2


def test_expsum_outputs(run_cli, tmp_path):
    out = tmp_path / "x1"
    run_cli(["expsum", "--f1", "1,0,1", "--f2", "0,1", "--a", "1", "--q", "35",
             "--quiet", "--out", out])
    report = read_json(out / "report.json")
    assert report["kind"] == "expsum"
    row = dict(zip(report["columns"], report["rows"][0]))
    assert row["a"] == 1 and row["q"] == 35
    assert row["abs"] == pytest.approx(math.hypot(row["re"], row["im"]))
    out2 = tmp_path / "x2"
    run_cli(["expsum", "--f1", "1,0,1", "--f2", "0,1", "--p-limit", "100",
             "--quiet", "--out", out2])
    scan = read_json(out2 / "report.json")
    assert scan["kind"] == "expsum-scan"
    assert scan["extra"]["global_max"] <= 2 + 1e-9
    assert len(scan["rows"]) == 25


def test_ffield_outputs(run_cli, tmp_path):
    out = tmp_path / "ff"
    run_cli(["ffield", "--curve", "2,0,1;0,1,-1", "--p-set", "101,211",
             "--h-set", "1,2", "--quiet", "--out", out])
    report = read_json(out / "report.json")
    assert report["kind"] == "ffield"
    assert len(report["rows"]) == 4
    for raw in report["rows"]:
        row = dict(zip(report["columns"], raw))
        assert row["c2_abs"] == pytest.approx(1 / math.sqrt(row["p"]), abs=1e-12)
    assert report["extra"]["fitted_exponent"] == pytest.approx(-0.5, abs=1e-9)


def test_primes_outputs(run_cli, tmp_path):
    out = tmp_path / "pr"
    run_cli(["primes", "--poly", "0,1", "--x", "100", "--h-set", "1,2",
             "--quiet", "--out", out])
    report = read_json(out / "report.json")
    assert report["kind"] == "primes"
    for raw in report["rows"]:
        row = dict(zip(report["columns"], raw))
        assert row["plain_abs"] == 1.0
    assert report["extra"]["supported_primes"] == report["extra"]["pi_x"] == 25


def test_timing_line(run_cli, tmp_path, capsys):
    out = tmp_path / "tl"
    run_cli(["sweep", "--poly", "0,1", "--ladder", "30", "--out", out])
    assert "wrote" in capsys.readouterr().err
    run_cli(["sweep", "--poly", "0,1", "--ladder", "30", "--quiet", "--out", out])
    assert capsys.readouterr().err == ""


def test_thread_determinism(run_cli, tmp_path):
    outs = []
    for name, threads in (("th1", "1"), ("th8", "8")):
        out = tmp_path / name
        run_cli(["table", "--pseudo", "f1", "--x", "30000",
                 "--threads", threads, "--quiet", "--out", out])
        outs.append(out)
    a, b = outs
    assert listdir(a) == listdir(b)
    for name in listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_sweep_leaves_numpy_random_unloaded(tmp_path):
    # importing numpy.random adds about 2.6 MB to the peak RSS of a run, so
    # the root finder draws its splitting constants from the stdlib; numpy.ma,
    # which np.unique imports, is kept out the same way
    script = (
        "import sys; from crt_equidist import cli; cli.main(sys.argv[1:]); "
        "print('numpy.random' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    args = ["sweep", "--poly", "1,0,1", "--ladder", "2000", "--quiet", "--out", str(tmp_path / "s")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "False"]
    assert (tmp_path / "s" / "report.json").exists()


def test_disc_bounds_builds_its_spectrum_once(run_cli, tmp_path, monkeypatch):
    from crt_equidist import analysis

    build, calls = analysis.weyl_spectrum, []

    def counting(source, H):
        calls.append(H)
        return build(source, H)

    monkeypatch.setattr(analysis, "weyl_spectrum", counting)
    out = tmp_path / "once"
    run_cli(["disc", "--system", "graph:1,0,1:0,0,1", "--q", "1105", "--disc-mode", "bounds", "--H", "8",
             "--quiet", "--out", out])
    assert calls == [8]
    # the SHA-256 of both files as the program wrote them when it built the
    # spectrum a second time for spectrum.json
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("result.json", "spectrum.json")}
    assert digests == {
        "result.json": "3cad14c1a9c15aad031b8c20789161ebc751fa1b2bb2b158dc293db4022e1cf9",
        "spectrum.json": "0da5e1a31a7e0a34b77891ec94e99c21651ae5fcd61c1c5158faf84ce4ab1289",
    }
    # exact mode needs no spectrum for its value, so spectrum.json builds one
    calls.clear()
    run_cli(["disc", "--system", "graph:1,0,1:0,0,1", "--q", "65", "--disc-mode", "exact", "--H", "2",
             "--quiet", "--out", tmp_path / "exact"])
    assert calls == [2]
