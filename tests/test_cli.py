import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from secrecy_lab import cli, oracles
from secrecy_lab.acceptance import CheckResult
from secrecy_lab.channel import SystemConfig
from secrecy_lab.oracles import mc_moments
from secrecy_lab.sop import sop


def _write_config(path, **overrides):
    doc = {
        "base": {"K": 2, "N": 2, "M_D": 2, "M_E": 2, "lambda_E_dB": 5.0,
                 "zeta": 1.0, "R_th": 1.0, "scheme": "SS", "knowledge": "KA"},
        "axis_values": [0, 10, 20],
        "variants": [{}, {"scheme": "OS"}],
        "outputs": ["sop_exact", "esr_exact"],
        "trials": 10000,
        "seed": 1,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _rows(csv_path):
    header, *lines = csv_path.read_text(encoding="utf-8").splitlines()
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines]


class TestRun:
    def test_round_trip_reproduces_values_exactly(self, tmp_path):
        config = _write_config(tmp_path / "sweep.json")
        out = tmp_path / "out.csv"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        rows = _rows(out)
        assert len(rows) == 6  # 2 variants x 3 axis points
        probe = rows[4]  # OS variant, 10 dB
        cfg = SystemConfig(K=2, N=2, M_D=2, M_E=2, lambda_D=10.0,
                           lambda_E=10.0 ** 0.5, zeta=1.0, R_th=1.0,
                           scheme="OS", knowledge="KA")
        assert float(probe["sop_exact"]) == sop(cfg).value
        assert probe["variant_id"] == "v1"
        assert float(probe["lambda_D_dB"]) == 10.0

    def test_byte_deterministic_across_runs_and_threads(self, tmp_path):
        config = _write_config(tmp_path / "sweep.json",
                               outputs=["sop_exact", "mc"])
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        cli.main(["run", "--config", str(config), "--out", str(a)])
        cli.main(["run", "--config", str(config), "--out", str(b)])
        cli.main(["run", "--config", str(config), "--out", str(c),
                  "--threads", "4"])
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mc_cells_of_two_shapes_equal_a_pass_per_row(self, tmp_path,
                                                          monkeypatch, threads):
        # rows of two (K, N, M_D, M_E) shapes share one Monte Carlo call
        config = _write_config(tmp_path / "sweep.json", outputs=["mc"],
                               trials=70000,
                               variants=[{}, {"K": 3, "N": 1, "scheme": "OS"},
                                         {"knowledge": "KU", "zeta": 0.5}])
        out = tmp_path / "out.csv"
        monkeypatch.delenv("SECRECY_LAB_SEED", raising=False)
        assert cli.main(["run", "--config", str(config), "--out", str(out),
                         "--threads", threads]) == 0
        spec = cli.load_sweep_spec(str(config))
        for row, (_vid, cfg, _db) in zip(_rows(out), spec.rows(), strict=True):
            ((sop_est, esr_est),) = mc_moments([cfg], spec.trials, spec.seed)
            assert float(row["mc_sop"]) == sop_est.mean
            assert float(row["mc_sop_stderr"]) == sop_est.stderr
            assert float(row["mc_esr"]) == esr_est.mean
            assert float(row["mc_esr_stderr"]) == esr_est.stderr

    def test_empty_variants_sweeps_the_base(self, tmp_path):
        config = _write_config(tmp_path / "sweep.json", variants=[])
        out = tmp_path / "out.csv"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        rows = _rows(out)
        assert len(rows) == 3
        assert {r["variant_id"] for r in rows} == {"v0"}

    def test_strict_passes_on_consistent_outputs(self, tmp_path):
        config = _write_config(tmp_path / "sweep.json",
                               outputs=["sop_exact", "quad"],
                               axis_values=[10])
        out = tmp_path / "out.csv"
        code = cli.main(["run", "--config", str(config), "--out", str(out),
                         "--strict"])
        assert code == 0

    def test_svg_emission(self, tmp_path):
        config = _write_config(tmp_path / "sweep.json")
        out = tmp_path / "out.csv"
        svg_dir = tmp_path / "plots"
        cli.main(["run", "--config", str(config), "--out", str(out),
                  "--svg", str(svg_dir)])
        files = sorted(os.listdir(svg_dir))
        assert files == ["v0.svg", "v1.svg"]
        body = (svg_dir / "v0.svg").read_text(encoding="utf-8")
        assert "<svg" in body and "polyline" in body


class TestValidation:
    def test_corrupt_zeta_names_the_field(self, tmp_path, capsys):
        config = _write_config(tmp_path / "bad.json")
        doc = json.loads(config.read_text())
        doc["base"]["zeta"] = 1.4
        config.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "zeta" in capsys.readouterr().err

    def test_unknown_output_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path / "bad.json", outputs=["sop_exact", "esr"])
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "outputs" in capsys.readouterr().err

    def test_axis_must_increase(self, tmp_path, capsys):
        config = _write_config(tmp_path / "bad.json", axis_values=[10, 10])
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "axis_values" in capsys.readouterr().err

    def test_unknown_variant_override_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path / "bad.json",
                               variants=[{"lambda_E_dB": 3.0}])
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "variants[0]" in capsys.readouterr().err

    def test_low_trial_count_with_mc_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path / "bad.json", outputs=["mc"], trials=100)
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "trials" in capsys.readouterr().err

    def test_low_trial_count_rejected_by_compare(self, tmp_path, capsys):
        # compare adds the Monte Carlo output the config does not ask for
        config = _write_config(tmp_path / "bad.json", trials=100)
        assert cli.main(["compare", "--config", str(config)]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, field", [
        (("base", "zeta"), "abc", "zeta"),
        (("base", "zeta"), None, "zeta"),
        (("base", "zeta"), True, "zeta"),
        (("base", "R_th"), "1.5", "R_th"),
        (("base", "lambda_D_dB"), math.inf, "lambda_D_dB"),
        (("base", "lambda_E_dB"), -math.inf, "lambda_E_dB"),
        (("variants", 1, "zeta"), "abc", "variants[1].zeta"),
        (("variants", 1, "zeta"), math.nan, "variants[1].zeta"),
        (("axis_values", 1), math.nan, "axis_values[1]"),
        (("axis_values", 2), math.inf, "axis_values[2]"),
        # finite, but 0 or past the double range in linear scale
        (("base", "lambda_D_dB"), 4000, "lambda_D_dB"),
        (("base", "lambda_D_dB"), -4000, "lambda_D_dB"),
        (("base", "lambda_E_dB"), 4000, "lambda_E_dB"),
        (("base", "lambda_E_dB"), -4000, "lambda_E_dB"),
        (("axis_values", 0), -4000, "axis_values[0]"),
        (("axis_values", 2), 4000, "axis_values[2]"),
    ])
    def test_bad_number_names_the_field(self, tmp_path, capsys, path, value,
                                        field):
        config = _write_config(tmp_path / "bad.json")
        doc = json.loads(config.read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        config.write_text(json.dumps(doc))  # NaN and Infinity as JSON allows
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert f"{field}: expected a finite number" in capsys.readouterr().err


def test_threshold_past_the_double_range_is_a_config_error(tmp_path, capsys):
    # 2^R_th used to overflow and surface as an unnamed numeric error
    config = _write_config(tmp_path / "bad.json")
    doc = json.loads(config.read_text())
    doc["base"]["R_th"] = 2000.0
    config.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error: R_th must be" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_an_impossible_exact_rate_is_a_numeric_error_naming_the_row(tmp_path, capsys):
    # OS K=N=M=3 at 10 dB: the exact terms sum past the Jensen bound
    config = _write_config(
        tmp_path / "sweep.json", axis_values=[10], variants=[], outputs=["esr_exact"],
        base={"K": 3, "N": 3, "M_D": 3, "M_E": 3, "lambda_E_dB": 5.0, "zeta": 0.9,
              "R_th": 1.0, "scheme": "OS", "knowledge": "KA"})
    out = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric error: row v0 (OS/KA K=3 N=3 M_D=3 M_E=3 zeta=0.9 "), err
    assert "exceeds the bound log2(1 + K*M_D*lambda_D)" in err
    assert not out.exists()


def test_an_underflowed_term_integral_is_a_numeric_error_naming_the_row(tmp_path, capsys):
    # at 2000 dB the one exact term's integral underflows to 0.0; the rate
    # read 0.0 without a word
    config = _write_config(
        tmp_path / "sweep.json", axis_values=[2000], variants=[], outputs=["esr_exact"],
        base={"K": 1, "N": 1, "M_D": 1, "M_E": 2, "lambda_E_dB": 10.0, "zeta": 1.0,
              "R_th": 1.0, "scheme": "SS", "knowledge": "KA"})
    out = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric error: row v0 (SS/KA K=1 N=1 M_D=1 M_E=2 zeta=1 "), err
    assert "exact rate: the integral of the term shape" in err
    assert "is 0.0, outside the double range" in err
    assert not out.exists()


def test_an_underflowed_pole_location_is_a_numeric_error_naming_the_row(tmp_path, capsys):
    # at -3230 dB the pole lambda_D/lambda_E underflows to 0.0, which used to
    # raise a ValueError out of main
    config = _write_config(
        tmp_path / "sweep.json", axis_values=[-3230], variants=[], outputs=["sop_exact"],
        base={"K": 1, "N": 1, "M_D": 1, "M_E": 1, "lambda_E_dB": 10.0, "zeta": 1.0,
              "R_th": 1.0, "scheme": "SS", "knowledge": "KA"})
    out = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric error: row v0 (SS/KA K=1 N=1 M_D=1 M_E=1 zeta=1 "), err
    assert "pole location 1 * lambda_D / lambda_E = 0.0" in err
    assert not out.exists()


def test_a_quadrature_failure_is_a_numeric_error_naming_the_row(tmp_path, capsys,
                                                                 monkeypatch):
    # a quadrature that cannot reach its tolerance used to raise out of main
    monkeypatch.setattr(oracles, "_ABS_TOL", 1e-14)
    monkeypatch.setattr(oracles, "_REL_TOL", 1e-14)
    monkeypatch.setattr(oracles, "_MAX_SUBDIVISIONS", 1)
    config = _write_config(
        tmp_path / "sweep.json", axis_values=[10], variants=[], outputs=["quad"],
        base={"K": 3, "N": 3, "M_D": 2, "M_E": 2, "lambda_E_dB": 5.0, "zeta": 1.0,
              "R_th": 1.0, "scheme": "SS", "knowledge": "KA"})
    out = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric error: row v0 (SS/KA K=3 N=3 M_D=2 M_E=2 zeta=1 "), err
    assert "tail quadrature failed to reach tolerance" in err
    assert not out.exists()


def test_a_destination_far_below_the_eavesdroppers_is_a_certain_outage(tmp_path):
    # -200 dB at R_th = 0: the float term sum leaves the band, the exact one
    # does not
    config = _write_config(
        tmp_path / "sweep.json", axis_values=[-200], variants=[], outputs=["sop_exact"],
        base={"K": 1, "N": 2, "M_D": 2, "M_E": 2, "lambda_E_dB": 0.0, "zeta": 0.9,
              "R_th": 0.0, "scheme": "SS", "knowledge": "KA"})
    out = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert [row["sop_exact"] for row in _rows(out)] == ["1"]


class TestThreads:
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_below_one_is_a_usage_error(self, tmp_path, capsys, command,
                                        threads):
        # these used to run serially without a word
        config = _write_config(tmp_path / "sweep.json")
        argv = [command, "--config", str(config), "--threads", threads]
        if command == "run":
            argv += ["--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "--threads: expected a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


_HEAVY = ("numpy", "scipy", "mpmath")


def _heavy_modules_after(code: str, modules: tuple = _HEAVY) -> list[str]:
    """The given modules a fresh interpreter has loaded after running code."""
    probe = (f"{code}\nimport sys\n"
             f"print(','.join(m for m in {modules!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, timeout=300,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    last = out.stdout.splitlines()[-1]
    return last.split(",") if last else []


def _cli_run(config, out) -> str:
    return (f"from secrecy_lab import cli\n"
            f"assert cli.main(['run', '--config', {str(config)!r}, "
            f"'--out', {str(out)!r}, '--threads', '1']) == 0")


class TestImportHygiene:
    # numpy, scipy and mpmath load on the first oracle call or precision
    # fallback; a closed-form process needs only the standard library
    def test_importing_the_cli_loads_none(self):
        assert _heavy_modules_after("import secrecy_lab.cli") == []

    def test_importing_the_cli_loads_no_logging_or_thread_pool(self):
        # esr imports logging on its sub-floor-rate warning and mc_moments
        # imports concurrent.futures for more than one thread
        assert _heavy_modules_after("import secrecy_lab.cli",
                                    ("logging", "concurrent.futures")) == []

    def test_closed_form_run_loads_none(self, tmp_path):
        config = _write_config(tmp_path / "sweep.json",
                               outputs=["sop_exact", "esr_exact", "esr_high_snr"])
        out = tmp_path / "out.csv"
        assert _heavy_modules_after(_cli_run(config, out)) == []
        assert len(_rows(out)) == 6

    def test_oracle_run_loads_numpy_and_scipy(self, tmp_path):
        config = _write_config(tmp_path / "sweep.json", outputs=["quad", "mc"],
                               axis_values=[10], variants=[])
        out = tmp_path / "out.csv"
        loaded = _heavy_modules_after(_cli_run(config, out))
        assert {"numpy", "scipy"} <= set(loaded)
        (row,) = _rows(out)
        assert 0.0 < float(row["quad_sop"]) < 1.0
        assert 0.0 < float(row["mc_esr"])


# sha256 of `run --threads 1` on perfbench/configs/closed_ladder.json (13
# cold shapes up to K, N, M = 4), re-derived once when the closed-form sums
# came to be exactly rounded by math.fsum (from the earlier code's term
# values, summed that way). It pins bits, not correctness: three OS M >= 3
# esr_exact cells are off quadrature, and ROADMAP item 1 will move them and
# this pin.
LADDER_CSV_SHA256 = "208e2d5a7717221fce421045eedbd416c2b2560a2fb29121a730e5b1a96fc46e"


def test_closed_ladder_csv_keeps_its_bits(tmp_path):
    config = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "perfbench", "configs", "closed_ladder.json")
    out = tmp_path / "ladder.csv"
    # a fresh process, so the pin covers the cold path the benchmark times
    subprocess.run([sys.executable, "-c", _cli_run(config, out)], check=True,
                   timeout=300, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LADDER_CSV_SHA256


class TestSeedPrecedence:
    def test_env_overrides_config_and_flag_overrides_env(self, tmp_path,
                                                         monkeypatch):
        config = _write_config(tmp_path / "sweep.json", outputs=["mc"],
                               axis_values=[10], variants=[])
        base, env, flag = (tmp_path / n for n in ("base.csv", "env.csv",
                                                  "flag.csv"))
        monkeypatch.delenv("SECRECY_LAB_SEED", raising=False)
        cli.main(["run", "--config", str(config), "--out", str(base)])
        monkeypatch.setenv("SECRECY_LAB_SEED", "777")
        cli.main(["run", "--config", str(config), "--out", str(env)])
        cli.main(["run", "--config", str(config), "--out", str(flag),
                  "--seed", "1"])
        assert env.read_bytes() != base.read_bytes()
        assert flag.read_bytes() == base.read_bytes()

    @pytest.mark.parametrize("seed", [str(-1), str(2 ** 64)])
    def test_out_of_range_flag_seed_is_a_config_error(self, tmp_path, capsys,
                                                      seed):
        config = _write_config(tmp_path / "sweep.json", outputs=["mc"])
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "x.csv"), "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_env_seed_is_a_config_error(self, tmp_path, monkeypatch,
                                            capsys):
        config = _write_config(tmp_path / "sweep.json")
        monkeypatch.setenv("SECRECY_LAB_SEED", "not-a-number")
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "SECRECY_LAB_SEED" in capsys.readouterr().err


class TestCompare:
    def test_report_and_summary(self, tmp_path, capsys):
        config = _write_config(tmp_path / "cmp.json", axis_values=[10, 20],
                               variants=[], trials=50000)
        assert cli.main(["compare", "--config", str(config)]) == 0
        output = capsys.readouterr().out
        lines = [l for l in output.splitlines() if l]
        summary_line = [l for l in lines if l.startswith("SUMMARY ")][-1]
        summary = json.loads(summary_line[len("SUMMARY "):])
        assert summary["passed"] is True
        assert summary["rows"] == 2
        assert summary["max_sop_quad_delta"] <= 1e-6
        # zeta=1 sweep: decay slope reported next to the design order
        diversity = [l for l in lines if l.startswith("diversity ")]
        assert len(diversity) == 1
        assert "K*M_D = 4" in diversity[0]

    def test_a_failing_row_does_not_mark_a_row_named_by_its_prefix(
            self, tmp_path, capsys, monkeypatch):
        # "v0 lambda_D_dB=2" is a prefix of the failing "v0 lambda_D_dB=20"
        evaluate_row = cli._evaluate_row

        def planted(variant_id, cfg, axis_db, spec):
            row = evaluate_row(variant_id, cfg, axis_db, spec)
            if axis_db == 20:
                row["sop_exact"] += 1e-3
            return row
        monkeypatch.setattr(cli, "_evaluate_row", planted)
        config = _write_config(tmp_path / "cmp.json", axis_values=[2, 20],
                               variants=[])
        assert cli.main(["compare", "--config", str(config)]) == 1
        status = {line.split(":")[0]: line.split()[-1]
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("v0 ")}
        assert status == {"v0 lambda_D_dB=2": "ok", "v0 lambda_D_dB=20": "FAIL"}


class TestSelftestWiring:
    def test_reports_each_check_and_reflects_failures(self, capsys,
                                                      monkeypatch):
        fake = [CheckResult("alpha", True, "fine"),
                CheckResult("beta", False, "broken")]
        import secrecy_lab.acceptance as acceptance
        monkeypatch.setattr(acceptance, "run_all", lambda quick: fake)
        assert cli.main(["selftest", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "[PASS] alpha" in out
        assert "[FAIL] beta" in out
        assert "1/2 checks passed" in out

    def test_run_has_no_selftest_alias(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--selftest"])
        assert info.value.code == 2
