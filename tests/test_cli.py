import hashlib
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sbfmc
from sbfmc import cli, rates
from sbfmc.cli import ConfigError, main, parse_config
from sbfmc.schemes import SCHEMES


def run_cli(tmp_path, command, config_text, seed=None, name="exp.cfg"):
    cfg_path = tmp_path / name
    cfg_path.write_text(config_text)
    out_path = tmp_path / f"{command}.csv"
    argv = [command, "--config", str(cfg_path), "--out", str(out_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out_path.read_text() if out_path.exists() else ""


def rows_of(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestConfigParsing:
    def test_defaults_and_lists(self):
        cfg = parse_config("n = 4\npower_db = 0, 2, 4\nschemes = mc, gauss_sbf\n")
        assert cfg.n == 4
        assert cfg.power_db == [0.0, 2.0, 4.0]
        assert cfg.schemes == ["mc", "gauss_sbf"]

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nm = 8  # trailing\n")
        assert cfg.m == 8

    def test_unknown_key(self):
        # output is no key: --out names the CSV file
        for text in ("bogus = 1\n", "output = x.csv\n"):
            with pytest.raises(ConfigError):
                parse_config(text)

    def test_unsorted_power_grid(self):
        with pytest.raises(ConfigError):
            parse_config("power_db = 4, 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("just some text\n")


class TestGaps:
    CFG = "schemes = gauss_sbf, ellip_sbf, ellip_sbf_alamouti\npower_db = 20, 40, 60\nrank = 3\n"

    def test_schema_and_limits(self, tmp_path):
        code, text = run_cli(tmp_path, "gaps", self.CFG)
        assert code == 0
        header, rows = rows_of(text)
        assert header == ["scheme", "rank", "rho_min", "P_dB", "gap_nats", "limit",
                          "delta_to_limit"]
        # limit column comes from the exact rationals
        ea = [r for r in rows if r["scheme"] == "ellip_sbf_alamouti"]
        assert ea and all(
            abs(float(r["limit"]) - SCHEMES["ellip_sbf_alamouti"].rate.gap_limit(3)) < 1e-15
            for r in ea
        )
        assert abs(float(ea[0]["limit"]) - 0.18472104466522343) < 1e-15

    def test_gauss_converges_at_high_power(self, tmp_path):
        code, text = run_cli(tmp_path, "gaps", "schemes = gauss_sbf\npower_db = 60\n")
        _, rows = rows_of(text)
        assert abs(float(rows[0]["delta_to_limit"])) <= 1e-4

    def test_rank_one_elliptic_gap_zero(self, tmp_path):
        code, text = run_cli(
            tmp_path, "gaps", "schemes = ellip_sbf\nrank = 1\npower_db = 0, 20, 40\n"
        )
        _, rows = rows_of(text)
        assert all(float(r["gap_nats"]) == 0.0 for r in rows)


class TestVerify:
    CFG = (
        "schemes = gauss_sbf, ellip_sbf, gauss_sbf_alamouti, ellip_sbf_alamouti, bingham_phi\n"
        "power_db = 0, 10\nrank = 3\nn_samples = 20000\nseed = 7\n"
    )

    def test_all_rows_pass(self, tmp_path):
        code, text = run_cli(tmp_path, "verify", self.CFG)
        assert code == 0
        header, rows = rows_of(text)
        assert rows and all(r["pass"] == "true" for r in rows)
        assert all(float(r["quad_abs_diff"]) <= 1e-8 for r in rows)

    def test_rerun_byte_identical(self, tmp_path):
        _, a = run_cli(tmp_path, "verify", self.CFG)
        _, b = run_cli(tmp_path, "verify", self.CFG, name="exp2.cfg")
        assert a == b

    def test_workers_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SBF_THREADS", "1")
        _, a = run_cli(tmp_path, "verify", self.CFG)
        monkeypatch.setenv("SBF_THREADS", "8")
        _, b = run_cli(tmp_path, "verify", self.CFG, name="exp8.cfg")
        assert a == b

    def test_n_samples_floor(self, tmp_path):
        code, _ = run_cli(tmp_path, "verify", "n_samples = 10\n")
        assert code == 2

    def test_rank_one_point_mass_row_passes(self, tmp_path):
        # every rank-1 elliptic draw is 1: the row reports that one value
        # with no spread, not the rounding of 1000 equal values' mean
        code, text = run_cli(tmp_path, "verify", "n_samples = 1000\npower_db = 10\n"
                                                 "rank = 1\nschemes = ellip_sbf\n")
        assert code == 0
        (row,) = rows_of(text)[1]
        assert row["pass"] == "true"
        assert float(row["mc_estimate"]) == math.log1p(10.0)
        assert float(row["mc_stderr"]) == 0.0

    @pytest.mark.parametrize("scheme", ["gauss_sbf", "ellip_sbf", "gauss_sbf_alamouti",
                                        "ellip_sbf_alamouti", "bingham_phi"])
    def test_row_holds_one_sample_array(self, scheme):
        # a row's draws, target and moments share one array of n doubles;
        # the rest is one block of CHUNK rows and the quadrature
        n = 2 * 10**6
        cfg = parse_config(f"n_samples = {n}\nrank = 3\nseed = 7\n")
        entry = SCHEMES[scheme].rate
        rank = entry.row_rank(scheme, cfg.rank)
        tracemalloc.start()
        try:
            row = cli._verify_row(cfg, scheme, entry, rank, 10.0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row[-1]
        assert peak <= 1.2 * 8 * n, peak / (8 * n)

    @pytest.mark.parametrize("rank", [150, 1000])
    def test_high_rank_rows_pass(self, tmp_path, rank):
        # the bingham_phi row's Gamma density is formed in log space, so
        # r^r and (r-1)! never overflow
        code, text = run_cli(tmp_path, "verify", f"n_samples = 1000\nrank = {rank}\n"
                             "schemes = bingham_phi, ellip_sbf, ellip_sbf_alamouti\n")
        assert code == 0
        rows = rows_of(text)[1]
        assert [r["scheme"] for r in rows] == ["bingham_phi", "ellip_sbf", "ellip_sbf_alamouti"]
        assert all(r["pass"] == "true" for r in rows)


class TestRates:
    CFG = (
        "n = 4\nm_grid = 2, 6\npower_db = 10\nschemes = mc, gauss_sbf, ellip_sbf\n"
        "n_realizations = 3\nseed = 3\n"
    )

    def test_schema_and_bound_ordering(self, tmp_path):
        code, text = run_cli(tmp_path, "rates", self.CFG)
        assert code == 0
        header, rows = rows_of(text)
        assert header == ["scheme", "N", "M", "P_dB", "rate_nats", "rate_bits",
                          "stderr", "status"]
        by_key = {(r["scheme"], r["M"]): float(r["rate_nats"]) for r in rows}
        for m in ("2", "6"):
            assert by_key[("mc", m)] >= by_key[("gauss_sbf", m)]
            assert by_key[("mc", m)] >= by_key[("ellip_sbf", m)]
        # nats/bits consistency
        for r in rows:
            assert abs(float(r["rate_bits"]) - float(r["rate_nats"]) / math.log(2)) < 1e-12

    def test_single_user_reduction(self, tmp_path):
        cfg = "m = 1\npower_db = 10\nschemes = mc, gauss_sbf\nn_realizations = 2\nseed = 5\n"
        code, text = run_cli(tmp_path, "rates", cfg)
        assert code == 0
        _, rows = rows_of(text)
        # with M = 1 every realization uses rho_min = |h|^2 and W = hh^H/|h|^2
        assert all(r["status"] == "ok" for r in rows)

    def test_seed_override_changes_output(self, tmp_path):
        _, a = run_cli(tmp_path, "rates", self.CFG, seed=1)
        _, b = run_cli(tmp_path, "rates", self.CFG, seed=2, name="e2.cfg")
        assert a != b

    def test_rerun_byte_identical(self, tmp_path):
        _, a = run_cli(tmp_path, "rates", self.CFG)
        _, b = run_cli(tmp_path, "rates", self.CFG, name="e2.cfg")
        assert a == b

    def test_degenerate_rank_rows_flagged(self, tmp_path):
        # M = 1 forces rank-1 covariances: the rank-2 law rows carry nan + flag
        cfg = (
            "m = 1\npower_db = 10\nschemes = ellip_sbf_alamouti\n"
            "n_realizations = 2\nseed = 5\n"
        )
        code, text = run_cli(tmp_path, "rates", cfg)
        assert code == 0
        _, rows = rows_of(text)
        assert rows[0]["rate_nats"] == "nan"
        assert "rank1:2" in rows[0]["status"]


class TestBer:
    CFG = (
        "n = 4\nm = 3\npower_db = 2, 8\nschemes = bf, gauss_sbf\n"
        "constellation = qpsk\nframe_length = 288\nn_frames = 3\nseed = 5\n"
    )

    def test_schema_and_values(self, tmp_path):
        code, text = run_cli(tmp_path, "ber", self.CFG)
        assert code == 0
        header, rows = rows_of(text)
        assert header == ["scheme", "N", "M", "P_dB", "constellation",
                          "worst_user_ber", "stderr", "bits", "status"]
        assert all(0.0 <= float(r["worst_user_ber"]) <= 1.0 for r in rows)
        # averaged BER decreases with power for the beamforming rows
        bf = [float(r["worst_user_ber"]) for r in rows if r["scheme"] == "bf"]
        assert bf[0] >= bf[-1]

    def test_constellation_spellings_byte_identical(self, tmp_path):
        # the default frame length (720 symbols of 16-QAM) and the
        # constellation column follow the canonical name of any spelling
        cfg = "n = 4\nm = 4\npower_db = 10\nschemes = gauss_sbf\nn_frames = 1\n"
        outs = []
        for spelling in ("qam16", "QAM16", "16qam"):
            code, text = run_cli(tmp_path, "ber", cfg + f"constellation = {spelling}\n",
                                 name=f"{spelling}.cfg")
            assert code == 0, spelling
            outs.append(text)
        assert outs[1] == outs[0] and outs[2] == outs[0]
        row = rows_of(outs[0])[1][0]
        assert (row["constellation"], row["bits"]) == ("qam16", "2880")

    def test_single_antenna(self, tmp_path, capsys):
        # with N = 1 every scheme that takes a rank-1 covariance runs (the
        # fixed Alamouti pair gets a zero second branch), and the rank-4
        # QOSTBC is refused as an input error
        cfg = "n = 1\nm = 3\npower_db = 10\nconstellation = qpsk\nframe_length = 8\nn_frames = 2\n"
        schemes = [name for name, s in SCHEMES.items()
                   if s.link is not None and s.link.rank is None]
        code, text = run_cli(tmp_path, "ber", cfg + f"schemes = {', '.join(schemes)}\n")
        assert code == 0
        rows = rows_of(text)[1]
        assert [r["scheme"] for r in rows] == schemes
        assert all(r["status"] == "ok" for r in rows)
        code, _ = run_cli(tmp_path, "ber", cfg + "schemes = precoded_qostbc\n", name="q.cfg")
        assert code == 2
        assert "needs a rank-4 covariance, got rank 1" in capsys.readouterr().err

    @pytest.mark.parametrize("names", ["mc", "bingham_phi", "mc, bingham_phi"])
    def test_rate_only_schemes_are_an_input_error(self, tmp_path, capsys, names):
        # with no link scheme left there is nothing to simulate: exit 2 and
        # no CSV, naming the dropped schemes; next to a link scheme they are
        # skipped, as the golden ber config's mc is
        cfg = "n = 4\nm = 3\npower_db = 10\nframe_length = 8\nn_frames = 1\n"
        code, text = run_cli(tmp_path, "ber", cfg + f"schemes = {names}\n")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert all(name in err for name in names.split(", ")), err
        code, text = run_cli(tmp_path, "ber", cfg + f"schemes = {names}, gauss_sbf\n",
                             name="kept.cfg")
        assert code == 0
        assert [r["scheme"] for r in rows_of(text)[1]] == ["gauss_sbf"]

    def test_rerun_and_workers_byte_identical(self, tmp_path, monkeypatch):
        # one sweep's 5 frames on 1, 2, 3 and 8 workers (uneven splits, and
        # more workers than frames), weighted and precoded schemes together
        cfg = self.CFG + ("schemes = bf, gauss_sbf, ellip_sbf_alamouti, precoded_sm\n"
                          "n_frames = 5\n")
        outs = []
        for threads in ("1", "2", "3", "8", "1"):
            monkeypatch.setenv("SBF_THREADS", threads)
            code, text = run_cli(tmp_path, "ber", cfg, name=f"e{len(outs)}.cfg")
            assert code == 0
            outs.append(text)
        assert all(out == outs[0] for out in outs[1:])

    def test_rows_independent_of_the_rest_of_the_config(self, tmp_path):
        # a row depends on (seed, M, scheme, power) only: gauss_sbf alone
        # prints the rows it prints next to schemes with weights of their
        # own and precoded_sm, whose rank-2 W* (M = 8, seed 1) makes it draw
        # the frame's longer bit draw; and the M = 8 rows do not depend on
        # m_grid's other entries or the scheme order
        base = ("n = 4\npower_db = 4, 10\nconstellation = qpsk\nframe_length = 72\n"
                "n_frames = 3\nseed = 1\n")
        mixed_schemes = "bf, gauss_sbf, ellip_sbf_alamouti, precoded_sm"

        def rows(cfg, name):
            code, text = run_cli(tmp_path, "ber", base + cfg, name=name)
            assert code == 0
            return sorted(rows_of(text)[1], key=lambda r: (r["M"], r["scheme"], r["P_dB"]))

        alone = rows("m = 8\nschemes = gauss_sbf\n", "alone.cfg")
        mixed = rows(f"m = 8\nschemes = {mixed_schemes}\n", "mixed.cfg")
        assert [r for r in mixed if r["scheme"] == "gauss_sbf"] == alone
        assert {r["scheme"]: r["bits"] for r in mixed}["precoded_sm"] == "864"  # 3 x 288
        grid = rows(f"m_grid = 4, 8\nschemes = {mixed_schemes}\n", "grid.cfg")
        swapped = rows("m_grid = 8\nschemes = precoded_sm, ellip_sbf_alamouti, gauss_sbf, bf\n",
                       "swapped.cfg")
        assert [r for r in grid if r["M"] == "8"] == mixed == swapped


class TestSolveCov:
    def test_invariants_and_golden_m1(self, tmp_path):
        code, text = run_cli(tmp_path, "solve-cov", "n = 4\nm = 1\nseed = 11\n")
        assert code == 0
        _, rows = rows_of(text)
        w = np.zeros((4, 4), dtype=complex)
        for r in rows:
            if r["kind"] == "W":
                w[int(r["i"]), int(r["j"])] = float(r["value_re"]) + 1j * float(r["value_im"])
        assert np.linalg.norm(w - w.conj().T) <= 1e-12
        assert abs(np.trace(w).real - 1.0) <= 1e-10
        rho_min = [float(r["value_re"]) for r in rows if r["kind"] == "rho_min"][0]
        obj = [float(r["value_re"]) for r in rows if r["kind"] == "objective"][0]
        assert abs(rho_min - obj) <= 1e-9
        assert [r for r in rows if r["kind"] == "converged"][0]["value_re"] == "1"

    def test_multiuser(self, tmp_path):
        code, text = run_cli(tmp_path, "solve-cov", "n = 4\nm = 6\nseed = 2\n")
        assert code == 0
        _, rows = rows_of(text)
        rho = [float(r["value_re"]) for r in rows if r["kind"] == "rho"]
        rho_min = [float(r["value_re"]) for r in rows if r["kind"] == "rho_min"][0]
        assert abs(min(rho) - rho_min) <= 1e-15
        assert all(v >= 0 for v in rho)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = "n = 4\nm = 6\nseed = 2\n"
        _, a = run_cli(tmp_path, "solve-cov", cfg)
        _, b = run_cli(tmp_path, "solve-cov", cfg, name="e2.cfg")
        assert a == b


def test_capped_solver_flags_every_command(tmp_path):
    # one Newton step leaves every M = 3 solve uncertified: each command
    # that solves must say so, never print a silent ok
    cap = "n = 4\nm = 3\npower_db = 10\nsolver_max_iter = 1\n"
    code, text = run_cli(tmp_path, "rates", cap + "schemes = mc, gauss_sbf\nn_realizations = 2\n")
    assert code == 0
    rows = rows_of(text)[1]
    assert rows and all(r["status"].split(";")[0] == "noconv:2" for r in rows)
    code, text = run_cli(tmp_path, "ber", cap + "schemes = bf, gauss_sbf\nframe_length = 8\n"
                                                "n_frames = 1\n")
    assert code == 0
    rows = rows_of(text)[1]
    assert rows and all(r["status"] == "noconv" for r in rows)
    code, text = run_cli(tmp_path, "solve-cov", cap)
    assert code == 0
    value = {r["kind"]: float(r["value_re"]) for r in rows_of(text)[1] if r["kind"] != "W"}
    assert value["converged"] == 0.0
    assert value["gap"] > parse_config(cap).solver_tol


def test_shipped_configs_parse():
    # every scheme of a shipped config is one that the command CI runs the
    # config with runs, so no shipped run depends on a skip
    import pathlib

    commands = {"ber_sweep": "ber", "gaps": "gaps", "rates_vs_users": "rates",
                "solve_cov": "solve-cov", "verify": "verify"}
    cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    found = sorted(cfg_dir.glob("*.cfg"))
    assert sorted(path.stem for path in found) == sorted(commands)
    for path in found:
        cfg = parse_config(path.read_text())
        command = commands[path.stem]
        if command == "solve-cov":
            assert cfg.schemes is None
            continue
        for scheme in cfg.schemes:
            assert cli._RUNS[command](SCHEMES[scheme]), (path.name, scheme)


def test_shipped_rates_config_all_certified(tmp_path):
    # every one of the 600 covariance solves of the shipped rates sweep is
    # certified within solver_tol, so no row carries noconv (a rank1:k
    # suffix only counts rank-1 realizations skipped by a rank-2 law)
    import pathlib

    cfg_path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "rates_vs_users.cfg"
    out_path = tmp_path / "rates.csv"
    assert main(["rates", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    _, rows = rows_of(out_path.read_text())
    assert len(rows) == 30
    assert [r["status"] for r in rows if r["status"].split(";")[0] != "ok"] == []
    # the full shipped output, byte for byte
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "7ba1c87b8f7930ffe0affc0344c67987b39bdd29f15eb0c2b9c3a2315e111074")


@pytest.mark.parametrize("name, command, digest", [
    ("verify", "verify", "1f97ac3529d1ecaa79cbc49fd43464ecfa72a82c545bcca4462deb3dea7fbe46"),
    ("ber_sweep", "ber", "33714b2578f7bd7678fe2952babf167e1b2622ed048b3ba0ce11f3305d3f024c"),
])
def test_shipped_config_output_pinned(tmp_path, name, command, digest):
    # the full shipped output, byte for byte, as the install step of CI pins it
    cfg_path = pathlib.Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
    out_path = tmp_path / f"{name}.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_missing_config_file(tmp_path):
    assert main(["gaps", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("command", ["rates", "gaps", "verify", "ber"])
def test_bad_scheme_reports_input_error(tmp_path, command):
    p = tmp_path / "bad.cfg"
    p.write_text("schemes = not_a_scheme\n")
    assert main([command, "--config", str(p)]) == 2


# a small config every scheme command runs in well under a second
SMALL = ("n = 4\nm = 3\npower_db = 10\nn_realizations = 1\nn_samples = 1000\n"
         "frame_length = 8\nn_frames = 1\n")
# the commands that run each scheme that only some commands run
RUN_BY = {"mc": "rates", "bingham_phi": "verify", "bf": "ber", "precoded_sm": "ber"}


@pytest.mark.parametrize("command", ["rates", "gaps", "verify", "ber"])
def test_empty_scheme_list_reports_input_error(tmp_path, capsys, command):
    # with nothing to run a command exits 2, never with a header-only CSV
    code, text = run_cli(tmp_path, command, SMALL + "schemes =\n")
    assert (code, text) == (2, "")
    assert command in capsys.readouterr().err


@pytest.mark.parametrize("command, names", [
    ("ber", "mc, bingham_phi"), ("rates", "bf"), ("rates", "bingham_phi"),
    ("gaps", "precoded_sm"), ("gaps", "mc"), ("verify", "mc"),
])
def test_no_scheme_the_command_runs_reports_input_error(tmp_path, capsys, command, names):
    # the refusal names every configured scheme and the commands that run it
    code, text = run_cli(tmp_path, command, SMALL + f"schemes = {names}\n")
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert all(f"{name} (run by {RUN_BY[name]})" in err for name in names.split(", ")), err


def test_scheme_the_command_cannot_run_is_skipped(tmp_path, capsys):
    code, text = run_cli(tmp_path, "rates", SMALL + "schemes = bf, gauss_sbf\n")
    assert code == 0
    assert [r["scheme"] for r in rows_of(text)[1]] == ["gauss_sbf"]
    err = capsys.readouterr().err
    assert "bf (run by ber)" in err, err


@pytest.mark.parametrize("command", ["rates", "gaps", "verify", "ber"])
def test_default_schemes_print_no_note(tmp_path, capsys, command):
    # without a schemes key each command runs its own list, silently
    code, text = run_cli(tmp_path, command, SMALL)
    assert code == 0 and len(rows_of(text)[1]) == 4 + (command == "rates")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["gaps", "verify"])
def test_rank_below_scheme_minimum_reports_input_error(tmp_path, capsys, command):
    # the elliptic Alamouti law needs rank >= 2; the refusal names the scheme
    code, text = run_cli(tmp_path, command, "schemes = ellip_sbf_alamouti\nrank = 1\n")
    assert code == 2 and text == ""
    assert "ellip_sbf_alamouti" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "n_realizations = 0", "n_realizations = -2",
    "solver_tol = 0", "solver_tol = -1", "solver_tol = nan", "solver_tol = inf",
    "solver_max_iter = 0",
    "power_db = nan", "power_db = 0, inf", "power_db = -inf, 10",
    "power_db = 4000", "power_db = 0, 4000",
    "frame_length = -1",
    "m_grid = -3", "m_grid = 0", "m_grid = 2, 0, 8",
    "rho_min = inf", "rho_min = nan", "rho_min = 0", "rho_min = -1",
])
def test_out_of_range_value_reports_input_error(tmp_path, capsys, line):
    # each of these once ran and printed nan or noconv rows, or failed deep
    # inside a command; they are now rejected before any work is done
    with pytest.raises(ConfigError):
        parse_config(line + "\n")
    code, text = run_cli(tmp_path, "rates", f"m = 2\nn_realizations = 1\n{line}\n")
    assert (code, text) == (2, "")
    assert line.split(" =")[0] in capsys.readouterr().err


@pytest.mark.parametrize("rank, power_db", [(200, 10), (40, -20)])
def test_formerly_refused_elliptic_gap_matches_quadrature(tmp_path, rank, power_db):
    # the paper's alternating binomial sum overflows at rank 200 and cancels
    # to -1.14e12 against a true rate of 0.0099 at rank 40
    code, text = run_cli(tmp_path, "gaps",
                         f"schemes = ellip_sbf\nrank = {rank}\npower_db = {power_db}\n")
    assert code == 0
    (row,) = rows_of(text)[1]
    power = cli.db_to_linear(power_db)
    rate = math.log1p(power) - float(row["gap_nats"])
    law = SCHEMES["ellip_sbf"].rate.gain_law(rank)
    # the oracle raises QuadratureError unless its error bound is within 1e-9
    assert abs(rate - rates.quadrature_rate_oracle(law, 1.0, power)) <= 1e-9


@pytest.mark.parametrize("scheme", ["ellip_sbf", "ellip_sbf_alamouti"])
def test_non_finite_elliptic_beta_reports_input_error(tmp_path, capsys, scheme):
    # rank * rho_min * power = 3e308 overflows to inf
    code, text = run_cli(tmp_path, "gaps", f"schemes = {scheme}\nrank = 3\npower_db = 3080\n")
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert "rank 3" in err and "power 1e+308" in err


@pytest.mark.parametrize("command, config", [("ber", TestBer.CFG), ("gaps", "power_db = 0, 10\n")])
def test_malformed_sbf_threads_reports_input_error(tmp_path, monkeypatch, capsys, command, config):
    assert run_cli(tmp_path, command, config)[0] == 0
    for threads in ("abc", "0", "-3"):  # not an integer, or fewer than one worker
        monkeypatch.setenv("SBF_THREADS", threads)
        assert run_cli(tmp_path, command, config, name="bad.cfg")[0] == 2, threads
        assert "SBF_THREADS" in capsys.readouterr().err, threads


def run_fresh(code, **env):
    """stdout of `code` run in a new interpreter that imports this sbfmc."""
    src = str(pathlib.Path(sbfmc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, **env)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return proc.stdout


def test_import_leaves_scipy_spatial_unloaded():
    # no command needs scipy.special, and scipy.spatial (the k-d tree of the
    # ML search) is imported on the first precoded ML search: at import it
    # would add ~0.41 s to the ~0.14 s import of sbfmc.cli, medians of 11
    # fresh interpreters on a 2-core x86 box
    code = ("import sys, sbfmc.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code).strip() == "[]"


def test_import_leaves_thread_pool_and_fractions_unloaded():
    # concurrent.futures (frame workers) and fractions (exact harmonic
    # numbers) are imported where they are used, off the startup path
    code = ("import sys, sbfmc.cli\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'fractions')))")
    assert run_fresh(code).strip() == "[]"


def test_no_command_loads_scipy_special(tmp_path):
    configs = {
        "verify": "n_samples = 1000\npower_db = 10\nrank = 3\nschemes = gauss_sbf, bingham_phi\n",
        "rates": "n = 4\nm_grid = 2, 3\npower_db = 10\nn_realizations = 2\n",
        "gaps": "power_db = 0, 20\nrank = 3\n",
        "solve-cov": "n = 4\nm = 3\n",
        "ber": "m = 3\nschemes = gauss_sbf\nframe_length = 288\nn_frames = 1\n",
    }
    calls = []
    for command, text in configs.items():
        path = tmp_path / f"{command}.cfg"
        path.write_text(text)
        calls.append([command, "--config", str(path), "--out", str(tmp_path / f"{command}.csv")])
    code = ("import sys, sbfmc.cli\n"
            f"print([sbfmc.cli.main(argv) for argv in {calls!r}])\n"
            "print('scipy.special' in sys.modules)\n")
    assert run_fresh(code).split("\n")[:2] == ["[0, 0, 0, 0, 0]", "False"]


def test_verify_in_frame_threads_leaves_scipy_special_unloaded(tmp_path):
    # verify's rows run in worker threads when SBF_THREADS > 1; the
    # bingham_phi row's quadrature limit comes from GammaGain.tail, in math
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(TestVerify.CFG)
    outs = {}
    for threads in ("4", "1"):
        out = tmp_path / f"verify{threads}.csv"
        argv = ["verify", "--config", str(cfg), "--out", str(out)]
        code = ("import sys, sbfmc.cli\n"
                "assert 'scipy.special' not in sys.modules\n"
                f"print(sbfmc.cli.main({argv!r}))\n"
                "print('scipy.special' in sys.modules)\n")
        assert run_fresh(code, SBF_THREADS=threads).split("\n")[:2] == ["0", "False"]
        outs[threads] = out.read_bytes()
    assert outs["4"] == outs["1"]
