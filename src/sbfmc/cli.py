"""Reproducible command-line experiment runner.

    sbfmc <command> --config <path> [--seed <u64>] [--out <path>]

Commands: rates, gaps, verify, ber, solve-cov.  Configs are flat
``key = value`` text files (lists comma-separated, ``#`` comments); every
command is a pure function of (config, seed) and emits CSV with 17
significant digits, so reruns are byte-identical for any SBF_THREADS value.
One exception: verify's bingham_phi draws at rank >= 15 can depend on the
OpenBLAS thread count (each draw averages its rank exponentials in a
BLAS matrix-vector product); at 33,333 draws this was seen at ranks 15,
24, 40 and 150.  The shipped rank 3 is unaffected.

Exit codes: 0 all checks pass, 1 tolerance failure, 2 input error.

Scheme names are the records of schemes.SCHEMES.  A command runs a record
that has what it needs: rates a rate function, gaps a gap limit, verify a
gain law, ber a link half.  An unknown name exits 2; a name the command
cannot run is skipped, with a stderr note naming the commands that run it;
with no name left (or ``schemes =`` empty) the command exits 2.  With no
schemes key it runs every record with a rate function that it runs.

Stream layout: channels draw from stream_id 0, one sub-stream per draw:
realization j of the M-user population of `rates` from sub-stream
M * 10^6 + j, the one `ber` channel per M from realization 0 of that
population (sub-stream M * 10^6), and the `solve-cov` channel from
sub-stream 0.  verify rows use stream_id (1 << 32) + row.  The BER sweep of
each M uses stream_id (2 << 32) + M, one sub-stream per frame f, split into
lanes (Philox counter word 2): lane 0 holds the frame's noise, lane 1 one
payload-bit draw of the longest count, of which each scheme takes its
prefix, and lane 2 + i the weights of the i-th SCHEMES record.  Every
scheme and power of a frame share its noise and bits, and every power a
scheme's weights (common random numbers), so a BER row depends on (seed, M,
scheme, power) and the shared keys, never on the other schemes or powers
configured or on M's place in m_grid.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import capacity, linksim, rates, sampling
from .gainlaws import PointMassGain, truncation_point
from .linksim import SchemeConfig, make_constellation, map_in_order, n_workers
from .quadrature import adaptive_gauss_legendre
from .sampling import SeededStream
from .schemes import SCHEMES

LN2 = math.log(2.0)

_VERIFY_ROW_BASE = 1 << 32
_BER_STREAM_BASE = 2 << 32

class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    n: int = 4
    m: int = 16
    m_grid: list[int] = field(default_factory=list)
    power_db: list[float] = field(default_factory=lambda: [10.0])
    schemes: list[str] = None  # None: no schemes key (see _schemes)
    constellation: str = "qpsk"
    seed: int = 0
    n_samples: int = 100_000
    n_frames: int = 20
    n_realizations: int = 100
    rank: int = 3
    rho_min: float = 1.0
    frame_length: int = 0  # 0 = constellation default (720 16-QAM, else 1440)
    solver_tol: float = 1e-6
    solver_max_iter: int = 100_000


def _converter(tp):
    """Value text -> value of a config field annotated tp: the scalar type
    itself, or a comma-separated list of its element type (blank items
    dropped, string items stripped)."""
    from typing import get_args

    args = get_args(tp)
    if not args:
        return tp
    item = str.strip if args[0] is str else args[0]
    return lambda value: [item(v) for v in value.split(",") if v.strip()]


def parse_config(text):
    """Parse the flat key-value config format; each value converts by the
    type of its ExperimentConfig field."""
    cfg = ExperimentConfig()
    types = {f.name: f.type for f in fields(cfg)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _converter(types[key])(value))
        except ValueError as ex:
            raise ConfigError(f"line {lineno}: bad value for {key}: {ex}") from ex
    if not cfg.power_db:
        raise ConfigError("power_db must be non-empty")
    if not all(math.isfinite(p) for p in cfg.power_db):
        raise ConfigError("power_db entries must be finite")
    if sorted(cfg.power_db) != cfg.power_db:
        raise ConfigError("power_db must be sorted ascending")
    try:
        db_to_linear(cfg.power_db[-1])
    except OverflowError:
        raise ConfigError(f"power_db entry {cfg.power_db[-1]:g} overflows as a linear power") from None
    if cfg.n < 1 or cfg.m < 1 or cfg.rank < 1:
        raise ConfigError("n, m and rank must be >= 1")
    if any(m < 1 for m in cfg.m_grid):
        raise ConfigError("m_grid entries must be >= 1")
    if cfg.n_realizations < 1 or cfg.solver_max_iter < 1:
        raise ConfigError("n_realizations and solver_max_iter must be >= 1")
    if not (math.isfinite(cfg.solver_tol) and cfg.solver_tol > 0.0):
        raise ConfigError("solver_tol must be a finite positive number")
    if not (math.isfinite(cfg.rho_min) and cfg.rho_min > 0.0):
        raise ConfigError("rho_min must be a finite positive number")
    if cfg.frame_length < 0:
        raise ConfigError("frame_length must be >= 0 (0 = constellation default)")
    return cfg


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _csv(header, row_iter):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in row_iter)
    return "\n".join(lines) + "\n"


def db_to_linear(p_db):
    return 10.0 ** (p_db / 10.0)


# whether each command runs a SCHEMES record: what it needs of the record
_RUNS = {
    "rates": lambda s: s.rate is not None and s.rate.rate is not None,
    "gaps": lambda s: s.rate is not None and s.rate.gap_limit is not None,
    "verify": lambda s: s.rate is not None and s.rate.gain_law is not None,
    "ber": lambda s: s.link is not None,
}


def _schemes(cfg, command):
    """(name, SCHEMES record) of every configured scheme that command runs,
    in config order (the rule of the module docstring)."""
    runs = _RUNS[command]
    if cfg.schemes is None:
        return [(name, s) for name, s in SCHEMES.items() if _RUNS["rates"](s) and runs(s)]
    for name in cfg.schemes:
        if name not in SCHEMES:
            raise ConfigError(f"unknown scheme {name!r}")
    kept = [(name, SCHEMES[name]) for name in cfg.schemes if runs(SCHEMES[name])]
    skipped = "; ".join(
        f"{name} (run by {', '.join(c for c, r in _RUNS.items() if r(SCHEMES[name]))})"
        for name in cfg.schemes if not runs(SCHEMES[name]))
    if not kept:
        raise ConfigError(f"{command} has no scheme to run: "
                          + (f"it skips {skipped}" if skipped else "schemes is empty"))
    if skipped:
        print(f"note: {command} skips {skipped}", file=sys.stderr)
    return kept


def _mean_stderr(vals):
    """Mean of the float array vals and its standard error
    std(ddof=1) / sqrt(n), 0 for one value.  The variance is numpy's
    var(ddof=1), step for step, formed in vals itself (overwritten)."""
    n = vals.size
    mean = float(vals.mean())
    if n < 2:
        return mean, 0.0
    vals -= mean
    vals *= vals
    return mean, math.sqrt(float(vals.sum()) / (n - 1)) / math.sqrt(n)


def _solve_realizations(cfg, m, keys):
    """(channel set, covariance solution, per-user gains rho, rank of W*) of
    one M-user draw per channel sub-stream key of stream 0 (see the module
    docstring), all solved as one batch.  Every command that solves draws
    and solves here."""
    base = SeededStream(cfg.seed, 0)
    chs = [sampling.ChannelSet(sampling.randn_complex(base.substream(key), m, cfg.n))
           for key in keys]
    sols = capacity.solve_mc_covariances(chs, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    return [(ch, sol, capacity.rho_values(sol.covariance, ch)[0],
             sampling.psd_sqrt(sol.covariance.entries)[1])
            for ch, sol in zip(chs, sols)]


def cmd_rates(cfg):
    """Average closed-form multicast rates over channel realizations, per
    scheme and per (M, P) grid point."""
    header = ["scheme", "N", "M", "P_dB", "rate_nats", "rate_bits", "stderr", "status"]
    m_values = cfg.m_grid or [cfg.m]
    schemes = [(name, s.rate) for name, s in _schemes(cfg, "rates")]
    rows = []
    for m in m_values:
        reals = _solve_realizations(cfg, m, [m * 1_000_000 + j for j in range(cfg.n_realizations)])
        n_bad = sum(0 if sol.converged else 1 for _, sol, _, _ in reals)
        status = "ok" if n_bad == 0 else f"noconv:{n_bad}"
        gains = [(float(rho.min()), rank) for _, _, rho, rank in reals]
        for p_db in cfg.power_db:
            power = db_to_linear(p_db)
            for scheme, entry in schemes:
                # min_rank is at most 2, so every skipped realization is rank 1
                vals = [entry.rate(rates.SchemeParams(rho_min, power, rank))
                        for rho_min, rank in gains if rank >= entry.min_rank]
                n_skipped = len(gains) - len(vals)
                row_status = status if not n_skipped else f"{status};rank1:{n_skipped}"
                if not vals:
                    rows.append([scheme, cfg.n, m, p_db, math.nan, math.nan, 0.0,
                                 row_status])
                    continue
                mean, se = _mean_stderr(np.asarray(vals))
                rows.append([scheme, cfg.n, m, p_db, mean, mean / LN2, se, row_status])
    return _csv(header, rows), 0


def cmd_gaps(cfg):
    """Rate gap to the worst-user bound per scheme and power, with the
    asymptotic limit and the remaining distance to it."""
    header = ["scheme", "rank", "rho_min", "P_dB", "gap_nats", "limit", "delta_to_limit"]
    rows = []
    for scheme, s in _schemes(cfg, "gaps"):
        rank = s.rate.row_rank(scheme, cfg.rank)
        limit = s.rate.gap_limit(rank)
        for p_db in cfg.power_db:
            power = db_to_linear(p_db)
            p = rates.SchemeParams(cfg.rho_min, power, rank)
            gap = rates.rate_mc(p) - s.rate.rate(p)
            rows.append([scheme, rank, cfg.rho_min, p_db, gap, limit, gap - limit])
    return _csv(header, rows), 0


_QUAD_TOL = 1e-8
_MC_SIGMAS = 3.0


def _verify_row(cfg, scheme, entry, rank, p_db, row_idx):
    power = db_to_linear(p_db)
    rho = cfg.rho_min
    stream = SeededStream(cfg.seed, _VERIFY_ROW_BASE + row_idx)
    rng = stream.generator()
    law = entry.gain_law(rank)
    # the draws' one array: the target and the moments work in it in place
    vals = law.sample(rng, cfg.n_samples)
    if entry.rate is None:
        # the phi check: the target is log t itself, with no power in it
        # (the quadrature nodes lie inside the panels, so t > 0 there)
        closed = law.log_moment()
        quad, _ = adaptive_gauss_legendre(
            lambda t: np.log(t) * law.pdf(t), 0.0, truncation_point(law), tol=1e-10)
        np.log(vals, out=vals)
    else:
        closed = entry.rate(rates.SchemeParams(rho, power, rank))
        quad = rates.quadrature_rate_oracle(law, rho, power, tol=1e-10)
        np.multiply(vals, rho * power, out=vals)
        np.log1p(vals, out=vals)
    if isinstance(law, PointMassGain):
        # every draw is the one value: the mean of equal values can round
        # off it, and the spread of that rounding is no standard error
        vals = vals[:1]
    mc, mc_se = _mean_stderr(vals)
    quad_diff = abs(closed - quad)
    mc_dev = abs(closed - mc) / mc_se if mc_se > 0 else 0.0
    ok = quad_diff <= _QUAD_TOL and mc_dev <= _MC_SIGMAS
    return [scheme, rank, rho, p_db, closed, quad, mc, mc_se, quad_diff, mc_dev, ok]


def cmd_verify(cfg):
    """Oracle triangle: closed form vs quadrature vs Monte Carlo for every
    scheme and power point; exit code 1 when any row fails."""
    if cfg.n_samples < 1000:
        raise ConfigError("verify needs n_samples >= 1000")
    header = ["scheme", "rank", "rho", "P_dB", "closed_form", "quadrature",
              "mc_estimate", "mc_stderr", "quad_abs_diff", "mc_dev_se", "pass"]
    # the phi check (no rate) is one power-free row
    tasks = [(scheme, s.rate, s.rate.row_rank(scheme, cfg.rank), p_db)
             for scheme, s in _schemes(cfg, "verify")
             for p_db in (cfg.power_db[:1] if s.rate.rate is None else cfg.power_db)]
    rows = map_in_order(lambda idx: _verify_row(cfg, *tasks[idx], idx), len(tasks))
    code = 0 if all(row[-1] for row in rows) else 1
    return _csv(header, rows), code


def cmd_ber(cfg):
    """Worst-user uncoded BER sweeps over the power grid for each scheme,
    on one channel realization per M, all on one frame loop per M."""
    header = ["scheme", "N", "M", "P_dB", "constellation", "worst_user_ber",
              "stderr", "bits", "status"]
    m_values = cfg.m_grid or [cfg.m]
    con = make_constellation(cfg.constellation)
    t_len = cfg.frame_length or (720 if con.name == "qam16" else 1440)
    schemes = [name for name, _ in _schemes(cfg, "ber")]
    powers = [db_to_linear(p_db) for p_db in cfg.power_db]
    rows = []
    for m in m_values:
        ((ch, sol, _, _),) = _solve_realizations(cfg, m, [m * 1_000_000])
        status = "ok" if sol.converged else "noconv"
        links = [SchemeConfig(scheme, sol.covariance, con, frame_length=t_len)
                 for scheme in schemes]
        sims = linksim.simulate_ber_sweep(links, powers, ch, cfg.n_frames,
                                          SeededStream(cfg.seed, _BER_STREAM_BASE + m))
        for j, p_db in enumerate(cfg.power_db):
            for scheme, by_power in zip(schemes, sims):
                res = by_power[j]
                rows.append([scheme, cfg.n, m, p_db, con.name, res.worst_user_ber,
                             res.worst_user_stderr, res.bits_simulated, status])
    return _csv(header, rows), 0


def cmd_solve_cov(cfg):
    """Solve the max-min covariance for one channel draw and dump W*, the
    per-user gains and solver status."""
    ((_, sol, rho, _),) = _solve_realizations(cfg, cfg.m, [0])
    header = ["kind", "i", "j", "value_re", "value_im"]
    rows = []
    w = sol.covariance.entries
    for i in range(cfg.n):
        for j in range(cfg.n):
            rows.append(["W", i, j, w[i, j].real, w[i, j].imag])
    for i, r in enumerate(rho):
        rows.append(["rho", i, 0, r, 0.0])
    rows.append(["rho_min", 0, 0, float(rho.min()), 0.0])
    rows.append(["objective", 0, 0, sol.objective, 0.0])
    rows.append(["gap", 0, 0, sol.gap, 0.0])
    rows.append(["converged", 0, 0, 1.0 if sol.converged else 0.0, 0.0])
    return _csv(header, rows), 0


_COMMANDS = {
    "rates": cmd_rates,
    "gaps": cmd_gaps,
    "verify": cmd_verify,
    "ber": cmd_ber,
    "solve-cov": cmd_solve_cov,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="sbfmc", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default="-", help="output CSV path (default: stdout)")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (OSError, ConfigError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    try:
        n_workers()  # a malformed SBF_THREADS is an input error for every command
        text, code = _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    if args.out in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
