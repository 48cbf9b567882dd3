"""Reproducible command-line experiment runner.

    sbfmc <command> --config <path> [--seed <u64>] [--out <path>]

Commands: rates, gaps, verify, ber, solve-cov.  Configs are flat
``key = value`` text files (lists comma-separated, ``#`` comments); every
command is a pure function of (config, seed) and emits CSV with 17
significant digits, so reruns are byte-identical for any SBF_THREADS value.

Exit codes: 0 all checks pass, 1 tolerance failure, 2 input error.

Stream layout: channel realizations draw from stream_id 0; verify rows use
stream_id (1 << 32) + row; BER rows use stream_id (2 << 32) + row with one
sub-stream per frame.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import capacity, linksim, rates, sampling
from .gainlaws import PointMassGain, truncation_point
from .linksim import SchemeConfig, make_constellation, map_in_order, n_workers
from .quadrature import adaptive_gauss_legendre
from .sampling import SeededStream

LN2 = math.log(2.0)

_VERIFY_ROW_BASE = 1 << 32
_BER_ROW_BASE = 2 << 32

class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    n: int = 4
    m: int = 16
    m_grid: list = field(default_factory=list)
    power_db: list = field(default_factory=lambda: [10.0])
    schemes: list = field(default_factory=lambda: [
        name for name, s in rates.RATE_SCHEMES.items() if s.rate is not None])
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
    output: str = "-"


_INT_KEYS = {"n", "m", "seed", "n_samples", "n_frames", "n_realizations", "rank",
             "frame_length", "solver_max_iter"}
_FLOAT_KEYS = {"rho_min", "solver_tol"}
_LIST_FLOAT_KEYS = {"power_db"}
_LIST_INT_KEYS = {"m_grid"}
_LIST_STR_KEYS = {"schemes"}
_STR_KEYS = {"constellation", "output"}


def parse_config(text):
    """Parse the flat key-value config format."""
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key in _INT_KEYS:
                setattr(cfg, key, int(value))
            elif key in _FLOAT_KEYS:
                setattr(cfg, key, float(value))
            elif key in _LIST_FLOAT_KEYS:
                setattr(cfg, key, [float(v) for v in value.split(",") if v.strip()])
            elif key in _LIST_INT_KEYS:
                setattr(cfg, key, [int(v) for v in value.split(",") if v.strip()])
            elif key in _LIST_STR_KEYS:
                setattr(cfg, key, [v.strip() for v in value.split(",") if v.strip()])
            elif key in _STR_KEYS:
                setattr(cfg, key, value)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
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


def _rate_entries(cfg):
    """(name, rates.RATE_SCHEMES entry) of every configured scheme."""
    for name in cfg.schemes:
        if name not in rates.RATE_SCHEMES:
            raise ConfigError(f"unknown scheme {name!r}")
    return [(name, rates.RATE_SCHEMES[name]) for name in cfg.schemes]


def _solve_realizations(cfg, m):
    """Channel set, covariance solution and gains for every realization of
    an M-user population; realization j draws from channel sub-stream
    indexed by (m, j), and all of them are solved as one batch."""
    base = SeededStream(cfg.seed, 0)
    chs = [sampling.ChannelSet(
        sampling.randn_complex(base.substream(m * 1_000_000 + j), m, cfg.n))
        for j in range(cfg.n_realizations)]
    sols = capacity.solve_mc_covariances(chs, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    out = []
    for ch, sol in zip(chs, sols):
        rho_min = capacity.rho_values(sol.covariance, ch)[1]
        rank = sampling.psd_sqrt(sol.covariance.entries)[1]
        out.append((ch, sol, rho_min, rank))
    return out


def cmd_rates(cfg):
    """Average closed-form multicast rates over channel realizations, per
    scheme and per (M, P) grid point."""
    header = ["scheme", "N", "M", "P_dB", "rate_nats", "rate_bits", "stderr", "status"]
    m_values = cfg.m_grid or [cfg.m]
    schemes = [(s, e) for s, e in _rate_entries(cfg) if e.rate is not None]
    rows = []
    for m in m_values:
        reals = _solve_realizations(cfg, m)
        n_bad = sum(0 if sol.converged else 1 for _, sol, _, _ in reals)
        status = "ok" if n_bad == 0 else f"noconv:{n_bad}"
        for p_db in cfg.power_db:
            power = db_to_linear(p_db)
            for scheme, entry in schemes:
                vals = []
                n_skipped = 0
                for _, sol, rho_min, rank in reals:
                    if rank < entry.min_rank:  # min_rank is at most 2
                        n_skipped += 1
                        continue
                    vals.append(entry.rate(rates.SchemeParams(rho_min, power, max(rank, 1))))
                row_status = status if not n_skipped else f"{status};rank1:{n_skipped}"
                if not vals:
                    rows.append([scheme, cfg.n, m, p_db, math.nan, math.nan, 0.0,
                                 row_status])
                    continue
                vals = np.asarray(vals)
                mean = vals.mean()
                se = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
                rows.append([scheme, cfg.n, m, p_db, mean, mean / LN2, se, row_status])
    return _csv(header, rows), 0


def cmd_gaps(cfg):
    """Rate gap to the worst-user bound per scheme and power, with the
    asymptotic limit and the remaining distance to it."""
    header = ["scheme", "rank", "rho_min", "P_dB", "gap_nats", "limit", "delta_to_limit"]
    rows = []
    for scheme, entry in _rate_entries(cfg):
        if entry.gap_limit is None:  # mc, the bound itself
            continue
        rank = cfg.rank if entry.uses_rank else 1
        limit = rates.gap_limit(scheme, rank)
        for p_db in cfg.power_db:
            power = db_to_linear(p_db)
            p = rates.SchemeParams(cfg.rho_min, power, rank)
            gap = rates.rate_mc(p) - entry.rate(p)
            rows.append([scheme, rank, cfg.rho_min, p_db, gap, limit, gap - limit])
    return _csv(header, rows), 0


_QUAD_TOL = 1e-8
_MC_SIGMAS = 3.0


def _verify_row(cfg, scheme, rank, p_db, row_idx):
    power = db_to_linear(p_db)
    rho = cfg.rho_min
    stream = SeededStream(cfg.seed, _VERIFY_ROW_BASE + row_idx)
    rng = stream.generator()
    entry = rates.RATE_SCHEMES[scheme]
    law = rates.gain_law_for_scheme(scheme, rank)
    if entry.rate is None:
        # the phi check: the target is log t itself, with no power in it
        # (the quadrature nodes lie inside the panels, so t > 0 there)
        closed = law.log_moment()
        target = np.log
        quad, _ = adaptive_gauss_legendre(
            lambda t: target(t) * law.pdf(t), 0.0, truncation_point(law), tol=1e-10)
    else:
        closed = entry.rate(rates.SchemeParams(rho, power, rank))
        target = lambda t: np.log1p(rho * power * t)
        quad = rates.quadrature_rate_oracle(law, rho, power, tol=1e-10)
    vals = target(law.sample(rng, cfg.n_samples))
    if isinstance(law, PointMassGain):
        # every draw is the one value: the mean of equal values can round
        # off it, and the spread of that rounding is no standard error
        vals = vals[:1]
    mc = float(vals.mean())
    mc_se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
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
    tasks = []
    for scheme, entry in _rate_entries(cfg):
        rank = cfg.rank if entry.uses_rank else 1
        if entry.rate is None:  # the phi check: one row, power-free
            tasks.append((scheme, rank, cfg.power_db[0]))
        elif entry.gap_limit is not None:  # mc, the bound itself, is not checked
            tasks.extend((scheme, rank, p_db) for p_db in cfg.power_db)

    def run(idx):
        scheme, rank, p_db = tasks[idx]
        return _verify_row(cfg, scheme, rank, p_db, idx)

    rows = map_in_order(run, len(tasks))
    code = 0 if all(row[-1] for row in rows) else 1
    return _csv(header, rows), code


def cmd_ber(cfg):
    """Worst-user uncoded BER sweeps over the power grid for each scheme,
    on one channel realization per M."""
    header = ["scheme", "N", "M", "P_dB", "constellation", "worst_user_ber",
              "stderr", "bits", "status"]
    m_values = cfg.m_grid or [cfg.m]
    con = make_constellation(cfg.constellation)
    t_len = cfg.frame_length or (720 if con.name == "qam16" else 1440)
    # names known only to the rate table (mc) have no link scheme
    schemes = [s for s in cfg.schemes
               if s in linksim.LINK_SCHEMES or s not in rates.RATE_SCHEMES]
    rows = []
    row_idx = 0
    for m in m_values:
        rng = SeededStream(cfg.seed, 0).substream(m * 1_000_000)
        ch = sampling.ChannelSet(sampling.randn_complex(rng, m, cfg.n))
        sol = capacity.solve_mc_covariance(ch, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
        status = "ok" if sol.converged else "noconv"
        for p_db in cfg.power_db:
            for scheme in schemes:
                sim_cfg = SchemeConfig(
                    scheme, sol.covariance, con, db_to_linear(p_db), t_len
                )
                stream = SeededStream(cfg.seed, _BER_ROW_BASE + row_idx)
                res = linksim.simulate_worst_user_ber(sim_cfg, ch, cfg.n_frames, stream)
                rows.append([scheme, cfg.n, m, p_db, con.name, res.worst_user_ber,
                             res.worst_user_stderr, res.bits_simulated, status])
                row_idx += 1
    return _csv(header, rows), 0


def cmd_solve_cov(cfg):
    """Solve the max-min covariance for one channel draw and dump W*, the
    per-user gains and solver status."""
    rng = SeededStream(cfg.seed, 0).substream(0)
    ch = sampling.ChannelSet(sampling.randn_complex(rng, cfg.m, cfg.n))
    sol = capacity.solve_mc_covariance(ch, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    rho, rho_min = capacity.rho_values(sol.covariance, ch)
    header = ["kind", "i", "j", "value_re", "value_im"]
    rows = []
    w = sol.covariance.entries
    for i in range(cfg.n):
        for j in range(cfg.n):
            rows.append(["W", i, j, w[i, j].real, w[i, j].imag])
    for i, r in enumerate(rho):
        rows.append(["rho", i, 0, r, 0.0])
    rows.append(["rho_min", 0, 0, rho_min, 0.0])
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
    parser.add_argument("--out", default=None, help="output CSV path (default: config/stdout)")
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
    dest = args.out or cfg.output
    if dest in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
