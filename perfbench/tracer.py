"""Span tracing of sbfmc from outside the package.

``Tracer.install`` replaces the public functions of every sbfmc module, and
the methods that other modules call on its classes, with wrappers that
record one span (name, start, end, parent) per call.  A function is
replaced as a module attribute and at every import site that bound it by
name (``from .sampling import randn_complex`` in linksim, the
``adaptive_gauss_legendre`` binding and the ``_RATE_FNS`` table in cli), so
each call reaches the wrapper however it is looked up.  Spans stay in
memory until the caller asks for them.

Two public helpers are left unwrapped: capacity.project_simplex and
capacity.project_spectrahedron are only called from inside the covariance
solver's iteration loop, where a span per call would cost more than the
call itself.  Their time counts as self time of solve_mc_covariance.
"""

import functools
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

MODULES = ("backend", "capacity", "sampling", "specfun", "hypoexp", "gainlaws",
           "quadrature", "rates", "linksim", "cli")

UNWRAPPED = {"capacity.project_simplex", "capacity.project_spectrahedron"}

# Methods called across module boundaries: (module, class, method names).
METHODS = (
    ("sampling", "WeightSampler", ("from_covariance", "sample", "sample_pair")),
    ("hypoexp", "ExponentialMixture", ("from_weights", "pdf", "cdf", "sample",
                                       "pdf_integral")),
)

M_GRID = (2, 8, 16, 32)
SIM_SCHEMES = ("bf", "gauss_sbf", "ellip_sbf", "bf_alamouti", "gauss_sbf_alamouti",
               "ellip_sbf_alamouti", "precoded_sm")
CLOSED_FORMS = ("rate_mc", "rate_sbf_gauss", "rate_sbf_ellip", "rate_sbf_alam_gauss",
                "rate_sbf_alam_ellip", "phi_exp_mixture", "rate_bingham_user")


class Tracer:
    """In-memory span recorder plus the per-solve and per-row records.

    Spans are nested through one call stack, so sbfmc must run its work on
    one thread: the benchmark sets SBF_THREADS=1.
    """

    def __init__(self):
        self.rank_tol = 1e-9
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.solves = []
        self.ber_rows = []
        self.counts = defaultdict(int)
        self._solve_index = defaultdict(int)
        self._stack = []  # indices of the open spans

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span; return its result and the span's duration."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        return result, rec[2] - rec[1]

    def wrap(self, name, fn):
        hook = _hook_for(name)
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            result, seconds = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(self, args, result, seconds)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def start_command(self):
        """Number the solves of each M afresh for the next CLI call."""
        self._solve_index.clear()

    # ------------------------------------------------------------------
    # installation

    def install(self, package):
        """Wrap sbfmc's functions; ``package`` is the imported sbfmc."""
        import importlib

        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        self.rank_tol = mods["sampling"].RANK_TOL
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if getattr(obj, "__wrapped_by_tracer__", False):
                    continue
                owner = obj.__module__.rsplit(".", 1)[-1]
                # functions re-exported from another public module are
                # wrapped where they are defined; backend re-exports the
                # private kernel module, so its names are its own
                if owner != short and not owner.startswith("_"):
                    continue
                name = f"{short}.{attr}"
                if name in UNWRAPPED:
                    continue
                wrapper = self.wrap(name, obj)
                replaced[id(obj)] = wrapper
                setattr(mod, attr, wrapper)
        for short, cls_name, methods in METHODS:
            cls = getattr(mods[short], cls_name, None)
            if cls is not None:
                self._wrap_methods(f"{short}.{cls_name}", cls, methods)
        for cls_name, cls in vars(mods["gainlaws"]).items():
            if inspect.isclass(cls) and cls.__module__ == mods["gainlaws"].__name__ \
                    and "sample" in vars(cls):
                self._wrap_methods(f"gainlaws.{cls_name}", cls, ("sample",))
        # import sites: names bound by `from .x import f` and tables of
        # functions built at import time
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and not getattr(obj, "__wrapped_by_tracer__", False):
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
        return mods

    def _wrap_methods(self, prefix, cls, methods):
        for meth in methods:
            raw = vars(cls).get(meth)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(f"{prefix}.{meth}", raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(f"{prefix}.{meth}", raw))


# ----------------------------------------------------------------------
# hooks: counts and records taken at the wrapped boundaries


def _count_integrand(tracer, args):
    f = args[0]

    def counted(x):
        tracer.counts["integrand_evals"] += int(np.size(x))
        return f(x)

    return (counted,) + tuple(args[1:])


def _on_solve(tracer, args, sol, seconds):
    ch = args[0]
    m = int(ch.channels.shape[0])
    j = tracer._solve_index[m]
    tracer._solve_index[m] += 1
    lam = np.linalg.eigvalsh(sol.covariance.entries)[::-1]
    keep = lam > tracer.rank_tol * lam[0]
    rank = int(keep.sum())
    tracer.solves.append({
        "M": m, "j": j, "seconds": seconds, "iterations": int(sol.iterations),
        "gap": float(sol.gap),
        "converged": bool(sol.converged), "objective": float(sol.objective),
        "rank": rank, "rank_margin": float(lam[rank - 1] / lam[0]),
    })


def _on_simulate(tracer, args, res, seconds):
    cfg, ch, n_frames = args[0], args[1], args[2]
    errors = [int(round(b * res.bits_simulated)) for b in res.per_user_ber]
    tracer.counts["frames"] += int(n_frames)
    tracer.ber_rows.append({
        "scheme": cfg.scheme, "power": float(cfg.power), "M": int(ch.channels.shape[0]),
        "seconds": seconds, "n_frames": int(n_frames), "bits": int(res.bits_simulated),
        "errors": errors, "worst_user_ber": float(res.worst_user_ber),
    })


def _on_randn(tracer, args, out, seconds):
    tracer.counts["normals"] += 2 * int(np.size(out))


def _on_min_dist(tracer, args, out, seconds):
    tracer.counts["candidate_pairs"] += int(np.shape(args[0])[0]) * int(np.shape(args[1])[0])


def _on_law_sample(tracer, args, out, seconds):
    tracer.counts["gain_draws"] += int(np.size(out))


_BEFORE = {"quadrature.adaptive_gauss_legendre": _count_integrand}
_HOOKS = {
    "capacity.solve_mc_covariance": _on_solve,
    "linksim.simulate_worst_user_ber": _on_simulate,
    "sampling.randn_complex": _on_randn,
    "backend.min_dist_detect": _on_min_dist,
}


def _is_law_sample(name):
    return name.startswith("gainlaws.") and name.endswith(".sample")


def _hook_for(name):
    return _on_law_sample if _is_law_sample(name) else _HOOKS.get(name)


# ----------------------------------------------------------------------
# per-layer metrics from one pass of spans


def _group_time(spans, in_group):
    """Total time of the group's outermost spans (a span nested inside
    another span of the same group is already counted) and their number."""
    total, calls = 0.0, 0
    for rec in spans:
        if not in_group(rec[0]):
            continue
        parent = rec[3]
        nested = False
        while parent >= 0:
            if in_group(spans[parent][0]):
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            total += rec[2] - rec[1]
            calls += 1
    return total, calls


def _self_time(spans, in_group):
    """Span durations of the group minus the time of their direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return sum((rec[2] - rec[1] - child[i] for i, rec in enumerate(spans) if in_group(rec[0])),
               0.0)


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    spans = tracer.spans
    out = {}

    def is_(*names):
        names = set(names)
        return lambda n: n in names

    def t(name, pred):
        out[name] = (_group_time(spans, pred)[0], "s")

    solve_s, solve_calls = _group_time(spans, is_("capacity.solve_mc_covariance"))
    out["capacity.solve_s"] = (solve_s, "s")
    out["capacity.solve_calls"] = (solve_calls, "count")
    out["capacity.iterations"] = (sum(s["iterations"] for s in tracer.solves), "count")
    for m in M_GRID:
        at_m = [s for s in tracer.solves if s["M"] == m]
        out[f"capacity.solve_ms.M{m}"] = (1e3 * _median([s["seconds"] for s in at_m]), "ms")
        out[f"capacity.iters.M{m}"] = (_median([s["iterations"] for s in at_m]), "count")
    n_solves = len(tracer.solves)
    out["capacity.certified_frac"] = (
        sum(s["converged"] for s in tracer.solves) / n_solves if n_solves else 1.0, "1")
    out["capacity.gap_max"] = (max((s["gap"] for s in tracer.solves), default=0.0), "1")
    t("capacity.rho_values_s", is_("capacity.rho_values"))

    sim = is_("linksim.simulate_worst_user_ber")
    out["linksim.simulate_s"] = (_group_time(spans, sim)[0], "s")
    out["linksim.simulate_self_s"] = (_self_time(spans, sim), "s")
    out["linksim.frames"] = (tracer.counts["frames"], "count")
    out["linksim.bit_errors"] = (sum(sum(r["errors"]) for r in tracer.ber_rows), "count")
    for scheme in SIM_SCHEMES:
        frame_ms = [1e3 * r["seconds"] / r["n_frames"] for r in tracer.ber_rows
                    if r["scheme"] == scheme]
        out[f"linksim.frame_ms.{scheme}"] = (_median(frame_ms), "ms")
    t("linksim.count_bit_errors_s", is_("linksim.count_bit_errors"))
    t("linksim.alamouti_combine_s", is_("linksim.alamouti_combine"))

    mdd_s, mdd_calls = _group_time(spans, is_("backend.min_dist_detect"))
    pairs = tracer.counts["candidate_pairs"]
    out["backend.min_dist_detect_s"] = (mdd_s, "s")
    out["backend.min_dist_detect_calls"] = (mdd_calls, "count")
    out["backend.candidate_pairs"] = (pairs, "count")
    out["backend.pairs_per_s"] = (pairs / mdd_s if mdd_s > 0 else 0.0, "1/s")

    t("sampling.randn_complex_s", is_("sampling.randn_complex"))
    out["sampling.normals_drawn"] = (tracer.counts["normals"], "count")
    t("sampling.weights_s", is_("sampling.WeightSampler.sample",
                                "sampling.WeightSampler.sample_pair"))
    psd_s, psd_calls = _group_time(spans, is_("sampling.psd_sqrt"))
    out["sampling.psd_sqrt_s"] = (psd_s, "s")
    out["sampling.psd_sqrt_calls"] = (psd_calls, "count")

    t("gainlaws.sample_s", _is_law_sample)
    out["gainlaws.draws"] = (tracer.counts["gain_draws"], "count")
    t("hypoexp.mixture_s", lambda n: n.startswith("hypoexp.ExponentialMixture."))

    quad_s, quad_calls = _group_time(spans, is_("quadrature.adaptive_gauss_legendre"))
    out["quadrature.integrate_s"] = (quad_s, "s")
    out["quadrature.calls"] = (quad_calls, "count")
    out["quadrature.integrand_evals"] = (tracer.counts["integrand_evals"], "count")
    cf_s, cf_calls = _group_time(spans, is_(*(f"rates.{n}" for n in CLOSED_FORMS)))
    out["rates.closed_form_s"] = (cf_s, "s")
    out["rates.closed_form_calls"] = (cf_calls, "count")
    t("rates.oracle_s", is_("rates.quadrature_rate_oracle"))
    e1_s, e1_calls = _group_time(spans, is_("specfun.exp_integral_e1", "specfun.exp_e1_scaled"))
    out["specfun.e1_s"] = (e1_s, "s")
    out["specfun.e1_calls"] = (e1_calls, "count")

    out["cli.self_s"] = (_self_time(spans, lambda n: n.startswith("cli.")), "s")
    return out
