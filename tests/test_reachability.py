"""The library holds what a command runs.

Reduced configs of all five commands, plus M = 1, all seven CLI link schemes
and a rank-4 QOSTBC row, run under sys.setprofile.
Every function, method and lambda defined under src/sbfmc that none of them
calls must be on UNCALLED, with the reason it stays.  A function that only
tests call belongs in tests/helpers.py; one that nothing calls is deleted.
"""

import ast
import inspect
import pathlib
import sys
import types

import sbfmc
from sbfmc.cli import main
from sbfmc.linksim import SchemeConfig, make_constellation, simulate_ber_sweep
from sbfmc.sampling import ChannelSet, SeededStream, randn_complex

from test_golden import RANK4_COV

PACKAGE = pathlib.Path(sbfmc.__file__).resolve().parent

# Functions that no command calls, by module-relative dotted name.
UNCALLED = {
    # read by the benchmark harness only, until it records no backend
    "backend.backend_name",
    # error path: a quadrature that misses its tolerance
    "quadrature.QuadratureError.__init__",
}

# comprehensions run as part of the function that holds them
_INLINE = {"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"}

CONFIGS = {
    "rates": "n = 4\nm_grid = 1, 3\npower_db = 0, 20\nn_realizations = 3\n",
    "gaps": "power_db = -5, 0, 20, 40\nrank = 3\n",
    "verify": ("n_samples = 1000\npower_db = 0, 20\nrank = 3\nschemes = mc, gauss_sbf, "
               "ellip_sbf, gauss_sbf_alamouti, ellip_sbf_alamouti, bingham_phi\n"),
    # a rank-1 elliptic row: the point-mass law
    "verify_rank1": "n_samples = 1000\npower_db = 10\nrank = 1\nschemes = ellip_sbf\n",
    "ber": ("n = 4\nm = 3\npower_db = 10\nconstellation = qpsk\nframe_length = 8\n"
            "n_frames = 2\nschemes = mc, bf, gauss_sbf, ellip_sbf, bf_alamouti, "
            "gauss_sbf_alamouti, ellip_sbf_alamouti, precoded_sm\n"),
    "solve-cov": "n = 4\nm = 3\n",
}


def library_functions():
    """{(file, first line, name): dotted name} of every function, method and
    lambda in the package sources.  Keys come from code objects, so they
    match the frames of the running code (a decorated function starts at
    its decorator line in both)."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_name in _INLINE:
                walk(const, prefix)
                continue
            dotted = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = dotted
            walk(const, dotted)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


def run_commands(tmp_path):
    for name, text in CONFIGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        argv = [name.split("_")[0], "--config", str(cfg), "--out", str(tmp_path / f"{name}.csv")]
        assert main(argv) == 0, name
    # precoded_qostbc needs a rank-4 W*, which no small shipped-style draw gives
    ch = ChannelSet(randn_complex(SeededStream(16, 0).generator(), 3, 4))
    cfg = SchemeConfig("precoded_qostbc", RANK4_COV, make_constellation("qpsk"), 8)
    simulate_ber_sweep([cfg], [4.0], ch, 2, SeededStream(16, 1))


def test_every_library_function_runs_in_a_command(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_commands(tmp_path)
    finally:
        sys.setprofile(None)
    functions = library_functions()
    for code in called:
        key = (str(pathlib.Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name)
        functions.pop(key, None)
    assert sorted(functions.values()) == sorted(UNCALLED)


def test_library_imports_nothing_from_tests():
    test_modules = {p.stem for p in pathlib.Path(__file__).resolve().parent.glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not {n.split(".")[0] for n in names} & (test_modules | {"tests"}), path.name
