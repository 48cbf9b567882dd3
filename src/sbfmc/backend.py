"""Name of the numeric implementation, recorded by the benchmark harness.

The package has one implementation, plain Python and numpy, so there is
nothing to select. This stub stays until the harness stops reading it
(ROADMAP item 2); no module of the package calls it.
"""


def backend_name():
    """Name of the implementation that runs: always "python"."""
    return "python"
