"""Empty module, kept for the benchmark harness.

The weighted sums of exponentials that lived here are now a test oracle
(tests/hypoexp.py); the only law a command needs of them, the equal-weight
one, is gainlaws.GammaGain.  perfbench's tracer still imports this module
by name, so it stays until the harness stops listing it (ROADMAP item 2)
and goes with backend.py (item 3).  No module of the package imports it.
"""
