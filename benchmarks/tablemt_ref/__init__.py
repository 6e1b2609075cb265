"""A frozen copy of tablemt 0.1.0: the modules that ``fit`` and ``predict``
need, unchanged.

The benchmark runs a fixed piece of work with this copy between its timed
tasks, to measure how fast the shared host is at that moment (see
``benchmarks/hostref.py``).  It must not follow changes to ``src/tablemt``:
a speedup of the program would then speed up the reference too and cancel
out of every rescaled time.  Do not edit these files.
"""
