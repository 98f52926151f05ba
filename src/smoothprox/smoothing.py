"""An empty module, kept only because ``benchmark/run.py`` imports it by name.

The smoothing of the penalties lives in ``CouplingMatrix`` (``penalties``),
and the choice of ``mu`` in ``solver.select_mu``.  This file goes with
ROADMAP item 3(b), which drops it from the harness's list of submodules.
"""
