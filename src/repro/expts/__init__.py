"""Experiment drivers: one per figure of the paper's evaluation.

Each driver produces an :class:`~repro.expts.common.ExperimentResult`
holding the raw points, a rendered table, an ASCII scatter (for the
scatter figures), and the shape checks that define "reproduced" for
that figure.  ``python -m repro.expts <figure>`` regenerates any of
them from the command line; the benchmark suite runs reduced-scale
versions of the same drivers.
"""

from repro.expts.common import ExperimentPoint, ExperimentResult
from repro.expts.fig5_tables import run_fig5
from repro.expts.fig6_fsm import run_fig6
from repro.expts.fig8_stateprop import run_fig8
from repro.expts.fig9_pctrl import run_fig9
from repro.expts.techsweep import run_techsweep

__all__ = [
    "ExperimentPoint",
    "ExperimentResult",
    "run_fig5",
    "run_fig6",
    "run_fig8",
    "run_fig9",
    "run_techsweep",
]
