"""One module per paper table/figure, plus ablations.

Every experiment exposes ``run(quick=False) -> ExperimentResult``;
``quick=True`` shrinks request counts for the test suite, which checks
each quick run against the paper's claims.  ``python -m
repro.experiments`` regenerates each table/figure by calling these and
printing the series next to the paper's anchors.
"""

from repro.experiments.base import ExperimentResult, Point, Series

__all__ = ["ExperimentResult", "Point", "Series"]
