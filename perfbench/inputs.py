"""Seeded inputs for the three workloads.

Each generator takes the seed and yields plain parameter tuples; the
program under test only ever sees these values.  Generators are endless
and built in rounds: a run takes whole rounds, and the k-th input of
every round has the same shape (same N, same beta stratum, same kind of
check), so the median time at each position of a round is a steady figure
even though every round draws fresh values.

Two regions with known defects are kept in on purpose, so that they show
as failed operations until the program handles them.  Each round holds a
fixed number of them:

* ``edge``: the open-lower-edge beta that ``scan --beta auto`` picks for
  each alpha, where ``second_variation`` underflows to 0.0 and ``rho1``
  is blank (one cell per scan column);
* ``scale``: extremal profiles scaled by lambda outside [1e-6, 3e6],
  where endpoint screening raises ``DivergentIntegralError`` (two of the
  nine lambda strata of the extremality checks).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, NamedTuple

from ckn_lab.identities import BATTERY_POINTS, BATTERY_PROFILES
from ckn_lab.params import beta_fs
from ckn_lab.verify import EXTREMALITY_POINTS

#: dimensions that scan columns cycle through; one round is one column of each
SCAN_DIMENSIONS = (5, 6, 8)
#: interior beta strata of a scan column, as shares of the strip width.
#: The first holds the cells where Ritz falls back to a smaller basis
#: (slow cells); keeping one per column fixes their share of every run.
#: Below 0.02 the lower-edge cell stands for the underflow region.
SCAN_STRATA = (0.02, 0.12, 0.56, 1.0)
#: lambda range in which extremal scaling is expected to work today
SCALE_WINDOW = (1e-6, 3e6)
#: log10(lambda) strata of the extremality checks, one check each per round:
#: one below the window, seven inside it, one above it.  The gaps between
#: 3e-7 and 1e-6 and between 3e6 and 1e7 are left out, because there the
#: outcome depends on lambda.
SCALE_STRATA = (
    (-8.0, -6.6),
    *((-6.0 + 1.77 * k, -6.0 + 1.77 * (k + 1)) for k in range(7)),
    (7.1, 8.0),
)
_GOLDEN = 0.6180339887498949
#: inputs per round: scan columns are the lower edge, one cell per stratum and the upper edge
SCAN_ROUND = len(SCAN_DIMENSIONS) * (len(SCAN_STRATA) + 1)
FS_DIMENSIONS = (5, 6)
FS_ROUND = len(FS_DIMENSIONS)


class Cell(NamedTuple):
    N: int
    alpha: float
    beta: float
    known: str | None  # name of the known defect this input may hit


class Locate(NamedTuple):
    N: int
    alpha: float


class Check(NamedTuple):
    kind: str
    args: tuple
    known: str | None


def _spread(rng: random.Random):
    """Endless points in [0, 1): a golden-ratio sequence from a seeded start.

    Any prefix covers the interval evenly, so the mix of inputs a run
    gets through does not depend on the seed or on how far it got.
    """
    start = rng.random()
    for k in itertools.count():
        yield (start + k * _GOLDEN) % 1.0


def lower_edge_beta(N: int, alpha: float) -> float:
    """First beta of ``scan --beta auto``: the strip's lower end plus 1e-3 of its width."""
    lo = alpha - 2.0
    width = N * alpha / (N - 2.0) - lo
    return lo + 1e-3 * width


def _column(N: int, alpha: float, v: float) -> list[Cell]:
    """Edge cell, one interior cell at offset `v` inside each stratum, upper edge."""
    lo = alpha - 2.0
    hi = N * alpha / (N - 2.0)
    cells = [Cell(N, alpha, lower_edge_beta(N, alpha), "edge")]
    for start, stop in zip(SCAN_STRATA, SCAN_STRATA[1:]):
        cells.append(Cell(N, alpha, lo + (start + v * (stop - start)) * (hi - lo), None))
    cells.append(Cell(N, alpha, hi, None))
    return cells


def scan_cells(seed: int) -> Iterator[Cell]:
    """Region-map cells, one (N, alpha) column at a time, beta stratified over the strip.

    A round is `SCAN_ROUND` cells: one column for each N.
    """
    rng = random.Random(f"scan:{seed}")
    offsets = _spread(rng)
    for column, u in enumerate(_spread(rng)):
        N = SCAN_DIMENSIONS[column % len(SCAN_DIMENSIONS)]
        yield from _column(N, 0.1 + 1.9 * u, next(offsets))


def fs_locates(seed: int) -> Iterator[Locate]:
    """Transition-curve searches over the alpha range the verify battery covers.

    A round is `FS_ROUND` searches, one for N = 5 and one for N = 6.
    """
    rng = random.Random(f"fs_curve:{seed}")
    for number, u in enumerate(_spread(rng)):
        yield Locate(FS_DIMENSIONS[number % FS_ROUND], 0.5 + 1.5 * u)


#: invariants operations, taken round-robin; a round is nine checks of each kind
CHECK_KINDS = (
    "extremality",
    "euler_lagrange",
    "sign_law",
    "directional",
    "kernel",
    "laplacian_bound",
    "divergence",
    "pohozaev",
    "cross_term",
)
CHECKS_ROUND = len(CHECK_KINDS) * len(SCALE_STRATA)


def _strip_point(rng: random.Random, alpha_range, offset_range):
    """(N, alpha, beta) with beta a drawn distance above or below the curve."""
    while True:
        N = rng.choice((5, 6))
        alpha = rng.uniform(*alpha_range)
        beta = beta_fs(N, alpha) + rng.choice((-1.0, 1.0)) * rng.uniform(*offset_range)
        if alpha - 2.0 < beta <= N * alpha / (N - 2.0):
            return N, alpha, beta


def invariant_checks(seed: int) -> Iterator[Check]:
    """Public-API invariants that need no Ritz solve."""
    rng = random.Random(f"invariants:{seed}")
    for number in itertools.count():
        kind = CHECK_KINDS[number % len(CHECK_KINDS)]
        known = None
        if kind == "extremality":
            lam = 10.0 ** rng.uniform(*SCALE_STRATA[number // len(CHECK_KINDS) % len(SCALE_STRATA)])
            args = (rng.choice(EXTREMALITY_POINTS), lam)
            if not SCALE_WINDOW[0] <= lam <= SCALE_WINDOW[1]:
                known = "scale"
        elif kind == "euler_lagrange":
            args = (rng.choice(EXTREMALITY_POINTS), 10.0 ** rng.uniform(-3.0, 3.0))
        elif kind == "sign_law":
            args = _strip_point(rng, (0.5, 3.0), (0.05, 0.3))
        elif kind == "directional":
            args = _strip_point(rng, (0.5, 1.0), (0.15, 0.3))
        elif kind == "kernel":
            args = (rng.choice((5, 6)), rng.uniform(0.5, 2.0))
        else:
            point = rng.choice(BATTERY_POINTS)
            profile = rng.randrange(len(BATTERY_PROFILES))
            mode = 0 if kind == "cross_term" else rng.choice((0, 1))
            args = (point, profile, mode)
        yield Check(kind, args, known)
