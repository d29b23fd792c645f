"""The four workloads: which family points run which solvers, over which field.

Every point is a (family, variables, degree) triple of the paper's grid.  Its
instance is `make_family` with a seed derived from the benchmark seed, so one
seed gives the same inputs on every run.  Scan solvers get the bound
x^(d_S + d_max); table solvers get T = all monomials of degree <= d_max.

`compare` names the two bases whose ideals the two-way containment check of
`seqrel compare` runs on: two algorithms of the point, or an algorithm and
the planted basis.  It grows steeply with the degree, so only small points
carry it.
"""

from __future__ import annotations

from dataclasses import dataclass

PLANTED = "planted"


@dataclass(frozen=True)
class Point:
    family: str
    n: int
    d: int
    algos: tuple[str, ...]
    compare: tuple[str, str] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    exact: bool  # over Q instead of F_65537
    table: bool  # finite table_oracle sized to the T*T window instead of a lazy oracle
    points: tuple[Point, ...]
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "scan-fp", exact=False, table=False,
            points=(
                Point("simplex", 2, 10, ("bms",)),
                Point("rectangle", 2, 10, ("bms-linalg",)),
                Point("simplex", 3, 5, ("bms-tweaked",)),
                Point("lshape", 3, 6, ("bms", "bms-linalg", "bms-tweaked")),
                Point("lshape", 2, 10, ("bms",)),
                Point("simplex", 2, 4, ("bms",), compare=("bms", PLANTED)),
                Point("lshape", 3, 3, ("bms",), compare=("bms", PLANTED)),
            ),
            why="BMS scans of lazily generated sequences at the top of the grid: "
                "step phases, field dunders, oracle providers and bracket",
        ),
        Workload(
            "table-fp", exact=False, table=True,
            points=(
                Point("rectangle", 2, 10, ("sfglm", "sfglm-tweaked")),
                Point("simplex", 2, 10, ("sfglm",)),
                Point("lshape", 2, 10, ("sfglm",)),
                Point("rectangle", 3, 6, ("sfglm-tweaked",)),
                Point("simplex", 3, 5, ("sfglm",)),
                Point("lshape", 3, 6, ("sfglm", "sfglm-tweaked")),
                Point("simplex", 2, 4, ("sfglm",), compare=("sfglm", PLANTED)),
                Point("lshape", 2, 5, ("sfglm",), compare=("sfglm", PLANTED)),
            ),
            why="sFGLM on finite tables sized to T*T: Hankel build, rank profile, "
                "candidate elimination and dense residuals; the oracle only looks up",
        ),
        Workload(
            "exact-q", exact=True, table=False,
            points=(
                Point("rectangle", 2, 7, ("bms", "bms-tweaked", "sfglm")),
                Point("rectangle", 3, 4, ("bms",)),
                Point("simplex", 2, 6, ("bms", "bms-tweaked", "sfglm")),
                Point("simplex", 3, 3, ("bms", "sfglm")),
                Point("lshape", 3, 4, ("bms", "bms-tweaked", "sfglm")),
                # two instances: the cost of Fraction arithmetic varies with the draw
                Point("lshape", 2, 5, ("bms", "sfglm"), compare=("bms", "sfglm")),
                Point("lshape", 2, 5, ("bms", "sfglm"), compare=("bms", "sfglm")),
            ),
            why="the same solvers over Q: Fraction growth and Bareiss, where a "
                "change made only on the numpy/F_p path must show no loss",
        ),
        Workload(
            "rank-fp", exact=False, table=False,
            points=(
                Point("rectangle", 2, 6, ("rank",)),
                Point("lshape", 2, 6, ("rank",)),
                Point("lshape", 2, 8, ("rank",)),
                Point("simplex", 2, 6, ("rank",)),
                Point("rectangle", 3, 3, ("rank",)),
                Point("lshape", 3, 4, ("rank",)),
                Point("simplex", 3, 4, ("rank",)),
                Point("simplex", 2, 4, ("rank",), compare=("rank", PLANTED)),
                Point("lshape", 3, 3, ("rank",), compare=("rank", PLANTED)),
            ),
            why="the rank solver, the only one with echelon rebuilds and reads "
                "outside its window",
        ),
    )
}


def point_seed(seed: int, index: int) -> int:
    """Instance seed of the index-th point under benchmark seed `seed`."""
    return seed * 1000 + index
