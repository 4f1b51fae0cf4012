"""Benchmark workloads for ``uavplace simulate``.

Every workload uses the urban preset, fc = 2 GHz, Pt = 30 dBm and
Pn = -120 dBm on a 3 km x 3 km area, and runs the paper's 9-step ES grid.

A workload is a pool of batches. Batch ``k`` is one ``uavplace simulate``
call with ``--seed k`` (the master seed) and ``trials`` trials, so its inputs
are fully determined by ``k``. The golden records in ``golden/`` hold the
seed code's output for every batch of the pool, which is what lets any
benchmark ``--seed`` be checked: the benchmark seed only chooses the order in
which a run visits the pool. Pools are sized to about 0.8 times what the
seed code finishes in a 30-second run on a 2-core x86 machine: a run visits
every batch once and then wraps around, so runs with different seeds see
nearly the same trial mix and their spread is the machine's, not the
inputs'.

``trace_batches`` is the fixed number of batches (the first ones in the
seed's order) that a traced run covers, sized to about a quarter of a
30-second run on the seed code, so per-layer counts repeat exactly for a
given seed.

Each ``why`` states the workload's purpose and the layer shares measured by
the benchmark's traced run on the seed code (self time over traced wall
time; README.md has the full table and the per-layer predictions).
"""

from __future__ import annotations

from dataclasses import dataclass

_RADIO = """\
[area]
width_km = 3
height_km = 3

[radio]
fc_hz = 2e9
pt_dbm = 30
pn_dbm = -120

[environment]
preset = urban
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(gamma_th_db, lambda_per_km2)`` per class, in class-id order.
    classes: tuple[tuple[float, float], ...]
    algorithms: tuple[str, ...]
    fixed_count: bool
    trials: int
    pool: int
    trace_batches: int

    def ini(self, trials: int | None = None) -> str:
        """Scenario file text; ``trials`` overrides the batch size."""
        parts = [_RADIO]
        for i, (gamma, lam) in enumerate(self.classes, start=1):
            parts.append(f"[class.{i}]\ngamma_th_db = {gamma}\nlambda_per_km2 = {lam}\n")
        parts.append(
            f"[sim]\ntrials = {self.trials if trials is None else trials}\n"
            "master_seed = 0\ngrid_points = 9\n"
        )
        parts.append("[algorithms]\n" + "".join(f"{a}\n" for a in self.algorithms))
        return "\n".join(parts)

    def cli_flags(self) -> list[str]:
        return ["--fixed-count"] if self.fixed_count else []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            why=(
                "The paper's Monte Carlo setup: two classes (50/47 dB) at 5.5/km2 each, "
                "Poisson counts (about 100 users), es+mwa+lq. es solves 10 placements per "
                "trial and mwa and lq one each, so placement takes about 94% of traced "
                "time and the link budget (radius, channel) about 4%. About 130 ms per trial."
            ),
            classes=((50.0, 5.5), (47.0, 5.5)),
            algorithms=("es", "mwa", "lq"),
            fixed_count=False,
            trials=20,
            pool=10,
            trace_batches=3,
        ),
        Workload(
            name="dense",
            why=(
                "Exactly 200 users (--fixed-count, 11.12/km2 per class), es+mwa+lq: twice "
                "the paper's n, so the O(n^3) placement kernel takes about 99% of traced "
                "time and the link budget about 0.7%. lq places with one radius for "
                "everyone, mwa with two, es at ten altitudes. About 0.8 s per trial. "
                "400 users would leave es out (6 s per trial), and every workload must "
                "report es latency."
            ),
            classes=((50.0, 11.12), (47.0, 11.12)),
            algorithms=("es", "mwa", "lq"),
            fixed_count=True,
            trials=3,
            pool=10,
            trace_batches=2,
        ),
        Workload(
            name="sparse",
            why=(
                "Four classes (53/50/47/44 dB) at 0.5/km2 each, Poisson counts (about 18 "
                "users), es+mwa+lq. Placement falls to about 22% of traced time; "
                "mwa_altitude takes about 52% (inclusive), mostly in the scalar "
                "coverage_radius/mean_path_loss path, and radius plus channel take about "
                "68% of self time. Per-trial work is smallest, so sim and cli overhead "
                "shows. About 15 ms per trial."
            ),
            classes=((53.0, 0.5), (50.0, 0.5), (47.0, 0.5), (44.0, 0.5)),
            algorithms=("es", "mwa", "lq"),
            fixed_count=False,
            trials=100,
            pool=15,
            trace_batches=5,
        ),
    )
}
