#!/usr/bin/env python3
"""Benchmark of ``uavplace simulate``, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in one
process with ``workers=1``: it calls ``uavplace.cli.main(["simulate", ...])``
in-process on batches of the workload's pool until ``--seconds`` of
simulate time have passed, and checks every trial record of every batch
against the golden records. Its timings are scaled to a reference machine
speed, measured by ``speed_probe`` between batches. ``--trace 1`` runs a
fixed number of batches twice, once with every layer wrapped (see
``tracing.py``) and once without, then passes the same trials through
``run_trials`` with one and with two worker threads, and reports the
per-layer metrics.

The program under test is imported from ``src/`` of the checkout that holds
this file. Outputs go to ``.bench_build/perfbench/``. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count trial records, and ``metrics`` maps each metric name to its
value and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

#: Worker threads for ``sim.thread_speedup``: nproc of the 2-core reference host.
THREADS = 2
#: Largest allowed ``h_m`` difference from the golden record, in meters.
H_TOL_M = 0.01
#: Probe time (see ``speed_probe``) at the reference speed that end-to-end
#: timings are reported at. The shared 2-core host this was tuned on swings
#: by up to 1.6x within seconds and drifts by 25-50% over minutes, moving
#: every timing of a run together; scaling by the probe cut the ten-run
#: spread of the p50s on sparse from about 0.24 to 0.06-0.08.
PROBE_REF_S = 0.040
#: A tail percentile needs this many samples beyond it ...
TAIL_BEYOND = 10
#: ... and is at most this one. Beyond about p95 the per-trial runtimes on a
#: shared 2-core machine are scheduler interruptions, not solves: on sparse
#: the top samples are 1.5-2x the median whatever the user count, and a
#: p99.5 tail spread 13-46% between runs.
TAIL_MAX_PCT = 90.0

_SETUP_CODE = """\
import time
t0 = time.perf_counter()
import json, sys
sys.path.insert(0, {src!r})
import uavplace.cli as cli
scenario = cli.load_scenario({ini!r})
bracket = cli.altitude_bracket(scenario.classes, scenario.env, scenario.radio)
t1 = time.perf_counter()
sys.path.insert(0, {here!r})
from run import speed_probe
speed_probe()
print(json.dumps([t1 - t0, bracket.h_lo_m, bracket.h_hi_m, cli.__file__, speed_probe()]))
"""


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no program to measure)."""


def import_program():
    """Import ``uavplace`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "uavplace" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'uavplace'} is missing")
    sys.path.insert(0, str(SRC))
    import uavplace.cli as cli
    import uavplace.sim as sim

    if Path(cli.__file__).resolve().parent != SRC / "uavplace":
        raise BenchError(f"imported uavplace from {cli.__file__}, not from {SRC}")
    return cli, sim


def seed_order(seed: int, pool: int) -> list[int]:
    """Order in which a run visits the pool's batches; fixed by the seed."""
    order = list(range(pool))
    random.Random(seed).shuffle(order)
    return order


def write_ini(workload, trials=None) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload.name}-{trials or workload.trials}.ini"
    path.write_text(workload.ini(trials), encoding="utf-8")
    return path


def record_key(trial_id, algorithm, total_users, covered, per_class, h_m) -> list:
    """The compared part of one trial record, as stored in the golden files."""
    per_class = {str(k): int(v) for k, v in per_class.items()}
    return [int(trial_id), algorithm, int(total_users), int(covered), per_class, float(h_m)]


def run_batch(cli, workload, ini: Path, master_seed: int):
    """One ``uavplace simulate`` call; returns (wall s, result.json text or None).

    The document is kept as text: a string holds no objects the cyclic
    garbage collector must visit, so the records a long run collects do not
    lengthen the collections that happen inside later timed solves.
    """
    out_dir = OUT / "out" / workload.name
    argv = ["simulate", "--scenario", str(ini), "--out", str(out_dir), "--seed", str(master_seed)]
    argv += workload.cli_flags()
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception as exc:  # a trial raised: the whole batch fails
        wall = time.perf_counter() - t0
        print(f"batch {master_seed} raised: {exc!r}", file=sys.stderr)
        return wall, None
    wall = time.perf_counter() - t0
    if code != 0:
        print(f"batch {master_seed} exited with {code}", file=sys.stderr)
        return wall, None
    return wall, (out_dir / "result.json").read_text(encoding="utf-8")


def parse_result(text):
    """(compared records, [(algorithm, runtime_s)]) of a result.json text, or (None, [])."""
    if text is None:
        return None, []
    trials = json.loads(text)["trials"]
    records = [
        record_key(r["trial_id"], r["algorithm"], r["total_users"], r["covered"], r["per_class_covered"], r["h_m"])
        for r in trials
    ]
    return records, [(r["algorithm"], r["runtime_s"]) for r in trials]


def trial_record_keys(records) -> list:
    return [
        record_key(r.trial_id, r.algorithm, r.total_users, r.covered, r.per_class_covered, r.h_m)
        for r in records
    ]


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json.gz"


def load_golden(name: str) -> dict:
    with gzip.open(golden_path(name), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def check_batch(golden, k: int, records, n_trials: int):
    """(attempted, failed) over the first ``n_trials`` trials of batch ``k``.

    ``records`` is None when the batch failed as a whole. Centres are not
    compared, so a tie-break change that keeps every count passes.
    """
    expected = [r for r in golden["batches"][str(k)] if r[0] < n_trials]
    if records is None:
        return len(expected), len(expected)
    want = {(r[0], r[1]): r for r in expected}
    failed = max(0, len(expected) - len(records))
    for r in records:
        g = want.get((r[0], r[1]))
        if g is None or r[2:5] != g[2:5] or not abs(r[5] - g[5]) <= H_TOL_M:
            failed += 1
    return len(expected), failed


def tail(values):
    """(p50, tail value, tail percentile, samples).

    The tail is the sample at percentile ``min(TAIL_MAX_PCT, 100 (n - 10) / n)``,
    so at least ``TAIL_BEYOND`` samples lie beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - 1 if n <= TAIL_BEYOND else min(n - 1 - TAIL_BEYOND, round(n * TAIL_MAX_PCT / 100.0) - 1)
    return statistics.median(xs), xs[rank], 100.0 * (rank + 1) / n, n


def setup_once(ini: Path):
    """One fresh interpreter: (setup_s sample, h_lo_m, h_hi_m, probe s) or None.

    The speed probe runs in this child, after the timed set-up, so its
    memory stays out of the benchmark's ``peak_rss_mb``.
    """
    code = _SETUP_CODE.format(src=str(SRC), ini=str(ini), here=str(HERE))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    seconds, h_lo, h_hi, path, probe = json.loads(proc.stdout)
    if Path(path).resolve().parent != SRC / "uavplace":
        return None
    return seconds, h_lo, h_hi, probe


def speed_probe() -> float:
    """Seconds for fixed work that no change to the program touches.

    An interpreted loop plus numpy blocks with 2 MB temporaries, the two
    kinds of work the workloads spend their time in.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += i * 0.5
    x = np.arange(2600, dtype=float)
    y = np.arange(100, dtype=float)
    for _ in range(12):
        d2 = (x[:, None] - y[None, :]) ** 2 + (y[None, :] - x[:, None]) ** 2
        acc += float((d2 <= 1e6).sum())
    return time.perf_counter() - t0


def end_to_end(cli, workload, seed: int, seconds: float):
    ini, warm_ini = write_ini(workload), write_ini(workload, trials=1)
    order = seed_order(seed, workload.pool)
    # Warm-up: the first interpreter writes the bytecode caches and the first
    # batch pays numpy's lazy initialisation; neither is timed.
    setup_once(ini)
    checked = [(order[0], run_batch(cli, workload, warm_ini, order[0])[1], 1)]

    # A set-up sample, with its speed probe, before each batch and after the
    # last one: the samples spread over the whole run, and the probes
    # bracket every batch.
    setup = []
    busy, trials, i = 0.0, 0, 0
    samples, batch_medians = defaultdict(list), defaultdict(list)
    while busy < seconds:
        setup.append(setup_once(ini))
        k = order[i % len(order)]
        i += 1
        wall, text = run_batch(cli, workload, ini, k)
        busy += wall
        checked.append((k, text, workload.trials))
        if text is not None:
            trials += workload.trials
            batch = defaultdict(list)
            for alg, rt in parse_result(text)[1]:
                batch[alg].append(rt)
            for alg, rts in batch.items():
                samples[alg] += rts
                batch_medians[alg].append(statistics.median(rts))
    setup.append(setup_once(ini))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Loaded only now, so the golden records stay out of peak_rss_mb.
    golden = load_golden(workload.name)
    setup_ok = all(
        s is not None and abs(s[1] - golden["bracket"][0]) <= H_TOL_M and abs(s[2] - golden["bracket"][1]) <= H_TOL_M
        for s in setup
    )
    counts = [check_batch(golden, k, parse_result(text)[0], n_trials) for k, text, n_trials in checked]
    attempted, failed = sum(a for a, _ in counts), sum(f for _, f in counts)

    raw = {
        "setup_s": statistics.median(s[0] for s in setup) if setup_ok else 0.0,
        "trials_per_s": trials / busy if busy else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, one before each batch and one after",
        "trials_per_s": f"{trials} trials in {busy:.3f} s of simulate calls, {i} batches",
    }
    for alg in ("es", "mwa", "lq"):
        run_p50, tail_s, pct, n = tail(samples[alg]) if samples[alg] else (0.0, 0.0, 0.0, 0)
        raw[f"{alg}_p50_s"] = statistics.fmean(batch_medians[alg]) if n else 0.0
        raw[f"{alg}_tail_s"] = tail_s
        notes[f"{alg}_p50_s"] = f"mean of {len(batch_medians[alg])} batch medians; median of all {n} samples {run_p50!r} s"
        notes[f"{alg}_tail_s"] = f"p{pct:.1f}, {n} samples, {n - round(n * pct / 100.0)} beyond"

    # Report timings at the reference speed: the probes bracket every batch,
    # so their mean measures the speed the batches ran at.
    probes = [s[3] for s in setup if s is not None]
    scale = PROBE_REF_S / statistics.fmean(probes) if probes else 1.0
    metrics = {}
    for name, value in raw.items():
        unit = "1/s" if name == "trials_per_s" else "s"
        metrics[name] = (value / scale if unit == "1/s" else value * scale, unit)
        notes[name] = f"{notes[name]}; measured {value!r} {unit}"
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    notes["speed_scale"] = f"{scale!r} = {PROBE_REF_S} s over the mean of {len(probes)} probes"
    notes["failed_frac"] = f"{failed / attempted if attempted else 1.0!r} ratio ({failed} of {attempted} records)"
    correct = setup_ok and failed == 0 and all(samples[a] for a in workload.algorithms)
    return correct, attempted, failed, metrics, notes


def traced(cli, sim, workload, seed: int):
    from tracing import HOT, LAYERS, Tracer, intersecting_pairs

    golden = load_golden(workload.name)
    ini, warm_ini = write_ini(workload), write_ini(workload, trials=1)
    batches = seed_order(seed, workload.pool)[: workload.trace_batches]
    attempted = failed = 0

    def check(k, records, n_trials=workload.trials):
        nonlocal attempted, failed
        a, f = check_batch(golden, k, records, n_trials)
        attempted += a
        failed += f

    check(batches[0], parse_result(run_batch(cli, workload, warm_ini, batches[0])[1])[0], n_trials=1)

    # Each batch runs traced and untraced back to back, alternating which
    # goes first, so machine noise hits both sides of trace_overhead alike.
    tracer = Tracer()
    traced_wall = untraced_wall = 0.0
    for i, k in enumerate(batches):
        for with_trace in (i % 2 == 0, i % 2 == 1):
            with tracer.installed() if with_trace else contextlib.nullcontext():
                wall, text = run_batch(cli, workload, ini, k)
            check(k, parse_result(text)[0])
            if with_trace:
                traced_wall += wall
            else:
                untraced_wall += wall

    base = cli.load_scenario(ini)
    walls, timed, serial, same_records = {}, 0.0, {}, True
    for workers in (1, THREADS):
        walls[workers] = 0.0
        for k in batches:
            scenario = dataclasses.replace(base, master_seed=k, fixed_count=workload.fixed_count)
            t0 = time.perf_counter()
            records = sim.run_trials(scenario, workers=workers)
            walls[workers] += time.perf_counter() - t0
            keys = trial_record_keys(records)
            check(k, keys)
            if workers == 1:
                timed += sum(r.runtime_s for r in records)
                serial[k] = keys
            else:
                same_records &= keys == serial[k]

    n_trials = workload.trials * len(batches)
    totals = tracer.totals()
    root_s = totals["cli.main"]["incl_s"]

    def per_trial(name, key):
        return totals[name][key] / n_trials

    solves = tracer.captured("placement.solve_exact")
    metrics = {}
    for name, key, unit in (
        ("placement.solve_exact", "calls", "count/trial"),
        ("placement.solve_exact", "self_s", "s/trial"),
        ("placement.evaluate_center", "calls", "count/trial"),
        ("placement.evaluate_center", "self_s", "s/trial"),
        ("algorithms.mwa_altitude", "calls", "count/trial"),
        ("algorithms.mwa_altitude", "self_s", "s/trial"),
        ("algorithms.exhaustive_search", "self_s", "s/trial"),
        ("algorithms.mwa_place", "self_s", "s/trial"),
        ("algorithms.lq_place", "self_s", "s/trial"),
        ("radius.coverage_radius", "calls", "count/trial"),
        ("radius.coverage_radius", "self_s", "s/trial"),
        ("radius.coverage_radius_profile", "calls", "count/trial"),
        ("radius.coverage_radius_profile", "self_s", "s/trial"),
        ("radius.optimal_pair", "calls", "count/trial"),
        ("radius.optimal_elevation", "self_s", "s/trial"),
        ("radius.altitude_bracket", "calls", "count/trial"),
        ("channel.mean_path_loss", "calls", "count/trial"),
        ("channel.mean_path_loss", "self_s", "s/trial"),
        ("sim.generate_users", "self_s", "s/trial"),
        ("sim.run_trials", "self_s", "s/trial"),
        ("cli.load_scenario", "self_s", "s/trial"),
        ("cli.main", "self_s", "s/trial"),
    ):
        metrics[f"{name}.{key}"] = (per_trial(name, key), unit)
    metrics["placement.solve_exact.users"] = (sum(len(u) for u, _ in solves) / n_trials, "count/trial")
    metrics["placement.intersecting_pairs"] = (
        sum(intersecting_pairs(u, r) for u, r in solves) / n_trials,
        "count/trial",
    )
    metrics["radius.coverage_radius_profile.elements"] = (
        sum(tracer.captured("radius.coverage_radius_profile")) / n_trials,
        "count/trial",
    )
    for layer in LAYERS:
        self_s = sum(t["self_s"] for name, t in totals.items() if name.startswith(layer + "."))
        metrics[f"{layer}.share"] = (self_s / root_s, "ratio")
    metrics["algorithms.mwa_altitude.share"] = (totals["algorithms.mwa_altitude"]["incl_s"] / root_s, "ratio")
    metrics["sim.timed_share"] = (timed / walls[1], "ratio")
    metrics["sim.thread_speedup"] = (walls[1] / walls[THREADS], "ratio")
    metrics["trace_overhead"] = (traced_wall / untraced_wall, "ratio")

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    notes = {
        "trace_overhead": f"traced {traced_wall:.3f} s over untraced {untraced_wall:.3f} s, same {n_trials} trials",
        "sim.thread_speedup": f"run_trials workers=1 {walls[1]:.3f} s over workers={THREADS} {walls[THREADS]:.3f} s; "
        f"records identical: {same_records}",
        "spans": f"{len(tracer.spans)} spans, {len(tracer.hot)} hot aggregates "
        f"({', '.join(sorted(HOT))} are aggregated per parent span)",
    }
    return failed == 0 and same_records, attempted, failed, metrics, notes


def git_commit():
    """HEAD commit read from ``.git`` in the checkout, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed: int, trace: int, seconds: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "uavplace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli, sim = import_program()
        if not golden_path(workload.name).is_file():
            raise BenchError(f"golden records missing: {golden_path(workload.name)}")
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    prov = provenance(workload, args.seed, args.trace, args.seconds)
    if args.trace:
        correct, attempted, failed, metrics, notes = traced(cli, sim, workload, args.seed)
    else:
        correct, attempted, failed, metrics, notes = end_to_end(cli, workload, args.seed, args.seconds)

    OUT.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "notes": notes, **result}, fh, indent=2)

    print(f"provenance {json.dumps(prov)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:42s} {value:14.6g} {unit}{note}")
    for name in notes:
        if name not in metrics:
            print(f"{name:42s} {notes[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
