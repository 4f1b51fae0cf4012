#!/usr/bin/env python3
"""Record the golden trial records of every batch in each workload's pool.

Run from the repository root:

    python3 perfbench/make_golden.py [workload ...]

The records come from the program in ``src/`` as it stands, through the same
``uavplace simulate`` call the benchmark times, and are written to
``perfbench/golden/<workload>.json.gz``. The committed files were recorded
from the seed code; re-record only for a change that is meant to alter
results, and say so where the change is described.
"""

from __future__ import annotations

import gzip
import json
import sys

from run import GOLDEN, WORKLOADS, import_program, parse_result, run_batch, write_ini


def record(cli, workload) -> dict:
    ini = write_ini(workload)
    batches = {}
    for k in range(workload.pool):
        records, _ = parse_result(run_batch(cli, workload, ini, k)[1])
        if records is None:
            raise SystemExit(f"{workload.name}: batch {k} failed")
        batches[str(k)] = records
    scenario = cli.load_scenario(ini)
    bracket = cli.altitude_bracket(scenario.classes, scenario.env, scenario.radio)
    return {"workload": workload.name, "bracket": [bracket.h_lo_m, bracket.h_hi_m], "batches": batches}


def main(names) -> int:
    cli, _ = import_program()
    GOLDEN.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        doc = record(cli, WORKLOADS[name])
        with gzip.GzipFile(GOLDEN / f"{name}.json.gz", "wb", mtime=0) as fh:
            fh.write(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
        print(f"{name}: {sum(len(b) for b in doc['batches'].values())} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
