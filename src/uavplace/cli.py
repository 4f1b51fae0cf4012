"""Command-line front end: scenario files, subcommands, result serialization.

Scenario files are INI documents with unit-suffixed keys (``fc_hz``,
``pt_dbm``, ...) so a value can never be mistaken for the wrong unit. Results
are written as a JSON document plus plain CSV series for plotting; no
plotting happens here.

Exit codes: 0 success, 2 input/validation error, 3 numerical infeasibility.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from .algorithms import AltitudeGrid
from .channel import URBAN, Environment, QosClass, RadioConfig, loss_threshold
from .errors import InfeasibleThresholdError, InputError
from .placement import User
from .radius import altitude_bracket, coverage_radius, optimal_pair
from .sim import (
    KNOWN_ALGORITHMS,
    Scenario,
    TrialRecord,
    cdf,
    generate_users,
    run_trials,
    summarize,
    sweep_rho,
    trial_records,
)
SCHEMA_VERSION = 1

# Keys of each scenario-file section, with the type each value parses to.
_AREA_KEYS = {"width_km": float, "height_km": float}
_RADIO_KEYS = {"fc_hz": float, "pt_dbm": float, "pn_dbm": float}
_ENV_KEYS = {"a": float, "b": float, "eta_los_db": float, "eta_nlos_db": float}
_CLASS_KEYS = {"gamma_th_db": float, "lambda_per_km2": float}
_SIM_KEYS = {"trials": int, "master_seed": int, "grid_points": int, "rho": float}
_ENV_PRESETS = {"urban": URBAN}
_CLASS_SECTION = re.compile(r"^class\.(\d+)$")


# ---------------------------------------------------------------------------
# scenario file handling


def _read_section(
    parser: configparser.ConfigParser, section: str, keys: dict, required: bool = True
) -> dict:
    """Parsed values of the keys present in one section.

    Unknown keys are rejected. A ``required`` section must exist and hold
    every key; an optional one may omit any of them.
    """
    if not parser.has_section(section):
        if required:
            raise InputError(f"missing required section [{section}]")
        return {}
    present = set(parser.options(section))
    unknown = sorted(present - keys.keys())
    if unknown:
        raise InputError(f"unknown key '{unknown[0]}' in [{section}]")
    missing = sorted(keys.keys() - present)
    if required and missing:
        raise InputError(f"missing key '{missing[0]}' in [{section}]")
    values = {}
    for key, kind in keys.items():
        if key in present:
            raw = parser.get(section, key)
            try:
                values[key] = kind(raw)
            except (TypeError, ValueError):
                noun = "an integer" if kind is int else "a number"
                raise InputError(f"key '{key}' in [{section}] is not {noun}: {raw!r}") from None
    return values


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario INI file."""
    parser = configparser.ConfigParser(allow_no_value=True, delimiters=("=",))
    path = Path(path)
    if not path.is_file():
        raise InputError(f"scenario file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise InputError(f"malformed scenario file {path}: {exc}") from exc

    class_sections = []
    for section in parser.sections():
        m = _CLASS_SECTION.match(section)
        if m:
            class_sections.append((int(m.group(1)), section))
        elif section not in ("area", "radio", "environment", "sim", "algorithms"):
            raise InputError(f"unknown section [{section}]")
    if not class_sections:
        raise InputError("at least one [class.<id>] section is required")

    area = _read_section(parser, "area", _AREA_KEYS)
    radio = RadioConfig(**_read_section(parser, "radio", _RADIO_KEYS))
    if parser.has_option("environment", "preset"):
        if len(parser.options("environment")) > 1:
            raise InputError("[environment] preset and explicit constants are mutually exclusive")
        name = parser.get("environment", "preset")
        if name not in _ENV_PRESETS:
            raise InputError(f"unknown environment preset {name!r} (built-in: urban)")
        env = _ENV_PRESETS[name]
    else:
        env = Environment(**_read_section(parser, "environment", _ENV_KEYS))
    classes = tuple(
        QosClass.from_radio(id=class_id, radio=radio, **_read_section(parser, section, _CLASS_KEYS))
        for class_id, section in sorted(class_sections)
    )
    sim = _read_section(parser, "sim", _SIM_KEYS, required=False)
    rho = sim.pop("rho", None)

    if not parser.has_section("algorithms"):
        raise InputError("missing required section [algorithms]")
    algorithms = []
    for key in parser.options("algorithms"):
        if key not in KNOWN_ALGORITHMS:
            raise InputError(f"unknown key '{key}' in [algorithms] (choose from {KNOWN_ALGORITHMS})")
        if parser.get("algorithms", key) is not None:
            raise InputError(f"key '{key}' in [algorithms] takes no value")
        algorithms.append(key)

    scenario = Scenario(
        env=env, radio=radio, classes=classes, algorithms=tuple(algorithms), **area, **sim
    )
    return scenario if rho is None else scenario.with_rho(rho)


def load_users_csv(path, known_ids) -> list[User]:
    """Read a users CSV with header ``x_m,y_m,class_id``."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"users file not found: {path}")
    users = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("users CSV is empty (expected header x_m,y_m,class_id)") from None
        if [c.strip() for c in header] != ["x_m", "y_m", "class_id"]:
            raise InputError("users CSV line 1: expected header x_m,y_m,class_id")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InputError(f"users CSV line {lineno}: expected 3 fields, got {len(row)}")
            try:
                x = float(row[0])
                y = float(row[1])
                cid = int(row[2])
            except ValueError:
                raise InputError(f"users CSV line {lineno}: malformed row {row!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputError(f"users CSV line {lineno}: non-finite coordinate in {row!r}")
            if cid not in known_ids:
                raise InputError(f"users CSV line {lineno}: unknown class id {cid}")
            users.append(User(x, y, cid))
    return users


# ---------------------------------------------------------------------------
# result document


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "width_km": s.width_km,
        "height_km": s.height_km,
        "environment": asdict(s.env),
        "radio": asdict(s.radio),
        "classes": [asdict(c) for c in s.classes],
        "trials": s.trials,
        "master_seed": s.master_seed,
        "grid_points": s.grid_points,
        "rho": s.rho,
        "algorithms": list(s.algorithms),
        "count_mode": "fixed" if s.fixed_count else "poisson",
        "strict_lq": s.strict_lq,
    }


def build_result_document(
    scenario: Scenario,
    records: Sequence[TrialRecord] = (),
    cdf_covered: dict | None = None,
    cdf_runtime: dict | None = None,
    sweep: list | None = None,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_to_dict(scenario),
        "summary": summarize(records, scenario.algorithms) if records else {},
        # records, CDF series and sweep points are built for this document
        # alone, so ``vars`` can skip the deep copy that makes ``asdict``
        # cost about 30 us per record
        "trials": [vars(r) for r in records],
        "cdf_covered": cdf_covered,
        "cdf_runtime": cdf_runtime,
        "sweep": sweep,
    }


def _write_json(doc: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "result.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _write_cdf_csv(series, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "probability"])
        for v, p in zip(series.values, series.probabilities):
            writer.writerow([repr(v), repr(p)])


# ---------------------------------------------------------------------------
# subcommands


def _scenario_from_args(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        if not 0 <= args.seed < 2**64:
            raise InputError("--seed must fit in an unsigned 64-bit integer")
        overrides["master_seed"] = args.seed
    if getattr(args, "strict_lq", False):
        overrides["strict_lq"] = True
    if getattr(args, "fixed_count", False):
        overrides["fixed_count"] = True
    return replace(scenario, **overrides) if overrides else scenario


def _env_radio_from_args(args):
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
        return scenario.env, scenario.radio
    if args.preset is not None:
        if args.preset not in _ENV_PRESETS:
            raise InputError(f"unknown environment preset {args.preset!r} (built-in: urban)")
        env = _ENV_PRESETS[args.preset]
    else:
        missing = [
            flag
            for flag, value in (
                ("--a", args.a),
                ("--b", args.b),
                ("--eta-los-db", args.eta_los_db),
                ("--eta-nlos-db", args.eta_nlos_db),
            )
            if value is None
        ]
        if missing:
            raise InputError(
                f"environment needs --preset or explicit constants (missing {missing[0]})"
            )
        env = Environment(args.a, args.b, args.eta_los_db, args.eta_nlos_db)
    for flag, value in (("--fc-hz", args.fc_hz), ("--pt-dbm", args.pt_dbm), ("--pn-dbm", args.pn_dbm)):
        if value is None:
            raise InputError(f"radio parameter {flag} is required without --scenario")
    return env, RadioConfig(fc_hz=args.fc_hz, pt_dbm=args.pt_dbm, pn_dbm=args.pn_dbm)


def cmd_radius(args) -> int:
    env, radio = _env_radio_from_args(args)
    if args.l_th_db is None and args.gamma_th_db is None:
        raise InputError("one of --l-th-db or --gamma-th-db is required")
    if args.l_th_db is not None and args.gamma_th_db is not None:
        raise InputError("--l-th-db and --gamma-th-db are mutually exclusive")
    for flag, value in (("--l-th-db", args.l_th_db), ("--gamma-th-db", args.gamma_th_db)):
        if value is not None and not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value}")
    if args.h_m is not None and not 0.0 < args.h_m < math.inf:
        raise InputError(f"--h-m must be positive and finite, got {args.h_m}")
    l_th = args.l_th_db if args.l_th_db is not None else loss_threshold(radio, args.gamma_th_db)
    pair = optimal_pair(l_th, env, radio)
    print(f"l_th_db = {l_th!r}")
    print(f"theta_star_deg = {pair.theta_star_deg!r}")
    print(f"h_star_m = {pair.h_star_m!r}")
    print(f"r_star_m = {pair.r_star_m!r}")
    if args.h_m is not None:
        print(f"radius_m = {coverage_radius(args.h_m, l_th, env, radio)!r}")
    return 0


def cmd_place(args) -> int:
    scenario = _scenario_from_args(args)
    if args.users is not None:
        users = load_users_csv(args.users, {c.id for c in scenario.classes})
    else:
        users = generate_users(scenario, trial_id=0)
    bracket = altitude_bracket(scenario.classes, scenario.env, scenario.radio)
    grid = AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, scenario.grid_points)
    records = trial_records(scenario, grid, 0, users)
    for r in records:
        print(
            f"{r.algorithm}: covered {r.covered}/{r.total_users} at "
            f"h={r.h_m:.1f} m, center=({r.x_d_m:.1f}, {r.y_d_m:.1f})"
        )
    doc = build_result_document(scenario, records)
    path = _write_json(doc, Path(args.out))
    print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    records = run_trials(scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cdf_covered = {}
    cdf_runtime = {}
    for name in scenario.algorithms:
        covered_series = cdf([r.covered for r in records if r.algorithm == name])
        runtime_series = cdf([r.runtime_s for r in records if r.algorithm == name])
        cdf_covered[name] = vars(covered_series)
        cdf_runtime[name] = vars(runtime_series)
        _write_cdf_csv(covered_series, out_dir / f"cdf_covered_{name}.csv")
        _write_cdf_csv(runtime_series, out_dir / f"cdf_runtime_{name}.csv")
    doc = build_result_document(scenario, records, cdf_covered, cdf_runtime)
    path = _write_json(doc, out_dir)
    for name, stats in doc["summary"].items():
        print(f"{name}: mean covered {stats['mean_covered']:.2f}")
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    scenario = _scenario_from_args(args)
    try:
        rhos = [float(tok) for tok in args.rho.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"--rho must be a comma-separated list of numbers: {args.rho!r}") from None
    if not rhos:
        raise InputError("--rho lists no values")
    points = sweep_rho(scenario, rhos)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "algorithm", "mean_covered", "stderr"])
        for p in points:
            writer.writerow([repr(p.rho), p.algorithm, repr(p.mean_covered), repr(p.stderr)])
    doc = build_result_document(scenario, sweep=[vars(p) for p in points])
    path = _write_json(doc, out_dir)
    print(f"wrote {out_dir / 'sweep.csv'}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavplace",
        description="3D placement of a single aerial base station maximizing covered users",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_radius = sub.add_parser("radius", help="coverage radius and optimal altitude for one threshold")
    p_radius.add_argument("--scenario", help="scenario file providing radio and environment")
    p_radius.add_argument("--preset", help="built-in environment preset (urban)")
    p_radius.add_argument("--a", type=float, help="S-curve constant a")
    p_radius.add_argument("--b", type=float, help="S-curve constant b (per degree)")
    p_radius.add_argument("--eta-los-db", type=float, help="line-of-sight excess loss")
    p_radius.add_argument("--eta-nlos-db", type=float, help="non-line-of-sight excess loss")
    p_radius.add_argument("--fc-hz", type=float, help="carrier frequency in Hz")
    p_radius.add_argument("--pt-dbm", type=float, help="transmit power in dBm")
    p_radius.add_argument("--pn-dbm", type=float, help="noise power in dBm")
    p_radius.add_argument("--gamma-th-db", type=float, help="required mean SNR in dB")
    p_radius.add_argument("--l-th-db", type=float, help="loss threshold in dB")
    p_radius.add_argument("--h-m", type=float, help="also report the radius at this altitude")
    p_radius.set_defaults(func=cmd_radius)

    def common_run_flags(p):
        p.add_argument("--scenario", required=True, help="scenario file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, help="override the scenario master seed")
        p.add_argument("--strict-lq", action="store_true", help="report LQ coverage with the single radius")
        p.add_argument("--fixed-count", action="store_true", help="deterministic user counts instead of Poisson")

    p_place = sub.add_parser("place", help="one placement run on given or generated users")
    common_run_flags(p_place)
    p_place.add_argument("--users", help="users CSV (header x_m,y_m,class_id)")
    p_place.set_defaults(func=cmd_place)

    p_sim = sub.add_parser("simulate", help="multi-trial run with covered/runtime CDFs")
    common_run_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="mean covered users versus density ratio")
    common_run_flags(p_sweep)
    p_sweep.add_argument("--rho", required=True, help="comma-separated density ratios")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleThresholdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
