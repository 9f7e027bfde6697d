"""Seeded inputs, operations and output checks for the three workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  Operations come in *blocks*; block ``k`` of
a workload is a pure function of ``(seed, k)``, so a run that completes more
blocks on a faster machine still sees the same inputs for the blocks both
runs share.  Each block holds a fixed mix of operation kinds, which keeps
the per-block cost distribution the same from seed to seed.

An *item* is the unit the throughput metric counts: a grid point in
``region-sweep``, a trajectory in ``trajectories`` and a report (one
``cli.run`` call) in ``bifurcation-reports``.

Checks run outside the timed region.  They never compare report bytes: a
last-digit change in a report is allowed, a wrong equilibrium is not.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from pathlib import Path

from predbif import cli, equilibria, sim, stability
from predbif.hopf import TRACE_TOL
from predbif.model import EQUILIBRIUM_TOL, ModelParams, State, jacobian, rhs

WORKLOADS = ("region-sweep", "trajectories", "bifurcation-reports")

# Base parameter sets, copied from the shipped example configs.
BT_FAMILY = dict(a=2.0, b=-2.82, c=0.05, h=0.17, delta=0.03, eta=0.1, m=0.8)  # bt_example
K13_FAMILY = dict(a=1.0, b=2.0, c=0.2, h=0.1, delta=0.5, eta=0.1, m=1.0)  # sweep_regions
HOPF_BASE = dict(a=2.0, b=-2.82, c=0.05, h=0.1915598183, delta=0.0178, eta=0.1,
                 m=0.8)  # hopf_example
SIM_BASE = dict(HOPF_BASE, delta=0.01785700222)  # simulate_example

#: Hopf point of the hopf_example branch; limit-cycle probes sit next to it.
DELTA_HOPF = 0.0178582042

#: sweep grids are SWEEP_N x SWEEP_N points
SWEEP_N = 16

#: trajectories per phase-portrait operation
PORTRAIT_SEEDS = 4

#: labels of equilibria with complex eigenvalues, which a cycle probe can
#: circle; at the Hopf point itself the label is Center-candidate
SPIRAL_LABELS = ("StableSpiral", "UnstableSpiral", "Center-candidate")

REPORT_COMMANDS = ("equilibria", "stability", "hopf", "bt-locate", "bt-normal-form",
                   "bt-curves", "simulate")
REPORT_FORMATS = ("json", "csv", "svg")

#: final states of a trajectory at tol=1e-9 and at tol=1e-12 must agree this
#: closely; over 180 seeded trajectories the largest deviation was 7e-9
REINTEGRATE_TOL = 1e-6

#: Both re-integrations share the kernel, so a wrong but consistent kernel
#: passes that comparison.  On a quarter of the blocks, the same start is
#: also integrated to RK4_T with sim.integrate at tol=1e-12 and with the
#: benchmark's own fixed-step RK4.  Over 180 seeded starts they differed by
#: at most 2.2e-8; a kernel with one wrong DOPRI weight missed by 1.8e-5 or
#: more.
RK4_T, RK4_DT, RK4_TOL = 10.0, 5e-4, 1e-6

#: a grid point is near the diagonal when |h - c| <= NEAR_DIAGONAL * max(h, c)
NEAR_DIAGONAL = 0.01

#: grid size of the sign-scan oracle, as in acceptance criterion 7
ORACLE_GRID = 400_000

#: trace/det margins inside which an independently recomputed label is
#: ambiguous and is not compared
LABEL_MARGIN = 1e-6


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _scaled(base: dict, rng: random.Random, **spread) -> dict:
    """``base`` with each named parameter multiplied by U(1 - s, 1 + s)."""
    out = dict(base)
    for name, s in spread.items():
        out[name] = base[name] * rng.uniform(1.0 - s, 1.0 + s)
    return out


# ---------------------------------------------------------------------------
# input generation


def make_block(workload: str, seed: int, k: int) -> list[dict]:
    """Operation specs of block ``k``: plain dicts, fully determined by
    ``(workload, seed, k)``."""
    rng = _rng(workload, seed, k)
    if workload == "region-sweep":
        return _sweep_block(rng)
    if workload == "trajectories":
        return _trajectory_block(rng)
    if workload == "bifurcation-reports":
        return _report_block(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_block(rng: random.Random) -> list[dict]:
    """One grid per kind: the BT family, the K1/K3 family, and a grid whose
    h and c axes coincide, so SWEEP_N points sit exactly on h = c (K2)."""
    bt_lo_h, bt_lo_c = rng.uniform(0.03, 0.12), rng.uniform(0.01, 0.06)
    k13_lo_h, k13_lo_c = rng.uniform(0.02, 0.2), rng.uniform(0.02, 0.2)
    diag_lo = rng.uniform(0.03, 0.1)
    diag_hi = diag_lo + rng.uniform(0.2, 0.6)
    grids = [
        (_scaled(BT_FAMILY, rng, delta=0.2, eta=0.1, m=0.2),
         (bt_lo_h, bt_lo_h + rng.uniform(0.15, 0.5), bt_lo_c, bt_lo_c + rng.uniform(0.1, 0.3))),
        (_scaled(K13_FAMILY, rng, delta=0.2, eta=0.1, m=0.2),
         (k13_lo_h, k13_lo_h + rng.uniform(0.3, 0.75),
          k13_lo_c, k13_lo_c + rng.uniform(0.3, 0.75))),
        (_scaled(rng.choice((BT_FAMILY, K13_FAMILY)), rng, delta=0.2, eta=0.1, m=0.2),
         (diag_lo, diag_hi, diag_lo, diag_hi)),
    ]
    ops = []
    for params, (h0, h1, c0, c1) in grids:
        cfg = {"params": params,
               "sweep": {"h_min": h0, "h_max": h1, "c_min": c0, "c_max": c1,
                         "n_h": SWEEP_N, "n_c": SWEEP_N}}
        ops.append({"kind": "sweep", "command": "sweep", "format": "csv", "config": cfg,
                    "items": SWEEP_N * SWEEP_N, "check_row": rng.randrange(SWEEP_N * SWEEP_N)})
    return ops


def _trajectory_block(rng: random.Random) -> list[dict]:
    """Four phase portraits (near the Hopf point, across the BT-family
    regime, and in the K1/K3 family) and two limit-cycle probes.

    Probe cost is bimodal in the offset of delta from the Hopf point:
    below -1e-6 a probe settles within a few revolutions; from -5e-7 up it
    integrates to t_max in both directions, 3-4x longer.  One probe per
    block from each side keeps the share of slow probes, and with it
    p90_ms, the same for every seed."""
    portraits = [
        dict(SIM_BASE, delta=DELTA_HOPF + rng.uniform(-2e-4, 2e-4)),
        dict(SIM_BASE, delta=rng.uniform(0.015, 0.03)),
        dict(SIM_BASE, delta=rng.uniform(0.015, 0.03)),
        _scaled(K13_FAMILY, rng, delta=0.4, h=0.5),
    ]
    ops = []
    for params in portraits:
        seeds = [(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)) for _ in range(PORTRAIT_SEEDS)]
        ops.append({"kind": "portrait", "params": params, "seeds": seeds,
                    "t_end": rng.uniform(200.0, 400.0), "items": PORTRAIT_SEEDS})
    # the check re-integrates one trajectory per block at tol=1e-12
    ops[rng.randrange(len(ops))]["reintegrate"] = True
    for lo, hi in ((-3e-6, -1e-6), (-5e-7, 2.5e-6)):
        probe = dict(SIM_BASE, delta=DELTA_HOPF + rng.uniform(lo, hi))
        ops.append({"kind": "probe", "params": probe, "t_max": 5000.0, "items": 1})
    rng.shuffle(ops)
    if rng.random() < 0.25:
        next(op for op in ops if op.get("reintegrate"))["rk4"] = True
    return ops


def _report_config(command: str, rng: random.Random) -> dict:
    if command in ("equilibria", "stability"):
        if rng.random() < 0.5:
            params = dict(_scaled(BT_FAMILY, rng, delta=0.2),
                          h=rng.uniform(0.1, 0.3), c=rng.uniform(0.02, 0.2))
        else:
            params = dict(_scaled(K13_FAMILY, rng, delta=0.2),
                          h=rng.uniform(0.05, 0.5), c=rng.uniform(0.05, 0.5))
        return {"params": params}
    if command == "hopf":
        return {"params": dict(HOPF_BASE),
                "hopf": {"delta_min": rng.uniform(0.01765, 0.0178),
                         "delta_max": rng.uniform(0.017859, 0.017863),
                         "n_samples": rng.randrange(90, 151), "branch": 1}}
    if command.startswith("bt-"):
        scale = 1e-4 * rng.uniform(0.7, 1.3)
        return {"params": _scaled(BT_FAMILY, rng, c=0.15, m=0.15, eta=0.05),
                "curves": {"lambda1_min": 0.0, "lambda1_max": scale,
                           "lambda2_min": -scale, "lambda2_max": scale, "n": 25}}
    if command == "simulate":
        return {"params": dict(SIM_BASE, delta=SIM_BASE["delta"] + rng.uniform(-1e-4, 1e-4)),
                "simulate": {"x0": rng.uniform(0.1, 1.0), "y0": rng.uniform(0.1, 0.6),
                             "t_end": rng.uniform(200.0, 500.0)}}
    raise ValueError(command)


def _report_block(rng: random.Random) -> list[dict]:
    """Every subcommand once, in a seeded order and with seeded formats."""
    commands = list(REPORT_COMMANDS)
    rng.shuffle(commands)
    return [{"kind": "report", "command": c, "format": rng.choice(REPORT_FORMATS),
             "config": _report_config(c, rng), "items": 1} for c in commands]


def write_config(cfg: dict, path: Path) -> None:
    """Flat ``key = value`` file, the format the shipped configs use."""
    lines = []
    for section, values in cfg.items():
        for key, value in values.items():
            lines.append(f"{section}.{key} = {value!r}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# operations


def prepare(op: dict, workdir: Path, slot: int) -> None:
    """Untimed set-up of one operation: config files and output directory."""
    if "config" in op:
        out = workdir / f"op{slot}"
        out.mkdir(parents=True, exist_ok=True)
        for stale in out.iterdir():
            stale.unlink()
        cfg_path = workdir / f"op{slot}.cfg"
        write_config(op["config"], cfg_path)
        op["argv"] = [op["command"], "--config", str(cfg_path), "--out", str(out),
                      "--format", op["format"]]
        op["out"] = out


def run_op(op: dict):
    """The timed part of one operation.  Returns its output for the check."""
    kind = op["kind"]
    if kind in ("sweep", "report"):
        code = cli.run(op["argv"])
        if code != 0:
            raise RuntimeError(f"cli.run exited {code}: {op['argv'][0]}")
        return code
    params = ModelParams(**op["params"])
    if kind == "portrait":
        return sim.phase_portrait(params, [State(x, y) for x, y in op["seeds"]], op["t_end"])
    if kind == "probe":
        for eq in equilibria.interior_equilibria(params):
            if stability.classify_generic(params, eq).label in SPIRAL_LABELS:
                return sim.detect_limit_cycle(params, eq, t_max=op["t_max"])
        raise RuntimeError("no spiral interior equilibrium to probe")
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# checks and input properties


class Checker:
    """Checks operation outputs and accumulates the properties of the
    inputs a run actually measured.  ``check`` returns a list of problems;
    an empty list means the operation passed."""

    def __init__(self) -> None:
        self.props: Counter = Counter()

    def check(self, op: dict, result) -> list[str]:
        kind = op["kind"]
        if kind == "sweep":
            return self._check_sweep(op)
        if kind == "portrait":
            return self._check_portrait(op, result)
        if kind == "probe":
            return self._check_probe(result)
        return self._check_report(op)

    # -- region-sweep ------------------------------------------------------

    def _check_sweep(self, op: dict) -> list[str]:
        with open(op["out"] / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != op["items"]:
            problems.append(f"sweep wrote {len(rows)} rows, expected {op['items']}")
        for row in rows:
            h, c, n = float(row["h"]), float(row["c"]), int(row["n_interior"])
            self.props[f"region.{row['region']}"] += 1
            self.props[f"n_interior.{n}"] += 1
            self.props["points"] += 1
            if abs(h - c) <= NEAR_DIAGONAL * max(h, c):
                self.props["near_diagonal"] += 1
            if n < 0:
                problems.append(f"sweep point h={h} c={c} failed: {row['labels']}")
        if rows:
            row = rows[op["check_row"] % len(rows)]
            problems += self._recheck_point(op["config"]["params"], row)
        return problems

    def _recheck_point(self, base: dict, row: dict) -> list[str]:
        """Interior count against the sign-scan oracle, and each label against
        a trace/det from a central-difference Jacobian at the oracle roots."""
        params = ModelParams(**dict(base, h=float(row["h"]), c=float(row["c"])))
        n = int(row["n_interior"])
        roots = [x for x in equilibria.interior_roots_oracle(params, 1.2, ORACLE_GRID)
                 if x > 1e-6]
        if len(roots) != n:
            # a near-double root can hide between grid nodes: look closer
            roots = [x for x in equilibria.interior_roots_oracle(params, 1.2, 10 * ORACLE_GRID)
                     if x > 1e-6]
        if len(roots) != n:
            return [f"h={row['h']} c={row['c']}: {n} interior equilibria, oracle finds "
                    f"{len(roots)}"]
        labels = row["labels"].split(";") if n else []
        problems = []
        for x, label in zip(roots, labels):
            expected = _independent_label(params, x, params.delta * (params.m + x) / params.eta)
            self.props["labels_checked"] += 1
            if expected is not None and expected != label:
                problems.append(f"h={row['h']} c={row['c']} x={x:.6g}: label {label}, "
                                f"recomputed {expected}")
        return problems

    # -- trajectories ------------------------------------------------------

    def _check_portrait(self, op: dict, trajs) -> list[str]:
        params = ModelParams(**op["params"])
        problems = []
        for (x, y), traj in zip(op["seeds"], trajs):
            self.props["trajectories"] += 1
            self.props["steps_accepted"] += len(traj) - 1
            self.props["end." + traj.terminated.split("(")[0]] += 1
            if not sim.bound_check(traj, params, State(x, y)).ok:
                problems.append(f"trajectory from ({x}, {y}) leaves its envelope")
        if op.get("reintegrate"):
            x, y = op["seeds"][0]
            ref = sim.integrate(params, State(x, y), op["t_end"], tol=1e-12, on_failure="keep")
            dev = max(abs(ref.final.x - trajs[0].final.x), abs(ref.final.y - trajs[0].final.y))
            self.props["reintegrated"] += 1
            if not dev < REINTEGRATE_TOL:
                problems.append(f"final state from ({x}, {y}) moves by {dev:.3g} at tol=1e-12")
        if op.get("rk4"):
            x, y = op["seeds"][0]
            short = sim.integrate(params, State(x, y), RK4_T, tol=1e-12, on_failure="keep").final
            rx, ry = _rk4_final(params, x, y, RK4_T, RK4_DT)
            dev = max(abs(short.x - rx), abs(short.y - ry))
            self.props["rk4_checked"] += 1
            if not dev < RK4_TOL:
                problems.append(f"state at t={RK4_T} from ({x}, {y}) is {dev:.3g} away from RK4")
        return problems

    def _check_probe(self, probe) -> list[str]:
        self.props["probes"] += 1
        self.props["probe." + ("found" if probe.found else "none")] += 1
        if probe.found and not (probe.period and probe.period > 0):
            return [f"cycle reported with period {probe.period}"]
        return []

    # -- bifurcation-reports -----------------------------------------------

    def _check_report(self, op: dict) -> list[str]:
        command, out = op["command"], op["out"]
        self.props["cmd." + command] += 1
        self.props["fmt." + op["format"]] += 1
        params = ModelParams(**op["config"]["params"])
        problems = []
        reports = {}
        for path in sorted(out.iterdir()):
            self.props["report_files"] += 1
            self.props["report_bytes"] += path.stat().st_size
            text = path.read_text()
            if path.suffix == ".json":
                try:
                    reports[path.stem] = json.loads(text)
                except json.JSONDecodeError as exc:
                    problems.append(f"{path.name} does not parse: {exc}")
            elif path.suffix == ".svg":
                if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
                    problems.append(f"{path.name} is not a complete SVG document")
            elif path.suffix == ".csv":
                rows = text.splitlines()
                if len(rows) < 2 or any(len(r.split(",")) != len(rows[0].split(","))
                                        for r in rows):
                    problems.append(f"{path.name} is empty or ragged")
        if command in ("equilibria", "stability"):
            rep = reports.get(command)
            if rep is None:
                return problems + [f"{command} wrote no JSON report"]
            results = rep["results"]
            eqs = (results["equilibria"] if command == "equilibria"
                   else [r["equilibrium"] for r in results["reports"]])
            for e in eqs:
                problems += _residual_problem(params, e["x"], e["y"], command)
        elif command == "hopf":
            rep = reports.get("hopf")
            if rep is None:
                return problems + ["hopf wrote no JSON report"]
            for pt in rep["results"]["hopf_points"]:
                self.props["hopf_points"] += 1
                p = ModelParams(**dict(op["config"]["params"], delta=pt["delta_H"]))
                e = pt["equilibrium"]
                problems += _residual_problem(p, e["x"], e["y"], "hopf")
                tr = float(jacobian(p, State(e["x"], e["y"])).trace())
                if not abs(tr) < TRACE_TOL:
                    problems.append(f"hopf point delta_H={pt['delta_H']}: |trace| = {abs(tr):.3g}")
        elif command in ("bt-locate", "bt-normal-form"):
            rep = reports.get(command)
            if rep is None:
                return problems + [f"{command} wrote no JSON report"]
            pts = (rep["results"]["bt_points"] if command == "bt-locate"
                   else [nf["point"] for nf in rep["results"]["normal_forms"]])
            if not pts:
                problems.append(f"{command} found no BT point")
            for pt in pts:
                p = ModelParams(**dict(op["config"]["params"], h=pt["h_bt"],
                                       delta=pt["delta_bt"]))
                problems += _residual_problem(p, pt["x"], pt["y"], command)
        elif command in ("bt-curves", "simulate"):
            if not (out / f"{command}.csv").exists():
                problems.append(f"{command} wrote no CSV")
        return problems


def _residual_problem(params: ModelParams, x: float, y: float, what: str) -> list[str]:
    fx, fy = rhs(params, State(x, y))
    res = max(abs(fx), abs(fy))
    return [] if res < EQUILIBRIUM_TOL else [f"{what}: rhs residual {res:.3g} at ({x}, {y})"]


def _rk4_final(p: ModelParams, x: float, y: float, t_end: float, dt: float):
    """Classical fixed-step RK4 on the model equations, written out here so
    that it shares no code with predbif."""
    a, b, c, h, delta, eta, m = p.a, p.b, p.c, p.h, p.delta, p.eta, p.m

    def f(x, y):
        return (x * (1.0 - x) - x * x * y / (a * x * x + b * x + 1.0) - h * x / (c + x),
                y * (delta - eta * y / (m + x)))

    n = round(t_end / dt)
    dt = t_end / n
    for _ in range(n):
        k1x, k1y = f(x, y)
        k2x, k2y = f(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y)
        k3x, k3y = f(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y)
        k4x, k4y = f(x + dt * k3x, y + dt * k3y)
        x += dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return x, y


def _independent_label(params: ModelParams, x: float, y: float) -> str | None:
    """Generic trace/det label from a central-difference Jacobian of the
    right-hand side; None when the point lies within LABEL_MARGIN of a
    label boundary."""
    e = 1e-6
    fxp, fyp = rhs(params, State(x + e, y))
    fxm, fym = rhs(params, State(x - e, y))
    fxq, fyq = rhs(params, State(x, y + e))
    fxr, fyr = rhs(params, State(x, y - e))
    j11, j21 = (fxp - fxm) / (2 * e), (fyp - fym) / (2 * e)
    j12, j22 = (fxq - fxr) / (2 * e), (fyq - fyr) / (2 * e)
    tr, det = j11 + j22, j11 * j22 - j12 * j21
    scale = 1.0 + max(abs(j11), abs(j12), abs(j21), abs(j22))
    disc = tr * tr - 4.0 * det
    if min(abs(tr), abs(det)) < LABEL_MARGIN * scale or abs(disc) < LABEL_MARGIN * scale**2:
        return None
    if det < 0:
        return "Saddle"
    if disc > 0:
        return "StableNode" if tr < 0 else "UnstableNode"
    return "StableSpiral" if tr < 0 else "UnstableSpiral"


def input_properties(workload: str, props: Counter) -> dict:
    """Shares and totals of the measured inputs, for citing which share of a
    workload a change can help."""
    def share(key: str, base: str) -> float:
        return props[key] / props[base] if props[base] else 0.0

    if workload == "region-sweep":
        return {
            "points": props["points"],
            "region_share": {r: share(f"region.{r}", "points") for r in ("K1", "K2", "K3", "None")},
            "n_interior_hist": {k.split(".", 1)[1]: v for k, v in sorted(props.items())
                                if k.startswith("n_interior.")},
            "near_diagonal_share": share("near_diagonal", "points"),
            "labels_checked": props["labels_checked"],
        }
    if workload == "trajectories":
        return {
            "trajectories": props["trajectories"],
            "steps_accepted": props["steps_accepted"],
            "end_share": {t: share(f"end.{t}", "trajectories")
                          for t in ("Converged", "TimeLimit", "Escaped", "StepFailure")},
            "probes": props["probes"],
            "probe_cycle_found_share": share("probe.found", "probes"),
            "reintegrated": props["reintegrated"],
            "rk4_checked": props["rk4_checked"],
        }
    return {
        "reports": sum(v for k, v in props.items() if k.startswith("cmd.")),
        "command_mix": {c: props[f"cmd.{c}"] for c in REPORT_COMMANDS},
        "format_mix": {f: props[f"fmt.{f}"] for f in REPORT_FORMATS},
        "hopf_points": props["hopf_points"],
        "files_written": props["report_files"],
        "kb_per_file": props["report_bytes"] / 1024 / max(props["report_files"], 1),
    }
