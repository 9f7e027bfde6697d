"""Command-line front end: config ingestion, one subcommand per analysis,
and deterministic JSON/CSV/SVG report emission.

Reports never contain timestamps or other run-dependent metadata, so a
rerun with the same config is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, bt, equilibria, hopf, stability
from . import sim as simmod
from ._backend import BACKEND
from .errors import PredbifError
from .model import ModelParams, State

PARAM_NAMES = ("a", "b", "c", "h", "delta", "eta", "m")


# ---------------------------------------------------------------------------
# config


def parse_config(path: str | Path) -> dict:
    """Nested config dict from a JSON file or a flat key=value file with
    dotted sections (``params.a = 2``)."""
    text = Path(path).read_text()
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        return json.loads(text)
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError:
            parsed = val
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = parsed
    return cfg


def params_from_config(cfg: dict) -> ModelParams:
    p = cfg.get("params", {})
    missing = [n for n in PARAM_NAMES if n not in p]
    if missing:
        raise ValueError(f"config is missing params: {missing}")
    return ModelParams(**{n: float(p[n]) for n in PARAM_NAMES})


# ---------------------------------------------------------------------------
# deterministic emitters


def _fmt(x: float) -> str:
    if x != x:
        return "NaN"
    return format(float(x), ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    pad2 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad2}{json.dumps(str(k))}: {to_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad2}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _svg_polyline(pts, xmin, xmax, ymin, ymax, w, h, color):
    def sx(x):
        return 40.0 + (x - xmin) / (xmax - xmin or 1.0) * (w - 60.0)

    def sy(y):
        return h - 30.0 - (y - ymin) / (ymax - ymin or 1.0) * (h - 50.0)

    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{coords}"/>'


def _render_svg(series: list[tuple[str, list]], labels: tuple[str, str],
                size=(640, 480)) -> str:
    """Minimal line plot: one polyline per (color, points) series."""
    w, h = size
    all_pts = [p for _, pts in series for p in pts]
    if not all_pts:
        xmin = ymin = 0.0
        xmax = ymax = 1.0
    else:
        xmin = min(p[0] for p in all_pts)
        xmax = max(p[0] for p in all_pts)
        ymin = min(p[1] for p in all_pts)
        ymax = max(p[1] for p in all_pts)
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="{h - 8}" font-size="12" text-anchor="middle">'
        f"{labels[0]}</text>",
        f'<text x="12" y="{h / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 12 {h / 2:.0f})">{labels[1]}</text>',
    ]
    for color, pts in series:
        if pts:
            body.append(_svg_polyline(pts, xmin, xmax, ymin, ymax, w, h, color))
    body.append("</svg>")
    return "\n".join(body) + "\n"


# Write jobs: ("json", name, results) | ("csv", name, header, rows)
#           | ("svg", name, series, labels)


# ---------------------------------------------------------------------------
# subcommands


def _eq_dict(e: equilibria.Equilibrium) -> dict:
    return {"x": e.x, "y": e.y, "kind": e.kind, "source": e.source}


def cmd_equilibria(cfg, params, fmt, tol, seed):
    region = equilibria.classify_region(params.h, params.c)
    eqs = equilibria.all_equilibria(params)
    equilibria.check_printed_quartic(params)
    results = {"region": region.tag, "equilibria": [_eq_dict(e) for e in eqs]}
    return [("json", "equilibria", results)]


def cmd_stability(cfg, params, fmt, tol, seed):
    eqs = equilibria.all_equilibria(params)
    equilibria.check_printed_quartic(params)
    rows = []
    for e in eqs:
        rep = stability.classify_generic(params, e)
        rows.append(
            {
                "equilibrium": _eq_dict(e),
                "label": rep.label,
                "trace": rep.trace,
                "det": rep.det,
                "eigenvalues": [[ev.real, ev.imag] for ev in rep.eigenvalues],
                "sector": rep.sector,
                "branch": rep.theorem_branch,
            }
        )
    return [("json", "stability", {"reports": rows})]


def cmd_hopf(cfg, params, fmt, tol, seed):
    opts = cfg.get("hopf", {})
    interval = (float(opts.get("delta_min", 1e-3)), float(opts.get("delta_max", 1.0)))
    n = int(opts.get("n_samples", 200))
    branch = int(opts.get("branch", 0))
    points = hopf.hopf_scan(params, interval, n, branch)
    results = [
        {
            "delta_H": hd.delta_H,
            "omega": hd.omega,
            "det": hd.det,
            "l_printed": hd.l,
            "l_numeric": hd.l_numeric,
            "transversality": hd.transversality,
            "cycle_verdict": hd.cycle_verdict,
            "empirical_verdict": hd.empirical_verdict,
            "equilibrium": {"x": hd.equilibrium.x, "y": hd.equilibrium.y},
        }
        for hd in points
    ]
    return [("json", "hopf", {"hopf_points": results})]


def cmd_bt_locate(cfg, params, fmt, tol, seed):
    pts = bt.bt_locate(params)
    results = [
        {"x": p.x, "y": p.y, "h_bt": p.h_bt, "delta_bt": p.delta_bt, "case": p.case_tag}
        for p in pts
    ]
    return [("json", "bt-locate", {"bt_points": results})]


def cmd_bt_normal_form(cfg, params, fmt, tol, seed):
    results = []
    for p in bt.bt_locate(params):
        nf = bt.normal_form(params, p)
        results.append(
            {
                "point": {"x": p.x, "y": p.y, "h_bt": p.h_bt, "delta_bt": p.delta_bt,
                          "case": p.case_tag},
                "g20_0": nf.g20_0,
                "g11_0": nf.g11_0,
                "g02_0": nf.g02_0,
                "two_A0": 2.0 * nf.A0,
                "B0": nf.B0,
                "s": nf.s,
                "beta_jacobian": [list(map(float, row)) for row in nf.beta_jacobian],
                "det_beta_jacobian": float(np.linalg.det(nf.beta_jacobian)),
                "nondegeneracy": nf.nondegeneracy,
                "notes": nf.diagnostics,
            }
        )
    return [("json", "bt-normal-form", {"normal_forms": results})]


def cmd_bt_curves(cfg, params, fmt, tol, seed):
    opts = cfg.get("curves", {})
    box = (
        float(opts.get("lambda1_min", 0.0)),
        float(opts.get("lambda1_max", 1e-4)),
        float(opts.get("lambda2_min", -1e-4)),
        float(opts.get("lambda2_max", 1e-4)),
    )
    n = int(opts.get("n", 50))
    pts = bt.bt_locate(params)
    if not pts:
        raise PredbifError("no BT point to unfold")
    nf = bt.normal_form(params, pts[0])
    cs = bt.bifurcation_curves(nf, box, n)
    rows = []
    for name in ("T", "H", "P"):
        for l1, l2 in getattr(cs, name):
            b1, b2 = bt.beta_map(nf, l1, l2)
            rows.append([name, l1, l2, b1, b2])
    jobs = [("csv", "bt-curves", ["curve", "lambda1", "lambda2", "beta1", "beta2"], rows)]
    if fmt == "svg":
        series = [("black", cs.T), ("red", cs.H), ("blue", cs.P)]
        jobs.append(("svg", "bt-curves", series, ("lambda1", "lambda2")))
    elif fmt == "json":
        results = {"box": list(box), "T": [list(p) for p in cs.T],
                   "H": [list(p) for p in cs.H], "P": [list(p) for p in cs.P]}
        jobs.append(("json", "bt-curves", results))
    return jobs


def cmd_simulate(cfg, params, fmt, tol, seed):
    opts = cfg.get("simulate", {})
    x0 = State(float(opts.get("x0", 0.5)), float(opts.get("y0", 0.5)))
    t_end = float(opts.get("t_end", 100.0))
    traj = simmod.integrate(params, x0, t_end, tol, on_failure="keep")
    rows = [[float(t), float(s[0]), float(s[1])]
            for t, s in zip(traj.times, traj.states)]
    jobs = [("csv", "simulate", ["t", "x", "y"], rows)]
    if fmt == "svg":
        pts = [(float(s[0]), float(s[1])) for s in traj.states]
        jobs.append(("svg", "simulate", [("black", pts)], ("x", "y")))
    elif fmt == "json":
        results = {
            "terminated": traj.terminated,
            "n_steps": len(traj) - 1,
            "final": {"x": traj.final.x, "y": traj.final.y},
        }
        jobs.append(("json", "simulate", results))
    return jobs


def cmd_sweep(cfg, params, fmt, tol, seed):
    opts = cfg.get("sweep", {})
    h_lo, h_hi = float(opts.get("h_min", 0.05)), float(opts.get("h_max", 0.95))
    c_lo, c_hi = float(opts.get("c_min", 0.05)), float(opts.get("c_max", 0.95))
    n_h, n_c = int(opts.get("n_h", 10)), int(opts.get("n_c", 10))
    rows = []
    for hv in np.linspace(h_lo, h_hi, n_h):
        for cv in np.linspace(c_lo, c_hi, n_c):
            p = params.with_(h=float(hv), c=float(cv))
            region = equilibria.classify_region(p.h, p.c).tag
            try:
                eqs = equilibria.interior_equilibria(p)
                labels = [stability.classify_generic(p, e).label for e in eqs]
                rows.append([float(hv), float(cv), region, len(eqs), ";".join(labels)])
            except PredbifError as exc:
                rows.append([float(hv), float(cv), region, -1, f"error:{type(exc).__name__}"])
    return [("csv", "sweep", ["h", "c", "region", "n_interior", "labels"], rows)]


COMMANDS = {
    "equilibria": cmd_equilibria,
    "stability": cmd_stability,
    "hopf": cmd_hopf,
    "bt-locate": cmd_bt_locate,
    "bt-normal-form": cmd_bt_normal_form,
    "bt-curves": cmd_bt_curves,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="predbif",
        description="Bifurcation analyses of the harvested Holling-III / "
        "Leslie-Gower predator-prey system",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="config file (key=value or JSON)")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--format", default="json", choices=["json", "csv", "svg"])
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--seed", type=int, default=0)
    return ap


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config)
        params = params_from_config(cfg)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"predbif: config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.setdefault("seed", args.seed)
    cfg.setdefault("tol", args.tol)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            jobs = COMMANDS[args.command](cfg, params, args.format, args.tol, args.seed)
        diags = sorted({str(w.message) for w in caught})
    except PredbifError as exc:
        print(f"predbif: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    written = []
    for job in jobs:
        if job[0] == "json":
            _, name, results = job
            report = {
                "config": cfg,
                "results": results,
                "diagnostics": diags,
                "versions": {"predbif": __version__, "backend": BACKEND},
            }
            path = out_dir / f"{name}.json"
            path.write_text(to_json(report) + "\n")
        elif job[0] == "csv":
            _, name, header, rows = job
            path = out_dir / f"{name}.csv"
            path.write_text(_render_csv(header, rows))
        else:
            _, name, series, labels = job
            path = out_dir / f"{name}.svg"
            path.write_text(_render_svg(series, labels))
        written.append(path)
    for path in written:
        print(path)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
