"""Command-line front end.

Subcommands: ``tensor``, ``solve``, ``farfield``, ``nearfield``, ``budget``,
``validate``, ``gen``.  Scenarios are JSON documents (schema version 1) with
``bodies``, ``wave``, optional ``solver`` options and an optional ``task``
block carrying per-subcommand parameters.  Outputs are JSON or CSV with all
floats printed in scientific notation at 17 significant digits, so repeated
runs of the same scenario are byte-identical.

Exit status: 0 success, 2 scenario/validation failure, 1 hard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

__all__ = ["main"]

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario document is malformed; message names the offending field."""


# ---------------------------------------------------------------------------
# Deterministic serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".16e")


def _dump_json(obj, out, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(f'{pad}  "{key}": ')
            _dump_json(val, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        simple = all(isinstance(v, (int, float, bool)) or v is None for v in obj)
        if simple:
            out.append("[" + ", ".join(_scalar(v) for v in obj) + "]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad + "  ")
            _dump_json(val, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(v) -> str:
    if hasattr(v, "item"):  # numpy scalar
        v = v.item()
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt_float(v)
    return json.dumps(v)


def dumps_json(obj) -> str:
    out: list[str] = []
    _dump_json(obj, out)
    out.append("\n")
    return "".join(out)


def _complex_vec(v) -> list:
    return [[float(c.real), float(c.imag)] for c in v]


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Scenario handling


def _load_scenario(path):
    if path is None:
        raise ScenarioError("scenario: --scenario <path> is required for this task")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: top level must be an object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"schema: must be {SCHEMA_VERSION}, got {doc.get('schema')!r}")
    return doc


def _parse_wave(doc):
    from .foldy import PlaneWave

    wave = doc.get("wave")
    if wave is None:
        raise ScenarioError("wave: field is required")
    for key in ("theta", "p"):
        if key not in wave or len(wave[key]) != 3:
            raise ScenarioError(f"wave.{key}: must be a 3-vector")
    k = complex(float(wave.get("k_re", 0.0)), float(wave.get("k_im", 0.0)))
    if k.imag < 0.0:
        raise ScenarioError("wave.k_im: must be >= 0")
    try:
        return PlaneWave(k=k, theta=wave["theta"], p=wave["p"])
    except ValueError as exc:
        raise ScenarioError(f"wave: {exc}") from exc


def _parse_cluster(doc, scenario_path):
    from .geometry import MeshError, cluster_from_dict

    base = os.path.dirname(os.path.abspath(scenario_path)) if scenario_path else None
    try:
        return cluster_from_dict(doc, base_dir=base)
    except FileNotFoundError:
        raise
    except (ValueError, MeshError) as exc:
        raise ScenarioError(str(exc)) from exc


def _output_path(args, doc) -> str | None:
    # --out wins; a scenario may carry a default output path
    if args.out is not None:
        return args.out
    out = doc.get("output")
    if out is not None and not isinstance(out, str):
        raise ScenarioError("output: must be a path string")
    return out


def _check_task(doc, expected: str) -> dict:
    task = doc.get("task", {})
    if not isinstance(task, dict):
        raise ScenarioError("task: must be an object")
    declared = task.get("type")
    if declared is not None and declared != expected:
        raise ScenarioError(f"task.type: scenario declares {declared!r}, invoked {expected!r}")
    return task


def _solver_options(doc):
    opts = doc.get("solver", {})
    method = opts.get("method", "auto")
    if method not in ("auto", "direct", "neumann"):
        raise ScenarioError(f"solver.method: must be auto|direct|neumann, got {method!r}")
    return {
        "method": method,
        "tol": float(opts.get("tol", 1e-12)),
        "max_iter": int(opts.get("max_iter", 10000)),
        "cap": int(opts.get("direct_cap", 500)),
    }


def _metadata(args) -> dict:
    from . import __version__

    return {
        "schema": SCHEMA_VERSION,
        "tool": "foldylax",
        "version": __version__,
        "seed": args.seed,
    }


def _pipeline(doc, scenario_path):
    """Shared solve pipeline: cluster, tensors, spectra, wave, solution."""
    from . import foldy, layerops
    from .geometry import validate_regime

    cluster = _parse_cluster(doc, scenario_path)
    wave = _parse_wave(doc)
    tensors = layerops.cluster_tensors(cluster)
    spectra = layerops.cluster_spectra(tensors, cluster.epsilon)
    opts = _solver_options(doc)
    blocks, rhs = foldy.assemble(cluster, tensors, wave)
    solution = foldy.solve(blocks, rhs, method=opts["method"], tol=opts["tol"],
                           max_iter=opts["max_iter"], cap=opts["cap"])
    constants = foldy.invertibility_constants(cluster, spectra, wave.k)
    regime = validate_regime(cluster, wave.k, spectra.mu_plus)
    bound = foldy.solution_norm_bound(solution, cluster, spectra, wave, constants)
    return cluster, wave, spectra, solution, constants, regime, bound


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_tensor(args):
    from . import layerops
    from .geometry import cluster_from_dict

    doc = _load_scenario(args.scenario)
    _check_task(doc, "tensor")
    base = os.path.dirname(os.path.abspath(args.scenario))
    cluster = cluster_from_dict(doc, base_dir=base)
    reports = [layerops.tensor_report(b) for b in cluster.bodies]
    _write(_output_path(args, doc), dumps_json({"metadata": _metadata(args), "bodies": reports}))
    return 0


def _cmd_solve(args):
    doc = _load_scenario(args.scenario)
    _check_task(doc, "solve")
    cluster, wave, spectra, sol, consts, regime, bound = _pipeline(doc, args.scenario)
    payload = {
        "metadata": _metadata(args),
        "m": cluster.m,
        "epsilon": cluster.epsilon,
        "delta": cluster.delta,
        "a_coeffs": [_complex_vec(row) for row in sol.a_coeffs],
        "b_coeffs": [_complex_vec(row) for row in sol.b_coeffs],
        "residual": sol.residual_norm,
        "method": sol.method,
        "iterations": sol.iterations,
        "constants": consts.as_dict(),
        "regime_report": regime.as_dict(),
        "norm_bound": bound,
    }
    _write(_output_path(args, doc), dumps_json(payload))
    return 0


def _tau_grid(task):
    import numpy as np

    spec = task.get("directions", {"grid": "fibonacci", "count": 64})
    if "list" in spec:
        taus = np.asarray(spec["list"], dtype=float)
        norms = np.linalg.norm(taus, axis=1)
        if np.any(norms == 0.0):
            raise ScenarioError("task.directions.list: zero direction")
        return taus / norms[:, None]
    count = int(spec.get("count", 64))
    if count < 1:
        raise ScenarioError("task.directions.count: must be >= 1")
    idx = np.arange(count, dtype=float)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    zc = 1.0 - 2.0 * (idx + 0.5) / count
    rho = np.sqrt(1.0 - zc * zc)
    return np.stack([rho * np.cos(golden * idx), rho * np.sin(golden * idx), zc], axis=1)


def _csv_field_rows(header_prefix, coords, values):
    lines = [
        ",".join(header_prefix + ["Re(E1)", "Im(E1)", "Re(E2)", "Im(E2)", "Re(E3)", "Im(E3)", "|E|^2"])
    ]
    for xyz, e in zip(coords, values):
        cells = [format(float(v), ".16e") for v in xyz]
        for comp in e:
            cells += [format(float(comp.real), ".16e"), format(float(comp.imag), ".16e")]
        cells.append(format(float(sum(abs(comp) ** 2 for comp in e)), ".16e"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_farfield(args):
    from . import fields

    doc = _load_scenario(args.scenario)
    task = _check_task(doc, "farfield")
    wave_doc = doc.get("wave", {})
    if float(wave_doc.get("k_im", 0.0)) != 0.0:
        raise ScenarioError("wave.k_im: far-field pattern requires k_im = 0")
    cluster, wave, _, sol, _, _, _ = _pipeline(doc, args.scenario)
    taus = _tau_grid(task)
    samples = fields.far_field(sol, cluster, wave, taus)
    text = _csv_field_rows(["tau_x", "tau_y", "tau_z"], [s.tau for s in samples],
                           [s.e_inf for s in samples])
    _write(_output_path(args, doc), text)
    return 0


def _sample_points(task):
    import numpy as np

    spec = task.get("points")
    if spec is None:
        raise ScenarioError("task.points: required for nearfield")
    if "list" in spec:
        return np.asarray(spec["list"], dtype=float).reshape(-1, 3)
    if "line" in spec:
        line = spec["line"]
        for key in ("start", "stop", "count"):
            if key not in line:
                raise ScenarioError(f"task.points.line.{key}: required")
        t = np.linspace(0.0, 1.0, int(line["count"]))[:, None]
        a = np.asarray(line["start"], dtype=float)
        b = np.asarray(line["stop"], dtype=float)
        return a + t * (b - a)
    if "sphere" in spec:
        sph = spec["sphere"]
        radius = float(sph.get("radius", 0.0))
        if radius <= 0.0:
            raise ScenarioError("task.points.sphere.radius: must be positive")
        taus = _tau_grid({"directions": {"count": int(sph.get("count", 64))}})
        return radius * taus + np.asarray(sph.get("center", (0.0, 0.0, 0.0)), dtype=float)
    raise ScenarioError("task.points: need one of list|line|sphere")


def _cmd_nearfield(args):
    from . import fields

    doc = _load_scenario(args.scenario)
    task = _check_task(doc, "nearfield")
    cluster, wave, _, sol, _, _, _ = _pipeline(doc, args.scenario)
    points = _sample_points(task)
    values = fields.near_field(sol, cluster, wave, points)
    _write(_output_path(args, doc), _csv_field_rows(["x", "y", "z"], points, values))
    return 0


def _cmd_budget(args):
    from . import fields, foldy, layerops
    from .geometry import validate_regime

    doc = _load_scenario(args.scenario)
    _check_task(doc, "budget")
    cluster = _parse_cluster(doc, args.scenario)
    wave = _parse_wave(doc)
    tensors = layerops.cluster_tensors(cluster)
    spectra = layerops.cluster_spectra(tensors, cluster.epsilon)
    constants = foldy.invertibility_constants(cluster, spectra, wave.k)
    budget = fields.error_budget(cluster, spectra, wave.k, constants)
    payload = {
        "metadata": _metadata(args),
        "constants": constants.as_dict(),
        "regime_report": validate_regime(cluster, wave.k, spectra.mu_plus).as_dict(),
        "budget": budget.as_dict(),
    }
    _write(_output_path(args, doc), dumps_json(payload))
    return 0


def _cmd_validate(args):
    from .oracles import validation_report

    report = validation_report(seed=args.seed or 0)
    payload = {"metadata": _metadata(args), **report}
    _write(args.out, dumps_json(payload))
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}: observed {check['observed_error']:.3e} "
              f"(tolerance {check['tolerance']:.3e})", file=sys.stderr)
    return 0 if report["passed"] else 1


def _cmd_gen(args):
    import numpy as np

    if args.radius <= 0.0:
        raise ScenarioError("--radius: must be positive")
    centers = []
    if args.kind == "lattice":
        nx, ny, nz = args.nx, args.ny, args.nz
        for ix in range(nx):
            for iy in range(ny):
                for iz in range(nz):
                    centers.append([ix * args.spacing, iy * args.spacing, iz * args.spacing])
    else:
        if args.m is None:
            raise ScenarioError("--m: required for random clusters")
        if args.m < 1:
            raise ScenarioError("--m: must be >= 1")
        rng = np.random.default_rng(args.seed)
        limit = 2.0 * args.radius + args.min_gap
        placed = np.empty((args.m, 3))
        tries = 0
        while len(centers) < args.m:
            cand = rng.uniform(0.0, args.box, size=3)
            others = placed[: len(centers)]
            # the batched norm can differ from np.linalg.norm in the last bit,
            # so centers near the limit are tested with the latter
            near = np.linalg.norm(others - cand, axis=1) <= limit * (1.0 + 1e-14)
            if all(np.linalg.norm(cand - c) > limit for c in others[near]):
                placed[len(centers)] = cand
                centers.append([float(v) for v in cand])
            tries += 1
            if tries > 10000 * args.m:
                raise ScenarioError("--box: too dense to place the requested bodies")
    doc = {
        "schema": SCHEMA_VERSION,
        "metadata": _metadata(args),
        "bodies": [{"kind": "sphere", "center": c, "radius": args.radius} for c in centers],
        "wave": {"k_re": args.k, "k_im": 0.0, "theta": [0.0, 0.0, 1.0], "p": [1.0, 0.0, 0.0]},
    }
    _write(args.out, dumps_json(doc))
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="foldylax",
        description="Point-interaction scattering simulator for clusters of small conductors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", help="scenario JSON path")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized helpers")

    for name, fn, doc in (
        ("tensor", _cmd_tensor, "per-body response tensors"),
        ("solve", _cmd_solve, "solve the interaction system"),
        ("farfield", _cmd_farfield, "far-field pattern CSV"),
        ("nearfield", _cmd_nearfield, "scattered near field CSV"),
        ("budget", _cmd_budget, "error budget JSON"),
        ("validate", _cmd_validate, "run the built-in oracle suite"),
    ):
        p = sub.add_parser(name, help=doc)
        common(p)
        p.set_defaults(handler=fn)

    g = sub.add_parser("gen", help="generate a lattice or random sphere-cluster scenario")
    common(g)
    g.add_argument("--kind", choices=("lattice", "random"), default="lattice")
    g.add_argument("--nx", type=int, default=2)
    g.add_argument("--ny", type=int, default=2)
    g.add_argument("--nz", type=int, default=2)
    g.add_argument("--spacing", type=float, default=1.0)
    g.add_argument("--m", type=int, default=None, help="body count (random kind)")
    g.add_argument("--box", type=float, default=1.0, help="cube side for random placement")
    g.add_argument("--min-gap", type=float, default=0.0, dest="min_gap")
    g.add_argument("--radius", type=float, default=0.05)
    g.add_argument("--k", type=float, default=1.0, help="wavenumber written to the scenario")
    g.set_defaults(handler=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # propagated module errors are validation failures
        from .foldy import CapExceeded, NoConvergence

        if isinstance(exc, (ValueError, NoConvergence, CapExceeded)):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
