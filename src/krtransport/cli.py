"""Command-line interface: JSON configs in, CSV/JSON artifacts out.

Subcommands:
    transport eval   map points through the exact or a serialized map
    approx build     fit an approximate transport and serialize it
    distance         distances between two densities or map pushforward vs target
    sample           emit pushforward samples
    study convergence | truncation | posterior

Exit codes: 0 success, 2 config error, 3 numerical failure. Errors are
emitted as a JSON object on stderr.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .approx import ApproxTransport, build_approx_transport
from .density import Density, density_from_config, uniform
from .indexsets import WeightVector, xi_from_anisotropy
from .metrics import distance_report, pushforward_distance
from .quadrature import uniform_grid
from .studies import (
    _distance_grid_order,
    _posterior_demo,
    convergence_study,
    records_to_csv,
    rng_from_seed,
    truncation_study,
    truncation_target,
)
from .transport import ExactTransport


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


class _Config:
    """Strict key accessor: every key must be consumed or the config fails."""

    def __init__(self, raw: dict):
        self.raw = dict(raw)

    _MISSING = object()

    def take(self, key, default=_MISSING):
        if key in self.raw:
            return self.raw.pop(key)
        if default is self._MISSING:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def take_as(self, key, kind, default=_MISSING):
        """take(key) converted and range-checked by kind; a value kind
        rejects is a config error."""
        value = self.take(key, default)
        if value is None and default is None:
            return None
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(
                f"bad value for config key {key!r}: {value!r} ({e})") from e

    def finish(self):
        if self.raw:
            raise ConfigError(f"unknown config keys: {sorted(self.raw)}")


# Value kinds for _Config.take_as: each converts one config value and
# raises ValueError when it is out of range. JSON true and false are no
# numbers, although Python's float() and int() take them.
def _number(value) -> float:
    if isinstance(value, bool):
        raise ValueError("must be a number")
    return float(value)


def _numbers(value):
    """A number, or a (nested) list or tuple of numbers, as floats; a
    boolean or any other element is rejected (numpy would read true as 1.0)."""
    if isinstance(value, (list, tuple)):
        return [_numbers(v) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _epsilon(value) -> float:
    eps = _number(value)
    if not 0.0 < eps < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return eps


def _epsilons(values) -> list:
    eps = [_epsilon(v) for v in values]
    if not eps:
        raise ValueError("epsilon_list must not be empty")
    return eps


def _positive(value) -> float:
    x = _number(value)
    if not x > 0.0:
        raise ValueError("must be positive")
    return x


def _count(value, low: int = 1) -> int:
    n = int(value)
    if n < low or n != float(value) or isinstance(value, bool):
        raise ValueError(f"must be an integer >= {low}")
    return n


def _seed(value) -> int:
    return _count(value, 0)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _density(spec, what: str) -> Density:
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} density spec must be an object")
    try:
        if "d" in spec:
            spec = {**spec, "d": _count(spec["d"])}
        if "sigma" in spec:
            spec = {**spec, "sigma": _number(spec["sigma"])}
        for key in ("c", "A", "varsigma"):
            if key in spec:
                spec = {**spec, key: _numbers(spec[key])}
        return density_from_config(spec)
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad {what} density spec: {e}") from e


def _weights(spec, target: Density) -> WeightVector:
    if isinstance(spec, dict):
        sub = _Config(spec)
        alpha = sub.take("alpha", 1.0)
        b = sub.take("anisotropy", None)
        sub.finish()
        b = target.anisotropy if b is None else b
        if b is None:
            raise ConfigError("xi.anisotropy omitted and target density has none")
    elif not isinstance(spec, list):
        raise ConfigError("xi must be a list of weights or an object")
    try:
        if isinstance(spec, list):
            xi = WeightVector(tuple(_numbers(spec)))
        else:
            xi = xi_from_anisotropy(_numbers(b), _number(alpha))
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad xi spec: {e}") from e
    if len(xi) < target.d:
        raise ConfigError(f"xi has {len(xi)} entries, the target needs {target.d}")
    return xi


def _read_points(cfg: _Config, d: int) -> np.ndarray:
    pts = cfg.take("points", None)
    path = cfg.take("points_file", None)
    if (pts is None) == (path is None):
        raise ConfigError("exactly one of 'points' / 'points_file' required")
    if path is not None and not Path(path).is_file():
        raise ConfigError(f"points file not found: {path}")
    try:
        if path is not None and Path(path).suffix != ".json":
            arr = np.loadtxt(path, delimiter=",", ndmin=2)
        else:
            if path is not None:
                with open(path) as fh:
                    pts = json.load(fh)
            arr = np.asarray(_numbers(pts), dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"points must be an array of numbers: {e}") from e
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ConfigError(f"points must be an (m, {d}) array")
    if not np.all(np.abs(arr) <= 1.0):
        raise ConfigError("points must be finite and lie in [-1, 1]^d")
    return arr


def _check_dims(reference: Density, target: Density, tmap=None):
    """ConfigError unless reference, target and the map share one dimension."""
    dims = {"reference": reference.d, "target": target.d}
    if tmap is not None:
        dims["map"] = tmap.d
    if len(set(dims.values())) > 1:
        raise ConfigError(f"dimensions differ: {dims}")


def _read_map(path) -> ApproxTransport:
    """The serialized map at path; a missing or malformed file is a config error."""
    try:
        with open(str(path)) as fh:
            return ApproxTransport.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad map file {path!r}: {e}") from e


def _finite_or_null(obj):
    """obj with every non-finite float (a degenerate rate fit's NaN, an
    infinite KL) replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(out_dir: Path, name: str, obj) -> Path:
    """Strict JSON: non-finite floats become null, and allow_nan=False
    makes any that slip past (a numpy scalar that is no float) an error."""
    path = out_dir / name
    with open(path, "w") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")
    return path


def _samples_csv(y: np.ndarray) -> str:
    lines = [",".join(f"y{j+1}" for j in range(y.shape[1]))]
    lines.extend(",".join(repr(float(v)) for v in row) for row in y)
    return "\n".join(lines) + "\n"


def _cmd_transport_eval(cfg: _Config, out_dir: Path, seed):
    reference = _density(cfg.take("reference"), "reference")
    target = _density(cfg.take("target"), "target")
    mode = cfg.take("mode", "exact")
    inverse = cfg.take_as("inverse", _flag, False)
    _check_dims(reference, target)
    pts = _read_points(cfg, reference.d)
    if mode == "exact":
        tmap = ExactTransport(reference=reference, target=target)
    elif mode == "approx":
        map_file = cfg.take("map_file", None)
        if map_file is not None:
            tmap = _read_map(map_file)
            _check_dims(reference, target, tmap)
        else:
            xi = _weights(cfg.take("xi", {}), target)
            eps = cfg.take_as("epsilon", _epsilon)
            tmap = build_approx_transport(reference, target, xi, eps)
    else:
        raise ConfigError(f"mode must be 'exact' or 'approx', got {mode!r}")
    cfg.finish()
    mapped = tmap.inverse(pts) if inverse else tmap.forward(pts)
    out = {
        "mode": mode,
        "inverse": inverse,
        "points": pts.tolist(),
        "mapped": np.asarray(mapped).tolist(),
    }
    path = _write_json(out_dir, "transport_eval.json", out)
    print(f"wrote {path}")
    return 0


def _cmd_approx_build(cfg: _Config, out_dir: Path, seed):
    reference = _density(cfg.take("reference"), "reference")
    target = _density(cfg.take("target"), "target")
    _check_dims(reference, target)
    xi = _weights(cfg.take("xi", {}), target)
    eps = cfg.take_as("epsilon", _epsilon)
    cfg.finish()
    tmap = build_approx_transport(reference, target, xi, eps)
    path = _write_json(out_dir, "approx_transport.json", tmap.to_json())
    print(f"wrote {path} (N_eps={tmap.n_eps})")
    return 0


def _cmd_distance(cfg: _Config, out_dir: Path, seed):
    grid_order = cfg.take_as("grid_order", _count, None)
    map_file = cfg.take("map_file", None)
    if map_file is not None:
        reference = _density(cfg.take("reference"), "reference")
        target = _density(cfg.take("target"), "target")
        tmap = _read_map(map_file)
        _check_dims(reference, target, tmap)
        d = target.d
        grid = uniform_grid(grid_order or _distance_grid_order(d), d)
        report = pushforward_distance(tmap, reference, target, grid)
    else:
        f = _density(cfg.take("f"), "f")
        g = _density(cfg.take("g"), "g")
        if f.d != g.d:
            raise ConfigError("densities have different dimensions")
        grid = uniform_grid(grid_order or _distance_grid_order(f.d), f.d)
        report = distance_report(f, g, f.d, grid, oversample_tv=True)
    cfg.finish()
    path = _write_json(out_dir, "distance.json", report.to_json())
    print(f"wrote {path}")
    return 0


def _cmd_sample(cfg: _Config, out_dir: Path, seed):
    ref_spec = cfg.take("reference", None)
    target = _density(cfg.take("target"), "target")
    if ref_spec is None:
        reference = uniform(target.d)
    else:
        reference = _density(ref_spec, "reference")
    _check_dims(reference, target)
    xi = _weights(cfg.take("xi", {}), target)
    eps = cfg.take_as("epsilon", _epsilon)
    n = cfg.take_as("n_samples", _count, 1000)
    cfg_seed = cfg.take_as("seed", _seed, 0)
    seed = cfg_seed if seed is None else seed
    cfg.finish()
    tmap = build_approx_transport(reference, target, xi, eps)
    rng = rng_from_seed(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, target.d))
    y = tmap.forward(x)
    path = out_dir / "samples.csv"
    path.write_text(_samples_csv(y))
    _write_json(out_dir, "samples_meta.json",
                {"epsilon": eps, "N_eps": tmap.n_eps, "seed": seed, "n": n})
    print(f"wrote {path}")
    return 0


def _cmd_study_convergence(cfg: _Config, out_dir: Path, seed):
    reference = _density(cfg.take("reference"), "reference")
    target = _density(cfg.take("target"), "target")
    _check_dims(reference, target)
    xi = _weights(cfg.take("xi", {}), target)
    eps_list = cfg.take_as("epsilon_list", _epsilons)
    cfg_seed = cfg.take_as("seed", _seed, 0)
    seed = cfg_seed if seed is None else seed
    n_cloud = cfg.take_as("n_cloud", _count, 2048)
    grid_order = cfg.take_as("distance_grid_order", _count, None)
    timing = cfg.take_as("timing", _flag, False)
    cfg.finish()
    records, fit = convergence_study(
        reference, target, xi, eps_list, seed=seed, n_cloud=n_cloud,
        distance_grid_order=grid_order,
        clock=time.perf_counter if timing else None,
    )
    (out_dir / "convergence.csv").write_text(records_to_csv(records))
    _write_json(out_dir, "convergence.json",
                {"records": [r.to_json() for r in records],
                 "fit": fit.to_json()})
    print(f"wrote {out_dir / 'convergence.csv'}")
    return 0


def _cmd_study_truncation(cfg: _Config, out_dir: Path, seed):
    amplitude = cfg.take_as("amplitude", _number)
    s = cfg.take_as("s", _number)
    d_max = cfg.take_as("d_max", _count)
    eps_list = cfg.take_as("epsilon_list", _epsilons)
    alpha = cfg.take_as("alpha", _positive, 1.0)
    cfg_seed = cfg.take_as("seed", _seed, 0)
    seed = cfg_seed if seed is None else seed
    n_cloud = cfg.take_as("n_cloud", _count, 512)
    timing = cfg.take_as("timing", _flag, False)
    cfg.finish()
    try:
        truncation_target(amplitude, s, d_max)
    except ValueError as e:
        raise ConfigError(f"bad truncation amplitude or s: {e}") from e
    records, fit = truncation_study(
        amplitude, s, d_max, eps_list, alpha=alpha, seed=seed,
        n_cloud=n_cloud, clock=time.perf_counter if timing else None,
    )
    (out_dir / "truncation.csv").write_text(records_to_csv(records))
    _write_json(out_dir, "truncation.json",
                {"records": [r.to_json() for r in records],
                 "fit": fit.to_json()})
    print(f"wrote {out_dir / 'truncation.csv'}")
    return 0


def _cmd_study_posterior(cfg: _Config, out_dir: Path, seed):
    pi = _density({"family": "gaussian_posterior", "A": cfg.take("A"),
                   "varsigma": cfg.take("varsigma"), "sigma": cfg.take("sigma")},
                  "posterior")
    if pi.d > 4:
        raise ConfigError(f"study posterior needs d <= 4, got {pi.d}")
    if pi.anisotropy is None:
        raise ConfigError("A has a zero column, so xi is undefined")
    eps = cfg.take_as("epsilon", _epsilon)
    n_samples = cfg.take_as("n_samples", _count, 2000)
    if n_samples < 2:
        raise ConfigError("n_samples must be >= 2 for a sample std")
    cfg_seed = cfg.take_as("seed", _seed, 0)
    seed = cfg_seed if seed is None else seed
    alpha = cfg.take_as("alpha", _positive, 1.0)
    grid_order = cfg.take_as("distance_grid_order", _count, None)
    cfg.finish()
    report = _posterior_demo(pi, eps, n_samples, seed, alpha, grid_order)
    _write_json(out_dir, "posterior.json", report.to_json())
    (out_dir / "posterior_samples.csv").write_text(_samples_csv(report.samples))
    print(f"wrote {out_dir / 'posterior.json'}")
    return 0


# {command: {action: handler}}; the action None marks a command that
# takes no action word
_COMMANDS = {
    "transport": {"eval": _cmd_transport_eval},
    "approx": {"build": _cmd_approx_build},
    "distance": {None: _cmd_distance},
    "sample": {None: _cmd_sample},
    "study": {"convergence": _cmd_study_convergence,
              "truncation": _cmd_study_truncation,
              "posterior": _cmd_study_posterior},
}


def _error_json(kind: str, message: str) -> str:
    return json.dumps({"kind": kind, "error": message}) + "\n"


class _Parser(argparse.ArgumentParser):
    """Bad flags are config errors: JSON on stderr and exit code 2."""

    def error(self, message):
        self.exit(2, _error_json("config", message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="krtransport",
        description="Triangular transport maps with sparse rational approximation",
    )
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="override the config seed (an integer >= 0)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, actions in _COMMANDS.items():
        p = sub.add_parser(command)
        if None not in actions:
            p.add_argument("action", choices=sorted(actions))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _Config(_load_config(args.config))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = _COMMANDS[args.command][getattr(args, "action", None)]
        return handler(cfg, out_dir, args.seed)
    except ConfigError as e:
        sys.stderr.write(_error_json("config", str(e)))
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as e:
        sys.stderr.write(_error_json("numerical", str(e)))
        return 3


if __name__ == "__main__":
    sys.exit(main())
