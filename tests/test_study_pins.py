"""Tier-1 pins of the study artifacts.

Four CLI runs (the README convergence config, the d = 32 truncation sweep
of acceptance criterion 6, and ``study posterior`` at d = 2 and d = 3)
are compared with the values stored in ``study_pins.json``: ``N_eps``,
``per_k_cards`` and ``k_eff`` exactly, KL to 1e-10 relative or 1e-15
absolute (it is a cancellation of terms of size |f - g|), and every
other number to 1e-10 relative. Rounding-level changes pass; a change
that moves a study number does not. A change that moves one on purpose
regenerates the runs it moves (all four when none is named) in the same
commit, so that the others keep their values:

    PYTHONPATH=src python tests/test_study_pins.py --write [RUN ...]
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from krtransport.cli import main

PINS = Path(__file__).with_name("study_pins.json")
REL_TOL = 1e-10
KL_ABS_TOL = 1e-15
EXACT_KEYS = {"N_eps", "per_k_cards", "k_eff"}

RUNS = {
    "convergence_readme": (("study", "convergence"), "convergence.json", {
        "reference": {"family": "uniform", "d": 2},
        "target": {"family": "linear", "c": [0.3, 0.2]},
        "xi": {"alpha": 0.5},
        "epsilon_list": [1e-1, 1e-2, 1e-3, 1e-4],
        "seed": 7,
    }),
    "truncation_d32": (("study", "truncation"), "truncation.json", {
        "amplitude": 0.3039635509270133,
        "s": 3,
        "d_max": 32,
        "epsilon_list": [3e-1, 1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4],
    }),
    "posterior_d2": (("study", "posterior"), "posterior.json", {
        "A": [[1, 0.5]], "varsigma": [0.3], "sigma": 0.5, "epsilon": 1e-2,
    }),
    # the configuration of the posterior_d3 benchmark workload
    "posterior_d3": (("study", "posterior"), "posterior.json", {
        "A": [[1.0, 0.5, 0.25]], "varsigma": [0.3], "sigma": 0.5,
        "epsilon": 0.1, "alpha": 2.0, "distance_grid_order": 15,
    }),
}


def run_study(name: str, out_dir: Path) -> dict:
    """The JSON artifact of one pinned run, written under out_dir."""
    command, artifact, config = RUNS[name]
    cfg = out_dir / f"{name}.json"
    cfg.write_text(json.dumps(config))
    run_dir = out_dir / name
    assert main(["--config", str(cfg), "--out", str(run_dir), *command]) == 0
    return json.loads((run_dir / artifact).read_text())


def mismatches(got, want, path="", key=""):
    """Paths at which got differs from want beyond the tolerances."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got or {})} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}/{k}", k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        if key in EXACT_KEYS:
            return [] if got == want else [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]", key)]
    if isinstance(want, float) and isinstance(got, float):
        tol = REL_TOL * abs(want)
        if key == "kl":
            tol = max(tol, KL_ABS_TOL)
        if abs(got - want) <= tol:
            return []
        return [f"{path}: {got!r} != {want!r} (relative {abs(got - want) / abs(want):.2e})"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_study_artifact_matches_pin(tmp_path, name):
    want = json.loads(PINS.read_text())[name]
    assert mismatches(run_study(name, tmp_path), want) == []


def test_mismatches_tolerances():
    assert mismatches({"sup_err_T": 1.0 + 5e-11}, {"sup_err_T": 1.0}) == []
    assert mismatches({"sup_err_T": 1.0 + 2e-10}, {"sup_err_T": 1.0})
    assert mismatches({"kl": 1e-10 + 5e-16}, {"kl": 1e-10}) == []
    assert mismatches({"kl": 1e-10 + 2e-15}, {"kl": 1e-10})
    assert mismatches({"N_eps": 13}, {"N_eps": 12})
    assert mismatches({"per_k_cards": [1, 2]}, {"per_k_cards": [1, 3]})
    assert mismatches({"a": [1.0]}, {"a": [1.0], "b": 2})


if __name__ == "__main__":
    names = sys.argv[2:] or sorted(RUNS)
    if sys.argv[1:2] != ["--write"] or not set(names) <= set(RUNS):
        sys.exit("usage: PYTHONPATH=src python tests/test_study_pins.py "
                 f"--write [RUN ...], RUN in {sorted(RUNS)}")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        pins.update({name: run_study(name, Path(tmp)) for name in names})
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
