"""Command-line front end.

Verbs: analyze, schur, realize, verify, sample, random.  Inputs and
outputs are the JSON schemas defined in :mod:`schurkit.serialize`; sample
emits CSV.  Exit codes: 0 success, 1 residual failure, 2 parse error,
3 validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import linalg as la
from . import serialize
from .contractions import Contraction
from .errors import NotCNU, SchurkitError
from .linalg import Tolerance
from .schur import CHAIN_THRESHOLDS, build_chain, verify_chain
from .systems import _DISK_RADII, DiscreteSystem, _classify, _draw_simple_conservative, disk_grid

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3

# Above this colligation unitarity residual the system is treated as
# structurally broken and the Schur chain is not attempted.
_VERIFY_GATE = 1e-6


class ParseFailure(Exception):
    pass


class ValidationFailure(Exception):
    pass


def _tolerance(ns: argparse.Namespace) -> Tolerance:
    return Tolerance(rank_rel=ns.rank_tol, eq_abs=ns.eq_tol)


def _load_system(ns: argparse.Namespace) -> DiscreteSystem:
    if ns.input_path is None:
        raise ParseFailure("--input is required for this verb")
    try:
        text = Path(ns.input_path).read_text()
    except OSError as exc:
        raise ParseFailure(f"cannot read {ns.input_path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"invalid JSON: {exc}") from exc
    try:
        return serialize.system_from_json(obj, _tolerance(ns))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad system schema: {exc}") from exc
    except SchurkitError as exc:
        raise ValidationFailure(str(exc)) from exc


def _emit(ns: argparse.Namespace, text: str):
    if ns.output_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(ns.output_path).write_text(text)


def _defect_profile_json(state: Contraction, n_max: int | None):
    """The defect profile; None for a zero-dimensional state or a state
    that is not c.n.u."""
    if state.dim == 0:
        return None
    try:
        profile = state.defect_profile(state.dim if n_max is None else n_max)
    except NotCNU:
        return None
    return {"delta": profile.delta, "delta_star": profile.delta_star}


def _iterates_json(chain) -> list:
    return [
        [serialize.system_to_json(s, s.classify().as_dict()) for s in family]
        for family in chain.families
    ]


def _chain_json(chain, report) -> dict:
    return {
        "gammas": [la.matrix_to_json(g) for g in chain.params.gammas],
        "h_dims": [s.dim for s in chain.h_chain],
        "iterates": _iterates_json(chain),
        "terminated": chain.params.terminated,
        "residuals": dict(sorted(report.residuals.items())),
    }


def _run_analyze(ns: argparse.Namespace) -> int:
    system = _load_system(ns)
    cls, state = _classify(system)  # a conservative system's state comes along
    if state is None:
        state = Contraction(system.a, system.tol)
    out = {
        "dims": {"input": system.in_dim, "output": system.out_dim,
                 "state": system.state_dim},
        "classification": cls.as_dict(),
        "defect_profile": _defect_profile_json(state, ns.n_max),
    }
    _emit(ns, serialize.dumps(out))
    return EXIT_OK


def _build_verified_chain(ns: argparse.Namespace, system: DiscreteSystem):
    grid = disk_grid(ns.grid_radii)
    chain = build_chain(system, ns.n_max)
    report = verify_chain(chain, grid)
    return chain, report


def _run_schur(ns: argparse.Namespace) -> int:
    system = _load_system(ns)
    chain, report = _build_verified_chain(ns, system)
    _emit(ns, serialize.dumps(_chain_json(chain, report)))
    return EXIT_OK


def _run_realize(ns: argparse.Namespace) -> int:
    system = _load_system(ns)
    chain = build_chain(system, ns.n_max)
    out = {
        "h_dims": [s.dim for s in chain.h_chain],
        "terminated": chain.params.terminated,
        "iterates": _iterates_json(chain),
    }
    _emit(ns, serialize.dumps(out))
    return EXIT_OK


def _run_verify(ns: argparse.Namespace) -> int:
    system = _load_system(ns)
    gate = la.unitarity_residual(system.colligation())
    if gate > _VERIFY_GATE:
        out = {
            "classification": system.classify().as_dict(),
            "defect_profile": None,
            "gammas": [],
            "termination_step": None,
            "residuals": {"colligation_unitarity": gate},
            "thresholds": {"colligation_unitarity": CHAIN_THRESHOLDS["colligation_unitarity"]},
            "pass": False,
        }
        _emit(ns, serialize.dumps(out))
        return EXIT_RESIDUAL
    chain, report = _build_verified_chain(ns, system)
    out = {
        "classification": chain.classification.as_dict(),
        "defect_profile": _defect_profile_json(chain.state, ns.n_max),
        "gammas": [la.matrix_to_json(g) for g in chain.params.gammas],
        "termination_step": chain.termination_step,
        "residuals": dict(sorted(report.residuals.items())),
        "thresholds": dict(sorted(CHAIN_THRESHOLDS.items())),
        "pass": report.ok,
    }
    _emit(ns, serialize.dumps(out))
    return EXIT_OK if report.ok else EXIT_RESIDUAL


def _run_sample(ns: argparse.Namespace) -> int:
    system = _load_system(ns)
    grid = disk_grid(ns.grid_radii)
    values = list(zip(grid, system.transfer(np.asarray(grid))))
    _emit(ns, serialize.sample_csv(values))
    return EXIT_OK


def _run_random(ns: argparse.Namespace) -> int:
    rng = np.random.default_rng(ns.seed)
    system, cls = _draw_simple_conservative(ns.state_dim, ns.io_dim, rng, _tolerance(ns))
    _emit(ns, serialize.dumps(serialize.system_to_json(system, cls.as_dict())))
    return EXIT_OK


_RUNNERS = {
    "analyze": _run_analyze,
    "schur": _run_schur,
    "realize": _run_realize,
    "verify": _run_verify,
    "sample": _run_sample,
    "random": _run_random,
}


def run(ns: argparse.Namespace) -> int:
    """Execute a parsed command line; returns the process exit code."""
    try:
        _tolerance(ns)  # reject bad tolerance values before touching input
        return _RUNNERS[ns.verb](ns)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationFailure, SchurkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _parse_radii(text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad radii list {text!r}") from exc
    if not radii or any(not (0.0 < r < 1.0) for r in radii):
        raise argparse.ArgumentTypeError("radii must lie strictly inside (0, 1)")
    return radii


def _parse_n_max(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad step count {text!r}") from exc
    if n < 0:
        raise argparse.ArgumentTypeError("the step count must be at least 0")
    return n


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per verb, each with only the flags its runner reads."""
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Schur parameters and conservative realizations of "
                    "matrix Schur-class functions",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, helptext in (
        ("analyze", "classification flags and defect profile of a system"),
        ("schur", "Schur parameters, subspace chain, and iterate realizations"),
        ("realize", "conservative realizations of the Schur iterates"),
        ("verify", "cross-verify the chain; exit 0 iff all residuals pass"),
        ("sample", "CSV of transfer values on the sampling grid"),
        ("random", "reproducible random simple conservative system"),
    ):
        p = sub.add_parser(verb, help=helptext)
        if verb != "random":
            p.add_argument("--input", dest="input_path")
        p.add_argument("--output", dest="output_path")
        if verb in ("analyze", "schur", "realize", "verify"):
            p.add_argument("--n-max", dest="n_max", type=_parse_n_max)
        p.add_argument("--rank-tol", dest="rank_tol", type=float, default=la.DEFAULT_TOL.rank_rel)
        p.add_argument("--eq-tol", dest="eq_tol", type=float, default=la.DEFAULT_TOL.eq_abs)
        if verb in ("schur", "verify", "sample"):
            p.add_argument("--grid-radii", dest="grid_radii", type=_parse_radii,
                           default=_DISK_RADII)
        if verb == "random":
            p.add_argument("--seed", dest="seed", type=int, default=0)
            p.add_argument("--state-dim", dest="state_dim", type=int, default=4)
            p.add_argument("--io-dim", dest="io_dim", type=int, default=2)
    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
