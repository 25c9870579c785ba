"""Command-line interface: analysis, Monte Carlo verification, decompositions.

Exit codes: 0 on success, 1 when a verification run finds a counterexample,
2 on malformed input, 3 on a numerical failure (an ``ArithmeticError``).
Reports are JSON with sorted keys so identical configs produce byte-identical
output; the CSV format emits one row per trial.  A ``verify`` summary's ``tol``
is the one its trials applied (``verify.effective_tol``), null if none.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import assistance, ensembles, monotones, states, verify
from .assistance import Measurement, SearchBudget
from .monotones import MonotoneSpec
from .qcore import InputError, PureState, density_from_json, state_from_json, state_to_json

VERIFY_TARGETS = tuple(verify.TRIALS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``eoa3`` argument parser, built once per process: ``parse_args``
    fills a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="eoa3",
        description="Entanglement of assistance for three-qubit pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full report for one state")
    analyze.add_argument("--family", help="named family: ghz, w, product, bell_c, haar, eq21, thm2, corollary")
    analyze.add_argument("--state", help="path to a state JSON file")
    analyze.add_argument("--monotone", default="e2")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--budget", type=int, default=2000, help="POVM search evaluations per start")
    analyze.add_argument("--out")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")

    verify_parser = sub.add_parser("verify", help="Monte Carlo verification suites")
    verify_parser.add_argument("target", choices=VERIFY_TARGETS)
    verify_parser.add_argument("--trials", type=int, default=100)
    verify_parser.add_argument("--seed", type=int, default=0)
    verify_parser.add_argument("--tol", type=float, default=1e-7)
    verify_parser.add_argument("--out")
    verify_parser.add_argument("--format", choices=("json", "csv"), default="json")

    decompose = sub.add_parser("decompose", help="ensemble decompositions of a density matrix")
    decompose.add_argument("--rho", required=True, help="path to a density-matrix JSON file")
    decompose.add_argument("--mode", choices=("hjw", "equalc", "entangled"), required=True)
    decompose.add_argument("--basis", choices=("z", "x"), default="z", help="purifier basis for hjw")
    decompose.add_argument("--out")
    return parser


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_state(args) -> PureState:
    if bool(args.family) == bool(args.state):
        raise InputError("provide exactly one of --family or --state")
    if args.family:
        return states.generate(states.parse_family(args.family, seed=args.seed))
    try:
        with open(args.state, "r", encoding="utf-8") as fh:
            return state_from_json(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read state file: {exc}") from exc


def cmd_analyze(args) -> int:
    psi = _load_state(args)
    m = MonotoneSpec.parse(args.monotone)
    budget = SearchBudget(random_starts=2, max_evals=args.budget, seed=args.seed)
    report = assistance.analyze(psi, m, budget=budget)
    payload = report.to_dict()
    if args.format == "csv":
        keys = ("cutA", "cutB", "eoaConstructive", "eoaNumeric", "monotone", "verdict")
        lines = [",".join(keys), ",".join(str(payload[k]) for k in keys)]
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(payload, sort_keys=True), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise InputError("trials must be >= 1")
    if not 0.0 < args.tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {args.tol}")
    seeds = range(args.seed, args.seed + args.trials)
    rows = []
    failures = 0
    first_counterexample = None
    for i, (ok, row, witness) in enumerate(verify.TRIALS[args.target](seeds, args.tol)):
        row = {"trial": i, "seed": args.seed + i, "ok": ok, **row}
        rows.append(row)
        if not ok:
            failures += 1
            if first_counterexample is None and witness is not None:
                first_counterexample = json.loads(state_to_json(witness))
    summary = {
        "target": args.target,
        "trials": args.trials,
        "failures": failures,
        "tol": verify.effective_tol(args.target, args.tol),
        "seed": args.seed,
    }
    if first_counterexample is not None:
        summary["firstCounterexample"] = first_counterexample
    if args.format == "csv":
        keys = sorted({k for row in rows for k in row})
        lines = [",".join(keys)]
        lines += [",".join(str(row.get(k, "")) for k in keys) for row in rows]
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(summary, sort_keys=True), args.out)
    return 0 if failures == 0 else 1


def cmd_decompose(args) -> int:
    try:
        with open(args.rho, "r", encoding="utf-8") as fh:
            rho = density_from_json(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read density-matrix file: {exc}") from exc
    if args.mode == "hjw":
        if args.basis == "z":
            basis = np.eye(2, dtype=complex)
        else:
            basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        meas = Measurement.projective(basis)
        ens = ensembles.hjw_ensemble(rho, meas)
    elif args.mode == "equalc":
        ens = ensembles.equal_concurrence_decomposition(rho)
    else:
        ens = ensembles.entangled_decomposition(rho)
    _emit(ensembles.ensemble_to_json(ens), args.out)
    for idx, (w, s) in enumerate(ens.elements):
        conc = monotones.concurrence_pure(s)
        print(f"element {idx}: weight {w:.12f} concurrence {conc:.12f}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"seed must be >= 0, got {args.seed}")
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_decompose(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
