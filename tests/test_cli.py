import json

import numpy as np
import pytest

from eoa3.cli import main
from eoa3.monotones import MonotoneSpec, cut_entanglement
from eoa3.qcore import DensityMatrix, density_to_json, reduced_density, state_to_json
from eoa3.states import generate, ghz_state, parse_family, product_state, w_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_ghz(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "ghz", "--monotone", "e2")
    assert code == 0
    payload = json.loads(out)
    assert payload["eoaConstructive"] == pytest.approx(1.0, abs=1e-9)
    assert payload["verdict"] == "lossless"


def test_analyze_w(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "w")
    assert code == 0
    payload = json.loads(out)
    assert payload["eoaConstructive"] == pytest.approx(2 / 3, abs=1e-9)
    assert payload["verdict"] == "lossy"


def test_analyze_product_file(capsys, tmp_path):
    path = tmp_path / "product.json"
    path.write_text(state_to_json(product_state()))
    code, out, _ = run(
        capsys, "analyze", "--state", str(path), "--monotone", "concurrence"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cutA"] == pytest.approx(0.0, abs=1e-12)
    assert payload["eoaConstructive"] == pytest.approx(0.0, abs=1e-9)


def test_analyze_malformed_state(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--state", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_determinism(capsys):
    _, out1, _ = run(capsys, "analyze", "--family", "haar", "--seed", "9")
    _, out2, _ = run(capsys, "analyze", "--family", "haar", "--seed", "9")
    assert out1 == out2


def test_verify_pass_and_counterexample(capsys):
    code, out, _ = run(
        capsys, "verify", "thm1", "--trials", "10", "--seed", "7", "--tol", "1e-7"
    )
    assert code == 0
    assert json.loads(out)["failures"] == 0
    code, out, _ = run(capsys, "verify", "thm1", "--trials", "1", "--tol", "1e-30")
    assert code == 1
    assert "firstCounterexample" in json.loads(out)


def test_verify_ckw_and_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "ckw", "--trials", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + one row per trial
    assert "tau" in lines[0]


def test_verify_invalid_config(capsys):
    code, _, _ = run(capsys, "verify", "thm1", "--trials", "0")
    assert code == 2


def test_decompose_modes(capsys, tmp_path):
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(density_to_json(reduced_density(ghz_state(), (0, 1))))
    code, out, err = run(
        capsys, "decompose", "--mode", "hjw", "--rho", str(rho_path), "--basis", "x"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 2
    assert "concurrence 1.0" in err
    code, out, _ = run(capsys, "decompose", "--mode", "entangled", "--rho", str(rho_path))
    assert code == 0
    code, out, _ = run(capsys, "decompose", "--mode", "equalc", "--rho", str(rho_path))
    assert code == 0


def test_decompose_pure_marginal_exit_2(capsys, tmp_path):
    from eoa3.qcore import DensityMatrix

    rho = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0, 0]).astype(complex))
    path = tmp_path / "purem.json"
    path.write_text(density_to_json(rho))
    code, _, err = run(capsys, "decompose", "--mode", "entangled", "--rho", str(path))
    assert code == 2
    assert "pure" in err


@pytest.mark.parametrize("amps, concurrence", [((1, 0, 0, 1), 1.0), ((0.8, 0, 0, 0.6), 0.96)])
def test_decompose_entangled_keeps_a_pure_entangled_state(capsys, tmp_path, amps, concurrence):
    # Both marginals are mixed and the state's one element is entangled.
    phi = np.array(amps, dtype=complex) / np.linalg.norm(amps)
    path = tmp_path / "pure.json"
    path.write_text(density_to_json(DensityMatrix.from_matrix(np.outer(phi, phi.conj()))))
    code, out, err = run(capsys, "decompose", "--mode", "entangled", "--rho", str(path))
    assert code == 0
    assert len(json.loads(out)["elements"]) == 1
    assert err == f"element 0: weight 1.000000000000 concurrence {concurrence:.12f}\n"


def test_out_file_written(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", "--family", "w", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "lossy"


def test_analyze_non_finite_state_exit_2(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(state_to_json(ghz_state()).replace("0.0", "NaN", 1))
    code, _, err = run(capsys, "analyze", "--state", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_analyze_negative_budget_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "--family", "w", "--budget", "-3")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", "haar", "--seed", "-1"),
        ("verify", "thm1", "--seed", "-5"),
        ("analyze", "--family", "w", "--monotone", "ek:x"),
        ("analyze", "--family", "w", "--monotone", "entropy:abc"),
        ("verify", "thm1", "--tol", "0"),
        ("verify", "thm1", "--tol", "nan"),
        ("verify", "thm1", "--tol", "inf"),
        ("analyze", "--family", "w", "--state", "{path}"),
        ("analyze", "--state", "{path}"),
        ("decompose", "--mode", "hjw", "--rho", "{path}"),
        ("analyze", "--family", "haar", "--seed", "3", "--monotone", "ek:3"),
    ],
)
def test_malformed_arguments_exit_2(capsys, tmp_path, argv):
    # Negative seeds, malformed monotone numbers, a tolerance that is not
    # positive and finite, both state sources at once and unreadable files
    # are input errors, not tracebacks or false counterexamples.
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, *(arg.replace("{path}", missing) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_analyze_csv_matches_the_json_report(capsys):
    _, out, _ = run(capsys, "analyze", "--family", "haar", "--seed", "4", "--monotone", "entropy:1")
    payload = json.loads(out)
    code, out, _ = run(capsys, "analyze", "--family", "haar", "--seed", "4", "--monotone", "entropy:1", "--format", "csv")
    assert code == 0
    keys = ("cutA", "cutB", "eoaConstructive", "eoaNumeric", "monotone", "verdict")
    assert out == ",".join(keys) + "\n" + ",".join(str(payload[k]) for k in keys) + "\n"


def test_decompose_hjw_defaults_to_the_computational_basis(capsys, tmp_path):
    # GHZ's AB reduction purified by a qubit and measured in z: |00> and |11>,
    # each with weight 1/2 and no entanglement.
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(density_to_json(reduced_density(ghz_state(), (0, 1))))
    code, out, err = run(capsys, "decompose", "--mode", "hjw", "--rho", str(rho_path))
    assert code == 0
    kets = [np.abs(np.array(e["state"]["amplitudes"])[:, 0]) for e in json.loads(out)["elements"]]
    assert sorted(int(np.argmax(k)) for k in kets) == [0, 3]
    assert err.splitlines() == [
        "element 0: weight 0.500000000000 concurrence 0.000000000000",
        "element 1: weight 0.500000000000 concurrence 0.000000000000",
    ]


@pytest.mark.parametrize("monotone, seed", [("ek:2", "2500024"), ("e2", "3500080")])
def test_analyze_numeric_not_below_constructive(capsys, monotone, seed):
    code, out, _ = run(
        capsys, "analyze", "--family", "haar", "--monotone", monotone, "--seed", seed, "--budget", "200"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eoaNumeric"] >= payload["eoaConstructive"]


def test_analyze_numeric_not_below_constructive_on_the_benchmark_mix(capsys):
    # The checks of the analyze-report benchmark, on its family x monotone
    # cycle: unit k takes family k mod 8 and monotone k mod 5.
    families = ("haar", "w", "ghz", "product", "bell_c", "eq21", "thm2", "corollary")
    monotones = ("e2", "entropy:1", "entropy:0.5", "concurrence", "ek:2")
    for k in range(200):
        family, monotone = families[k % 8], monotones[k % 5]
        code, out, _ = run(capsys, "analyze", "--family", family, "--monotone", monotone, "--seed", str(3_500_000 + k))
        assert code == 0
        payload = json.loads(out)
        # The report reads its cuts off the Theorem-1 pass; they are cut_entanglement's values.
        psi = generate(parse_family(family, seed=3_500_000 + k))
        m = MonotoneSpec.parse(monotone)
        assert payload["cutA"] == cut_entanglement(psi, "A|BC", m), k
        assert payload["cutB"] == cut_entanglement(psi, "B|AC", m), k
        min_cut = min(payload["cutA"], payload["cutB"])
        assert payload["eoaConstructive"] <= payload["eoaNumeric"] <= min_cut + 1e-6, k
        if monotone == "e2":
            assert abs(payload["eoaConstructive"] - min_cut) <= 1e-7, k


@pytest.mark.parametrize(
    "argv", [("verify", "thm1", "--budget", "5"), ("analyze", "--family", "w", "--tol", "1e-7")]
)
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "target, tol, reported",
    [("ckw", "1e-30", None), ("prop2", "1e-7", None), ("appendixB", "1e-7", None),
     ("corollary", "1e-9", 1e-6), ("thm2", "1e-9", 1e-8), ("eq37", "1e-3", 1e-3), ("thm1", "1e-7", 1e-7)],
)
def test_verify_reports_the_tolerance_its_trials_compare_against(capsys, target, tol, reported):
    code, out, _ = run(capsys, "verify", target, "--trials", "2", "--tol", tol)
    assert code == 0
    assert json.loads(out)["tol"] == reported


def test_numerical_failure_exits_3(capsys, monkeypatch):
    from eoa3 import assistance

    def stalled(psi):
        raise ArithmeticError("commuting-basis search stalled at residual 1.0e-08")

    monkeypatch.setattr(assistance, "_theorem1", stalled)
    code, out, err = run(capsys, "analyze", "--family", "w")
    assert code == 3
    assert out == ""
    assert err == "error: numerical failure: commuting-basis search stalled at residual 1.0e-08\n"


def test_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    from eoa3 import assistance
    from eoa3.assistance import SearchBudget

    budgets = []
    analyze = assistance.analyze

    def recorded(psi, m, budget):
        budgets.append(budget.max_evals)
        return analyze(psi, m, budget=SearchBudget(budget.random_starts, 20, budget.seed))

    monkeypatch.setattr(assistance, "analyze", recorded)
    for argv in (("--budget", "20"), ()):
        code, _, _ = run(capsys, "analyze", "--family", "w", *argv)
        assert code == 0
    assert budgets == [20, 2000]


def test_package_imports_numpy_alone():
    # eoa3 and its CLI import without scipy, and no module of the package
    # imports it, at module level or inside a function.
    import ast
    import subprocess
    import sys
    from pathlib import Path

    import eoa3

    package = Path(eoa3.__file__).resolve().parent
    code = "import sys, eoa3, eoa3.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=package.parent, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), f"{path.name}:{node.lineno}"
