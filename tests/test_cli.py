import inspect
import json

import numpy as np
import pytest

from schurkit import linalg as la
from schurkit import serialize, systems
from schurkit.cli import build_parser, main
from schurkit.contractions import Contraction
from schurkit.errors import SchurkitError
from schurkit.systems import DiscreteSystem
from conftest import permutation_colligation


@pytest.fixture
def system_path(tmp_path):
    path = tmp_path / "sys.json"
    assert main(["random", "--seed", "7", "--state-dim", "4", "--io-dim", "2",
                 "--output", str(path)]) == 0
    return path


def test_random_emits_unitary_colligation(system_path):
    obj = json.loads(system_path.read_text())
    sys = serialize.system_from_json(obj)
    full = sys.colligation()
    resid = np.linalg.norm(full.conj().T @ full - np.eye(full.shape[1]), 2)
    assert resid <= 1e-12
    assert obj["classification"]["simple"]


def test_random_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["random", "--seed", "3", "--output", str(p1)])
    main(["random", "--seed", "3", "--output", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_analyze(system_path, tmp_path, capsys):
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--input", str(system_path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["classification"]["conservative"]
    assert report["classification"]["simple"]
    profile = report["defect_profile"]
    assert profile["delta"][0] == 2
    assert all(a >= b for a, b in zip(profile["delta"], profile["delta"][1:]))


def test_analyze_unitary_without_inputs(tmp_path):
    # a rotation acting alone as a 0-input system: conservative, not simple
    blocks = {
        "m": 0, "n": 0, "h": 2, "k": 2,
        "D": {"rows": 0, "cols": 0, "data": []},
        "C": {"rows": 0, "cols": 2, "data": []},
        "B": {"rows": 2, "cols": 0, "data": []},
        "A": {"rows": 2, "cols": 2, "data": [[0, 0], [1, 0], [-1, 0], [0, 0]]},
    }
    path = tmp_path / "unitary.json"
    path.write_text(json.dumps(blocks))
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--input", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["classification"]["conservative"]
    assert not report["classification"]["simple"]
    assert report["defect_profile"] is None


def test_analyze_svd_count(tmp_path, monkeypatch):
    # the classification reads the two Krylov bases of the state's lattice
    # and checks their complements against two power kernels, without a
    # complement basis; the defect profile decides c.n.u. on the same
    # lattice, and the SVDs are the Arnoldi blocks of its two sides
    path = tmp_path / "sys.json"
    assert main(["random", "--seed", "1", "--state-dim", "16", "--io-dim", "2",
                 "--output", str(path)]) == 0
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    eigvalsh, eigvalsh_calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **k: eigvalsh_calls.append(1) or eigvalsh(*a, **k))
    assert main(["analyze", "--input", str(path), "--output", str(tmp_path / "a.json")]) == 0
    assert len(calls) == 14
    assert len(eigvalsh_calls) == 4
    eigh, eigh_calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: eigh_calls.append(1) or eigh(*a, **k))
    assert main(["analyze", "--input", str(path), "--output", str(tmp_path / "a.json")]) == 0
    assert len(eigh_calls) == 36


def test_schur_chain_output(tmp_path):
    path = tmp_path / "anchor.json"
    path.write_text(serialize.dumps(serialize.system_to_json(permutation_colligation())))
    out = tmp_path / "chain.json"
    assert main(["schur", "--input", str(path), "--n-max", "3",
                 "--output", str(out)]) == 0
    chain = json.loads(out.read_text())
    gammas = [g["data"] for g in chain["gammas"]]
    assert len(gammas) == 3
    assert chain["terminated"] is True
    assert chain["h_dims"] == [2, 1, 0]
    assert abs(gammas[2][0][0] - 1.0) <= 1e-10


def test_realize_output(system_path, tmp_path):
    out = tmp_path / "realized.json"
    assert main(["realize", "--input", str(system_path), "--output", str(out)]) == 0
    realized = json.loads(out.read_text())
    assert realized["terminated"]
    for family in realized["iterates"]:
        for sysobj in family:
            assert sysobj["classification"]["conservative"]
            assert sysobj["classification"]["simple"]


def test_realize_does_not_verify(system_path, tmp_path, monkeypatch):
    expected, got = tmp_path / "expected.json", tmp_path / "got.json"
    assert main(["realize", "--input", str(system_path), "--output", str(expected)]) == 0

    def refuse(*args, **kwargs):
        raise SchurkitError("realize must not run the verifier")

    monkeypatch.setattr("schurkit.cli.verify_chain", refuse)
    assert main(["realize", "--input", str(system_path), "--output", str(got)]) == 0
    assert got.read_bytes() == expected.read_bytes()


def test_verify_pass_and_determinism(system_path, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--input", str(system_path), "--output", str(r1)]) == 0
    assert main(["verify", "--input", str(system_path), "--output", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["pass"] is True
    assert report["termination_step"] is not None


def test_verify_deep_scalar_random_system(tmp_path):
    # a d=20 scalar chain: the oracle's deep levels are read off one circle
    path = tmp_path / "s.json"
    assert main(["random", "--seed", "7", "--state-dim", "20", "--io-dim", "1",
                 "--output", str(path)]) == 0
    assert main(["verify", "--input", str(path), "--output", str(tmp_path / "r.json")]) == 0


def test_verify_decomposes_the_source_state_once(system_path, tmp_path, monkeypatch):
    # the classification and the defect profile read the chain's state
    source = serialize.system_from_json(json.loads(system_path.read_text())).a
    init = Contraction.__init__
    built = []

    def counting_init(self, a, *args, **kwargs):
        built.append(np.array_equal(np.asarray(a), source))
        init(self, a, *args, **kwargs)

    monkeypatch.setattr(Contraction, "__init__", counting_init)
    assert main(["verify", "--input", str(system_path), "--output", str(tmp_path / "r")]) == 0
    assert built.count(True) == 1


def test_verify_classifies_the_source_once(tmp_path, monkeypatch, capsys):
    # the report prints the classification that build_chain's input check made
    path = tmp_path / "sys.json"
    assert main(["random", "--seed", "1", "--state-dim", "8", "--io-dim", "1",
                 "--output", str(path)]) == 0
    expected = serialize.system_from_json(json.loads(path.read_text())).classify().as_dict()
    classify, calls = systems._classify, []
    monkeypatch.setattr(systems, "_classify",
                        lambda *a, **k: calls.append(1) or classify(*a, **k))
    assert main(["verify", "--input", str(path)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["classification"] == expected


def test_random_classifies_once(monkeypatch, capsys):
    # the JSON carries the classification that accepted the draw
    classify, calls = DiscreteSystem.classify, []
    monkeypatch.setattr(DiscreteSystem, "classify",
                        lambda *a, **k: calls.append(1) or classify(*a, **k))
    assert main(["random", "--seed", "1", "--state-dim", "8", "--io-dim", "1"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["classification"]["simple"]


def test_realize_runs_two_arnoldis_per_classified_system(tmp_path, monkeypatch):
    # every classification of a conservative system reads the two Krylov
    # bases of its state's lattice, and the source's chain reads the ones
    # its input check built: two block-Arnoldi runs per classified system
    path = tmp_path / "sys.json"
    assert main(["random", "--seed", "1", "--state-dim", "8", "--io-dim", "1",
                 "--output", str(path)]) == 0
    arnoldi, calls = la.block_arnoldi, []
    monkeypatch.setattr(la, "block_arnoldi",
                        lambda *a, **k: calls.append(1) or arnoldi(*a, **k))
    classify, classified = systems._classify, []
    monkeypatch.setattr(systems, "_classify",
                        lambda *a, **k: classified.append(1) or classify(*a, **k))
    assert main(["realize", "--input", str(path), "--output", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 2 * len(classified) == 72


def test_verify_rejects_corruption(system_path, tmp_path):
    obj = json.loads(system_path.read_text())
    obj["B"]["data"][0][0] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "badreport.json"
    assert main(["verify", "--input", str(bad), "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False


def test_parse_error_exit(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["verify", "--input", str(broken)]) == 2
    assert main(["verify", "--input", str(tmp_path / "missing.json")]) == 2


def test_validation_error_exit(tmp_path):
    # conservative but not simple: schur construction must refuse
    blocks = {
        "m": 0, "n": 0, "h": 2, "k": 2,
        "D": {"rows": 0, "cols": 0, "data": []},
        "C": {"rows": 0, "cols": 2, "data": []},
        "B": {"rows": 2, "cols": 0, "data": []},
        "A": {"rows": 2, "cols": 2, "data": [[0, 0], [1, 0], [-1, 0], [0, 0]]},
    }
    path = tmp_path / "nonsimple.json"
    path.write_text(json.dumps(blocks))
    assert main(["schur", "--input", str(path)]) == 3


def test_sample_csv(system_path, tmp_path):
    out = tmp_path / "samples.csv"
    assert main(["sample", "--input", str(system_path), "--grid-radii", "0.5",
                 "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("re_lambda,im_lambda,re_0_0,im_0_0")
    assert len(lines) == 1 + 1 + 8  # header, origin, 8 angles at one radius
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.0


def test_schur_single_blaschke_factor(tmp_path):
    import math

    r = math.sqrt(0.84)
    blocks = {
        "m": 1, "n": 1, "h": 1, "k": 1,
        "D": {"rows": 1, "cols": 1, "data": [[0.4, 0]]},
        "C": {"rows": 1, "cols": 1, "data": [[r, 0]]},
        "B": {"rows": 1, "cols": 1, "data": [[r, 0]]},
        "A": {"rows": 1, "cols": 1, "data": [[-0.4, 0]]},
    }
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(blocks))
    out = tmp_path / "chain.json"
    assert main(["schur", "--input", str(path), "--n-max", "3",
                 "--output", str(out)]) == 0
    chain = json.loads(out.read_text())
    got = [g["data"][0][0] for g in chain["gammas"]]
    assert np.allclose(got, [0.4, 1.0], atol=1e-10)
    assert chain["terminated"] is True


def test_schur_report_reproducible(tmp_path, system_path):
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    main(["schur", "--input", str(system_path), "--output", str(c1)])
    main(["schur", "--input", str(system_path), "--output", str(c2)])
    assert c1.read_bytes() == c2.read_bytes()


def test_tolerance_overrides_flow_through(system_path, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["verify", "--input", str(system_path), "--rank-tol", "1e-8",
                 "--eq-tol", "1e-7", "--output", str(out)]) == 0
    assert main(["verify", "--input", str(system_path), "--rank-tol", "2",
                 "--output", str(out)]) == 3  # rank_rel must lie in (0, 1)


@pytest.mark.parametrize("verb, value", [
    ("analyze", "nan"), ("verify", "nan"), ("verify", "inf"), ("verify", "0")])
def test_non_finite_eq_tol_is_rejected(system_path, tmp_path, capsys, verb, value):
    # a nan tolerance made every equality test false, so analyze reported
    # the conservative input as neither passive nor isometric and verify
    # blamed the input; inf let verify pass anything
    assert main([verb, "--input", str(system_path), "--eq-tol", value,
                 "--output", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: eq_abs must be positive and finite\n"


@pytest.mark.parametrize("verb, flag, value", [
    ("analyze", "--grid-radii", "0.5"),
    ("realize", "--grid-radii", "0.5"),
    ("random", "--grid-radii", "0.5"),
    ("analyze", "--seed", "1"),
    ("schur", "--seed", "1"),
    ("realize", "--seed", "1"),
    ("verify", "--seed", "1"),
    ("sample", "--seed", "1"),
    ("sample", "--n-max", "2"),
    ("random", "--n-max", "2"),
    ("random", "--input", "sys.json"),
])
def test_verb_rejects_flags_it_does_not_read(system_path, tmp_path, verb, flag, value):
    source = [] if verb == "random" else ["--input", str(system_path)]
    argv = [verb, *source, "--output", str(tmp_path / "out"), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _write_system(path, system):
    path.write_text(serialize.dumps(serialize.system_to_json(system)))
    return path


@pytest.mark.parametrize("verb", ["analyze", "schur", "realize", "verify", "sample"])
def test_verb_without_input_is_a_parse_error(verb, capsys):
    assert main([verb]) == 2
    assert capsys.readouterr().err == "error: --input is required for this verb\n"


def test_schema_error_is_a_parse_error(system_path, tmp_path):
    obj = json.loads(system_path.read_text())
    del obj["A"]
    path = tmp_path / "no_a.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", "--input", str(path)]) == 2


@pytest.mark.parametrize("radii", ["x", "1.5"])
def test_bad_grid_radii_are_rejected(system_path, radii):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--input", str(system_path), "--grid-radii", radii])
    assert exc.value.code == 2


@pytest.mark.parametrize("n_max", ["-1", "-3", "x"])
@pytest.mark.parametrize("verb", ["analyze", "schur", "realize", "verify"])
def test_bad_n_max_is_rejected(system_path, verb, n_max):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--input", str(system_path), "--n-max", n_max])
    assert exc.value.code == 2


def test_n_max_zero_checks_gamma_0_alone(system_path, capsys):
    assert main(["verify", "--input", str(system_path), "--n-max", "0"]) == 0
    assert len(json.loads(capsys.readouterr().out)["gammas"]) == 1


def test_random_without_a_simple_draw_is_a_validation_error(capsys):
    # with no input and output no draw on a nonzero state is simple
    assert main(["random", "--state-dim", "2", "--io-dim", "0"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: no simple conservative system")


def test_non_square_state_block_is_a_validation_error(tmp_path, capsys):
    # the blocks agree with a header with h = 2 and k = 3, but a
    # discrete-time system needs a square state block
    rng = np.random.default_rng(0)
    obj = {"m": 1, "n": 1, "h": 2, "k": 3}
    for key, shape in (("D", (1, 1)), ("C", (1, 2)), ("B", (3, 1)), ("A", (3, 2))):
        obj[key] = la.matrix_to_json(0.1 * rng.standard_normal(shape))
    path = tmp_path / "rect.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", "--input", str(path)]) == 3
    assert "square" in capsys.readouterr().err


def test_analyze_passive_system_reads_its_own_state(tmp_path, capsys):
    # a scaled conservative system is passive, not conservative: its defect
    # profile comes from a Contraction of its own state
    base = systems.random_conservative_system(8, 1, np.random.default_rng(1))
    passive = systems.discrete_system(*(0.9 * getattr(base.block, blk) for blk in "dcba"))
    path = _write_system(tmp_path / "passive.json", passive)
    assert main(["analyze", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["classification"]["conservative"]
    profile = Contraction(passive.a).defect_profile(passive.state_dim)
    assert report["defect_profile"] == {"delta": profile.delta,
                                        "delta_star": profile.delta_star}


def test_analyze_state_dimension_zero(tmp_path, capsys):
    system = systems.random_conservative_system(0, 2, np.random.default_rng(0))
    path = _write_system(tmp_path / "static.json", system)
    assert main(["analyze", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dims"]["state"] == 0
    assert report["defect_profile"] is None


def test_dumps_renders_non_finite_floats_as_strings():
    assert serialize.dumps([np.nan, np.inf, -np.inf]) == '["nan","inf","-inf"]'
    assert serialize.dumps({"r": float("inf")}) == '{"r":"inf"}'


@pytest.mark.parametrize("verb", ["analyze", "schur", "realize", "verify", "sample", "random"])
def test_parser_defaults_are_the_library_defaults(verb):
    ns = build_parser().parse_args([verb])
    assert (ns.rank_tol, ns.eq_tol) == (la.DEFAULT_TOL.rank_rel, la.DEFAULT_TOL.eq_abs)
    if verb in ("schur", "verify", "sample"):
        default = inspect.signature(systems.disk_grid).parameters["radii"].default
        assert ns.grid_radii == default
        assert systems.disk_grid(ns.grid_radii) == systems.disk_grid()
