"""Acceptance suite: each test prints one PASS/FAIL line and pins the
tolerances stated in the project contract.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.
"""

import json
import time

import numpy as np

import schurkit.linalg as la
from schurkit import (
    Contraction,
    char_function,
    disk_grid,
    gamma_from_realization,
    moebius_parameter,
    random_conservative_system,
    reconstruct,
)
from schurkit.blockparam import (
    assemble_fgl,
    assemble_kmx,
    decompose_fgl,
    decompose_kmx,
    iso_criteria,
    shmulyan_transform,
    split_blocks,
)
from schurkit.cli import main as cli_main
from schurkit.linalg import adj
from schurkit.schur import build_chain, verify_chain
from schurkit.serialize import dumps, system_to_json
from schurkit.systems import grid_distance
from conftest import permutation_colligation, random_cnu, random_matrix

GRID = disk_grid()

# Cauchy-mean parameters for the independent scalar oracle below.
_RHO, _PTS = 0.4, 40


def _report(idx, ok, detail=""):
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {idx} failed: {detail}"


def _value_at_zero(fn):
    pts = _RHO * np.exp(2j * np.pi * np.arange(_PTS) / _PTS)
    return sum(fn(lam) for lam in pts) / _PTS


def _classical_scalar_parameters(transfer, cap):
    """The textbook scalar recursion, independent of the package internals:
    f_{n+1} = (f_n - f_n(0)) / (lambda (1 - conj(f_n(0)) f_n))."""
    gammas = []
    current = transfer
    for _ in range(cap + 1):
        gamma = complex(_value_at_zero(current))
        gammas.append(gamma)
        if abs(abs(gamma) - 1.0) <= 1e-8:
            return gammas, True
        current = (lambda f, g: lambda lam: (f(lam) - g)
                   / (lam * (1.0 - np.conj(g) * f(lam))))(current, gamma)
    return gammas, False


def test_criterion_1_scalar_classical_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        sys = random_conservative_system(d, 1, rng)
        seq = gamma_from_realization(sys, d + 1)
        got = [complex(g[0, 0]) for g in seq.gammas]
        classical, terminated = _classical_scalar_parameters(
            lambda lam: sys.transfer(lam)[0, 0], d + 1
        )
        assert terminated and seq.terminated
        assert len(got) == len(classical)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, classical)))
        assert len(got) - 1 <= d
        assert abs(abs(got[-1]) - 1.0) <= 1e-8
    elapsed = time.time() - start
    _report(1, worst <= 1e-7 and elapsed < 5.0,
            f"(max param dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_square_anchor():
    sys = permutation_colligation()
    chain = build_chain(sys)
    gammas = [complex(g[0, 0]) for g in chain.params.gammas]
    dev = max(abs(a - b) for a, b in zip(gammas, [0.0, 0.0, 1.0]))
    dims_ok = [s.dim for s in chain.h_chain] == [2, 1, 0]
    tau10 = chain.families[0][0]
    transfer_dev = max(abs(tau10.transfer(lam)[0, 0] - lam) for lam in GRID)
    ok = dev <= 1e-10 and dims_ok and transfer_dev <= 1e-10 and len(gammas) == 3
    _report(2, ok, f"(gamma dev {dev:.2e}, transfer dev {transfer_dev:.2e})")


def test_criterion_3_matrix_pipeline():
    start = time.time()
    rng = np.random.default_rng(303)
    worst = {"unitarity": 0.0, "across": 0.0, "oracle": 0.0, "similarity": 0.0}
    for _ in range(25):
        io = int(rng.integers(2, 4))
        d = int(rng.integers(3, 7))
        sys = random_conservative_system(d, io, rng)
        chain = build_chain(sys)
        report = verify_chain(chain)
        resid = report.residuals
        for name, value in resid.items():
            if name.startswith("unitarity"):
                worst["unitarity"] = max(worst["unitarity"], value)
            elif name.startswith("transfer_across_k"):
                worst["across"] = max(worst["across"], value)
            elif name.startswith("transfer_oracle"):
                worst["oracle"] = max(worst["oracle"], value)
            elif name.startswith("similarity"):
                worst["similarity"] = max(worst["similarity"], value)
    elapsed = time.time() - start
    ok = (worst["unitarity"] <= 1e-9 and worst["across"] <= 1e-7
          and worst["oracle"] <= 1e-6 and worst["similarity"] <= 1e-7
          and elapsed < 60.0)
    _report(3, ok, f"({worst}, {elapsed:.1f}s)")


def test_criterion_4_compression_lattice():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(3, 9))
        defect = int(rng.integers(1, 3))
        a = random_cnu(dim, defect, rng)
        for n in range(1, 3):
            for m in range(0, 2):
                h = a.h_subspace(n, m)
                if h.dim:
                    img = la.image_subspace(a.a, h)
                    worst = max(worst, la.matnorm_diff(
                        img.projector(), a.h_subspace(n - 1, m + 1).projector()
                    ))
        for n, m in ((0, 0), (1, 0), (0, 1)):
            w = a.h_subspace(n, m).basis
            comp = a.compress(n, m)
            for k in (1, 2):
                dd = la.defect_of(np.linalg.matrix_power(comp, k), a.tol)
                amb = (la.Subspace(dim, w @ dd.kernel.basis) if dd.kernel.dim
                       else la.trivial_space(dim))
                worst = max(worst, la.matnorm_diff(
                    amb.projector(), a.h_subspace(n + k, m).projector()
                ))
        # nested compression vs direct compression, as unitary equivalence
        w = a.h_subspace(1, 0).basis
        if w.shape[1]:
            inner = Contraction(a.compress(1, 0), a.tol)
            for k, l in ((1, 0), (0, 1)):
                v = inner.h_subspace(k, l).basis
                target = a.h_subspace(1 + k, l).basis
                if v.shape[1] == 0:
                    continue
                q = adj(target) @ (w @ v)
                worst = max(worst, la.matnorm_diff(adj(q) @ q, np.eye(q.shape[1])))
                worst = max(worst, la.matnorm_diff(
                    q @ inner.compress(k, l) @ adj(q), a.compress(1 + k, l)
                ))
        # intertwining A(n-1,m+1) A = A A(n,m) on H(n,m)
        for n in range(1, 3):
            for m in range(0, 2):
                hs = a.h_subspace(n, m)
                if hs.dim == 0:
                    continue
                wb = hs.basis
                w2 = a.h_subspace(n - 1, m + 1).basis
                u = adj(w2) @ a.a @ wb
                worst = max(worst, la.matnorm_diff(
                    a.compress(n - 1, m + 1) @ u, u @ a.compress(n, m)
                ))
    _report(4, worst <= 1e-8, f"(max residual {worst:.2e})")


def test_criterion_5_moebius_parameter_of_char_function():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        defect = int(rng.integers(1, 3))
        a = random_cnu(dim, defect, rng)
        z = moebius_parameter(char_function(a))
        cal = Contraction(a.a @ a.h_subspace(1, 0).projector())
        psi = char_function(cal)
        theta0 = char_function(a)(0)
        e0 = la.defect_of(theta0).space
        f0 = la.defect_of(theta0, adjoint=True).space
        om = adj(cal.defect_a.basis) @ (a.defect_a.basis @ e0.basis)
        ps = adj(cal.defect_astar.basis) @ (a.defect_astar.basis @ f0.basis)
        for lam in GRID:
            worst = max(worst, la.matnorm_diff(z(lam), adj(ps) @ psi(lam) @ om))
    # equivalence: defect inclusion <-> linear parameter, both directions
    g = random_matrix(rng, 4, 4)
    strict = Contraction(0.8 * g / la.opnorm(g))
    z_strict = moebius_parameter(char_function(strict))
    inc_strict = strict.defect_astar.contains(strict.defect_a)
    lin_strict = max(
        la.matnorm_diff(z_strict(lam), lam * np.eye(4)) for lam in GRID
    ) <= 1e-8
    corner = random_cnu(4, 2, rng)
    z_corner = moebius_parameter(char_function(corner))
    inc_corner = corner.defect_astar.contains(corner.defect_a)
    lin_corner = max(
        la.matnorm_diff(z_corner(lam), lam * np.eye(z_corner.in_dim)) for lam in GRID
    ) <= 1e-8
    equiv_ok = (inc_strict and lin_strict) and (not inc_corner and not lin_corner)
    _report(5, worst <= 1e-8 and equiv_ok, f"(max residual {worst:.2e})")


def test_criterion_6_parametrization_roundtrips():
    rng = np.random.default_rng(606)
    worst_rt = 0.0
    worst_id = 0.0
    for trial in range(200):
        out_dim = int(rng.integers(1, 3))
        in_dim = int(rng.integers(1, 3))
        state = int(rng.integers(1, 4))
        norm = 0.98 if trial % 3 else 0.7
        full = random_matrix(rng, out_dim + state, in_dim + state)
        full *= norm / la.opnorm(full)
        t = split_blocks(full, out_dim, in_dim)
        kmx = decompose_kmx(t)
        worst_rt = max(worst_rt, la.matnorm_diff(
            assemble_kmx(kmx).assemble(), t.assemble()
        ))
        fgl = decompose_fgl(t)
        worst_rt = max(worst_rt, la.matnorm_diff(
            assemble_fgl(fgl).assemble(), t.assemble()
        ))
        flags = iso_criteria(t)  # raises on criterion/Gram disagreement
        assert not flags.unitary
        # defect identity of the KMX form on one random vector pair
        da = la.defect_of(kmx.a).op
        dk = la.defect_of(kmx.k).op
        dm = la.defect_of(kmx.m).op
        dx = la.defect_of(kmx.x).op
        ua, uas, em = kmx.da.space.basis, kmx.dastar.space.basis, kmx.dm.space.basis
        h = random_matrix(rng, in_dim, 1)[:, 0]
        f = random_matrix(rng, state, 1)[:, 0]
        vec = np.concatenate([h, f])
        lhs = np.linalg.norm(vec) ** 2 - np.linalg.norm(t.assemble() @ vec) ** 2
        inner = adj(ua) @ da @ f - (adj(ua) @ adj(kmx.a) @ uas) @ (kmx.m @ h)
        x_amb = kmx.dkstar.space.basis @ kmx.x @ adj(em)
        t1 = dk @ inner - adj(kmx.k) @ x_amb @ dm @ h
        t2 = dx @ (adj(em) @ dm @ h)
        worst_id = max(worst_id, abs(lhs - np.linalg.norm(t1) ** 2
                                     - np.linalg.norm(t2) ** 2))
        # defect identity of the FGL form
        dd = la.defect_of(fgl.d).op
        df = la.defect_of(fgl.f).op
        dg = la.defect_of(fgl.g).op
        dl = la.defect_of(fgl.l).op
        ed, fds = fgl.dd.space.basis, fgl.ddstar.space.basis
        eg, ffs = fgl.dg.space.basis, fgl.dfstar.space.basis
        full_t = t.assemble()
        dt_op = la.defect_of(full_t).op
        lhs = np.linalg.norm(dt_op @ vec) ** 2
        inner = adj(ed) @ dd @ h - (adj(ed) @ adj(fgl.d) @ fds) @ (fgl.g @ f)
        t1 = df @ inner - adj(fgl.f) @ (ffs @ fgl.l @ adj(eg)) @ dg @ f
        t2 = dl @ (adj(eg) @ dg @ f)
        worst_id = max(worst_id, abs(lhs - np.linalg.norm(t1) ** 2
                                     - np.linalg.norm(t2) ** 2))
    ok = worst_rt <= 1e-8 and worst_id <= 1e-8
    _report(6, ok, f"(roundtrip {worst_rt:.2e}, identities {worst_id:.2e})")


def test_criterion_7_shmulyan_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        t = random_matrix(rng, rows, cols)
        t *= 0.9 / la.opnorm(t)
        dt = la.defect_of(t)
        dts = la.defect_of(t, adjoint=True)
        z = dts.space.projector() @ random_matrix(rng, rows, cols) @ dt.space.projector()
        top = la.opnorm(z)
        if top > 0:
            z *= 0.9 / top
        q = shmulyan_transform(t, z)
        dq = la.defect_of(q).op
        dz = la.defect_of(z).op
        solve = np.linalg.solve(np.eye(cols) + adj(t) @ z, dt.op)
        for _ in range(3):
            f = random_matrix(rng, cols, 1)[:, 0]
            worst = max(worst, abs(
                np.linalg.norm(dq @ f) - np.linalg.norm(dz @ solve @ f)
            ))
        exact = shmulyan_transform(t, np.zeros_like(t))
        assert np.array_equal(exact, t)
    _report(7, worst <= 1e-8, f"(max defect-identity dev {worst:.2e})")


def test_criterion_8_moebius_parameter_bounds():
    rng = np.random.default_rng(808)
    worst = 0.0
    zero_ok = True
    functions = []
    for _ in range(10):
        sys = random_conservative_system(int(rng.integers(2, 6)),
                                         int(rng.integers(1, 4)), rng)
        functions.append(sys.sampled())
    for _ in range(10):
        a = random_cnu(int(rng.integers(2, 6)), int(rng.integers(1, 3)), rng)
        functions.append(char_function(a))
    for theta in functions:
        z = moebius_parameter(theta)
        zero_ok = zero_ok and la.opnorm(z(0)) == 0.0
        for lam in GRID:
            worst = max(worst, la.opnorm(z(lam)) - abs(lam))
    _report(8, zero_ok and worst <= 1e-9, f"(max excess {worst:.2e})")


def test_criterion_9_reconstruct_identity():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10):
        io = int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        sys = random_conservative_system(d, io, rng)
        seq = gamma_from_realization(sys, d + 1)
        assert seq.terminated
        back = reconstruct(seq)
        worst = max(worst, grid_distance(back, sys.sampled(), GRID))
    _report(9, worst <= 1e-7, f"(max transfer dev {worst:.2e})")


def test_criterion_10_energy_balance():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(5):
        io = int(rng.integers(1, 4))
        d = int(rng.integers(2, 6))
        sys = random_conservative_system(d, io, rng)
        inputs = [random_matrix(rng, io, 1)[:, 0] for _ in range(100)]
        h0 = random_matrix(rng, d, 1)[:, 0]
        states, outputs = sys.simulate(inputs, h0)
        for k in range(100):
            gain = (np.linalg.norm(states[k + 1]) ** 2
                    + np.linalg.norm(outputs[k]) ** 2
                    - np.linalg.norm(states[k]) ** 2
                    - np.linalg.norm(inputs[k]) ** 2)
            worst = max(worst, abs(gain))
    _report(10, worst <= 1e-10, f"(max per-step defect {worst:.2e})")


def test_criterion_11_negative_controls(tmp_path):
    rng = np.random.default_rng(1111)
    sys = random_conservative_system(4, 2, rng)
    clean = tmp_path / "clean.json"
    clean.write_text(dumps(system_to_json(sys)))
    assert cli_main(["verify", "--input", str(clean),
                     "--output", str(tmp_path / "clean_report.json")]) == 0
    all_nonzero = True
    for block in ("D", "C", "B", "A"):
        obj = json.loads(clean.read_text())
        obj[block]["data"][0][0] += 1e-3
        bad = tmp_path / f"bad_{block}.json"
        bad.write_text(json.dumps(obj))
        code = cli_main(["verify", "--input", str(bad),
                         "--output", str(tmp_path / f"report_{block}.json")])
        all_nonzero = all_nonzero and code != 0
    _report(11, all_nonzero, "(every corrupted block rejected)")
