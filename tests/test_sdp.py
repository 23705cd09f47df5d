"""Phase-I barrier feasibility engine and its dense eigensolver."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _reference as ref
from hbreset import lmi, sdp
from hbreset.cli import certify_request, main as cli_main
from hbreset.lmi import NES, POL, build_theorem2, dt_problem, dt_system
from hbreset.sdp import (AffineMatrixMap, FEASIBLE, FeasProblem, INDETERMINATE,
                         INFEASIBLE, problem_from_json, problem_to_json,
                         solve_feasibility, symmetric_eig)


# ---------------------------------------------------------------------------
# eigensolver


def test_eig_diagonal_sorted():
    vals, vecs = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(vals, [1.0, 2.0, 3.0], atol=1e-13)
    np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-13)


def test_eig_known_2x2():
    vals, _ = symmetric_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eig_matches_numpy_and_reconstructs():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3, 6, 10, 16):
        a = rng.standard_normal((dim, dim))
        a = 0.5 * (a + a.T)
        vals, vecs = symmetric_eig(a)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(a), atol=1e-11)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.linalg.norm(recon - a) <= 1e-12 * max(1.0, np.linalg.norm(a))
        # orthonormality
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(dim), atol=1e-12)


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(1, 16))
    a = draw(arrays(float, (n, n), elements=st.floats(-1e3, 1e3)))
    return 0.5 * (a + a.T)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(_symmetric_matrices())
def test_eig_property_reconstructs_and_orthonormal(a):
    vals, vecs = symmetric_eig(a)
    assert np.all(np.diff(vals) >= 0.0)
    recon = vecs @ np.diag(vals) @ vecs.T
    assert np.linalg.norm(recon - a) <= 1e-12 * max(1.0, np.linalg.norm(a))
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(a.shape[0]), atol=1e-12)


def test_eig_rejects_asymmetry_and_big_dims():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        symmetric_eig(bad)
    with pytest.raises(ValueError):
        symmetric_eig(np.eye(17))
    for bad_entry in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            symmetric_eig(np.array([[1.0, bad_entry], [bad_entry, 1.0]]))


def test_check_nsd_boundaries():
    # the NSD test the half-margin re-check makes: top eigenvalue <= tol
    def nsd(a, tol):
        return np.linalg.eigvalsh(a)[-1] <= tol

    assert nsd(np.zeros((2, 2)), 0.0)
    assert not nsd(np.eye(2), 0.0)
    rng = np.random.default_rng(1)
    pert = rng.standard_normal((3, 3)) * 1e-12
    assert nsd(-np.eye(3) + 0.5 * (pert + pert.T), 1e-9)
    vals, vecs = np.linalg.eigh(np.diag([-5.0, 2.0]))
    assert vals[-1] == pytest.approx(2.0, abs=1e-13)
    np.testing.assert_allclose(np.abs(vecs[:, -1]), [0.0, 1.0], atol=1e-13)


# ---------------------------------------------------------------------------
# affine maps and problems


def test_affine_map_evaluation():
    amap = AffineMatrixMap(constant=np.zeros((2, 2)),
                           basis=[(0, np.eye(2)), (2, np.diag([1.0, -1.0]))])
    v = np.array([2.0, 9.0, 3.0])
    np.testing.assert_allclose(amap.value(v), np.diag([5.0, -1.0]))
    np.testing.assert_allclose(amap.negated().value(v), np.diag([-5.0, 1.0]))


def _stated_bound(res):
    # the lower bound on the worst eigenvalue that an INFEASIBLE result's
    # message states, e.g. "phase-I lower bound 0.0123 > -margin"
    assert res.status == INFEASIBLE
    found = re.search(r"(\S+) > -margin$", res.message)
    assert found, res.message
    return float(found.group(1))


def _at_most(i, hi):
    # the 1x1 block v_i - hi, so v_i <= hi - margin
    return AffineMatrixMap(constant=np.array([[-hi]]), basis=[(i, np.eye(1))],
                           name=f"v{i}_max")


def _scalar_problem():
    # one block (v1 - 1) * I, v1 in [0, 2] by a floor and a 1x1 block
    amap = AffineMatrixMap(constant=-np.eye(2), basis=[(0, np.eye(2))])
    return FeasProblem(nvar=1, nsd_blocks=[amap, _at_most(0, 2.0)], nonneg={0: 0.0})


def test_scalar_block_feasible():
    res = solve_feasibility(_scalar_problem(), max_oracle_calls=50)
    assert res.status == FEASIBLE
    assert res.feasible
    # any point on the feasible side of the sector works; the engine stops
    # at the first certified one
    assert res.v[0] < 1.0
    assert res.worst_eig <= -1e-9


def test_constant_identity_infeasible():
    amap = AffineMatrixMap(constant=np.eye(2), basis=[])
    prob = FeasProblem(nvar=0, nsd_blocks=[amap])
    res = solve_feasibility(prob, max_oracle_calls=10)
    assert res.status == INFEASIBLE
    assert _stated_bound(res) == 1.0


def test_constant_nsd_feasible_without_variables():
    amap = AffineMatrixMap(constant=-np.eye(3), basis=[])
    res = solve_feasibility(FeasProblem(nvar=0, nsd_blocks=[amap]), 10)
    assert res.status == FEASIBLE
    assert res.worst_eig == pytest.approx(-1.0, abs=1e-12)
    # one evaluation and the half-margin re-check
    assert res.oracle_calls == 2


def test_flat_violated_block_is_infeasible_with_variables():
    # block ignores v entirely and sits at +1/2: any dual weight on it
    # gives a lower bound above the margin
    amap = AffineMatrixMap(constant=0.5 * np.eye(1), basis=[])
    prob = FeasProblem(nvar=1, nsd_blocks=[amap, _at_most(0, 1.0)], nonneg={0: 0.0})
    res = solve_feasibility(prob, max_oracle_calls=20)
    assert res.status == INFEASIBLE
    assert -prob.margin < _stated_bound(res) <= 0.5


def test_lyapunov_block_feasible_iff_stable():
    # discrete Lyapunov: A' P A - P < 0 with P = diag(v0, v1) seeded by
    # normalization v0 + v1 = 1
    def lyap_problem(a_mat):
        e00 = np.diag([1.0, 0.0])
        e11 = np.diag([0.0, 1.0])
        blocks = []
        amap_c = np.zeros((2, 2))
        b0 = a_mat.T @ e00 @ a_mat - e00
        b1 = a_mat.T @ e11 @ a_mat - e11
        blocks.append(AffineMatrixMap(constant=amap_c, basis=[(0, b0), (1, b1)]))
        pd = [AffineMatrixMap(constant=np.zeros((2, 2)),
                              basis=[(0, e00), (1, e11)])]
        return FeasProblem(nvar=2, nsd_blocks=blocks, pd_blocks=pd,
                           normalization=np.array([1.0, 1.0]))

    stable = np.array([[0.5, 0.2], [0.0, 0.6]])
    res = solve_feasibility(lyap_problem(stable), max_oracle_calls=100)
    assert res.status == FEASIBLE
    # independent re-verification with numpy at half margin
    p_mat = np.diag(res.v)
    m = stable.T @ p_mat @ stable - p_mat
    assert np.linalg.eigvalsh(m)[-1] <= -0.5e-9
    assert np.linalg.eigvalsh(p_mat)[0] >= 0.5e-9

    unstable = np.array([[1.2, 0.0], [0.3, 1.1]])
    prob2 = lyap_problem(unstable)
    res2 = solve_feasibility(prob2, max_oracle_calls=200)
    assert res2.status == INFEASIBLE
    assert _stated_bound(res2) > -prob2.margin


def test_budget_exhaustion_is_indeterminate_not_infeasible():
    # feasible problem, but the 1-call budget runs out at the first point
    amap = AffineMatrixMap(constant=-np.eye(2) * 1e-12, basis=[(0, np.eye(2))])
    prob = FeasProblem(nvar=1, nsd_blocks=[amap, _at_most(0, 1.0)], nonneg={0: -1.0})
    res = solve_feasibility(prob, max_oracle_calls=1)
    assert res.status == INDETERMINATE
    assert "budget" in res.message


def test_nonneg_floor_enforced():
    # v0 must stay >= 0.3 while the block wants it small
    amap = AffineMatrixMap(constant=-np.eye(1), basis=[(0, np.eye(1))])
    prob = FeasProblem(nvar=1, nsd_blocks=[amap, _at_most(0, 2.0)], nonneg={0: 0.3})
    res = solve_feasibility(prob, max_oracle_calls=60)
    assert res.status == FEASIBLE
    assert res.v[0] >= 0.3 - 1e-9


def test_normalization_respected():
    # block needs v0 <= 1 - margin while v0 + v1 stays pinned at 1
    amap = AffineMatrixMap(constant=-np.eye(1), basis=[(0, np.eye(1))])
    prob = FeasProblem(nvar=2, nsd_blocks=[amap],
                       nonneg={0: 0.0, 1: 0.0},
                       normalization=np.array([1.0, 1.0]))
    res = solve_feasibility(prob, max_oracle_calls=60)
    assert res.status == FEASIBLE
    assert res.v[0] + res.v[1] == pytest.approx(1.0, abs=1e-9)
    assert res.v[0] <= 1.0


def test_determinism():
    prob = _scalar_problem()
    r1 = solve_feasibility(prob, max_oracle_calls=50)
    r2 = solve_feasibility(prob, max_oracle_calls=50)
    np.testing.assert_array_equal(r1.v, r2.v)
    assert r1.oracle_calls == r2.oracle_calls
    assert _bits(r1) == _bits(r2)


def test_midpoint_convexity_of_objective():
    prob = _scalar_problem()
    amap = prob.nsd_blocks[0]

    def f(v):
        return float(np.linalg.eigvalsh(amap.value(np.array([v])))[-1])

    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rng.uniform(0.0, 2.0, 2)
        assert f(0.5 * (a + b)) <= max(f(a), f(b)) + 1e-12


def test_problem_validation():
    amap = AffineMatrixMap(constant=np.eye(1), basis=[])
    with pytest.raises(ValueError):
        FeasProblem(nvar=0, nsd_blocks=[])
    with pytest.raises(ValueError):
        FeasProblem(nvar=1, nsd_blocks=[amap], margin=0.0)
    with pytest.raises(ValueError):
        FeasProblem(nvar=0, nsd_blocks=[AffineMatrixMap(constant=np.eye(1),
                                                        basis=[(0, np.eye(1))])])
    with pytest.raises(ValueError):
        FeasProblem(nvar=1, nsd_blocks=[amap], normalization=np.zeros(1))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            FeasProblem(nvar=1, nsd_blocks=[amap], margin=bad)
        with pytest.raises(ValueError, match="floor_v0.*non-finite"):
            FeasProblem(nvar=1, nsd_blocks=[amap], nonneg={0: bad})
        with pytest.raises(ValueError, match="normalization.*non-finite"):
            FeasProblem(nvar=2, nsd_blocks=[amap], normalization=np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            AffineMatrixMap(constant=np.full((1, 1), bad), basis=[])
        with pytest.raises(ValueError, match="non-finite"):
            AffineMatrixMap(constant=np.eye(1), basis=[(0, np.full((1, 1), bad))])


def test_warm_start_cannot_bypass_floors_or_normalization():
    # v0 <= -margin holds only outside [0, 1], set by a floor and a 1x1
    # block; a warm start there must not be returned, so the verdict
    # cannot depend on it
    amap = AffineMatrixMap(constant=np.zeros((1, 1)), basis=[(0, np.eye(1))])
    prob = FeasProblem(nvar=1, nsd_blocks=[amap, _at_most(0, 1.0)], nonneg={0: 0.0})
    for v_init in (None, np.array([-5.0])):
        res = solve_feasibility(prob, max_oracle_calls=100, v_init=v_init)
        assert res.status == INFEASIBLE
        assert _stated_bound(res) > -prob.margin
    # a warm start off the normalization is projected onto it
    amap = AffineMatrixMap(constant=-np.eye(1), basis=[(0, np.eye(1))])
    prob = FeasProblem(nvar=2, nsd_blocks=[amap], normalization=np.array([1.0, 1.0]))
    res = solve_feasibility(prob, max_oracle_calls=50, v_init=np.array([0.2, 0.2]))
    assert res.status == FEASIBLE
    assert res.v.sum() == pytest.approx(1.0, abs=1e-12)


def test_problem_json_round_trip():
    prob = _scalar_problem()
    text = problem_to_json(prob)
    again = problem_to_json(problem_from_json(text))
    assert text == again
    parsed = json.loads(text)
    assert parsed["nvar"] == 1 and "bounds" not in parsed
    # dumps written while problems had bounds hold "bounds": null
    assert problem_to_json(problem_from_json(json.dumps({**parsed, "bounds": None}))) == text
    # a key the reader does not read is refused, not dropped with its
    # constraints: a misspelled "nonneg", and bounds that are set
    misspelled = {("nonnegs" if key == "nonneg" else key): value
                  for key, value in parsed.items()}
    for doc, key in ((misspelled, "'nonnegs'"), ({**parsed, "bounds": [[0.0, 2.0]]}, "bounds"),
                     ({**parsed, "bounds": []}, "bounds")):
        with pytest.raises(ValueError, match=key):
            problem_from_json(json.dumps(doc))
    # malformed documents name the key or the block that is wrong
    block = parsed["nsd_blocks"][0]
    renamed = {("nmae" if key == "name" else key): value for key, value in block.items()}
    for doc, what in (([1], "top level is not an object"), ({}, "lacks key 'nvar'"),
                      ({**parsed, "nsd_blocks": [renamed]},
                       r"nsd_blocks\[0\] has unknown key 'nmae'"),
                      ({**parsed, "nonneg": {"a": 0.0}}, "nonneg .*\"a\""),
                      ({**parsed, "nonneg": [0]}, "nonneg")):
        with pytest.raises(ValueError, match=what):
            problem_from_json(json.dumps(doc))
    for key in ("constant", "basis"):
        doc = {**parsed, "pd_blocks": [block, {k: v for k, v in block.items() if k != key}]}
        with pytest.raises(ValueError, match=rf"pd_blocks\[1\] lacks key '{key}'"):
            problem_from_json(json.dumps(doc))


def test_blocks_above_max_eig_dim_are_rejected_by_name():
    # a block has at most MAX_EIG_DIM = 16 rows: a bigger one is refused
    # when the problem is built, in code or from JSON, and the error names
    # the block
    assert sdp.MAX_EIG_DIM == 16
    edge = AffineMatrixMap(constant=-np.eye(16), basis=[(0, np.eye(16))], name="edge")
    assert solve_feasibility(FeasProblem(nvar=1, nsd_blocks=[edge])).status == FEASIBLE
    big = AffineMatrixMap(constant=-np.eye(20), basis=[(0, np.eye(20))], name="big")
    small = AffineMatrixMap(constant=np.eye(2), basis=[], name="small")

    def doc(blocks):
        return [{"name": blk.name, "constant": blk.constant.tolist(),
                 "basis": [[i, mat.tolist()] for i, mat in blk.basis]} for blk in blocks]

    for nsd, pd, where in (([big], [], r"nsd_blocks\[0\] \(map 'big'\)"),
                           ([], [small, big], r"pd_blocks\[1\] \(map 'big'\)")):
        what = where + ": dimension 20 exceeds the supported maximum 16"
        with pytest.raises(ValueError, match=what):
            FeasProblem(nvar=1, nsd_blocks=nsd, pd_blocks=pd)
        text = json.dumps({"nvar": 1, "margin": 1e-9, "nsd_blocks": doc(nsd),
                           "pd_blocks": doc(pd)})
        with pytest.raises(ValueError, match=what):
            problem_from_json(text)


def test_feasible_result_verified_at_half_margin():
    # soundness invariant: every returned FEASIBLE is NSD at margin/2 on
    # all sign-adjusted blocks
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    stable = 0.4 * a / np.linalg.norm(a, 2)
    basis = []
    for i in range(3):
        e = np.zeros((3, 3))
        e[i, i] = 1.0
        basis.append((i, stable.T @ e @ stable - e))
    nsd = [AffineMatrixMap(constant=np.zeros((3, 3)), basis=basis)]
    pd = [AffineMatrixMap(constant=np.zeros((3, 3)),
                          basis=[(i, np.diag(np.eye(3)[i])) for i in range(3)])]
    prob = FeasProblem(nvar=3, nsd_blocks=nsd, pd_blocks=pd,
                       normalization=np.ones(3))
    res = solve_feasibility(prob, max_oracle_calls=150)
    assert res.status == FEASIBLE
    assert res.worst_eig <= -1e-9
    for amap in prob.compiled_blocks():
        assert np.linalg.eigvalsh(amap.value(res.v))[-1] <= -0.5e-9


def test_half_margin_recheck_is_independent_of_the_search(monkeypatch):
    # every block evaluation of the search under-reports the top eigenvalue
    # by 1.0, so a violated block or floor looks satisfied; the re-check at
    # half margin must still refuse to certify it
    real_eigh, real_worst = sdp._block_eigh, FeasProblem.worst_block

    def lying_eigh(groups, w):
        out = []
        for lam, vecs in real_eigh(groups, w):
            lam = lam.copy()
            lam[..., -1] -= 1.0
            out.append((lam, vecs))
        return out

    def lying_worst(self, v):
        worst, grad, name = real_worst(self, v)
        return worst - 1.0, grad, name

    monkeypatch.setattr(sdp, "_block_eigh", lying_eigh)
    monkeypatch.setattr(FeasProblem, "worst_block", lying_worst)
    amap = AffineMatrixMap(constant=0.5 * np.eye(2), basis=[(0, np.eye(2))])
    free = FeasProblem(nvar=1, nsd_blocks=[amap, _at_most(0, 1.0)], nonneg={0: -1.0})
    pinned = FeasProblem(nvar=1, nsd_blocks=[amap], normalization=np.array([1.0]))
    constant = FeasProblem(nvar=0, nsd_blocks=[AffineMatrixMap(0.5 * np.eye(2), [])])
    # the block holds everywhere; the start v = 0 violates the floor 0.5
    bounded = FeasProblem(nvar=1, nsd_blocks=[AffineMatrixMap(-np.eye(1), []),
                                              _at_most(0, 3.0)], nonneg={0: 0.5})
    for prob, v_init in ((free, None), (free, np.array([0.2])), (pinned, None),
                         (constant, None), (bounded, None)):
        res = solve_feasibility(prob, max_oracle_calls=50, v_init=v_init)
        assert res.status != FEASIBLE


def _random_small_problem(rng):
    # one or two unknowns, random 1x1 to 3x3 blocks shifted so that some
    # problems are feasible and most are not; sometimes a floor, a pd
    # block or a normalization
    def sym(m, scale=1.0):
        x = scale * rng.standard_normal((m, m))
        return 0.5 * (x + x.T)

    nvar = int(rng.integers(1, 3))
    nsd = []
    for k in range(int(rng.integers(1, 3))):
        m = int(rng.integers(1, 4))
        nsd.append(AffineMatrixMap(constant=sym(m) + rng.uniform(-1.5, 1.5) * np.eye(m),
                                   basis=[(i, sym(m, 0.3)) for i in range(nvar)],
                                   name=f"nsd{k}"))
    pd = []
    if rng.uniform() < 0.3:
        pd.append(AffineMatrixMap(constant=sym(2, 0.1),
                                  basis=[(i, sym(2, 0.3)) for i in range(nvar)], name="pd"))
    nonneg = {0: float(rng.uniform(-1.0, 1.0))} if rng.uniform() < 0.3 else {}
    norm = None
    if nvar == 2 and rng.uniform() < 0.5:
        norm = rng.uniform(0.5, 1.5, 2)
    return FeasProblem(nvar=nvar, nsd_blocks=nsd, pd_blocks=pd, nonneg=nonneg,
                       normalization=norm)


def _grid_minimum(prob, points=201):
    # brute force: the worst sign-adjusted eigenvalue on a grid over the
    # search box, |v_i| <= 10, or |w| <= 4 along the normalization's
    # nullspace (the box is symmetric, so the direction's sign is moot)
    if prob.normalization is None:
        axes = [np.linspace(-10.0, 10.0, points)] * prob.nvar
        vs = np.stack(np.meshgrid(*axes), -1).reshape(-1, prob.nvar)
    else:
        c = prob.normalization
        along = np.array([-c[1], c[0]]) / np.linalg.norm(c)
        vs = c / (c @ c) + np.linspace(-4.0, 4.0, points)[:, None] * along
    worst = np.full(len(vs), -np.inf)
    for blk in prob.compiled_blocks():
        mats = blk.constant + sum(vs[:, i, None, None] * m for i, m in blk.basis)
        worst = np.maximum(worst, np.linalg.eigvalsh(mats)[:, -1])
    return float(worst.min())


def test_lower_bound_never_exceeds_grid_minimum(monkeypatch):
    # every bound the search computes, and every bound an INFEASIBLE result
    # states, is at most the brute-force minimum of the worst eigenvalue
    # over the search box; each random problem is solved as drawn and
    # shifted so that its grid minimum is 1e-4, which makes the search
    # press its bound up against the minimum
    seen = []
    real_terms = sdp._barrier_terms

    def recording_terms(*args):
        out = real_terms(*args)
        seen.append(out[3])
        return out

    monkeypatch.setattr(sdp, "_barrier_terms", recording_terms)
    rng = np.random.default_rng(2024)
    statuses = []
    for _ in range(30):
        prob = _random_small_problem(rng)
        floor = _grid_minimum(prob)
        tight = FeasProblem(
            nvar=prob.nvar, normalization=prob.normalization,
            nsd_blocks=[AffineMatrixMap(blk.constant - (floor - 1e-4) * np.eye(blk.dim),
                                        blk.basis) for blk in prob.compiled_blocks()])
        for case in (prob, tight):
            seen.clear()
            res = solve_feasibility(case, max_oracle_calls=200)
            statuses.append(res.status)
            grid_min = _grid_minimum(case)
            if res.status == INFEASIBLE:
                seen.append(_stated_bound(res))
            assert max(seen, default=-np.inf) <= grid_min + 1e-12
    assert statuses.count(INFEASIBLE) >= 20 and statuses.count(FEASIBLE) >= 5


def _random_oracle_problem(rng):
    # 3x3 nsd block with a repeated variable index, a 1x1 nsd block, a 3x3
    # pd block and two floors over five unknowns; the 3x3 bases are scaled
    # down so that each block is the worst one at some sample points
    def sym(m, scale=1.0):
        x = scale * rng.standard_normal((m, m))
        return 0.5 * (x + x.T)

    nsd = [AffineMatrixMap(constant=sym(3), name="lmi3",
                           basis=[(i, sym(3, 0.2)) for i in (0, 2, 0, 4)]),
           AffineMatrixMap(constant=sym(1), name="lmi1",
                           basis=[(1, sym(1)), (3, sym(1))])]
    pd = [AffineMatrixMap(constant=sym(3), name="pd3",
                          basis=[(i, sym(3, 0.2)) for i in range(5)])]
    return FeasProblem(nvar=5, nsd_blocks=nsd, pd_blocks=pd,
                       nonneg={1: float(rng.uniform(-1, 1)), 3: float(rng.uniform(-1, 1))})


def _loop_oracle(prob, v):
    # reference: every compiled block evaluated and decomposed on its own
    worst, name, grad = -np.inf, "", None
    for blk in prob.compiled_blocks():
        vals, vecs = np.linalg.eigh(blk.value(v))
        if vals[-1] > worst:
            worst, name, u = float(vals[-1]), blk.name, vecs[:, -1]
            grad = np.zeros(prob.nvar)
            for idx, mat in blk.basis:
                grad[idx] += u @ mat @ u
    return worst, grad, name


def test_worst_block_matches_loop_reference():
    rng = np.random.default_rng(11)
    names = set()
    for _ in range(10):
        prob = _random_oracle_problem(rng)
        again = problem_from_json(problem_to_json(prob))
        for _ in range(20):
            v = 2.0 * rng.standard_normal(prob.nvar)
            worst, grad, name = prob.worst_block(v)
            ref_worst, ref_grad, ref_name = _loop_oracle(prob, v)
            assert abs(worst - ref_worst) <= 1e-12 * max(1.0, abs(ref_worst))
            assert name == ref_name
            names.add(name)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-10)
            for _ in range(5):
                v2 = v + rng.standard_normal(prob.nvar)
                assert _loop_oracle(prob, v2)[0] >= worst + grad @ (v2 - v) - 1e-10
            w2, g2, n2 = again.worst_block(v)
            assert (w2, n2) == (worst, name)
            np.testing.assert_array_equal(g2, grad)
    # every kind of block is the worst one somewhere
    assert names == {"lmi3", "lmi1", "pd3", "floor_v1", "floor_v3"}


# ---------------------------------------------------------------------------
# stacked solves


def _bits(res):
    # everything a result carries, compared bit for bit
    return (res.status, None if res.v is None else res.v.tobytes(),
            repr(res.worst_eig), res.oracle_calls, res.message)


def test_certify_pass_solves_match_alone_in_the_full_and_a_shuffled_stack(
        monkeypatch, tmp_path):
    # record every solve of one certify pass at the benchmark's config,
    # with the result the pass got in its stack, which probes join and
    # leave as the rows' bisections go, and of one deep bisection at
    # L = 100, where probes end INDETERMINATE (the benchmark's pass has
    # none since its L = mu probes are decided on the face)
    seen = []
    real = lmi.solve_stream

    def recording(feed, max_oracle_calls=200):
        live = {}

        def fed(decided):
            seen.extend((*live.pop(key), res) for key, res in decided)
            joining, dropping = feed(decided)
            live.update((key, (lifted, v_init)) for key, lifted, v_init in joining)
            return joining, dropping

        real(fed, max_oracle_calls)

    monkeypatch.setattr(lmi, "solve_stream", recording)
    for args in (["--grid-L", "1,10,100", "--bisect-iters", "3"],
                 ["--grid-L", "100", "--methods", "hhb-nes", "--bisect-iters", "20"]):
        assert cli_main(["certify", *args, "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    problems, v_inits, in_pass = zip(*seen)
    alone = [_bits(ref.stacked([p], 200, [v])[0]) for p, v in zip(problems, v_inits)]
    assert [_bits(r) for r in in_pass] == alone
    assert [_bits(r) for r in ref.stacked(problems, 200, v_inits)] == alone
    order = np.random.default_rng(5).permutation(len(problems))
    shuffled = ref.stacked([problems[i] for i in order], 200, [v_inits[i] for i in order])
    assert [_bits(r) for r in shuffled] == [alone[i] for i in order]
    assert {key[0] for key in alone} == {FEASIBLE, INFEASIBLE, INDETERMINATE}
    assert any(v is not None for v in v_inits)


def _mixed_problem(rng):
    # over five unknowns under a normalization: a 3x3, a 1x1 and a 2x2 nsd
    # block, a 3x3 pd block and a floor, so groups of 1x1, 2x2 and 3x3
    def sym(m, scale):
        x = scale * rng.standard_normal((m, m))
        return 0.5 * (x + x.T)

    blocks = [AffineMatrixMap(constant=sym(m, 1.0), basis=[(i, sym(m, 0.5)) for i in range(5)],
                              name=f"b{j}") for j, m in enumerate((3, 1, 2, 3))]
    return FeasProblem(nvar=5, nsd_blocks=blocks[:3], pd_blocks=blocks[3:],
                       nonneg={1: float(rng.uniform(-1, 1))}, normalization=np.ones(5))


def test_lifted_parts_carry_tensordot_bits():
    # with_blocks makes each block's parts (C, G) by the np.dot calls that
    # np.tensordot(x, mats, 1) makes, so they carry tensordot's bits: for
    # dt and ct rows, mixed problems, a block with no basis matrix and a
    # problem without normalization
    rng = np.random.default_rng(4)
    constant_only = FeasProblem(nvar=2, nsd_blocks=[
        AffineMatrixMap(constant=-np.eye(2), basis=[]), _at_most(1, 3.0)],
        nonneg={0: 0.0}, normalization=np.array([1.0, 1.0]))
    problems = [_mistuned_dt(1.0, "hhb-nes", 0.5), _mistuned_dt(100.0, "polyak", 0.99),
                ref.ct_problem(lmi.build_ct(1.0, 1.0, 2.0, b_coupled=True), 0.5, 1e-6),
                _mixed_problem(rng), _mixed_problem(rng), constant_only, _scalar_problem()]
    for problem in problems:
        lifted = sdp.lift(problem)
        assert len(lifted.parts) == len(lifted.blocks) == len(problem.compiled_blocks())
        for (C, G), (const, idx, mats) in zip(lifted.parts, lifted.blocks):
            want_C = const + np.tensordot(lifted.v_base[idx], mats, 1)
            want_G = np.tensordot(lifted.basis[idx].T, mats, 1)
            assert (C.shape, C.tobytes()) == (want_C.shape, want_C.tobytes())
            assert (G.shape, G.tobytes()) == (want_G.shape, want_G.tobytes())


def _stack_terms(lifts, w, s):
    # the engine's barrier terms of lifted problems stacked at the rows of (w, s)
    groups = sdp._Rows(lifts, list(w), np.arange(len(lifts))).groups
    return sdp._barrier_terms([flat for _, flat in groups], sdp._block_eigh(groups, w), w, s,
                              np.array([lf.radius for lf in lifts]))


def test_barrier_terms_match_dense_inverses_and_each_row_alone():
    # the gradient, Hessian, sum tr Z and bound, taken by contraction with
    # Z = (sI - F)^-1 from the eigenpairs, match dense inverses and direct
    # traces to 1e-10 of each row's largest entry (at most 4.9e-12 seen
    # over 400 such stacks) at gaps s - lambda_max from 1e-3 to 3; and
    # each row gets the bits it gets alone at every place in a shuffled
    # stack
    rng = np.random.default_rng(28)
    for _ in range(20):
        lifts = [sdp.lift(_mixed_problem(rng)) for _ in range(6)]
        w = rng.uniform(-0.9, 0.9, (6, 4)) * lifts[0].radius
        top = [max(np.linalg.eigvalsh(const + np.tensordot(wr, coef, 1))[-1]
                   for const, coef in lf.parts) for lf, wr in zip(lifts, w)]
        s = np.array(top) + 10.0 ** rng.uniform(-3.0, 0.5, 6)
        got = _stack_terms(lifts, w, s)
        for out, want in zip(got, ref.barrier_terms(lifts, w, s)):
            scale = np.abs(want).reshape(6, -1).max(axis=1)
            assert (np.abs(out - want).reshape(6, -1).max(axis=1) <= 1e-10 * scale).all()
        order = rng.permutation(6)
        shuffled = _stack_terms([lifts[i] for i in order], w[order], s[order])
        for at, i in enumerate(order):
            alone = _stack_terms([lifts[i]], w[i:i + 1], s[i:i + 1])
            assert [out[0].tobytes() for out in alone] == [out[at].tobytes() for out in shuffled]
            assert [out[0].tobytes() for out in alone] == [out[i].tobytes() for out in got]


def _mistuned_dt(L, method, rho):
    req = certify_request(method, L, 1.0, "mistuned")
    return dt_problem(build_theorem2(dt_system(req.h, req.beta_hi, req.beta_lo, req.disc),
                                     1.0, L, rho))


def test_cholesky_failure_and_exhausted_budget_stay_in_their_rows():
    # at a budget of 77 calls: L = 1 nesterov at rho 0.05 ends when its
    # Newton system stops being positive definite, and L = 1 hhb-pol at
    # rho 0.525 runs out of budget, while the others decide before that
    problems = [_mistuned_dt(2.0, "nesterov", 0.9),
                _mistuned_dt(1.0, "nesterov", 0.05),
                _mistuned_dt(2.0, "polyak", 0.5),
                _mistuned_dt(1.0, "hhb-pol", 0.525),
                _mistuned_dt(1.0, "hhb-nes", 0.5),
                _mistuned_dt(2.0, "hihb-nes", 0.7875)]
    stacked = ref.stacked(problems, 77)
    assert [_bits(r) for r in stacked] == [_bits(solve_feasibility(p, 77))
                                           for p in problems]
    assert [r.status for r in stacked] == [FEASIBLE, INDETERMINATE, INFEASIBLE,
                                           INDETERMINATE, FEASIBLE, INFEASIBLE]
    assert stacked[1].message.startswith("Newton system not positive definite")
    assert stacked[1].oracle_calls < 77
    assert stacked[3].message.startswith("oracle budget exhausted")
    assert stacked[3].oracle_calls == 77
    for i in (1, 3):
        # an undecided result reports its best point and that point's worst
        # eigenvalue
        top = max(np.linalg.eigvalsh(blk.value(stacked[i].v))[-1]
                  for blk in problems[i].compiled_blocks())
        assert abs(top - stacked[i].worst_eig) <= 1e-9


def test_stream_problems_join_the_pass_after_their_predecessor_is_decided(monkeypatch):
    # two chains at a budget of 77: each problem joins the stream when the
    # one before it in its chain is decided, also after an exhausted budget
    # while the other chain still runs; every result is the one it gets
    # alone, and the stream takes as many passes as its longer chain
    problems = [_mistuned_dt(2.0, "nesterov", 0.9),
                _mistuned_dt(1.0, "nesterov", 0.05),
                _mistuned_dt(2.0, "polyak", 0.5),
                _mistuned_dt(1.0, "hhb-pol", 0.525),
                _mistuned_dt(1.0, "hhb-nes", 0.5),
                _mistuned_dt(2.0, "hihb-nes", 0.7875)]
    alone = [solve_feasibility(p, 77) for p in problems]
    chains = ([3, 1], [0, 2, 4, 5])
    after = {a: b for chain in chains for a, b in zip(chain, chain[1:])}
    got, passes = {}, []
    real_eigh = sdp._block_eigh

    def counting_eigh(groups, w):
        passes.append(len(w))
        return real_eigh(groups, w)

    def feed(decided):
        got.update(decided)
        joining = [chain[0] for chain in chains] if not passes else \
            [after[i] for i, _ in decided if i in after]
        return [(i, sdp.lift(problems[i]), None) for i in joining], []

    monkeypatch.setattr(sdp, "_block_eigh", counting_eigh)
    sdp.solve_stream(feed, 77)
    assert [_bits(got[i]) for i in range(6)] == [_bits(r) for r in alone]
    # a FEASIBLE result counts its re-check, which is no pass
    evals = [r.oracle_calls - (r.status == FEASIBLE) for r in alone]
    assert len(passes) == max(sum(evals[i] for i in chain) for chain in chains)
    assert {r.message.split(";")[0] for r in alone if r.status == INDETERMINATE} == {
        "Newton system not positive definite", "oracle budget exhausted"}


def test_stream_drops_named_problems_before_the_next_pass(monkeypatch):
    # three problems join at once, and after the fifth pass the feed drops
    # two of them: they get no result, every later pass evaluates one row,
    # and the kept problem gets the result it gets alone
    problems = [_mistuned_dt(1.0, "nesterov", 0.05), _mistuned_dt(2.0, "polyak", 0.5),
                _mistuned_dt(1.0, "hhb-pol", 0.525)]
    alone = solve_feasibility(problems[1], 200)
    got, passes = {}, []
    real_eigh = sdp._block_eigh

    def counting_eigh(groups, w):
        passes.append(len(w))
        return real_eigh(groups, w)

    def feed(decided):
        got.update(decided)
        if not passes:
            return [(i, sdp.lift(p), None) for i, p in enumerate(problems)], []
        return [], [0, 2] if len(passes) == 5 else []

    monkeypatch.setattr(sdp, "_block_eigh", counting_eigh)
    sdp.solve_stream(feed, 200)
    assert list(got) == [1]
    assert _bits(got[1]) == _bits(alone)
    assert passes == [3] * 5 + [1] * (alone.oracle_calls - (alone.status == FEASIBLE) - 5)


def test_stream_problems_that_join_after_a_drop_get_their_lone_bits(monkeypatch):
    # three problems join at once; before the fifth pass the feed drops
    # the first and, in the same call, adds a fourth, and a fifth joins
    # when the fourth is decided. The dropped row gets no result; the kept
    # rows and the rows that joined after the drop each get the bits they
    # get alone, and the passes hold the rows live at each
    problems = [_mistuned_dt(1.0, "nesterov", 0.05), _mistuned_dt(2.0, "polyak", 0.5),
                _mistuned_dt(1.0, "hhb-pol", 0.525), _mistuned_dt(2.0, "nesterov", 0.9),
                _mistuned_dt(1.0, "hhb-nes", 0.5)]
    alone = [solve_feasibility(p, 77) for p in problems]
    got, passes = {}, []
    real_eigh = sdp._block_eigh

    def counting_eigh(groups, w):
        passes.append(len(w))
        return real_eigh(groups, w)

    def feed(decided):
        got.update(decided)
        if not passes:
            return [(i, sdp.lift(problems[i]), None) for i in range(3)], []
        joining = [3] if len(passes) == 4 else [4] if 3 in dict(decided) else []
        return ([(i, sdp.lift(problems[i]), None) for i in joining],
                [0] if len(passes) == 4 else [])

    monkeypatch.setattr(sdp, "_block_eigh", counting_eigh)
    sdp.solve_stream(feed, 77)
    assert sorted(got) == [1, 2, 3, 4]
    assert [_bits(got[i]) for i in range(1, 5)] == [_bits(r) for r in alone[1:]]
    evals = [r.oracle_calls - (r.status == FEASIBLE) for r in alone]
    assert evals[0] > 4  # the first problem is still live when it is dropped
    # (first pass, passes) of each problem
    spans = [(0, 4), (0, evals[1]), (0, evals[2]), (4, evals[3]), (4 + evals[3], evals[4])]
    end = max(a + n for a, n in spans)
    assert passes == [sum(a <= k < a + n for a, n in spans) for k in range(end)]


@pytest.mark.parametrize("late", [False, True])
def test_stream_refuses_a_problem_of_another_shape_by_name(late):
    # a problem whose block sizes or number of coordinates differ from the
    # stack's is refused with a ValueError that names it and both shapes,
    # whether it joins with the first problem or in a later pass
    dt = _mistuned_dt(2.0, "polyak", 0.5)
    one_floor_less = FeasProblem(nvar=8, nsd_blocks=dt.nsd_blocks, pd_blocks=dt.pd_blocks,
                                 nonneg={i: 1e-9 for i in range(3, 7)},
                                 normalization=dt.normalization)
    one_more_variable = FeasProblem(nvar=9, nsd_blocks=dt.nsd_blocks, pd_blocks=dt.pd_blocks,
                                    nonneg=dt.nonneg,
                                    normalization=np.append(dt.normalization, 1.0))
    stack = r"the stack 7 and \[1, 1, 1, 1, 1, 2, 3, 3\]"
    for odd, shape in ((one_floor_less, r"7 coordinates and blocks of sizes "
                                        r"\[1, 1, 1, 1, 2, 3, 3\]"),
                       (one_more_variable, r"8 coordinates and blocks of sizes "
                                           r"\[1, 1, 1, 1, 1, 2, 3, 3\]")):
        first, odd = (0, sdp.lift(dt), None), ("odd", sdp.lift(odd), None)
        joins = iter([[first], [odd]] if late else [[first, odd]])
        with pytest.raises(ValueError, match=f"solve_stream: problem 'odd' has {shape}, {stack}"):
            sdp.solve_stream(lambda decided: (next(joins, []), []), 200)


def test_overflowing_barrier_terms_end_their_row_alone():
    # the polyak-family rows at L = 1e20 and 1e300 overflow their barrier
    # terms at the first point (1/(s - lam) is 1/0 once s = worst + 1
    # rounds to worst): each ends INDETERMINATE, with no RuntimeWarning,
    # and the rows beside it keep their bits
    problems = [_mistuned_dt(10.0, "nesterov", 0.9), _mistuned_dt(1e20, "polyak", 1.0),
                _mistuned_dt(1.0, "hhb-nes", 0.5), _mistuned_dt(1e300, "hhb-pol", 0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = ref.stacked(problems, 200)
        alone = [solve_feasibility(p, 200) for p in problems]
    assert [_bits(r) for r in stacked] == [_bits(r) for r in alone]
    assert [r.status for r in stacked] == [INFEASIBLE, INDETERMINATE, FEASIBLE, INDETERMINATE]
    for res in stacked[1::2]:
        assert res.message.startswith("barrier terms not finite")
        assert res.oracle_calls == 1


@st.composite
def _dt_problems(draw):
    mu = draw(st.floats(0.1, 2.0))
    L = mu * draw(st.floats(1.0, 200.0))
    beta_hi = draw(st.floats(0.0, 1.0))
    return dt_problem(build_theorem2(
        dt_system(draw(st.floats(0.01, 2.0)) / L, beta_hi,
                  draw(st.floats(0.0, beta_hi)), draw(st.sampled_from((POL, NES)))),
        mu, L, draw(st.floats(0.05, 1.0))))


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(st.lists(_dt_problems(), min_size=2, max_size=5), st.integers(1, 60))
def test_stacked_dt_solves_equal_single_solves(problems, budget):
    alone = [_bits(solve_feasibility(p, budget)) for p in problems]
    assert [_bits(r) for r in ref.stacked(problems, budget)] == alone
    # and streamed as two chains, problem i + 2 joining when problem i is
    # decided, so the stack may empty before a problem joins
    streamed = {}
    first = iter([[0, 1]])

    def feed(decided):
        streamed.update(decided)
        joining = next(first, []) + [i + 2 for i, _ in decided if i + 2 < len(problems)]
        return [(i, sdp.lift(problems[i]), None) for i in joining], []

    sdp.solve_stream(feed, budget)
    assert [_bits(streamed[i]) for i in range(len(problems))] == alone
