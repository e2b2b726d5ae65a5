"""An oracle for the paper's two claims that never calls ``eig_decompose``.

The pseudo-metrics of H are the Hermitian eta with ``H†eta = eta·H``: the
null space N of the real-linear map ``eta ↦ H†eta − eta·H`` on the
n²-dimensional real space of Hermitian matrices, the construction of
``test_symmetry.brute_commutant_dimension`` with ``[X, h]`` replaced by this
map. One SVD of that ``2n² × n²`` real matrix gives N for ``n ≤ 8``.

The cutoff is relative to ‖H‖_F, which bounds the map's largest singular
value by 2‖H‖_F: a singular value at or below ``NULL_CUTOFF·‖H‖_F`` spans
N. Over the strategies below (several thousand draws) the null singular
values stayed at or below 5.2e-15·‖H‖_F and the retained ones at or above
5.4e-6·‖H‖_F, so the cutoff sits five decades from each. Every input is
clearly split or clearly degenerate: a gap the cutoff could not resolve
belongs to the clustering rule, not to this oracle.

* Claim 2, every metric is ``rho·S·rho`` (arXiv:0707.3075): ``dim N`` is
  the report's ``commutant.real_dimension``, and a positive eta₂ drawn
  from N, factored by Cholesky, passes ``intertwiner_from_metrics`` with
  ``S`` positive. Conversely the sampler reaches all of N: the members'
  eta' = rho·S·rho for 2·dim N consecutive seeds, as real vectors scaled
  to unit norm, have rank dim N at ``NULL_CUTOFF`` relative to their
  largest singular value. Over 3000 draws of the strategies below the
  retained singular values stayed at or above 4.0e-3 of the largest and
  the others at or below 4.7e-15, so the cutoff sits four decades or more
  from each.
* Claim 1, a refused input has no positive metric: for an eigenvector v
  with a complex eigenvalue, or at the head of a Jordan chain,
  ``v†·E·v`` vanishes for every E in N, so no element of N is positive.

A stored report is re-checked from its ``to_json()`` text and its input
alone: H is rebuilt from the document's ``input``, and the stored matrices
must be Hermitian bit for bit, eta positive definite, rho² = eta, h
isospectral with H, and ``ph`` and ``H=H`` what the stored matrices give.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasiherm import (
    ComplexSpectrum,
    ModelSpec,
    NonDiagonalizable,
    VerificationReport,
    build_model,
    commutant_basis,
    full_pipeline,
    intertwiner_from_metrics,
    metric_from_T,
    metric_from_symmetry,
    random_diagonalizable,
    run_analyze,
    run_family,
    sample_positive_symmetry,
    swanson,
    two_level,
)
from quasiherm.linalg import (
    as_matrix,
    frobenius_norm,
    haar_unitary,
    hermitian_part,
    relative_residual,
)
from quasiherm.matrixio import dumps
from quasiherm.metric import verify_pseudo_hermitian
from test_symmetry import hermitian_basis

NULL_CUTOFF = 1e-10
_SETTINGS = settings(max_examples=100, deadline=None)


def pseudo_metric_space(H):
    """A real basis of N = {eta Hermitian : H†eta = eta·H}, one matrix per element."""
    basis = hermitian_basis(H.shape[0])
    columns = []
    for E in basis:
        C = (H.conj().T @ E - E @ H).ravel()
        columns.append(np.concatenate([C.real, C.imag]))
    _, s, Vt = np.linalg.svd(np.column_stack(columns))
    null = Vt[s <= NULL_CUTOFF * np.linalg.norm(H)]
    return [np.tensordot(row, basis, axes=1) for row in null]


@st.composite
def _random_diagonalizable(draw):
    n = draw(st.integers(1, 8))
    H, truth = random_diagonalizable(
        n, draw(st.integers(0, 2**32 - 1)), draw(st.floats(1.0, 100.0))
    )
    D = truth.eigenvalues.real
    # clearly split: no gap below 1e-3 of the spread (about 1% of draws at n = 8)
    assume(n == 1 or np.diff(D).min() >= 1e-3 * max(D[-1] - D[0], 1.0))
    return H


@st.composite
def _two_level(draw):
    # b and c of one sign with b·c ≥ 0.25, so the gap 2√(bc) is at least 1
    sign = draw(st.sampled_from([-1.0, 1.0]))
    b, c = (sign * draw(st.floats(0.5, 3.0)) for _ in range(2))
    return two_level(b, c, draw(st.floats(-3.0, 3.0)))


@st.composite
def _swanson(draw):
    # alpha·beta ≥ 0 and |alpha|, |beta| ≤ omega/2: a real spectrum spaced
    # about sqrt(omega² − 4·alpha·beta), away from the exceptional points
    omega = draw(st.floats(0.5, 5.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    alpha, beta = (sign * draw(st.floats(0.0, 0.5)) * omega for _ in range(2))
    return swanson(draw(st.integers(4, 8)), omega, alpha, beta)


@st.composite
def _clustered(draw):
    # levels half a unit apart, each repeated up to 4 times, n ≤ 8, cond(T0) ≤ 100
    levels = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=4, unique=True))
    multiplicities = draw(st.lists(st.integers(1, 4), min_size=len(levels), max_size=len(levels)))
    assume(sum(multiplicities) <= 8)
    D = np.repeat(np.sort(levels) / 2.0, multiplicities)
    n = D.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.exp(rng.uniform(0.0, np.log(draw(st.floats(1.0, 100.0))), size=n))
    T0 = haar_unitary(n, rng) @ (s[:, None] * haar_unitary(n, rng))
    return np.linalg.solve(T0, D[:, None] * T0)


_INPUTS = st.one_of(_random_diagonalizable(), _two_level(), _swanson(), _clustered())


@_SETTINGS
@given(H=_INPUTS)
def test_the_metric_space_has_the_commutant_dimension(H):
    report = run_family(H, samples=0)
    assert report.verdict == "pass", report.failure or report.error
    assert len(pseudo_metric_space(H)) == report.commutant["real_dimension"]


@_SETTINGS
@given(H=_INPUTS, seed=st.integers(0, 2**32 - 1))
def test_a_positive_metric_from_the_space_is_rho_S_rho(H, seed):
    pair = full_pipeline(H)
    eta = pair.metric.eta
    # step from the pipeline's eta along a random direction of N, staying
    # at least a tenth of its smallest eigenvalue inside the positive cone
    rng = np.random.default_rng(seed)
    space = pseudo_metric_space(H)
    E = np.tensordot(rng.standard_normal(len(space)), space, axes=1)
    step = 0.9 * np.linalg.eigvalsh(eta)[0] / np.linalg.norm(E, 2)
    eta_2 = hermitian_part(eta + step * E)
    L = np.linalg.cholesky(eta_2)
    metric_2 = metric_from_T(L.conj().T)  # eta_2 = L·L† = (L†)†·L†
    npt.assert_allclose(metric_2.eta, eta_2, atol=1e-12 * np.linalg.norm(eta_2))
    h_2 = hermitian_part(metric_2.rho @ H @ metric_2.rho_inv)
    _, S = intertwiner_from_metrics(pair.metric, metric_2, pair.h, h_2)
    assert np.linalg.eigvalsh(S)[0] > 0


_J3_PLUS_2 = np.diag([1.0, 1.0, 1.0, 2.0]) + np.diag([1.0, 1.0, 0.0], k=1)


@pytest.mark.parametrize(
    "H, v, refusal",
    [
        (np.array([[0.0, 1.0], [-4.0, 0.0]]), np.array([1.0, 2.0j]) / np.sqrt(5), ComplexSpectrum),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([1.0, 0.0]), NonDiagonalizable),
        (_J3_PLUS_2, np.array([1.0, 0.0, 0.0, 0.0]), NonDiagonalizable),
    ],
    ids=["complex-pair", "J2(1)", "J3(1)+[2]"],
)
def test_a_refused_input_has_no_positive_metric(H, v, refusal):
    # H·v = lambda·v with lambda complex, or v heads a Jordan chain: either
    # way v†·eta·v = 0 for every eta in N, a dual certificate that N holds
    # no positive matrix
    H = H.astype(complex)
    with pytest.raises(refusal):
        full_pipeline(H)
    space = pseudo_metric_space(H)
    assert space
    eps = np.finfo(np.float64).eps
    for E in space:
        assert abs(v.conj() @ E @ v) <= 4 * eps * np.linalg.norm(E)


@_SETTINGS
@given(H=_INPUTS)
def test_the_sampled_metrics_span_the_metric_space(H):
    # twice as many members as dimensions, so a member outside N would
    # raise the rank as surely as a sampler confined to part of N lowers it
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    etas = [
        metric_from_symmetry(pair.metric, sample_positive_symmetry(cb, seed), H).eta_prime.eta
        for seed in range(2 * cb.real_dimension)
    ]
    rows = np.array([np.concatenate([E.real.ravel(), E.imag.ravel()]) for E in etas])
    s = np.linalg.svd(rows / np.linalg.norm(rows, axis=1)[:, None], compute_uv=False)
    assert np.count_nonzero(s > NULL_CUTOFF * s[0]) == cb.real_dimension


def recheck_stored_report(text, H=None):
    """The checks that the report stored as ``text`` fails: H is rebuilt from
    its ``input`` when that names a model, else it is the array given."""
    document = json.loads(text)
    report = VerificationReport.from_payload(document)
    source = document["input"]
    if "kind" in source:
        parameters = {
            name: complex(*value) if isinstance(value, list) else value
            for name, value in source["parameters"].items()
        }
        H = build_model(ModelSpec(source["kind"], parameters, dim=source["dim"]))
    H = as_matrix(H)
    eta, rho, h = (report.matrices[name] for name in ("eta", "rho", "h"))
    bound = report.tolerances["residual_tol"]
    refused = [
        f"{name} not Hermitian"
        for name, M in report.matrices.items()
        if not np.array_equal(M, M.conj().T)
    ]
    try:
        np.linalg.cholesky(eta)
    except np.linalg.LinAlgError:
        refused.append("eta not positive definite")
    recomputed = {
        "ph": verify_pseudo_hermitian(H, eta),
        "H=H": relative_residual(
            frobenius_norm(rho @ H - h @ rho), frobenius_norm(rho) * frobenius_norm(H)
        ),
    }
    refused += [
        f"{name} unequal" for name, value in recomputed.items() if value != report.residuals[name]
    ]
    if frobenius_norm(rho @ rho - eta) > bound * frobenius_norm(eta):
        refused.append("rho^2 != eta")
    stored = np.sort(np.array(document["eigenvalues"])[:, 0])
    if not np.allclose(np.linalg.eigvalsh(h), stored, rtol=0, atol=bound * frobenius_norm(h)):
        refused.append("h not isospectral with H")
    return refused


@_SETTINGS
@given(H=_INPUTS)
def test_a_stored_report_rechecks_from_its_text(H):
    report = run_analyze(H, samples=0)
    assert report.verdict == "pass", report.failure or report.error
    assert recheck_stored_report(report.to_json(), H) == []


_RANDOM_64 = ModelSpec("random_diagonalizable", {"seed": 3, "cond_bound": 100.0}, dim=64)


def _tamper_eta(document):
    entries = document["matrices"]["eta"]["entries"]
    entries[:] = [[-re, -im] for re, im in entries]


def _tamper_h(document):
    document["matrices"]["h"]["entries"][1][0] *= 1 + 1e-3  # h[0, 1], not its mirror


def _tamper_ph(document):
    document["residuals"]["ph"] = float(np.nextafter(document["residuals"]["ph"], np.inf))


def test_a_stored_model_report_rechecks_from_its_text():
    assert recheck_stored_report(run_analyze(_RANDOM_64, samples=0).to_json()) == []


@pytest.mark.parametrize(
    "tamper, refusals",
    [(_tamper_eta, {"eta not positive definite"}),
     (_tamper_h, {"h not Hermitian", "H=H unequal"}),
     (_tamper_ph, {"ph unequal"})],
    ids=["eta-negated", "h-entry-scaled", "ph-one-ulp"],
)
def test_a_tampered_report_restores_but_fails_its_recheck(tamper, refusals):
    # from_payload reads each tampered document back; only the re-check refuses it
    document = json.loads(run_analyze(_RANDOM_64, samples=0).to_json())
    tamper(document)
    assert refusals <= set(recheck_stored_report(dumps(document)))
