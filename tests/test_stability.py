import numpy as np
import pytest

from lorentzdyn import (
    MatrixSequence,
    QuadraticForm,
    StabilityKind,
    Subspace,
    as_all_oracles,
    as_subspace_ellipsoid,
    as_subspace_graph,
    as_subspace_kak,
    boost,
    brute_force_as,
    evaluate,
    is_divergent,
    kak,
    lorentz_as_check,
    norm_growth,
    spas_subspace,
    spatial_rotation,
    split_boost,
    split_unipotent,
)
from lorentzdyn.errors import (
    ConvergenceError,
    EquicontinuousError,
    InsufficientDataError,
    NotIsometryError,
    PatternMismatchError,
    SingularMatrixError,
)
from lorentzdyn import stability
from lorentzdyn.minkowski import grassmann_distance, orthogonal_complement
from lorentzdyn.stability import CLUSTER_LINK, brute_force_score

from .conftest import (
    boost_sequence,
    chaos_sequence,
    fundamental_sequence,
    fundamental_term,
    random_divergent_sequence,
)


def _per_term_kak(a):
    """Reference: the one-matrix Cartan factorization that kak_stack batches."""
    u, s, vt = np.linalg.svd(a)
    order = np.argsort(s)
    L, D, R = u[:, order], s[order], vt[order, :]
    if np.linalg.det(L) < 0:
        L[:, -1] = -L[:, -1]
        R[-1, :] = -R[-1, :]
    return L, D, R


E12 = Subspace.spanned_by([1, 0, 0], [0, 1, 0])
E1 = Subspace.spanned_by([1, 0, 0])


class TestMatrixSequence:
    def test_singular_term_rejected(self):
        with pytest.raises(SingularMatrixError):
            MatrixSequence.from_terms([np.eye(2), np.zeros((2, 2))])

    def test_inverse_is_termwise(self):
        seq = fundamental_sequence(10)
        inv = seq.inverse()
        assert np.allclose(inv.terms[3] @ seq.terms[3], np.eye(3), atol=1e-10)

    def test_powers_labels(self):
        seq = MatrixSequence.from_powers(np.diag([2.0, 0.5]), 5)
        assert np.allclose(seq.terms[4], np.diag([32.0, 1 / 32.0]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_cached_spectra_equal_per_term_kak(self, d):
        # the shared factors and norms must be bit-for-bit what the per-term
        # kak and norm_growth return, including on tied singular values,
        # det < 0 terms and identities
        rng = np.random.default_rng(40 + d)
        flip = np.diag(np.concatenate([[-1.0], np.ones(d - 1)]))
        tied = np.diag(np.concatenate([[3.0], np.ones(d - 2), [1 / 3.0]]))
        terms = [np.eye(d), flip, tied, flip @ tied, 2.0 * np.eye(d)]
        for _ in range(20):
            a = rng.normal(size=(d, d)) + np.diag(rng.uniform(1, 3, d))
            terms += [a, flip @ a]
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        terms += [q, q @ tied @ q.T, flip @ q @ tied]
        seq = MatrixSequence.from_terms(terms)
        for i, t in enumerate(terms):
            f = kak(t)
            for got in ((seq.cartan.L[i], seq.cartan.D[i], seq.cartan.R[i]),
                        (f.L, f.D, f.R)):
                for a, b in zip(got, _per_term_kak(t)):
                    assert np.array_equal(a, b)
            assert seq.norms[i] == norm_growth(t)


class TestIsDivergent:
    def test_fundamental_powers(self):
        assert is_divergent(fundamental_sequence(40))

    def test_rotations_are_not(self):
        rot = spatial_rotation(3, np.array([[np.cos(1.0), -np.sin(1.0)],
                                            [np.sin(1.0), np.cos(1.0)]]))
        seq = MatrixSequence.from_powers(rot, 20)
        assert not is_divergent(seq)

    def test_alternating_boost_identity(self):
        terms = []
        for n in range(1, 13):
            terms.append(boost(3, float(n)) if n % 2 else np.eye(3))
        assert not is_divergent(MatrixSequence.from_terms(terms))


class TestFundamentalExample:
    def test_all_oracles_find_the_plane(self):
        results = as_all_oracles(fundamental_sequence(40))
        for name, res in results.items():
            assert res.converged, name
            assert res.kind is StabilityKind.STABLE
            assert res.subspace.distance(E12) < 1e-5, name
            assert res.modulus > 0
            assert all(v < 1e-5 for v in res.oracle_agreement.values())

    def test_strongly_stable_line(self):
        res = spas_subspace(fundamental_sequence(40))
        assert res.kind is StabilityKind.STRONGLY_STABLE
        assert res.subspace.distance(E1) < 1e-5

    def test_2d_jordan_reduces_to_first_axis(self):
        seq = MatrixSequence.from_terms(
            [np.array([[1.0, n], [0.0, 1.0]]) for n in range(1, 41)]
        )
        res = as_subspace_kak(seq)
        assert res.subspace.distance(Subspace.spanned_by([1, 0])) < 1e-6

    @pytest.mark.parametrize("d,expected_dim", [(2, 1), (3, 2), (4, 2)])
    def test_jordan_block_dichotomy(self, d, expected_dim):
        # exp(nB) for a single nilpotent Jordan block: the stable space is
        # two-dimensional for every d >= 3, one-dimensional only for d = 2
        b = np.diag(np.ones(d - 1), 1)
        terms = []
        for n in range(1, 41):
            m = np.eye(d)
            acc = np.eye(d)
            for k in range(1, d):
                acc = acc @ (n * b) / k
                m = m + acc
            terms.append(m)
        res = as_subspace_kak(MatrixSequence.from_terms(terms))
        assert res.subspace.dim == expected_dim
        expected = Subspace(basis=np.eye(d)[:, :expected_dim])
        assert res.subspace.distance(expected) < 1e-4


class TestDiagonalCases:
    def test_mixed_exponentials(self):
        seq = MatrixSequence.from_terms(
            [np.diag([np.exp(-n), 1.0, np.exp(n)]) for n in range(1, 15)]
        )
        res = as_subspace_kak(seq)
        assert res.subspace == E12

    def test_ellipsoid_collapse_on_expanding_axis(self):
        seq = MatrixSequence.from_terms(
            [np.diag([2.0 ** n, 2.0 ** -n]) for n in range(1, 16)]
        )
        res = as_subspace_ellipsoid(seq)
        assert res.subspace == Subspace.spanned_by([0, 1])

    def test_semisimple_equals_plain_stability(self):
        # diagonalizable with distinct moduli: stable space is the span of
        # the eigenvectors with |eigenvalue| <= 1
        rng = np.random.default_rng(9)
        s = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        a = s @ np.diag([2.2, 0.8, 0.4]) @ np.linalg.inv(s)
        seq = MatrixSequence.from_powers(a, 15)
        res = as_subspace_kak(seq)
        expected = Subspace.from_spanning(s[:, 1:])
        assert res.subspace.distance(expected) < 1e-6


class TestGraphOracle:
    def test_identity_gives_everything(self, monkeypatch):
        monkeypatch.setattr(stability, "_gate", lambda seq: None)
        seq = MatrixSequence.from_terms([np.eye(3)] * 10)
        res = as_subspace_graph(seq)
        assert res.subspace.dim == 3

    def test_gate_rejects_identity(self):
        seq = MatrixSequence.from_terms([np.eye(3)] * 10)
        with pytest.raises(EquicontinuousError):
            as_subspace_graph(seq)

    def test_agrees_on_random_lorentz(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            seq, _, _ = random_divergent_sequence(3, rng)
            a = as_subspace_kak(seq)
            g = as_subspace_graph(seq)
            assert g.subspace.distance(a.subspace) < 1e-5


class TestOscillation:
    def test_two_limit_families_intersect(self):
        # alternate boosts along two axes: the candidates accumulate on two
        # distinct lightlike planes whose intersection is the stable set
        terms = []
        for n in range(1, 17):
            axis = 1 if n % 2 else 2
            terms.append(boost(3, 0.4 * n, axis=axis))
        res = as_subspace_kak(MatrixSequence.from_terms(terms))
        assert not res.converged
        assert res.subspace.dim == 1
        assert res.subspace.distance(Subspace.spanned_by([1, -1, -1])) < 1e-4


def _ref_min_quadratic_on_sphere(beta, gamma, branches):
    """Reference: the scalar secular-equation bisection, one problem at a
    time; `branches` records which exit each problem took."""
    b0 = float(beta[0])
    gnorm = float(np.linalg.norm(gamma))
    if gnorm == 0.0:
        branches.add("gamma=0")
        return b0

    def y_norm2(mu):
        return float(np.sum((gamma / (beta + mu)) ** 2))

    lo, hi = -b0, -b0 + gnorm
    eps = 1e-14 * max(1.0, abs(b0))
    if y_norm2(lo + eps) < 1.0:
        branches.add("hard")
        denom = beta - b0
        y = np.where(denom > eps, -gamma / np.where(denom > eps, denom, 1.0), 0.0)
        pad = np.sqrt(max(0.0, 1.0 - float(y @ y)))
        y[int(np.argmin(beta))] += pad
        return float(y @ (beta * y) + 2.0 * gamma @ y)
    branches.add("bisection")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if y_norm2(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    mu = 0.5 * (lo + hi)
    y = -gamma / (beta + mu)
    ny = np.linalg.norm(y)
    if ny > 0:
        y = y / ny
    return float(y @ (beta * y) + 2.0 * gamma @ y)


def _ref_min_image_on_cap(eigvals, eigvecs, gram, v, r, branches):
    """Reference: one (direction, radius, term) cap minimum."""
    c = 1.0 - 0.5 * r * r
    best = np.inf
    inside = np.abs(eigvecs.T @ v) >= c
    if np.any(inside):
        best = float(np.min(eigvals[inside]))
    if c >= 1.0:
        branches.add("c>=1")
        base = float(v @ gram @ v)
        return float(np.sqrt(max(0.0, min(best, base))))
    d = len(v)
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(d)]))
    perp = q[:, 1:d]
    s = np.sqrt(max(0.0, 1.0 - c * c))
    b_mat = perp.T @ gram @ perp
    g_vec = perp.T @ (gram @ v)
    beta, w_mat = np.linalg.eigh(s * s * b_mat)
    gamma = w_mat.T @ (c * s * g_vec)
    boundary = (_ref_min_quadratic_on_sphere(beta, gamma, branches)
                + c * c * float(v @ gram @ v))
    return float(np.sqrt(max(0.0, min(best, boundary))))


def _ref_cap_score(seq, v, r, branches):
    """Reference: the per-term loop over the tail, maximized."""
    worst = 0.0
    for t in seq.terms[len(seq) // 2:]:
        gram = t.T @ t
        vals, vecs = np.linalg.eigh(gram)
        worst = max(worst, _ref_min_image_on_cap(vals, vecs, gram, v, r, branches))
    return worst


def _ref_brute_force_scores(seq, directions, radii, budget, seed, branches):
    """Reference: the per-pair loop of `brute_force_as`."""
    dirs = stability.sphere_points(seq.dim, directions, seed)
    radii = sorted(radii, reverse=True)
    total = directions * len(radii)
    done = min(total, budget // (len(seq) - len(seq) // 2))
    scores = np.full(total, np.nan)
    for j in range(done):
        k, ri = divmod(j, len(radii))
        scores[j] = _ref_cap_score(seq, dirs[k], radii[ri], branches)
    return scores.reshape(directions, len(radii)), done == total


def _cap_scenarios(d, rng):
    """Sequences for the cap solver: random terms, det < 0 terms, terms
    whose Grams put the boundary problem of v = e1 in the hard case
    (gamma off the bottom eigenspace), and diagonal terms (e1 is an
    eigenvector, so gamma = 0)."""
    flip = np.diag(np.concatenate([[-1.0], np.ones(d - 1)]))
    random_terms = []
    for n in range(1, 12):
        a = rng.normal(size=(d, d)) + np.diag(rng.uniform(1, 3, d))
        random_terms.append(a @ np.diag(np.geomspace(1.0, 1.3 ** n, d)))
    hard_terms = []
    for n in range(1, 10):
        # A^T A = [[1, b], [b, p]] + diag(q_3..q_d), q below p
        a = np.diag(np.sqrt(np.concatenate([[1.0, 3.0 + n], 1.0 + 0.1 * np.arange(d - 2)])))
        a[0, 1] = 1e-3
        hard_terms.append(a)
    diagonal = [np.diag(np.geomspace(1.0 / n, 2.0 * n, d)) for n in range(1, 10)]
    return {
        "random": MatrixSequence.from_terms(random_terms),
        "det<0": MatrixSequence.from_terms([flip @ t for t in random_terms]),
        "hard": MatrixSequence.from_terms(hard_terms),
        "diagonal": MatrixSequence.from_terms(diagonal),
    }


class TestBruteForce:
    def test_fundamental_scores_split_three_ways(self):
        bf = brute_force_as(fundamental_sequence(40), directions=96,
                            radii=(0.3, 0.1))
        assert bf.complete
        s1 = bf.score_of([1, 0, 0])
        s2 = bf.score_of([0, 1, 0])
        s3 = bf.score_of([0, 0, 1])
        assert s1 < 0.2          # strongly stable: witnesses drive images down
        assert 1.0 < s2 < 10.0   # stable: the witness image (0, 3, -2/n)
        assert s3 > 300.0        # unstable: no nearby bounded witness

    def test_paper_witnesses_direct_images(self):
        # v_n = (0, 1, -2/n) maps to (0, 3, -2/n); the strongly stable
        # witness (1, 1/n^2, -2/n^2) maps to (1/n, 1/n^2 + 2/n, -2/n^2)
        for n in (5, 17, 40):
            an = fundamental_term(n)
            img = an @ np.array([0.0, 1.0, -2.0 / n])
            assert img == pytest.approx([0.0, 3.0, -2.0 / n], abs=1e-12)
            img2 = an @ np.array([1.0, 1.0 / n ** 2, -2.0 / n ** 2])
            assert img2 == pytest.approx(
                [1.0 / n, 1.0 / n ** 2 + 2.0 / n, -2.0 / n ** 2], abs=1e-12)
        assert np.linalg.norm(img) < 4.0

    def test_direct_scores_fall_with_strong_stability(self):
        seq = boost_sequence(3, 0.4, 20)
        spas_ray = brute_force_score(seq, [1, -1, 0], radii=(0.3, 0.01))
        unstable_ray = brute_force_score(seq, [1, 1, 0], radii=(0.3, 0.01))
        assert np.all(spas_ray < 0.05)
        assert np.all(unstable_ray > 1e3)

    def test_one_dimensional_scores_are_tail_maxima(self):
        # on S^0 the cap around v is {v} (or {v, -v}): the score is max |a_n|
        seq = MatrixSequence.from_terms([[[(-1.0) ** n * n]] for n in range(1, 11)])
        bf = brute_force_as(seq, directions=3, radii=(2.5, 0.3, 0.0))
        assert np.array_equal(bf.scores, np.full((3, 3), 10.0))

    def test_budget_flag(self):
        bf = brute_force_as(fundamental_sequence(12), directions=16,
                            radii=(0.3, 0.1), budget=20)
        assert not bf.complete
        assert np.isnan(bf.scores).any()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cap_minimum_against_dense_sampling(self, d):
        # the exact cap minimizer must lower-bound a dense sampled minimum
        # and sit within sampling resolution of it
        from lorentzdyn.stability import _min_image_on_cap
        rng = np.random.default_rng(31 + d)
        for _ in range(25):
            a = rng.normal(size=(d, d)) + np.diag(rng.uniform(1, 3, d))
            m = a.T @ a
            vals, vecs = np.linalg.eigh(m)
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            r = rng.uniform(0.05, 0.8)
            exact = _min_image_on_cap(vals, vecs, m, v, r)
            ball = rng.normal(size=(20000, d))
            ball *= (rng.uniform(0, 1, 20000) ** (1 / d)
                     / np.linalg.norm(ball, axis=1))[:, None]
            w = v[None, :] + r * ball
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            w = np.vstack([v[None, :], w[np.linalg.norm(w - v, axis=1) <= r]])
            sampled = float(np.min(np.sqrt(np.einsum("ki,ij,kj->k", w, m, w))))
            assert exact <= sampled + 1e-9
            # sampling only approaches the exact minimum from above; the gap
            # is resolution-limited and widens with the ball dimension
            assert sampled - exact <= 0.1 * d * max(sampled, 0.1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_batched_solver_equals_scalar_loop(self, d, monkeypatch):
        # every score, bit for bit, equals the per-(direction, radius, term)
        # scalar solver; the scenarios reach each of its exits
        rng = np.random.default_rng(70 + d)
        radii = (0.5, 0.3, 0.0, 2.5)
        branches = set()
        e1 = np.eye(d)[0]
        for name, seq in _cap_scenarios(d, rng).items():
            tail = len(seq) - len(seq) // 2
            for v in (e1, rng.normal(size=d)):
                got = brute_force_score(seq, v, radii=radii)
                u = v / np.linalg.norm(v)
                want = [_ref_cap_score(seq, u, r, branches) for r in sorted(radii, reverse=True)]
                assert np.array_equal(got, want), name
            for budget in (0, -5, tail - 1, 2 * tail + 3, 7 * tail, 10 ** 9):
                want, complete = _ref_brute_force_scores(seq, 5, radii, budget, d, branches)
                for chunk in (1, 2 * tail + 1, 10 ** 6):
                    # 1 direction per chunk, 2 per chunk with a short last
                    # one, or all 5 in one chunk
                    monkeypatch.setattr(stability, "_CAP_CHUNK", chunk * len(radii))
                    bf = brute_force_as(seq, directions=5, radii=radii, budget=budget, seed=d)
                    assert np.array_equal(bf.scores, want, equal_nan=True), (name, budget)
                    assert bf.complete == complete
        assert branches == ({"gamma=0", "bisection", "c>=1", "hard"} if d > 2
                            else {"gamma=0", "bisection", "c>=1"})


class TestStronglyStable:
    def test_chaos_keeps_first_axis_despite_divergence(self, split3):
        seq = chaos_sequence(40)
        res = spas_subspace(seq)
        assert res.subspace.distance(E1) < 1e-5
        # the same direction has divergent images: A_n e1 = n e1
        norms = [np.linalg.norm(t @ np.array([1.0, 0, 0])) for t in seq.terms]
        assert norms == pytest.approx(list(range(1, 41)))

    def test_boost_spas_is_isotropic_complement(self, mink3):
        seq = boost_sequence(3, 0.5, 16)
        stable = as_subspace_kak(seq)
        strongly = spas_subspace(seq)
        assert strongly.subspace == orthogonal_complement(mink3, stable.subspace)
        ray = strongly.subspace.basis[:, 0]
        assert abs(evaluate(mink3, ray, ray)) < 1e-9


class TestLorentzCheck:
    def test_chaos_unipotent_factors(self, split3):
        seq = MatrixSequence.from_terms([split_unipotent(n) for n in range(1, 41)])
        rep = lorentz_as_check(split3, seq)
        assert rep.passed, rep.failures
        assert rep.stable.subspace.distance(E12) < 1e-5
        assert rep.strongly_stable.subspace.distance(E1) < 1e-5
        assert rep.kernel_dim == 1

    def test_chaos_diagonal_factors(self, split3):
        seq = MatrixSequence.from_terms([split_boost(n) for n in range(1, 41)])
        rep = lorentz_as_check(split3, seq)
        assert rep.passed, rep.failures
        assert rep.stable.subspace.distance(
            Subspace.spanned_by([0, 1, 0], [0, 0, 1])) < 1e-8
        assert rep.strongly_stable.subspace.distance(
            Subspace.spanned_by([0, 0, 1])) < 1e-8

    def test_inverse_duality(self, mink3):
        # kernels of the stable and unstable hyperplanes are the two distinct
        # isotropic eigenrays of a hyperbolic sequence
        seq = boost_sequence(3, 0.5, 16)
        fwd = spas_subspace(seq)
        bwd = spas_subspace(seq.inverse())
        assert fwd.subspace.distance(Subspace.spanned_by([1, -1, 0])) < 1e-9
        assert bwd.subspace.distance(Subspace.spanned_by([1, 1, 0])) < 1e-9
        assert fwd.subspace.distance(bwd.subspace) > 0.5

    def test_check_reuses_the_cartan_limits(self, mink3, monkeypatch):
        # the stable and strongly stable limits are kept on the sequence, so
        # the check adds no pass after the detectors; a new sequence with
        # the same terms makes its own
        calls = []
        limit = stability._subspace_limit
        monkeypatch.setattr(stability, "_subspace_limit",
                            lambda *a: calls.append(a) or limit(*a))
        seq = boost_sequence(3, 0.5, 16)
        stable, strongly = as_subspace_kak(seq), spas_subspace(seq)
        assert len(calls) == 2
        rep = lorentz_as_check(mink3, seq)
        assert len(calls) == 2
        assert rep.passed, rep.failures
        assert rep.stable is stable and rep.strongly_stable is strongly
        with pytest.raises(TypeError):  # a shared result cannot be edited
            stable.oracle_agreement["graph"] = 0.0
        lorentz_as_check(mink3, MatrixSequence(terms=seq.terms))
        assert len(calls) == 4

    def test_failed_limit_is_not_kept(self, monkeypatch):
        limit = stability._subspace_limit
        failures = [ConvergenceError("injected")]

        def flaky(*args):
            if failures:
                raise failures.pop()
            return limit(*args)

        monkeypatch.setattr(stability, "_subspace_limit", flaky)
        seq = boost_sequence(3, 0.5, 16)
        with pytest.raises(ConvergenceError):
            as_subspace_kak(seq)
        assert as_subspace_kak(seq).subspace.dim == 2

    @pytest.mark.parametrize("d", [5, 6])
    def test_random_sequences_in_higher_dimensions(self, d):
        rng = np.random.default_rng(60 + d)
        form = QuadraticForm.minkowski(d)
        for trial in range(30):
            seq, _, contracted = random_divergent_sequence(d, rng)
            rep = lorentz_as_check(form, seq)
            assert rep.passed, (trial, rep.failures)
            assert rep.stable.subspace.dim == d - 1
            assert rep.kernel_dim == 1
            assert rep.strongly_stable.subspace.distance(
                Subspace.spanned_by(contracted)) < 1e-5

    def test_non_isometry_rejected(self, mink3):
        from lorentzdyn.errors import NotIsometryError
        seq = fundamental_sequence(12)
        with pytest.raises(NotIsometryError):
            lorentz_as_check(mink3, seq)

    @pytest.mark.parametrize("axis, error, message", [
        (2, PatternMismatchError, r"form has signature \(2, 2\), expected Lorentz"),
        (1, NotIsometryError, "matrix does not preserve the form"),
    ])
    def test_non_lorentz_form_rejected_after_the_isometry_gate(self, axis, error, message):
        # boosts of the (e0, e2) plane preserve diag(-1, -1, 1, 1), a form of
        # signature (2, 2) without the lightlike hyperplane the check is
        # about; boosts of the (e0, e1) plane do not preserve it
        form = QuadraticForm(gram=np.diag([-1.0, -1, 1, 1]), signature=(2, 2))
        seq = MatrixSequence.from_terms([boost(4, 0.5 * i, axis) for i in range(1, 17)])
        with pytest.raises(error, match=message):
            lorentz_as_check(form, seq)


class TestGates:
    def test_equicontinuous_error(self):
        rot = spatial_rotation(3, np.array([[np.cos(1.0), -np.sin(1.0)],
                                            [np.sin(1.0), np.cos(1.0)]]))
        with pytest.raises(EquicontinuousError):
            as_subspace_kak(MatrixSequence.from_powers(rot, 20))

    def test_insufficient_data(self):
        seq = fundamental_sequence(5)
        with pytest.raises(InsufficientDataError):
            as_subspace_kak(seq)


# ---------------------------------------------------------------------------
# batched L2/L3 kernels against the per-pair and per-term loops they replaced


def _per_pair_linkage(bases, link=CLUSTER_LINK):
    """Reference: single linkage by a union-find over every pair i < j."""
    m = len(bases)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if grassmann_distance(bases[i], bases[j]) <= link:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: (len(g), max(g)), reverse=True)


def _orth(x):
    return np.linalg.qr(x)[0]


def _drifting(rng, d, k, labels, scale):
    """Candidates drifting like scale/n towards a random k-plane."""
    base, step = rng.normal(size=(d, k)), rng.normal(size=(d, k))
    return np.array([_orth(base + scale * step / n) for n in labels])


def _interleaved(rng, d, k, m, families, scale):
    """Candidate i drifts with family i % families: every consecutive link breaks."""
    fams = [_drifting(rng, d, k, range(5, 5 + m), scale) for _ in range(families)]
    return np.array([fams[i % families][i] for i in range(m)])


def _rotating(d, k, m, angle):
    """Each candidate is the previous one turned by `angle` in one plane."""
    e = np.eye(d)
    return np.array([np.column_stack([e[:, :k - 1],
                                      np.cos(i * angle) * e[:, k - 1]
                                      + np.sin(i * angle) * e[:, k]])
                     for i in range(m)])


def _linkage_scenarios(d, k, rng):
    yield "converging", _drifting(rng, d, k, range(5, 65), 0.01)
    yield "partly-broken", _drifting(rng, d, k, range(1, 41), 1.0)
    for families in (2, 3):
        yield f"{families}-interleaved", _interleaved(rng, d, k, 45, families, 0.01)
    yield "singletons", np.array([_orth(rng.normal(size=(d, k))) for _ in range(12)])
    yield "m=1", _drifting(rng, d, k, [3], 0.01)
    yield "m=2", _drifting(rng, d, k, [3, 4], 0.01)
    yield "m=2-apart", np.array([_orth(rng.normal(size=(d, k))) for _ in range(2)])
    yield "inside-link", _rotating(d, k, 12, CLUSTER_LINK - 1e-9)
    yield "outside-link", _rotating(d, k, 12, CLUSTER_LINK + 1e-9)


class TestBatchedLinkage:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_partitions_equal_per_pair_linkage(self, d):
        rng = np.random.default_rng(70 + d)
        for k in range(1, d):
            for name, bases in _linkage_scenarios(d, k, rng):
                got = stability._cluster_by_linkage(bases)
                assert got == _per_pair_linkage(bases), (d, k, name)
                if name == "inside-link":
                    assert got == [list(range(len(bases)))]
                if name == "outside-link":
                    assert len(got) == len(bases)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_sine_distances_equal_grassmann_distance(self, d):
        rng = np.random.default_rng(80 + d)
        for k in range(1, d):
            for _, bases in _linkage_scenarios(d, k, rng):
                if len(bases) < 2:
                    continue
                got = np.concatenate([stability._sine_distances(bases[:-1], bases[1:]),
                                      stability._sine_distances(bases[0], bases[1:])])
                ref = np.array([grassmann_distance(bases[i], bases[i + 1])
                                for i in range(len(bases) - 1)]
                               + [grassmann_distance(bases[0], b) for b in bases[1:]])
                assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))

    def test_converging_tail_costs_m_minus_one_distances(self, monkeypatch):
        # consecutive links join a converging family at once, so no later
        # candidate is compared again: the path is linear in m
        bases = _drifting(np.random.default_rng(5), 4, 2, range(5, 505), 0.01)
        pairs = []
        batched = stability._sine_distances

        def counting(a, b):
            out = batched(a, b)
            pairs.append(len(out))
            return out

        monkeypatch.setattr(stability, "_sine_distances", counting)
        assert stability._cluster_by_linkage(bases) == [list(range(500))]
        assert sum(pairs) == 499

    def test_converging_tail_makes_one_distance_call(self, monkeypatch):
        # the consecutive chain leaves one component, so the linkage stops
        # before comparing any candidate with the rest
        bases = _drifting(np.random.default_rng(6), 5, 3, range(5, 105), 0.01)
        calls = []
        batched = stability._sine_distances
        monkeypatch.setattr(stability, "_sine_distances",
                            lambda a, b: calls.append(a.ndim) or batched(a, b))
        assert stability._cluster_by_linkage(bases) == [list(range(100))]
        assert calls == [3]


def _per_member_extrapolation(bases, labels, rank):
    """Reference: the per-member projector list and per-entry `polyfit` loop
    that the stacked family replaced.  Returns (basis, branch taken)."""
    d = bases[0].shape[0]
    last = bases[-1]
    m = len(bases)
    if rank == 0 or rank == d or m < 4:
        return last, "short"
    projs = np.array([b @ b.T for b in bases])
    drift = grassmann_distance(bases[m // 2], last)
    if drift < 1e-11:
        return last, "settled"

    def to_basis(p0):
        p0 = 0.5 * (p0 + p0.T)
        w, v = np.linalg.eigh(p0)
        return v[:, np.argsort(w)[-rank:]]

    steps = np.array([np.linalg.norm(projs[i + 1] - projs[i])
                      for i in range(max(0, m - 7), m - 1)])
    ratios = steps[1:] / np.maximum(steps[:-1], 1e-300)
    if len(ratios) >= 2 and np.max(ratios) <= 0.85:
        q = float(np.median(ratios))
        d1 = projs[-1] - projs[-2]
        basis = to_basis(projs[-1] + d1 * (q / (1.0 - q)))
        step = grassmann_distance(bases[-2], last)
        if grassmann_distance(basis, last) <= 5.0 * step + 1e-9:
            return basis, "geometric"
        return last, "geometric-overshoot"

    x = 1.0 / labels
    deg = int(min(6, m - 3))
    p0 = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            coef = np.polynomial.polynomial.polyfit(x, projs[:, i, j], deg)
            p0[i, j] = p0[j, i] = coef[0]
    basis = to_basis(p0)
    if grassmann_distance(basis, last) > max(5.0 * drift, 1e-6):
        return last, "fit-overshoot"
    return basis, "fit"


def _family_scenarios(d, rng):
    """(name, labels, d x d orthonormal frames) of drifting families."""
    base, step = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    lab = np.arange(21.0, 41.0)
    yield "1/n", lab, np.array([_orth(base + 0.3 * step / n) for n in lab])
    yield "geometric", lab, np.array([_orth(base + step * 0.5 ** (n - 20)) for n in lab])
    yield "geometric-slow", lab, np.array([_orth(base + step * 0.84 ** (n - 20)) for n in lab])
    yield "noisy", lab, np.array([_orth(base + 0.01 * rng.normal(size=(d, d))) for _ in lab])
    yield "m=3", lab[:3], np.array([_orth(base + step / n) for n in lab[:3]])
    yield "settled", lab, np.array([_orth(base + 1e-14 * rng.normal(size=(d, d))) for _ in lab])
    sparse = lab[::3]
    yield "sparse-1/n", sparse, np.array([_orth(base + step / n) for n in sparse])


class TestStackedExtrapolation:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_per_member_loop(self, d):
        # families are the leading columns of transposed frames, as the
        # Cartan route passes R^T, taken by index as `_subspace_limit` does
        rng = np.random.default_rng(90 + d)
        branches = set()
        for name, labels, frames in _family_scenarios(d, rng):
            rt = np.swapaxes(frames, 1, 2)
            for rank in range(1, d):
                family = rt[:, :, :rank]
                want, branch = _per_member_extrapolation(list(family), labels, rank)
                got = stability._extrapolate_projector(
                    family[np.arange(len(family))], labels, rank)
                assert np.array_equal(got, want), (d, name, rank, branch)
                branches.add(branch)
        assert branches == {"short", "settled", "geometric", "geometric-overshoot",
                            "fit", "fit-overshoot"}


def _awkward_sequence(d, seed):
    """Identities, det < 0 terms, tied singular values and random terms."""
    rng = np.random.default_rng(seed)
    flip = np.diag(np.concatenate([[-1.0], np.ones(d - 1)]))
    tied = np.diag(np.concatenate([[3.0], np.ones(d - 2), [1 / 3.0]]))
    q = _orth(rng.normal(size=(d, d)))
    terms = [np.eye(d), flip, tied, flip @ tied, 2.0 * np.eye(d), q @ tied @ q.T, flip @ q]
    for n in range(1, 13):
        a = rng.normal(size=(d, d)) + np.diag(rng.uniform(1, 3, d))
        terms += [a, flip @ a @ np.diag(np.geomspace(1.0, 1.5 ** n, d))]
    return MatrixSequence.from_terms(terms)


def _per_term_ellipsoid(seq):
    """Reference: the per-term eigh of the normalized Gram."""
    sig_rows, vecs = [], []
    for t, op in zip(seq.terms, seq.norms):
        mu, v = np.linalg.eigh((t.T @ t) / (op * op))
        sig_rows.append(np.sqrt(np.maximum(mu, 0.0)) * op)
        vecs.append(v)
    growing = stability._growing_flags(np.array(sig_rows), stability.BOUND_THRESHOLD,
                                       stability.GROWTH_RATIO)
    return vecs, int(np.sum(~growing))


def _per_term_graph(seq):
    """Reference: the per-term QR of the graph and SVD of its top block."""
    n, d = len(seq), seq.dim
    us, ss = [], []
    for t in seq.terms:
        q, _ = np.linalg.qr(np.vstack([np.eye(d), t]))
        u, s, _ = np.linalg.svd(q[:d, :])
        us.append(u)
        ss.append(s)
    collapsing = (ss[-1] < 0.25) & (ss[-1] < 0.6 * ss[n // 2])
    return us, int(np.sum(~collapsing))


def _per_index_restricted_norm(terms, bases, indices, rank):
    """Reference: the per-index operator norm on each candidate."""
    worst = 0.0
    for i in indices:
        b = bases[i][:, :rank]
        if b.shape[1] == 0:
            continue
        worst = max(worst, float(np.linalg.norm(terms[i] @ b, 2)))
    return worst


class _Captured(Exception):
    pass


class TestBatchedDetectorLoops:
    @staticmethod
    def _candidates(monkeypatch, detector, seq):
        seen = {}

        def capture(seq, bases, rank, kind=None):
            seen.update(bases=bases, rank=rank)
            raise _Captured

        monkeypatch.setattr(stability, "_detected", capture)
        monkeypatch.setattr(stability, "_gate", lambda seq: None)
        with pytest.raises(_Captured):
            detector(seq)
        return seen["bases"], seen["rank"]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_candidates_equal_per_term_loops(self, d, monkeypatch):
        seq = _awkward_sequence(d, 90 + d)
        for detector, reference in ((as_subspace_ellipsoid, _per_term_ellipsoid),
                                    (as_subspace_graph, _per_term_graph)):
            bases, rank = self._candidates(monkeypatch, detector, seq)
            ref_bases, ref_rank = reference(seq)
            assert rank == ref_rank
            for i, b in enumerate(ref_bases):
                assert np.array_equal(bases[i], b)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_restricted_norms_equal_per_index_loop(self, d):
        seq = _awkward_sequence(d, 100 + d)
        n = len(seq)
        stacks = [np.swapaxes(seq.cartan.R, 1, 2),
                  np.array(_per_term_ellipsoid(seq)[0]),
                  np.array(_per_term_graph(seq)[0])]
        for bases in stacks:
            for indices in (list(range(n // 2, n)), list(range(n // 2, n, 3))):
                for rank in range(d + 1):
                    got = stability._restricted_norms(seq.terms[indices],
                                                      bases[indices, :, :rank])
                    ref = _per_index_restricted_norm(seq.terms, bases, indices, rank)
                    assert got == ref
