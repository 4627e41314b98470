"""Known-answer scenarios: every sequence family of the tests, built once.

Each family sits next to its analytic stable space AS and strongly stable
space SPAS, or the refusal it must get; `test_scenarios.py` checks each
answer against the definition on the family's own terms.  ``*_terms``
builders return the stacked terms, for callers that scale, dip or
serialise them; the rest return what the tests run, bit for bit.
"""

import functools

import numpy as np

from lorentzdyn import (HyperbolicPoint, MatrixSequence, QuadraticForm, RationalLorentzForm,
                        Subspace, as_subspace_ellipsoid, as_subspace_graph, as_subspace_kak,
                        boost, integer_isometries, spas_subspace, spatial_rotation, split_boost,
                        split_unipotent)
from lorentzdyn.cartan import _random_rotation
from lorentzdyn.minkowski import orthogonal_complement
from lorentzdyn.models import diagonal_action, second_factor_action_matrix

# the stable-space detectors, and every analysis an answer is read by
DETECTORS = [as_subspace_kak, as_subspace_ellipsoid, as_subspace_graph]
ANALYSES = DETECTORS + [spas_subspace]
# AS and SPAS of the fundamental example, the chaos product and split unipotents
E12 = Subspace.spanned_by([1, 0, 0], [0, 1, 0])
E1 = Subspace.spanned_by([1, 0, 0])


def orth(x: np.ndarray, signed: bool = False) -> np.ndarray:
    """The Q factor of x = QR; `signed` turns each column by the sign of R's
    diagonal entry, so a Gaussian x gives a Haar-random orthogonal matrix."""
    q, r = np.linalg.qr(x)
    return q * np.sign(np.diag(r)) if signed else q


def plane_rotation(a: float) -> np.ndarray:
    """The rotation of R^2 by the angle a."""
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    """A random element of SL(2, R), for the anti-de Sitter factors."""
    m = rng.normal(size=(2, 2))
    m /= np.sqrt(abs(np.linalg.det(m)))
    if np.linalg.det(m) < 0:
        m = m @ np.diag([1.0, -1.0])
    return m


def rotated_terms(q: np.ndarray, term, count: int) -> np.ndarray:
    """q term(n) q^T for n = 1..count: AS and SPAS turn by q."""
    return np.array([q @ term(n) @ q.T for n in range(1, count + 1)])


# polynomial growth: the fundamental example, the shear and J_k(1)^n

def fundamental_term(n: float) -> np.ndarray:
    """The worked example [[1,n,n^2/2],[0,1,-n],[0,0,1]], given by the
    formula (not closed under powers): AS = `E12` and SPAS = `E1`."""
    return np.array([[1.0, n, n * n / 2.0], [0.0, 1.0, -n], [0.0, 0.0, 1.0]])


def fundamental_terms(count: int = 40) -> np.ndarray:
    return np.array([fundamental_term(n) for n in range(1, count + 1)])


def fundamental_sequence(count: int = 40) -> MatrixSequence:
    return MatrixSequence.from_terms(fundamental_terms(count),
                                     generator_spec="fundamental unipotent example")


def shear_term(n: float) -> np.ndarray:
    """The planar shear [[1, n], [0, 1]]: AS = SPAS = span(e1)."""
    return np.array([[1.0, n], [0.0, 1.0]])


def shear_sequence(count: int = 40) -> MatrixSequence:
    return MatrixSequence.from_terms([shear_term(n) for n in range(1, count + 1)])


def jordan_powers(k: int, count: int, scale: float = 1.0) -> MatrixSequence:
    """scale J_k(1)^n for n = 1..count, integer matrices exact in floating
    point: singular values grow like n^(k-1-2i) for every scale > 0."""
    j = np.eye(k) + np.eye(k, k=1)
    return MatrixSequence.from_terms(
        scale * np.array([np.linalg.matrix_power(j, n) for n in range(1, count + 1)]))


def jordan_answer(k: int) -> tuple:
    """(AS, SPAS) of J_k(1)^n: span(e_1..e_j), j = ceil(k/2) and floor(k/2)."""
    e = np.eye(k)
    return Subspace.from_spanning(e[:, :(k + 1) // 2]), Subspace.from_spanning(e[:, :k // 2])


def rotated_diagonal(r: float, seed: int, count: int = 40) -> tuple:
    """(q diag(1, n, e^(rn)) q^T for n = 1..count, its AS span(q e1)), q from
    the QR of a seeded N(0, 1) matrix.  Nothing decays: SPAS = 0."""
    q = orth(np.random.default_rng(seed).normal(size=(3, 3)))
    terms = rotated_terms(q, lambda n: np.diag([1.0, n, np.exp(r * n)]), count)
    return MatrixSequence.from_terms(terms), Subspace.spanned_by(q[:, 0])


# Lorentz boosts and the split form

def lorentz_answer(form: QuadraticForm, ray) -> tuple:
    """(AS, SPAS) of a divergent Lorentz sequence that contracts the
    isotropic `ray`: the lightlike hyperplane ray^perp and the ray."""
    line = Subspace.spanned_by(ray)
    return orthogonal_complement(form, line), line


def boost_terms(d: int, step: float, count: int, axis: int = 1) -> np.ndarray:
    """B(step n) along `axis`, n = 1..count: contracts e0 - e_axis."""
    return np.array([boost(d, step * n, axis) for n in range(1, count + 1)])


def boost_sequence(d: int = 3, step: float = 0.5, count: int = 24, axis: int = 1) -> MatrixSequence:
    return MatrixSequence.from_terms(boost_terms(d, step, count, axis))


def conjugated_boost_terms(k: np.ndarray, step: float, count: int) -> np.ndarray:
    """k B(step i) k^-1, i = 1..count, the paper's central case: for a
    Lorentz k it contracts k (e0 - e1)."""
    k_inv = np.linalg.inv(k)
    return np.array([k @ boost(len(k), step * i) @ k_inv for i in range(1, count + 1)])


def alternating_boost_sequence(step: float = 0.5, count: int = 24,
                               first_axis: int = 2) -> MatrixSequence:
    """B(step n) along `first_axis` for odd n and the other of axes 1 and 2
    for even n.  Known refusal: two tail families whose limit planes meet
    in span(1, -1, -1), reported unconverged, and SPAS = 0."""
    axes = (3 - first_axis, first_axis)  # by the parity of n
    return MatrixSequence.from_terms([boost(3, step * n, axis=axes[n % 2])
                                      for n in range(1, count + 1)])


def boosts_with_identity(step: float, every: int, count: int) -> MatrixSequence:
    """B(step n), n = 1..count, with I at every `every`-th term.  Known
    refusal: with two identities in the tail it is not divergent."""
    return MatrixSequence.from_terms([np.eye(3) if n % every == 0 else boost(3, step * n)
                                      for n in range(1, count + 1)])


def chaos_terms(count: int = 40) -> np.ndarray:
    """A_n = C_n B_n with b_n = c_n = n, isometries of the split form: AS =
    `E12` and SPAS = `E1`, though |A_n e1| = n diverges."""
    return np.array([split_boost(n) @ split_unipotent(n) for n in range(1, count + 1)])


def chaos_sequence(count: int = 40) -> MatrixSequence:
    return MatrixSequence.from_terms(chaos_terms(count), generator_spec="chaos b_n = c_n = n")


def split_unipotent_sequence(count: int = 40) -> MatrixSequence:
    """split_unipotent(n), n = 1..count: AS = `E12` and SPAS = `E1`."""
    return MatrixSequence.from_terms([split_unipotent(n) for n in range(1, count + 1)])


def scattered_sequence() -> MatrixSequence:
    """Q_n diag(1.3^n, 1, 1.3^-n) Q_n' for n = 1..40, seeded random
    rotations.  Known refusal: the 20 tail terms point 20 ways, no family."""
    rng = np.random.default_rng(0)
    return MatrixSequence.from_terms(
        [orth(rng.normal(size=(3, 3)), signed=True) @ np.diag([1.3 ** n, 1.0, 1.3 ** -n])
         @ orth(rng.normal(size=(3, 3)), signed=True) for n in range(1, 41)])


def random_divergent_sequence(d: int, rng: np.random.Generator):
    """Seeded random divergent sequence in SO(1, d-1): powers of a rotation-
    conjugated boost, twisted along the sequence by stabilizer rotations when
    d >= 4.  Returns (sequence, spectral radius, exact contracted isotropic
    ray), whose `lorentz_answer` is AS and SPAS."""
    t = rng.uniform(np.log(1.9), np.log(5.0))
    c = spatial_rotation(d, _random_rotation(d - 1, rng))
    m = c @ boost(d, t) @ c.T
    n_max = min(20, max(8, int(np.floor(14.2 / t))))
    terms = []
    acc = np.eye(d)
    for _ in range(n_max):
        acc = acc @ m
        term = acc
        if d >= 4:
            phi = rng.uniform(0, 2 * np.pi)
            k = np.eye(d)
            k[2:4, 2:4] = plane_rotation(phi)
            term = acc @ (c @ k @ c.T)
        terms.append(term)
    contracted = c @ np.concatenate([[1.0, -1.0], np.zeros(d - 2)])
    return MatrixSequence.from_terms(terms), float(np.exp(t)), contracted


def rotation_powers(angle: float, count: int) -> MatrixSequence:
    """R^n, n = 1..count, for R the turn of the spacelike plane by `angle`.
    Known refusal: bounded, so equicontinuous."""
    return MatrixSequence.from_powers(spatial_rotation(3, plane_rotation(angle)), count)


def schottky_pair() -> tuple:
    """B(1.2) and its conjugate by the quarter turn: a non-elementary group."""
    b1 = boost(3, 1.2, axis=1)
    r = spatial_rotation(3, np.array([[0.0, -1.0], [1.0, 0.0]]))
    return b1, r @ b1 @ np.linalg.inv(r)


def hyperboloid_point(form: QuadraticForm, rng: np.random.Generator) -> HyperbolicPoint:
    """Random point of the v_1 > 0 sheet for the standard Lorentz form."""
    d = form.dim
    r = rng.uniform(0.0, 2.0)
    u = rng.normal(size=d - 1)
    u /= np.linalg.norm(u)
    v = np.concatenate([[np.cosh(r)], np.sinh(r) * u])
    return HyperbolicPoint(v=v, form=form)


def ads_pair(t: float, s: float, count: int = 40) -> tuple:
    """(sequence, AS, SPAS) of the anti-de Sitter pair X -> g_n X h_n^-1 on
    R^2 x R^2, g_n = k1 diag(e^(tn), e^(-tn)) k1^T and h_n likewise at rate
    s.  The singular values e^(+-(t+s)n) and e^(+-(t-s)n) keep their
    directions, so AS and SPAS are exact off the first term."""
    k1, k2 = plane_rotation(0.3), plane_rotation(1.1)
    terms = [diagonal_action(k1 @ np.diag([np.exp(t * n), np.exp(-t * n)]) @ k1.T)
             @ second_factor_action_matrix(k2 @ np.diag([np.exp(s * n), np.exp(-s * n)]) @ k2.T)
             for n in range(1, count + 1)]
    w, v = np.linalg.eigh(terms[0].T @ terms[0])
    stable = Subspace.from_spanning(v[:, w <= 1 + 1e-9])
    strongly = Subspace.from_spanning(v[:, w < 1 - 1e-9])
    return MatrixSequence.from_terms(terms), stable, strongly


# integer torus elements

INTEGER_MINK3 = np.diag([-1, 1, 1]).astype(np.int64)
INTEGER_SPLIT3 = np.array([[0, 0, 1], [0, 2, 0], [1, 0, 0]], dtype=np.int64)
MU = 3.0 + 2.0 * np.sqrt(2.0)  # spectral radius of `hyperbolic_322` and Barning's matrix


def hyperbolic_322() -> np.ndarray:
    """Integer isometry of diag(-1,1,1) found by the height-3 enumeration,
    with eigenvalues MU, -1 and 1/MU on (sqrt 2, 1, 1), (0, 1, -1) and
    (-sqrt 2, 1, 1): its powers have AS on the last two, SPAS on the last."""
    return np.array([[3, 2, 2], [2, 1, 2], [2, 2, 1]], dtype=np.int64)


# a parabolic element of O(diag(1, 1, 1, -1), Z): eigenvalue -1 and a 3 x 3
# Jordan block at 1, whose eigenvalues eig moves off the unit circle by 8e-6
PARABOLIC_4 = np.array([[-1, -1, 0, 1], [-1, 0, 1, 1], [0, -1, 1, 1], [-1, -1, 1, 2]])


def barning_power(p: int) -> np.ndarray:
    """p-th power of the Barning matrix, an integer isometry of
    diag(1, 1, -1) with spectral radius MU."""
    return np.linalg.matrix_power(np.array([[1, 2, 2], [2, 1, 2], [2, 2, 3]], dtype=np.int64), p)


def integer_unipotent() -> np.ndarray:
    """split_unipotent(1), in O(g, Z) for the integer split form: its powers
    have AS = `E12` and SPAS = `E1`."""
    return np.array([[1, 2, -1], [0, 1, -1], [0, 0, 1]], dtype=np.int64)


# (Gram diagonal, entry height) of the torus sweep: 864 + 864 + 80 elements
TORUS_SWEEP = (((1, 1, 1, -1), 2), ((-1, 1, 1, 1), 2), ((-1, 1, 1), 4))


@functools.lru_cache(maxsize=None)
def torus_sweep() -> tuple:
    """(form, element, class) for every element of O(g, Z) in `TORUS_SWEEP`,
    classified without eigenvalues: "finite" iff A^120 = I in Python
    integers (every root of unity of degree <= 4 is a 120th root), else
    "hyperbolic" iff an entry of A^60 passes 1e6 (a spectral radius above 1
    is at least 1.7 here, while parabolic powers grow quadratically), else
    "parabolic"."""
    out = []
    for diag, height in TORUS_SWEEP:
        g = RationalLorentzForm(gram=np.diag(diag))
        eye = np.eye(g.dim, dtype=int)
        for a in integer_isometries(g, height):
            if (np.linalg.matrix_power(a.astype(object), 120) == eye).all():
                kind = "finite"
            elif np.abs(np.linalg.matrix_power(a.astype(float), 60)).max() > 1e6:
                kind = "hyperbolic"
            else:
                kind = "parabolic"
            out.append((g, a, kind))
    return tuple(out)
