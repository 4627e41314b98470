"""Partial-hyperbolicity cocycles and the entropy dichotomy on torus models.

A hyperbolic integer isometry of a flat Lorentz torus contracts one
isotropic eigenray and expands another; the derivative multipliers along
those rays form multiplicative cocycles whose logarithms are the Lyapunov
exponents, and whose volume-weighted logarithm is additive on ray-
preserving words.  The linear model collapses the manifold-level,
site-dependent picture to constants, which is exactly what makes every
identity checkable to machine accuracy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, EquicontinuousError, NotHyperbolicError, PreconditionError
from .minkowski import evaluate
from .models import RationalLorentzForm
from .projective import BoundaryPoint, ray_angle
from .stability import MatrixSequence, as_subspace_kak

# N = lcm{k : phi(k) <= d}: every root of unity of degree <= d is an N-th
# root.  A^N carries about N log2|lambda| bits, so d > 6 is refused.
_ROOT_OF_UNITY_EXPONENT = {1: 2, 2: 12, 3: 12, 4: 120, 5: 120, 6: 2520}


@dataclass(frozen=True)
class TorusAutomorphism:
    """Element of O(g, Z) acting on the flat torus R^d / Z^d with metric g."""

    matrix: np.ndarray
    form: RationalLorentzForm

    def __post_init__(self):
        object.__setattr__(self, "matrix", self.form.require_isometry(self.matrix, "automorphism"))

    @functools.cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """`np.linalg.eig` of the matrix, computed once (read-only arrays)."""
        w, v = np.linalg.eig(self.matrix.astype(float))
        w.flags.writeable = v.flags.writeable = False
        return w, v

    @functools.cached_property
    def _hyperbolic(self) -> bool:
        d = len(self.matrix)
        if d not in _ROOT_OF_UNITY_EXPONENT:
            raise BudgetError(f"the exact hyperbolicity test is limited to d <= 6, got d = {d}")
        a = self.matrix.astype(object)
        shifted = np.linalg.matrix_power(a, _ROOT_OF_UNITY_EXPONENT[d]) - np.eye(d, dtype=int)
        return bool(np.linalg.matrix_power(shifted, d).any())

    def is_hyperbolic(self) -> bool:
        """Exact, computed once: an integer matrix with every eigenvalue on the
        unit circle has only roots of unity as eigenvalues (Kronecker), so A
        is not hyperbolic iff (A^N - I)^d = 0, in Python integers.  Raises
        BudgetError for d > 6."""
        return self._hyperbolic

    def power_sequence(self, inverse: bool = False) -> MatrixSequence:
        """Powers A, A^2, ..., capped where the terms stop being numerically
        invertible (condition number past ~5e12); hyperbolic elements reach
        that wall long before 40 powers."""
        base = np.linalg.inv(self.matrix.astype(float)) if inverse \
            else self.matrix.astype(float)
        terms = []
        acc = base
        for _ in range(40):
            sv = np.linalg.svd(acc, compute_uv=False)
            if sv[-1] <= 2e-13 * sv[0]:
                break
            terms.append(acc)
            acc = acc @ base
        # (0, d, d) when even A is past the wall: too few terms, not malformed
        return MatrixSequence(terms=np.array(terms).reshape(-1, *base.shape),
                              generator_spec="powers 1..%d" % len(terms))


@dataclass(frozen=True)
class CocycleValue:
    """Multipliers along the contracted and expanded normal rays.

    `site` stays None for the linear torus model: the multipliers are
    site-independent there, which the field records.
    """

    lambda1: float
    lambda2: float
    site: object = None


def _hyperbolic_pair(aut: TorusAutomorphism):
    """(mu_small, ray_small, mu_big, ray_big) with |mu_small| < 1 < |mu_big|:
    the eigenvalues of least and greatest modulus, which are real and simple
    for a hyperbolic Lorentz isometry."""
    if not aut.is_hyperbolic():
        raise NotHyperbolicError("automorphism is elliptic/parabolic: every "
                                 "eigenvalue is a root of unity")
    w, v = aut.eigen
    mags = np.abs(w)
    i_small, i_big = int(np.argmin(mags)), int(np.argmax(mags))
    form = aut.form.to_quadratic_form()
    a = aut.matrix.astype(float)
    a_inv = np.linalg.inv(a)
    out = []
    for i, refine in ((i_small, a_inv), (i_big, a)):
        vec = np.real(v[:, i])
        vec = vec / np.linalg.norm(vec)
        # purify by power iteration (the eigendirection dominates `refine`);
        # raw eig leaves ~1e-13 cross-contamination that word powers amplify
        for _ in range(30):
            vec = refine @ vec
            vec /= np.sqrt(vec @ vec)
        if abs(evaluate(form, vec, vec)) > 1e-8:
            raise NotHyperbolicError("normal eigendirection is not isotropic")
        out.append((float(w[i].real), BoundaryPoint.from_vector(form, vec)))
    (mu_s, ray_s), (mu_b, ray_b) = out
    return mu_s, ray_s, mu_b, ray_b


def normal_directions(aut: TorusAutomorphism) -> tuple[BoundaryPoint, BoundaryPoint]:
    """Contracted and expanded isotropic eigenrays of a hyperbolic element."""
    mu_s, ray_s, mu_b, ray_b = _hyperbolic_pair(aut)
    return ray_s, ray_b


def cocycle(aut: TorusAutomorphism, n: int) -> CocycleValue:
    """Multipliers of the n-th iterate: (|mu_1|^n, |mu_2|^n)."""
    mu_s, _, mu_b, _ = _hyperbolic_pair(aut)
    return CocycleValue(lambda1=abs(mu_s) ** n, lambda2=abs(mu_b) ** n)


def lyapunov_exponent(aut: TorusAutomorphism, direction: int) -> float:
    """log|mu| along normal direction 1 (contracted, negative) or 2
    (expanded, positive).

    Cross-checked against the finite-step quotient log(|A^50 x|) / 50
    computed by matrix powering along the eigendirection (inverse powers for
    the contracted one, where forward powering is swamped by the expanding
    component); both routes must agree to 1e-9.
    """
    if direction not in (1, 2):
        raise PreconditionError("direction must be 1 or 2")
    mu_s, ray_s, mu_b, ray_b = _hyperbolic_pair(aut)
    mu, ray = (mu_s, ray_s) if direction == 1 else (mu_b, ray_b)
    closed = float(np.log(abs(mu)))
    a = aut.matrix.astype(float)
    if direction == 2:
        powered = np.linalg.matrix_power(a, 50) @ ray.ray
        finite = float(np.log(np.linalg.norm(powered)) / 50)
    else:
        powered = np.linalg.matrix_power(np.linalg.inv(a), 50) @ ray.ray
        finite = -float(np.log(np.linalg.norm(powered)) / 50)
    if abs(finite - closed) > 1e-9 * max(1.0, abs(closed)):
        raise NotHyperbolicError(
            "finite-step exponent disagrees with the closed form; eigendata "
            "is unreliable"
        )
    return closed


def ray_multiplier(a, ray: BoundaryPoint) -> float:
    """|c| where A ray = c ray; errors if the ray is not preserved."""
    m = np.asarray(a, dtype=float)
    img = m @ ray.ray
    if not np.all(np.isfinite(img)) or not np.any(img):
        raise PreconditionError(
            "cocycle undefined: word maps the chosen ray to zero or to a non-finite vector")
    if ray_angle(img, ray.ray) > 1e-6:
        raise PreconditionError(
            "cocycle undefined: word does not preserve the chosen ray"
        )
    return float(np.linalg.norm(img) / np.linalg.norm(ray.ray))


def big_lambda(words, volume: float = 1.0,
               ray: BoundaryPoint | None = None) -> list[float]:
    """Volume-weighted log-multiplier of each word along a shared invariant
    ray: volume * log lambda(word).

    Additive in the word (a homomorphism to R) whenever all words preserve
    the ray; defaults to the contracted ray of the first hyperbolic word.
    """
    mats = []
    for w in words:
        mats.append(w.matrix.astype(float) if isinstance(w, TorusAutomorphism)
                    else np.asarray(w, dtype=float))
    if ray is None:
        for w in words:
            if isinstance(w, TorusAutomorphism) and w.is_hyperbolic():
                ray = normal_directions(w)[0]
                break
    if ray is None:
        raise PreconditionError(
            "no invariant ray: supply one or include a hyperbolic word"
        )
    return [volume * float(np.log(ray_multiplier(m, ray))) for m in mats]


@dataclass(frozen=True)
class EntropyReport:
    """Entropy of a torus automorphism next to its stable-foliation flag.

    `as_equal` records whether the stable subspaces of the forward and
    backward power sequences agree (defined True for equicontinuous
    elements, where there is nothing to tell apart); the dichotomy is
    entropy > 0 exactly when they differ.  `p_threshold` is the smallest
    power p with |mu|^-p < 1/2 for hyperbolic elements.
    """

    entropy: float
    as_equal: bool
    eigenvalues: tuple
    exponents: tuple
    p_threshold: int | None

    def __iter__(self):
        return iter((self.entropy, self.as_equal))


def entropy_dichotomy(aut: TorusAutomorphism) -> EntropyReport:
    """Topological entropy, log max|mu| for a hyperbolic element and 0 for
    any other (its eigenvalues are roots of unity, so every exponent is 0),
    with the approximately-stable comparison between the automorphism and
    its inverse."""
    hyperbolic = aut.is_hyperbolic()
    w, _ = aut.eigen
    try:
        fwd = as_subspace_kak(aut.power_sequence())
    except EquicontinuousError:
        as_equal = True
    else:
        bwd = as_subspace_kak(aut.power_sequence(inverse=True))
        as_equal = bool(fwd.subspace.isclose(bwd.subspace, tol=1e-4))
    logs = np.log(np.abs(w)) if hyperbolic else np.zeros(len(w))
    p = None
    if hyperbolic:
        mu_s, _, _, _ = _hyperbolic_pair(aut)
        p = 1
        while abs(mu_s) ** p >= 0.5:
            p += 1
    return EntropyReport(
        entropy=float(np.max(logs)),
        as_equal=as_equal,
        eigenvalues=tuple(sorted((complex(z).real, complex(z).imag) for z in w)),
        exponents=tuple(sorted(float(x) for x in logs)),
        p_threshold=p,
    )
