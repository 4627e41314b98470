"""Seeded inputs and their analytic reference answers.

Everything here is built from closed formulas with numpy alone: none of the
package's matrix constructors is used, and no reference answer comes from it.
The same seed always gives the same arrays.

Problem sizes are fixed and only the orientation of each input is drawn
from the seed (rotation conjugates, stabilizer twists, base points, word
samples), so every seed asks for the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rapidity range of the random Lorentz sequences, as in the package tests.
RAPIDITY_LO, RAPIDITY_HI = np.log(1.9), np.log(5.0)


def minkowski_gram(d: int) -> np.ndarray:
    """diag(-1, 1, ..., 1)."""
    g = np.eye(d)
    g[0, 0] = -1.0
    return g


def split_gram() -> np.ndarray:
    """Gram matrix of the split form x1 x3 + x2^2."""
    return np.array([[0.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.0]])


def boost(d: int, rapidity: float) -> np.ndarray:
    """Hyperbolic rotation of the (e0, e1) plane for diag(-1, 1, ..., 1)."""
    b = np.eye(d)
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    b[0, 0] = b[1, 1] = c
    b[0, 1] = b[1, 0] = s
    return b


def rotation(k: int, rng: np.random.Generator) -> np.ndarray:
    """Random element of SO(k) (QR of a Gaussian matrix, signs fixed)."""
    if k == 1:
        return np.eye(1)
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def spatial(d: int, q: np.ndarray) -> np.ndarray:
    """Embed a rotation of the spacelike coordinates as an isometry fixing e0."""
    r = np.eye(d)
    r[1:, 1:] = q
    return r


def fundamental_term(n: float) -> np.ndarray:
    """[[1, n, n^2/2], [0, 1, -n], [0, 0, 1]]: stable plane e1^e2, SPAS e1."""
    return np.array([[1.0, n, n * n / 2.0], [0.0, 1.0, -n], [0.0, 0.0, 1.0]])


def shear_term(n: float) -> np.ndarray:
    """[[1, n], [0, 1]]: stable line e1."""
    return np.array([[1.0, n], [0.0, 1.0]])


def split_boost(c: float) -> np.ndarray:
    return np.diag([float(c), 1.0, 1.0 / float(c)])


def split_unipotent(b: float) -> np.ndarray:
    return np.array([[1.0, 2.0 * b, -b * b], [0.0, 1.0, -b], [0.0, 0.0, 1.0]])


def chaos_terms(count: int) -> np.ndarray:
    """A_n = diag(n, 1, 1/n) . U(n), isometries of the split form with stable
    plane e1^e2 and strongly stable line e1.

    The package refuses this sequence as numerically singular beyond
    n = 146, so longer tails cannot be benchmarked yet.
    """
    return np.array([split_boost(n) @ split_unipotent(n) for n in range(1, count + 1)])


def g_orthogonal(gram: np.ndarray, ray: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {x : x^T gram ray = 0}."""
    _, _, vt = np.linalg.svd((gram @ ray)[None, :])
    return vt[1:].T


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def sine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between the column spans of two
    orthonormal d x k bases (1.0 when k differs)."""
    if a.shape != b.shape:
        return 1.0
    if a.shape[1] == 0:
        return 0.0
    return float(min(1.0, np.linalg.svd(b - a @ (a.T @ b), compute_uv=False)[0]))


def rapidity_grid(k: int) -> np.ndarray:
    """k rapidities at the centres of k equal strata of the test range.

    A fixed grid rather than a random draw: the sequence length follows the
    rapidity, so drawing it would change the work per seed.
    """
    return RAPIDITY_LO + (np.arange(k) + 0.5) / k * (RAPIDITY_HI - RAPIDITY_LO)


@dataclass(frozen=True)
class LorentzCase:
    """Divergent sequence in SO(1, d-1) with its contracted isotropic ray.

    The stable hyperplane is the g-orthogonal of `ray` and the strongly
    stable line is `ray` itself.
    """

    terms: np.ndarray
    ray: np.ndarray
    gram: np.ndarray


def lorentz_case(d: int, rapidity: float, rng: np.random.Generator) -> LorentzCase:
    """Powers of a rotation-conjugated boost, each term twisted on the right
    by a rotation of the stabilizer's (2,3)-plane (d >= 4).

    The twist fixes e0 and e1, so C k C^T fixes the contracted ray
    C (e0 - e1) and every term still contracts it by e^{-n t}.
    """
    c = spatial(d, rotation(d - 1, rng))
    m = c @ boost(d, rapidity) @ c.T
    count = min(20, max(8, int(np.floor(14.2 / rapidity))))
    terms = []
    acc = np.eye(d)
    for _ in range(count):
        acc = acc @ m
        term = acc
        if d >= 4:
            phi = rng.uniform(0.0, 2.0 * np.pi)
            k = np.eye(d)
            k[2:4, 2:4] = [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
            term = acc @ (c @ k @ c.T)
        terms.append(term)
    ray = unit(c @ np.concatenate([[1.0, -1.0], np.zeros(d - 2)]))
    return LorentzCase(terms=np.array(terms), ray=ray, gram=minkowski_gram(d))


def conjugated(term, count: int, c: np.ndarray) -> list[np.ndarray]:
    """[C A_n C^T for n = 1..count] as a list of raw arrays."""
    return [c @ term(n) @ c.T for n in range(1, count + 1)]


def hyperboloid_point(rng: np.random.Generator) -> np.ndarray:
    """Random point of the v0 > 0 sheet of <v, v> = -1 for diag(-1, 1, 1)."""
    r = rng.uniform(0.0, 2.0)
    u = unit(rng.normal(size=2))
    return np.concatenate([[np.cosh(r)], np.sinh(r) * u])


def integer_isometries_reference(gram: np.ndarray, height: int) -> set:
    """Every integer matrix with entries in [-height, height] preserving the
    integer Gram matrix, as a set of byte strings of int64 arrays.

    Enumerates columns by their norms and pairwise products, written apart
    from the package's search so the two can be compared.
    """
    d = gram.shape[0]
    axis = np.arange(-height, height + 1)
    vecs = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
    norms = np.einsum("ki,ij,kj->k", vecs, gram, vecs)
    out = set()

    def extend(cols):
        j = len(cols)
        if j == d:
            out.add(np.column_stack(cols).astype(np.int64).tobytes())
            return
        for v in vecs[norms == gram[j, j]]:
            if all(int(v @ gram @ cols[i]) == gram[j, i] for i in range(j)):
                extend(cols + [v])

    extend([])
    return out
