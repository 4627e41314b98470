"""Approximately stable subspaces of a matrix sequence.

A sequence (A_n) of invertible matrices is treated as a generalized
dynamical system at the origin: a direction is approximately stable when
nearby directions have bounded images along the sequence, and strongly so
when those images can be driven to zero.  Three detectors recover the
stable subspace by distinct numerical routes (they share the tail, the
rank, the clustering and the extrapolation, so their agreement does not
make them independent checks):

* ``as_subspace_kak``       via Cartan factors A_n = L_n D_n R_n,
* ``as_subspace_ellipsoid`` via the shrinking axes of {x : |x|<=1, |A_n x|<=1},
* ``as_subspace_graph``     via Grassmannian limits of the graphs (x, A_n x),

plus ``brute_force_as``, a direct discretization of the definition that
backs the other three as an oracle.  Finite data cannot witness a limit;
each detector classifies singular-value trends over the tail of the
sequence and accelerates the subspace limit by polynomial extrapolation
in 1/n (the drift of the candidate subspaces is O(1/n) for unipotent-type
sequences, so plain tails converge too slowly to be useful).

One growth rule (`_growth_rule`) on one spectrum, the cached Cartan
spectrum ``seq.cartan.D``, sets every rank, the strongly stable space's
too: a singular value grows when the log of its tail envelope climbs with
slope at least `GROWTH_EXPONENT` against log n, and the block of growing
values must stand `SEPARATION` times clear of the rest.  The three
detectors take their rank from `_stable_rank` and compute only their
candidate bases.  The divergence gate is the rule itself, on the norms
as a one-value spectrum.  It reads no absolute size, as the stable space
of c A_n is that of A_n for every c > 0.

Approximate stability is a limit in n, so the tail decides it: every
detector, and the brute-force oracle, reads and factors only the terms
n//2..n-1 (`MatrixSequence.tail`), and the construction's singularity
check and the divergence gate read only their singular values.
"""

from __future__ import annotations

import enum
import functools
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .cartan import (KakFactorization, kak,  # noqa: F401  (kak stays importable here)
                     kak_stack, require_lorentz)
from .errors import (
    BudgetError,
    ConvergenceError,
    DimensionError,
    EquicontinuousError,
    InsufficientDataError,
    NumericalError,
    PreconditionError,
    SingularMatrixError,
)
from .minkowski import (
    QuadraticForm,
    Subspace,
    _dots,
    evaluate,
    grassmann_distance,  # noqa: F401  (stays importable here)
    orthogonal_complement,
    require_isometry,
    restricted_gram,
)

# A singular value grows when the log of its tail envelope climbs with
# slope at least this against log n, and decays when it falls as fast:
# any c n^p with p >= 1/2 grows, and so does every exponential.
GROWTH_EXPONENT = 0.5
# Factor by which a growing (decaying) block must stay above (below) the
# next singular value at every tail term, or its rank is refused.
SEPARATION = 10.0
# Single-linkage scale under which tail subspaces belong to one drifting
# family; distinct subsequential limits must be separated well above it.
CLUSTER_LINK = 0.02
# Pairwise agreement required of the detectors on converged input.
AGREEMENT_TOL = 1e-5
# Tolerance for intersecting subsequential limits.
INTERSECTION_TOL = 1e-6

_MIN_TERMS = 8


class StabilityKind(enum.Enum):
    STABLE = "stable"
    STRONGLY_STABLE = "strongly_stable"


@dataclass(frozen=True)
class MatrixSequence:
    """Finite indexed family of d x d matrices, invertible from n//2 on.

    ``generator_spec`` is free-form provenance (e.g. "powers of A", "words in
    two boosts") used only in reports.

    The detectors read and factor only the ``tail``, the terms from
    ``tail_start`` = n//2 on; tail spectra are indexed from its start.  The
    spectral data they read is computed once per sequence: ``tail_norms``
    (each tail term's ``norm_growth``) by the tail's singularity check, and
    ``cartan`` (the stacked ``kak`` factors of the tail) on first use.  Every
    detector's result is kept too, by (route, rank, kind) (`_analyses`), so
    each is computed once however many analyses read it.  So are the three
    growth-rule decisions every analysis starts from: the divergence
    decision (`is_divergent`, which `_gate` reads), the stable rank
    (`_stable_rank`) and the rank of the strongly stable space
    (`spas_subspace`).  A refused rank is not kept, so it raises again on
    every read.  All are pure functions of the frozen terms.
    """

    terms: np.ndarray
    generator_spec: str | None = None
    tail_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.terms, dtype=float)
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise SingularMatrixError("terms must be a list of square matrices")
        if not np.all(np.isfinite(t)):
            raise SingularMatrixError("terms must be finite (no NaN or infinity)")
        t = t.copy()
        t.flags.writeable = False
        norms = _singular_values(t[len(t) // 2:])[:, 0].copy()
        norms.flags.writeable = False
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "tail_norms", norms)

    @property
    def tail_start(self) -> int:
        """Index of the first tail term, n//2."""
        return len(self) // 2

    @property
    def tail(self) -> np.ndarray:
        """The terms n//2..n-1, the only ones the detectors read."""
        return self.terms[self.tail_start:]

    @functools.cached_property
    def cartan(self) -> KakFactorization:
        """`kak` of every tail term, stacked along a leading axis whose
        entry i is term ``tail_start + i`` (read-only)."""
        fact = kak_stack(self.tail)
        for a in (fact.L, fact.D, fact.R):
            a.flags.writeable = False
        return fact

    @functools.cached_property
    def _limits(self) -> dict:
        """Detector results (`_analyses`) computed so far, by (route, rank, kind)."""
        return {}

    @functools.cached_property
    def _divergent(self) -> bool:
        """The growth rule on the tail norms (`_norms_diverge`)."""
        return _norms_diverge(self.tail_norms, len(self))

    @functools.cached_property
    def _stable_rank(self) -> int:
        """The count of Cartan singular values that do not grow.  (`kak_stack`
        refuses a zero value, so the logs are finite.)"""
        return self.dim - _growth_rule(self.cartan.D, len(self))

    @functools.cached_property
    def _spas_rank(self) -> int:
        """The count of Cartan singular values that decay: those whose
        inverses grow, counted from the bottom up."""
        return _growth_rule(1.0 / self.cartan.D[:, ::-1], len(self))

    @classmethod
    def from_powers(cls, a, count: int) -> "MatrixSequence":
        m = np.asarray(a, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"powers need a square matrix, got shape {m.shape}")
        if count < 1:
            raise PreconditionError(f"powers need a count of at least 1, got {count}")
        terms = []
        acc = m
        for _ in range(count):
            terms.append(acc)
            acc = acc @ m
        return cls(terms=np.array(terms), generator_spec=f"powers 1..{count}")

    @classmethod
    def from_terms(cls, mats, generator_spec: str | None = None) -> "MatrixSequence":
        return cls(terms=mats, generator_spec=generator_spec)

    def inverse(self) -> "MatrixSequence":
        """The termwise inverses; the head's singularity check is made here."""
        _singular_values(self.terms[:self.tail_start])
        return MatrixSequence(
            terms=np.linalg.inv(self.terms),
            generator_spec=f"inverses of ({self.generator_spec})",
        )

    def __len__(self) -> int:
        return self.terms.shape[0]

    @property
    def dim(self) -> int:
        return self.terms.shape[1]


@dataclass(frozen=True)
class ASResult:
    subspace: Subspace
    kind: StabilityKind
    modulus: float
    oracle_agreement: Mapping = field(default_factory=dict)
    converged: bool = True
    subsequence_indices: tuple = ()

    def __post_init__(self):
        if self.converged and not self.modulus > 0:
            raise NumericalError("converged result must carry a positive modulus")
        # read-only, as a sequence hands the same result to every caller
        object.__setattr__(self, "oracle_agreement",
                           MappingProxyType(dict(self.oracle_agreement)))


def is_divergent(seq: MatrixSequence) -> bool:
    """Trend test for norm_growth(A_n) -> infinity: the growth rule on the
    tail norms.  A bounded subsequence (e.g. alternating boosts and
    identities) keeps the envelope flat."""
    return seq._divergent


def _singular_values(terms: np.ndarray) -> np.ndarray:
    """Each term's singular values, descending; refuses a singular term."""
    sv = np.linalg.svd(terms, compute_uv=False)
    if np.any(sv[:, -1] <= 1e-13 * sv[:, 0]):
        raise SingularMatrixError("sequence contains a numerically singular term")
    return sv


def _norms_diverge(tail_norms: np.ndarray, n: int) -> bool:
    """`is_divergent`'s test: the growth rule on the norms of an n-term
    sequence's tail as a one-value spectrum.  A tail of under three terms
    has no slope."""
    return len(tail_norms) >= 3 and _growth_rule(tail_norms[:, None], n) == 1


# ---------------------------------------------------------------------------
# tail classification and subspace-limit machinery


def _require_usable(seq: MatrixSequence):
    if len(seq) < _MIN_TERMS:
        raise InsufficientDataError(
            f"subspace-limit detectors need at least {_MIN_TERMS} terms, got {len(seq)}"
        )


# cached: tails of one length share their weights (10 s bench runs miss 1
# of 12,000 calls on tail-long, 5 of 16,500 on lorentz-short), and computing
# them in each call slowed lorentz-short from 218 to 204 items/s (six
# alternating 8 s pairs, 6 of 6, p50 4.51 -> 4.82 ms; 2 vCPU, one BLAS thread)
@functools.lru_cache(maxsize=256)
def _slope_weights(n: int) -> np.ndarray:
    """w with w @ y the least-squares slope of y against log of the labels
    n//2+1..n+1-h, the tail rows of an n-term sequence whose suffix holds
    at least h = max(2, m//2) of the tail's m terms (read-only)."""
    h = max(2, (n - n // 2) // 2)
    x = np.log(np.arange(n // 2 + 1, n + 2 - h, dtype=float))
    x -= x.mean()
    w = x / (x @ x)
    w.flags.writeable = False
    return w


def _growth_rule(sig: np.ndarray, n: int) -> int:
    """The one growth rule, on ascending positive tail spectra (one row
    per tail term of an n-term sequence, at least three): how many of the
    top values grow.

    A value grows when the slope against log n of its lower envelope, the
    suffix minimum of its logs, reaches `GROWTH_EXPONENT`.  The slope is
    read only where the suffix holds half the tail, and two terms: a
    bounded subsequence that recurs within half the tail keeps it flat,
    and the last term alone never sets it (one term below every later one
    lowers it at every earlier row).  A value above a growing one grows
    too: the growing values are the block from the lowest such column up.
    A block that is neither empty nor every column must stay `SEPARATION`
    times above the value under it at every tail term; otherwise the data
    cannot yet tell its rank, which is refused.  Decay is growth of the
    reversed inverse spectra."""
    logs = np.log(sig)
    w = _slope_weights(n)
    envelope = np.minimum.accumulate(logs[::-1], axis=0)[::-1][:len(w)]
    grows = w @ envelope >= GROWTH_EXPONENT
    d = len(grows)
    count = d - int(np.argmax(grows)) if grows.any() else 0
    if 0 < count < d:
        gap = float(np.min(logs[:, d - count] - logs[:, d - count - 1]))
        if gap < np.log(SEPARATION):
            raise InsufficientDataError(
                f"singular values not yet separated: the growing or decaying block "
                f"comes within {np.exp(gap):.3g} of the rest, under {SEPARATION:g}")
    return count


def _stable_rank(seq: MatrixSequence) -> int:
    """Rank of the stable space, the count of Cartan singular values that
    do not grow; every detector reads it, off the sequence's cache."""
    return seq._stable_rank


def _sine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`grassmann_distance(a[i], b[i])` for stacks of bases of one nonzero
    rank; either may also be one basis, compared with every basis of the
    other.  Each residual gets its own LAPACK call, so the bits match."""
    return _sines(b - a @ (a.swapaxes(-1, -2) @ b))


def _sines(residual: np.ndarray) -> np.ndarray:
    """arcsin of the top singular value of each residual b - a a^T b."""
    s = np.linalg.svd(residual, compute_uv=False)[..., 0]
    return np.arcsin(np.minimum(1.0, s))


def _linked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_sine_distances(a, b) <= CLUSTER_LINK``, with the same stacking.
    With f = |R|_F^2 of the residuals R of rank-k bases, the squared sine
    |R|_2^2 lies in [f / k, f] (Golub & Van Loan, Matrix Computations,
    2.3); widened by a relative 1e-9 for rounding, these bounds decide most
    pairs, and only the pairs they straddle take the SVD.  The link lies
    far above the underflow of f."""
    residual = b - a @ (a.swapaxes(-1, -2) @ b)
    f = np.einsum("...ij,...ij->...", residual, residual)
    sin2 = np.sin(CLUSTER_LINK) ** 2
    linked = f * (1.0 + 1e-9) <= sin2
    unsure = ~linked & (f / b.shape[-1] * (1.0 - 1e-9) <= sin2)
    if unsure.any():
        linked[unsure] = _sines(residual[unsure]) <= CLUSTER_LINK
    return linked


def _cluster_by_linkage(bases: np.ndarray) -> list[list[list[int]]]:
    """Single-linkage components of the subspaces ``bases[f, i]`` at
    Grassmannian scale `CLUSTER_LINK`, one partition per family f.

    The components of the graph "distance <= CLUSTER_LINK" do not depend on
    which edges are looked at, so long as no pair joining two separate
    components is skipped.  Consecutive tail candidates are linked first,
    every family's in one test; then each i is compared only with the later
    candidates still outside its component: a converging tail costs m - 1
    link tests instead of m(m - 1)/2.  The components hold only link
    decisions, so `_linked` decides most pairs from its Frobenius bounds.
    """
    m = bases.shape[1]
    partitions = []
    for family, close in zip(bases, _linked(bases[:, :-1], bases[:, 1:])):
        if close.all():  # a converging tail: one component
            partitions.append([list(range(m))])
            continue
        comp = np.concatenate([[0], np.cumsum(~close)])
        for i in range(m):
            outside = comp != comp[i]
            if not outside.any():
                break  # one component: every later i has no candidate outside it
            js = i + 1 + np.flatnonzero(outside[i + 1:])
            if js.size:
                linked = js[_linked(family[i], family[js])]
                comp[np.isin(comp, comp[linked])] = comp[i]
        order = np.argsort(comp, kind="stable")  # members stay in tail order
        groups = np.split(order, np.flatnonzero(np.diff(comp[order])) + 1)
        partitions.append(sorted((g.tolist() for g in groups),
                                 key=lambda g: (len(g), g[-1]), reverse=True))
    return partitions


def _extrapolate_projector(bases: np.ndarray, labels: np.ndarray,
                           rank: int) -> list:
    """The limits of F drifting subspace families: ``bases[f]`` holds family
    f's m orthonormal d x rank bases in tail order, labelled ``labels``.

    Candidate subspaces of unipotent-type sequences drift like 1/n, far too
    slowly for a 40-term tail; their projector entries are fitted as
    polynomials in x = 1/n and read off at x = 0.  Exponentially settling
    families (detected by the drift decaying much faster than 1/n) instead
    get a geometric tail-sum correction.  Both branches fall back to the
    last member when they would overshoot the observed drift.  Each step
    runs once, on the families that take it; the drift gate and the fit's
    overshoot test are one stacked `_sine_distances` call each."""
    m, d = bases.shape[1:3]
    last = bases[:, -1]
    out = list(last)
    if m < 4:
        return out
    drift = _sine_distances(bases[:, m // 2], last).tolist()  # middle member to last
    fams = [f for f in range(len(bases)) if not drift[f] < 1e-11]
    if not fams:
        return out
    b = bases[fams] if len(fams) < len(bases) else bases
    projs = b @ np.ascontiguousarray(b.swapaxes(2, 3))  # gemm, as in `_grams`

    def to_basis(p0):  # the eigenvectors of the top `rank` eigenvalues, ascending
        w, v = np.linalg.eigh(0.5 * (p0 + p0.swapaxes(1, 2)))
        top = np.argsort(w)[:, -rank:]
        return v.swapaxes(1, 2)[np.arange(len(w))[:, None], top].swapaxes(1, 2)

    # Per-step decay ratios tell geometric (ratio bounded below 1) apart
    # from 1/n-type drift (ratio creeping up to 1).  Each step is the
    # Frobenius norm `norm` takes: the root of one BLAS dot of the raveled
    # difference with itself.
    diffs = np.diff(projs[:, max(0, m - 7):], axis=1).reshape(len(b), -1, d * d)
    steps = np.sqrt(_dots(diffs, diffs))
    ratios = steps[:, 1:] / np.maximum(steps[:, :-1], 1e-300)
    geo = (ratios.max(axis=1) <= 0.85).tolist()  # m >= 4: at least two ratios
    rows = [j for j in range(len(b)) if geo[j]]
    if rows:  # q, each row's median ratio, as `np.median` takes it
        q = np.sort(ratios[rows], axis=1)
        k = q.shape[1]
        q = (q[:, (k - 1) // 2] + q[:, k // 2])[:, None, None] / 2
        p = projs[rows]
        basis = to_basis(p[:, -1] + (p[:, -1] - p[:, -2]) * (q / (1.0 - q)))
        step, moved = _sine_distances(np.stack([b[rows, -2], basis], 1), b[rows, -1:]).T
        for j, new, keep in zip(rows, basis, (moved <= 5.0 * step + 1e-9).tolist()):
            out[fams[j]] = new if keep else out[fams[j]]
    rows = [j for j in range(len(b)) if not geo[j]]
    if rows:  # overshoot: the fit moved more than max(5 drift, 1e-6) off the last member
        fit = [fams[j] for j in rows]
        basis = to_basis(_fit_at_zero(labels, projs[rows], int(min(6, m - 3))))
        for f, new, moved in zip(fit, basis, _sine_distances(basis, last[fit]).tolist()):
            if not moved > max(5.0 * drift[f], 1e-6):
                out[f] = new
    return out


# the detectors fit the same family labels, and tails of one length share
# them: nearly every fit reads its weights here instead of taking an SVD
@functools.lru_cache(maxsize=256)
def _fit_weights(labels: bytes, deg: int) -> tuple:
    """(w, rank): w @ y is the constant term of the degree-`deg`
    least-squares polynomial in x = 1/labels through y, as
    `numpy.polynomial.polynomial.polyfit` fits it, and rank is the fit's
    rank (w is read-only).  The labels come as the raw bytes of their
    float64 array, a key hashed without a Python object per label.

    That constant term is a fixed linear functional of y: the first row of
    the pseudo-inverse of polyfit's column-scaled Vandermonde, cut at its
    ``rcond = len(x) * eps``, divided by the first column's scale.
    """
    x = 1.0 / np.frombuffer(labels)
    lhs = np.polynomial.polynomial.polyvander(x, deg)
    scl = np.sqrt(np.square(lhs).sum(0))
    scl[scl == 0] = 1
    u, sv, vt = np.linalg.svd(lhs / scl, full_matrices=False)
    keep = sv > len(x) * np.finfo(float).eps * sv[0]
    w = u[:, keep] @ (vt[keep, 0] / sv[keep]) / scl[0]
    w.flags.writeable = False
    return w, int(np.count_nonzero(keep))


def _fit_at_zero(labels: np.ndarray, projs: np.ndarray, deg: int) -> np.ndarray:
    """The symmetric matrices of constant terms of the degree-`deg` least-squares
    polynomials in x = 1/labels through each entry of the stacked ``projs``
    (members x d x d, or families x members x d x d).

    Every entry is one cached functional of its column (`_fit_weights`), so
    the fit is one matrix product over the raveled stack (`einsum`, or
    `tensordot` over the stack, sums in another order); the upper triangle
    is kept and mirrored.  A rank-deficient fit warns on every call, as `polyfit` does.
    """
    w, rank = _fit_weights(np.asarray(labels, dtype=float).tobytes(), deg)
    if rank != deg + 1:
        warnings.warn("The fit may be poorly conditioned",
                      np.exceptions.RankWarning, stacklevel=2)
    d = projs.shape[-1]
    p0 = (w @ projs.reshape(-1, len(w), d * d)).reshape(projs.shape[:-3] + (d, d))
    upper, above = _triu_masks(d)
    p0 = np.where(upper, p0, 0.0)
    return p0 + np.where(above, p0, 0.0).swapaxes(-1, -2)


@functools.lru_cache(maxsize=16)
def _triu_masks(d: int) -> tuple:
    """The d x d masks `np.triu` keeps by, from the diagonal and from above
    it, as read-only views: built once, where each `np.triu` builds its own."""
    return tuple(np.broadcast_to(~np.tri(d, k=k, dtype=bool), (d, d)) for k in (-1, 0))


def _subspace_limit(seq: MatrixSequence, bases: np.ndarray, rank: int) -> list:
    """Cluster each family ``bases[f]`` of tail candidates (one per tail term,
    in order), extrapolate its dominant cluster, intersect the rest.  Returns
    per family (subspace, converged, dominant members), the members counted
    from the first tail term; the first family with no cluster to extrapolate
    is refused.  A cluster is extrapolated in 1/n against the 1-based labels n
    of its terms, once for all families with its members, which share one array."""
    f, m, d = bases.shape[:3]
    if rank in (0, d):
        return [(Subspace.zero(d) if rank == 0 else Subspace.full(d), True, np.arange(m))] * f
    partitions = _cluster_by_linkage(bases)
    found = {}  # by members: (members, limit) of each family with that cluster
    for i, clusters in enumerate(partitions):
        for c in clusters:
            if len(c) >= max(3, m // 10):
                found.setdefault(tuple(c), {})[i] = None
    for c, limits in found.items():
        fams, idx = list(limits), np.asarray(c)
        family = bases if len(fams) == f else bases.take(fams, 0)
        members = family if len(idx) == m else family.take(idx, 1)
        got = _extrapolate_projector(members, seq.tail_start + 1.0 + idx, rank)
        limits.update((i, (idx, basis)) for i, basis in zip(fams, got))
    out = []
    for i, clusters in enumerate(partitions):
        limits = [found[c][i] for c in map(tuple, clusters) if i in found.get(c, ())]
        if not limits:
            raise ConvergenceError("no stable subspace family in the tail",
                                   clusters=[len(c) for c in clusters])
        if len(limits) == 1 and len(limits[0][0]) >= 0.9 * m:
            out.append((Subspace(basis=limits[0][1]), True, limits[0][0]))
        else:  # no single limit: the stable set is where the limits meet
            inter = _intersect_bases([b for _, b in limits])
            out.append((Subspace(basis=inter), False, limits[0][0]))
    return out


def _intersect_bases(bases: list[np.ndarray]) -> np.ndarray:
    d = bases[0].shape[0]
    stack = np.vstack([np.eye(d) - b @ b.T for b in bases])
    _, sv, vt = np.linalg.svd(stack)  # at least d rows: d singular values
    keep = sv <= INTERSECTION_TOL * max(sv[0], 1.0)
    return vt[keep].T


def _restricted_norms(seq: MatrixSequence, rel: np.ndarray, bases: np.ndarray) -> list:
    """Per family f, the largest operator norm of the tail terms ``rel``
    (counted from the first tail term) restricted to the span of ``bases[f, rel]``.

    The term X with the largest |X|_F^2 is factored first, every family's
    in one SVD call; call its top singular value s.  As |X|_2 <= |X|_F
    (Golub & Van Loan, Matrix Computations, 2.3), a term with |X|_F^2 under
    s^2 (1 - 1e-9), the 1e-9 for rounding, cannot exceed s: only the other
    terms take a second, stacked SVD.  LAPACK factors each matrix of a stack
    alone, so the result is the full stack's bit for bit; an overflowing or
    subnormal s^2 decides nothing."""
    if bases.shape[3] == 0:
        return [0.0] * len(bases)
    whole = len(rel) == len(seq.tail)  # no copies for a limit of the whole tail
    x = seq.tail @ bases if whole else seq.tail.take(rel, 0) @ bases.take(rel, 1)
    f = np.einsum("...ij,...ij->...", x, x)
    fams, top = np.arange(len(x)), np.argmax(f, axis=1)
    worst = np.linalg.svd(x[fams, top], compute_uv=False)[:, 0]
    cut = [s * s * (1.0 - 1e-9) for s in worst.tolist()]  # Python floats overflow quietly
    rest = f >= np.array([c if np.finfo(float).tiny <= c < np.inf else 0.0 for c in cut])[:, None]
    rest[fams, top] = False
    if rest.any():
        np.maximum.at(worst, np.nonzero(rest)[0], np.linalg.svd(x[rest], compute_uv=False)[:, 0])
    return worst.tolist()


def _cartan_norms(seq: MatrixSequence, rel: np.ndarray, bases: np.ndarray) -> list:
    """`_restricted_norms` when each ``bases[f]`` holds the leading columns of
    the tail's R_n^T, read off D: A_n R_n^T = L_n D_n, so A_n restricted to the
    first `rank` columns of R_n^T has norm D_n[rank - 1] (D ascending)."""
    rank = bases.shape[3]
    return [float(np.max(seq.cartan.D[rel, rank - 1])) if rank else 0.0] * len(bases)


# ---------------------------------------------------------------------------
# the three subspace detectors


def _gate(seq: MatrixSequence):
    _require_usable(seq)
    if not is_divergent(seq):
        raise EquicontinuousError(
            "sequence is not divergent (equicontinuous trend); no stable "
            "subspace analysis applies"
        )


def _detected(seq: MatrixSequence, bases, rank: int, kind: StabilityKind,
              worsts: list) -> list[ASResult]:
    """Stable subspace limits of the leading `rank` columns of F families
    ``bases[f]`` of candidate bases, one d x d basis per tail term, in one
    pass.  Family f's modulus inverts ``worsts[f](seq, rel, bases)``, the
    largest norm of its limit's subsequence ``rel`` restricted to its
    candidates (inf on the zero space), one call for the families that
    share both (equal members are one array, see `_subspace_limit`)."""
    bases = bases[..., :rank]
    limits = _subspace_limit(seq, bases, rank)
    worst = {}
    for i, (_, _, rel) in enumerate(limits):
        if i not in worst:
            fams = [j for j in range(i, len(limits))
                    if worsts[j] is worsts[i] and limits[j][2] is rel]
            shared = bases if len(fams) == len(bases) else bases[fams]
            worst.update(zip(fams, worsts[i](seq, rel, shared)))
    return [ASResult(subspace=sub, kind=kind, converged=conv,
                     modulus=1.0 / worst[i] if worst[i] else float("inf"),
                     subsequence_indices=tuple((seq.tail_start + rel).tolist()))
            for i, (sub, conv, rel) in enumerate(limits)]


def _analyses(seq: MatrixSequence, kind: StabilityKind, names: list) -> dict[str, ASResult]:
    """The results of the `_ROUTES` ``names`` for `kind`, kept in
    ``seq._limits`` by (route, rank, kind).  A limit kept under the other
    kind at the same rank is relabelled, as only the rank sets it, and the
    routes with nothing kept share one `_detected` pass.  A refusal is the
    first the detectors would raise called in turn; it is not kept."""
    _gate(seq)
    rank = _stable_rank(seq) if kind is StabilityKind.STABLE else seq._spas_rank
    kept = seq._limits
    for (name, r, _), res in list(kept.items()):
        if r == rank and name in names and (name, rank, kind) not in kept:
            kept[name, rank, kind] = replace(res, kind=kind)
    missing = [name for name in names if (name, rank, kind) not in kept]
    stack = []
    try:
        for name in missing:
            stack.append(_ROUTES[name][0](seq))
    finally:  # on a refusal too: the routes before a refused one raise first, or are kept
        if stack:  # zip keeps the routes built
            kept.update(zip([(name, rank, kind) for name in missing], _detected(
                seq, np.stack(stack), rank, kind, [_ROUTES[name][1] for name in missing])))
    return {name: kept[name, rank, kind] for name in names}


def as_subspace_kak(seq: MatrixSequence) -> ASResult:
    """Stable subspace via Cartan factors: the limit of R_n^{-1} applied to
    the span of the non-growing singular directions."""
    return _analyses(seq, StabilityKind.STABLE, ["kak"])["kak"]


def as_subspace_ellipsoid(seq: MatrixSequence) -> ASResult:
    """Stable subspace via the surviving axes of the ellipsoids
    {x : |x| <= 1 and |A_n x| <= 1} = U intersect A_n^{-1} U.

    The axis along eigenvector v of A_n^T A_n has half-length
    min(1, eigenvalue^{-1/2}); axes whose length collapses to zero drop out
    of the Hausdorff limit and the stable space is the span of the rest.
    The basis comes from the eigh of the normalized Gram (`_ellipsoid_bases`),
    kept separate from the SVD route of `as_subspace_kak`; the rank, the
    count of axes that survive, is `_stable_rank`'s.
    """
    return _analyses(seq, StabilityKind.STABLE, ["ellipsoid"])["ellipsoid"]


def _ellipsoid_bases(seq: MatrixSequence) -> np.ndarray:
    """The eigenvectors of each tail term's normalized Gram, ascending."""
    op = seq.tail_norms[:, None, None]
    grams = _grams(seq.tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        grams = grams / (op * op)
    if not np.isfinite(grams).all():
        raise NumericalError("a term's |A|^2 underflows the floating-point range, so "
                             "its normalized Gram matrix A^T A / |A|^2 is undefined")
    return np.linalg.eigh(grams)[1]


def as_subspace_graph(seq: MatrixSequence) -> ASResult:
    """Stable subspace via graphs: orthonormalize Gr(A_n) = {(x, A_n x)} in
    R^{2d}, watch which first-factor singular directions of the limit keep
    mass, and project them back down.

    A direction with exploding image tilts the graph vertical, so its
    first-factor singular value s = (1 + sigma^2)^(-1/2) collapses like
    1/|A_n x|: the directions that keep mass come first, as s descends.
    The basis comes from the graph's QR (`_graph_bases`); the rank, the
    count of directions that keep mass, is `_stable_rank`'s.
    """
    return _analyses(seq, StabilityKind.STABLE, ["graph"])["graph"]


def _graph_bases(seq: MatrixSequence) -> np.ndarray:
    """The top blocks' left singular vectors of the tail terms' graphs."""
    tail, d = seq.tail, seq.dim
    graphs = np.concatenate([np.broadcast_to(np.eye(d), tail.shape), tail], axis=1)
    q, _ = np.linalg.qr(graphs)
    return np.linalg.svd(q[:, :d, :])[0]  # columns by descending s


# each detector's candidate bases and restricted norms; kak's are the tail's R_n^T
_ROUTES = {"kak": (lambda seq: seq.cartan.R.swapaxes(1, 2), _cartan_norms),
           "ellipsoid": (_ellipsoid_bases, _restricted_norms),
           "graph": (_graph_bases, _restricted_norms)}


def as_all_oracles(seq: MatrixSequence) -> dict[str, ASResult]:
    """Run every subspace detector and cross-fill the agreement table.  The
    detectors with no kept result share one pass (`_analyses`), and a
    refusal is the first the detectors would raise called in turn."""
    return _with_agreement(_analyses(seq, StabilityKind.STABLE, list(_ROUTES)))


def _with_agreement(results: dict) -> dict[str, ASResult]:
    """The detector ``results`` with the agreement table cross-filled, by
    `grassmann_distance`'s conventions: pi/2 between unequal ranks, 0.0
    between rank-0 bases.  The pairs of a nonzero rank (of three results,
    at most one rank has pairs) share one `_sine_distances` call."""
    bases = {name: res.subspace.basis for name, res in results.items()}
    dists = {(a, b): 0.0 if bases[a].shape == bases[b].shape else np.pi / 2
             for a in results for b in results if b != a}
    same = [p for p, dist in dists.items() if dist == 0.0 and bases[p[0]].size]
    if same:
        firsts, seconds = (np.stack([bases[p[k]] for p in same]) for k in (0, 1))
        dists.update(zip(same, _sine_distances(firsts, seconds).tolist()))
    return {a: replace(res, oracle_agreement={b: dists[a, b] for b in results if b != a})
            for a, res in results.items()}


# ---------------------------------------------------------------------------
# brute force oracle


@dataclass(frozen=True)
class BruteForceScores:
    """Direct discretization of approximate stability.

    ``scores[k, r]`` is max over the tail of the sequence of the cheapest
    image norm achievable from a sampled unit direction k perturbed within
    radius ``radii[r]``.  A direction is approximately stable when its score
    stays bounded as the radius shrinks (down to the stated resolution), and
    strongly so when the score heads to zero.  `complete` is False when the
    evaluation budget ran out first.
    """

    directions: np.ndarray
    radii: tuple
    scores: np.ndarray
    complete: bool

    def score_of(self, v) -> float:
        """Score, at the smallest radius, of the sampled direction nearest to v."""
        u = _unit_direction(v, self.directions.shape[1])
        k = int(np.argmax(np.abs(self.directions @ u)))
        return float(self.scores[k, -1])


def _unit_direction(v, d: int) -> np.ndarray:
    """v / |v|, for a finite nonzero vector of length d."""
    u = np.asarray(v, dtype=float)
    if u.shape != (d,):
        raise DimensionError(f"a direction in dimension {d} needs {d} entries, got shape {u.shape}")
    norm = np.linalg.norm(u)
    if not (np.isfinite(norm) and norm > 0.0):
        raise PreconditionError("a direction must be finite and nonzero")
    return u / norm


def _sorted_radii(radii) -> tuple:
    """The cap radii, largest first; there must be at least one, each
    finite and nonnegative."""
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or not r.size or not np.all(np.isfinite(r) & (r >= 0.0)):
        raise PreconditionError(f"radii must be a nonempty list of finite numbers >= 0, got {radii!r}")
    return tuple(sorted(radii, reverse=True))


def sphere_points(d: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy unit directions (count x d).

    d=2 equally spaced angles, d=3 Fibonacci sphere, d>=4 seeded Gaussian.
    """
    if d == 2:
        th = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.column_stack([np.cos(th), np.sin(th)])
    if d == 3:
        i = np.arange(count, dtype=float)
        z = 1.0 - 2.0 * (i + 0.5) / count
        phi = i * np.pi * (3.0 - np.sqrt(5.0))
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# Cap minima are solved a chunk of whole directions at a time, each chunk
# holding about this many (direction, radius, tail term) problems, so
# memory stays bounded for any number of directions.
_CAP_CHUNK = 4096
# Most cap minima (direction, radius, tail term) one `brute_force_as` call
# solves; scores past it stay NaN and the result is flagged incomplete.
BRUTE_BUDGET = 20_000_000
# Most entries, directions x (d + radii), of the direction grid and score
# table one `brute_force_as` call builds; more are refused before allocation.
_BRUTE_GRID = 10_000_000


def _nonneg(x: np.ndarray) -> np.ndarray:
    """``max(0.0, x)`` elementwise, as Python's `max` resolves it."""
    return np.where(x > 0.0, x, 0.0)


def _min_quadratic_on_sphere(beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Unit minimiser y of y^T diag(beta) y + 2 gamma . y, for each row of
    the (problems x m) stacks beta (ascending) and gamma.

    Trust-region secular equation: y(mu) = -gamma / (beta + mu) with
    |y(mu)| = 1 and mu >= -beta_min, including the hard case where gamma
    has no component on the bottom eigenspace.  Otherwise phi(mu) =
    1/|y(mu)| - 1 is concave and rises to its root, so Newton's method
    started left of it climbs to it monotonically (More & Sorensen 1983).
    The start is -beta_min + eps or, if larger, max(|gamma| - beta), a
    lower bound on the root at which no |y_i| exceeds 1.  Each step takes
    the problems still moving; one stops on a step of at most
    max(1e-15 (beta_min + mu), 4.5e-16 |mu|), and one still moving after
    100 steps raises NumericalError.
    """
    b0 = beta[:, 0]
    nonzero = np.any(gamma != 0.0, axis=1)
    y = np.zeros_like(beta)
    y[:, 0] = 1.0  # gamma = 0: the bottom eigendirection
    eps = 1e-14 * np.maximum(1.0, np.abs(b0))
    with np.errstate(over="ignore"):  # an overflow to inf is not the hard case either
        hard = nonzero & (np.sum((gamma / (beta + (eps - b0)[:, None])) ** 2, axis=-1) < 1.0)
    if np.any(hard):
        # pad the limit solution along the bottom eigendirection
        b, g, e = beta[hard], gamma[hard], eps[hard, None]
        denom = b - b[:, :1]
        yh = np.where(denom > e, -g / np.where(denom > e, denom, 1.0), 0.0)
        yh[np.arange(len(yh)), np.argmin(b, axis=1)] += np.sqrt(_nonneg(1.0 - _dots(yh, yh)))
        y[hard] = yh
    rows = nonzero & ~hard
    b, g = beta[rows], gamma[rows]
    mu = np.maximum(eps[rows] - b0[rows], np.max(np.abs(g) - b, axis=1))
    live = np.arange(len(mu))
    for _ in range(100):
        if not live.size:
            break
        m = mu[live]
        t = b[live] + m[:, None]
        yr = -g[live] / t
        n2 = _dots(yr, yr)
        step = (np.sqrt(n2) - 1.0) * n2 / _dots(yr, yr / t)
        mu[live] = m + step
        # not `step > ...`: a NaN step must stay live and reach the guard
        live = live[~(step <= np.maximum(1e-15 * t[:, 0], 4.5e-16 * np.abs(m)))]
    if live.size:
        raise NumericalError(f"the cap solver's Newton iteration left {live.size} "
                             "row(s) moving after 100 steps")
    y[rows] = -g / (b + mu[:, None])
    return y / np.sqrt(_dots(y, y))[:, None]


def _cap_minima(spectra: tuple, dirs: np.ndarray, radii: np.ndarray,
                start: int, stop: int) -> np.ndarray:
    """min |A_n w| over unit w with |w - v| <= r, for the (direction v,
    radius r) pairs start..stop-1 in row-major order (pairs x tail terms).

    Exact: interior candidates are the eigendirections of A_n^T A_n falling
    inside the cap, and the cap boundary reduces to a quadratic-on-a-sphere
    problem in v-perp coordinates.  Each candidate is scored as |A_n w| of
    its explicit unit witness w (an eigendirection is one up to sign, which
    leaves |A_n w| alone).  Random perturbation sampling cannot do this
    job: for exponentially divergent sequences the bounded-image region
    near the stable hyperplane is a slab of width ~ 1/|A| that samples
    never hit.
    """
    terms, vecs, grams = spectra
    nr = len(radii)
    pair = np.arange(start, stop)
    k0 = start // nr
    v = dirs[k0:(stop - 1) // nr + 1]
    kk = pair // nr - k0
    c = (1.0 - 0.5 * radii * radii)[pair % nr]
    col = v[:, None, :, None]
    d = v.shape[1]
    inside = np.abs(np.swapaxes(vecs, 1, 2) @ col)[kk, ..., 0] >= c[:, None, None]
    # the boundary witness, v itself where the cap is {v}
    edge = np.repeat(col[kk], len(terms), axis=1)
    cap = (c < 1.0) & (d > 1)  # on S^0 the cap has no boundary to search
    if np.any(cap):
        q, _ = np.linalg.qr(np.concatenate(
            [col[:, 0], np.broadcast_to(np.eye(d), (len(v), d, d))], axis=2))
        perp = q[:, None, :, 1:d]  # orthonormal basis of v-perp
        perp_t = np.swapaxes(perp, 2, 3)
        # one eigh per (direction, term): a radius only scales the block
        # perp^T A^T A perp by s^2 and its linear term by c s
        lam, w_mat = np.linalg.eigh((perp_t @ grams) @ perp)
        g_rot = np.swapaxes(w_mat, 2, 3) @ (perp_t @ (grams @ col))
        basis = perp @ w_mat
        kc, cc = kk[cap], c[cap, None, None, None]
        s = np.sqrt(_nonneg(1.0 - cc * cc))
        gamma = cc * s * g_rot[kc]
        y = _min_quadratic_on_sphere((s * s * lam[kc, ..., None]).reshape(-1, d - 1),
                                     gamma.reshape(-1, d - 1))
        edge[cap] = cc * col[kc] + s * (basis[kc] @ y.reshape(gamma.shape))
    # witnesses as rows: the eigendirections imaged once per term, the
    # boundary witness once per (pair, term)
    terms_t = np.swapaxes(terms, 1, 2)
    eig_images = np.swapaxes(vecs, 1, 2) @ terms_t
    edge_images = np.swapaxes(edge, 2, 3) @ terms_t
    sq = np.where(inside, _dots(eig_images, eig_images), np.inf)
    sq = np.minimum(np.min(sq, axis=2), _dots(edge_images, edge_images)[..., 0])
    return np.sqrt(sq)


def _min_image_on_cap(a: np.ndarray, v: np.ndarray, r: float) -> float:
    """min |A w| over unit w with |w - v| <= r: the one-pair, one-term case
    of `_cap_minima`."""
    return float(_cap_minima(_spectra(np.asarray(a, dtype=float)[None]), np.asarray(v)[None],
                             np.array([r], float), 0, 1)[0, 0])


def _grams(terms: np.ndarray) -> np.ndarray:
    """Stacked A^T A; entries past about 1e154 overflow it, which raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        grams = np.ascontiguousarray(np.swapaxes(terms, 1, 2)) @ terms  # gemm: syrk is slower
    if not np.isfinite(grams).all():
        raise NumericalError("a term's Gram matrix A^T A overflows the floating-point range")
    return grams


def _spectra(terms: np.ndarray) -> tuple:
    """(terms, eigenvectors of A_n^T A_n, A_n^T A_n), stacked."""
    grams = _grams(terms)
    return terms, np.linalg.eigh(grams)[1], grams


def _cap_scores(spectra: tuple, dirs: np.ndarray, radii, count: int) -> np.ndarray:
    """m(v, r) = max over the tail of the cap minimum, for the first `count`
    (direction, radius) pairs in row-major order."""
    radii = np.asarray(radii, dtype=float)
    step = len(radii) * max(1, _CAP_CHUNK // (len(radii) * len(spectra[0])))
    scores = np.empty(max(count, 0))
    for start in range(0, count, step):
        stop = min(count, start + step)
        scores[start:stop] = np.max(_cap_minima(spectra, dirs, radii, start, stop), axis=1)
    return scores


def brute_force_as(seq: MatrixSequence, directions: int = 64,
                   radii: tuple = (0.3, 0.1, 0.03, 0.01),
                   seed: int = 0) -> BruteForceScores:
    """Score sampled directions by the best bounded-image witness nearby.

    For each unit direction v and radius r, m(v, r) = max over the last half
    of the sequence of the exact min over unit w with |w - v| <= r of
    |A_n w|.  The witness varies with n, matching the definition of a
    stable vector sequence.
    """
    _require_usable(seq)
    if directions < 1:
        raise PreconditionError("the brute-force oracle needs at least one direction")
    radii = _sorted_radii(radii)
    if directions * (seq.dim + len(radii)) > _BRUTE_GRID:
        raise BudgetError(f"{directions} directions pass the brute-force grid budget: "
                          f"directions x (d + radii) must be at most {_BRUTE_GRID}")
    dirs = sphere_points(seq.dim, directions, seed)
    spectra = _spectra(seq.tail)
    # Each (direction, radius) score costs one cap minimum per tail term;
    # BRUTE_BUDGET pays for the first `done` of them in row-major order.
    total = directions * len(radii)
    done = min(total, BRUTE_BUDGET // len(spectra[0]))
    scores = np.full(total, np.nan)
    scores[:max(done, 0)] = _cap_scores(spectra, dirs, radii, done)
    scores = scores.reshape(directions, len(radii))
    complete = done == total
    return BruteForceScores(directions=dirs, radii=radii, scores=scores,
                            complete=complete)


def brute_force_score(seq: MatrixSequence, v,
                      radii: tuple = (0.3, 0.1, 0.03, 0.01)) -> np.ndarray:
    """m(v, r) for one exact direction v, per radius (no direction grid)."""
    _require_usable(seq)
    u = _unit_direction(v, seq.dim)
    radii = _sorted_radii(radii)
    return _cap_scores(_spectra(seq.tail), u[None], radii, len(radii))


# ---------------------------------------------------------------------------
# strongly stable space and the Lorentz structure check


def spas_subspace(seq: MatrixSequence) -> ASResult:
    """Strongly approximately stable space: the limit of the right-singular
    directions whose singular values decay to zero.  `lorentz_as_check`
    checks its Lorentz structure (the isotropic orthogonal of the stable
    hyperplane)."""
    return _analyses(seq, StabilityKind.STRONGLY_STABLE, ["kak"])["kak"]


@dataclass(frozen=True)
class LorentzStabilityReport:
    """Outcome of the lightlike-hyperplane structure check, clause by clause."""

    passed: bool
    failures: tuple
    stable: ASResult
    strongly_stable: ASResult
    kernel_dim: int
    modulus: float

    def __bool__(self):
        return self.passed


def lorentz_as_check(form: QuadraticForm, seq: MatrixSequence) -> LorentzStabilityReport:
    """Verify the Lorentz stable-subspace structure of a divergent isometry
    sequence: a converged stable hyperplane, lightlike with one-dimensional
    kernel, whose orthogonal is the isotropic strongly stable line.

    Preconditions (isometry terms, Lorentz signature, divergence) raise;
    structural violations come back as named failures in the report.
    """
    require_isometry(form, seq.terms)
    require_lorentz(form)
    failures = []
    stable = as_subspace_kak(seq)
    strongly = spas_subspace(seq)
    d = seq.dim
    if not stable.converged:
        failures.append("stable-subspace-not-converged")
    if stable.subspace.dim != d - 1:
        failures.append(f"stable-dimension-{stable.subspace.dim}-not-{d - 1}")
    # the kernel is `degenerate_kernel`'s: eigenvalues within 1e-6 max(1, |largest|) of 0
    eig = np.linalg.eigvalsh(restricted_gram(form, stable.subspace))
    tol = 1e-6 * np.max(np.abs(eig), initial=1.0)
    kernel_dim = int(np.sum(np.abs(eig) <= tol))
    if stable.subspace.dim == d - 1 and (np.any(eig < -tol) or kernel_dim != 1):
        failures.append("stable-hyperplane-not-lightlike")
    perp = orthogonal_complement(form, stable.subspace)
    if strongly.subspace.dim != 1 or not strongly.subspace.isclose(perp, tol=AGREEMENT_TOL):
        failures.append("spas-not-orthogonal-of-stable")
    else:
        ray = strongly.subspace.basis[:, 0]
        if abs(evaluate(form, ray, ray)) > 1e-6:
            failures.append("spas-not-isotropic")
    return LorentzStabilityReport(
        passed=not failures,
        failures=tuple(failures),
        stable=stable,
        strongly_stable=strongly,
        kernel_dim=kernel_dim,
        modulus=stable.modulus,
    )
