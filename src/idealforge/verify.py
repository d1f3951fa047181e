"""Machine checks for the configuration ideals.

Five families of checks, each exact:

* vanishing: every generator is zero at every point (exact evaluation for
  most sets; for the sliced-zonal families, the premises of the lattice
  value-set proof, norm and lattice membership, on their own points and a
  point file's alike);
* simple zeros: the Jacobian of the generating set has full rank at every
  point, from its rank modulo a prime where that reaches full rank, else
  computed symbolically; for the sliced-zonal families, from the closed-form
  row shape of a sliced zonal gradient, whose inner products the lattice
  value-set proof fixes, and one m x m product of two base sets;
* nontriviality: a generator of the critical degree is nonzero at one point
  of the sphere, so it is no multiple of the sphere polynomial;
* design strength: Gegenbauer pair sums and raw moment comparisons;
* certificates: the per-claim records assembled into a report.

Bulk integer passes multiply through ``exact.int_product``, which proves its
float32/float64/int64 range exact before it multiplies and returns the
narrowest integer dtype that holds its bound; the test suite cross-checks
them against the generic exact evaluator on samples.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .configs import DEFAULT_SEED, SphericalConfiguration, pair_distribution
from .exact import (
    RANK_PRIME,
    Echelon,
    FieldMismatchError,
    QuadArray,
    Scalar,
    _fdiv,
    _max_abs,
    dot,
    independent_rows,
    int_product,
    quad_array,
    quad_product,
    rank_mod_p,
    row_blocks,
    scalar_to_text,
    squared_norms,
    to_mod_p,
)
from .generators import FactoredPoly, GeneratorSet, orthogonal_complement_basis

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
FULL = "full"
SAMPLED = "sampled"

LEVEL_FULL_GROEBNER = "FULL_GROEBNER"
LEVEL_PAPER = "PAPER_CERTIFICATE"

Progress = Optional[Callable[[str], None]]


class MissingCheckError(ValueError):
    """A certificate was assembled without one of its component checks."""


class ClaimRecord:
    """One checked claim: id, pass/fail, mode, witnesses, detail."""

    def __init__(
        self,
        claim_id: str,
        status: str,
        mode: str = FULL,
        witnesses: Optional[List] = None,
        detail: str = "",
    ):
        self.claim_id = claim_id
        self.status = status
        self.mode = mode
        self.witnesses = witnesses or []
        self.detail = detail

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> Dict:
        out = {"id": self.claim_id, "status": self.status, "mode": self.mode}
        if self.witnesses:
            out["witness"] = [str(w) for w in self.witnesses[:5]]
        if self.detail:
            out["detail"] = self.detail
        return out

    def __repr__(self):
        return f"ClaimRecord({self.claim_id!r}, {self.status!r}, mode={self.mode!r})"


class VerificationReport:
    """Ordered claim records plus the certificate level for one configuration."""

    def __init__(self, name: str):
        self.name = name
        self.records: List[ClaimRecord] = []
        self.certificate_level: Optional[str] = None

    def add(self, rec: ClaimRecord) -> ClaimRecord:
        self.records.append(rec)
        return rec

    def find(self, claim_id: str) -> Optional[ClaimRecord]:
        for rec in self.records:
            if rec.claim_id == claim_id:
                return rec
        return None

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.records)

    def to_dict(self) -> Dict:
        return {
            "config": self.name,
            "claims": [r.to_dict() for r in self.records],
            "certificate_level": self.certificate_level,
        }


# ---------------------------------------------------------------------------
# vanishing
# ---------------------------------------------------------------------------


def _eval_points(G: GeneratorSet) -> Sequence[Tuple[Scalar, ...]]:
    """The point list matching the generator arity (ambient for sections)."""
    cfg = G.config
    if cfg is None:
        raise ValueError("generator set carries no configuration")
    pts = cfg.points
    if pts and len(pts[0]) != G.nvars:
        amb = cfg.ambient_points
        if amb and len(amb[0]) == G.nvars:
            return amb
        raise ValueError("no point list matches the generator arity")
    return pts


def _generic_vanishing(G, points, max_witnesses=5):
    """(label, point index, value) where a generator misses a point, generator-major.

    ``G`` yields (label, poly) pairs.  Every affine factor (v, c) of the
    FactoredPoly generators is evaluated at every point in one exact product,
    [v | c] against the points extended by a coordinate -1
    (``exact.quad_product``); Q(sqrt d) is a field, so a product vanishes at
    a point iff one of its factors does.  SparsePoly generators keep
    ``eval``, and ``eval`` recomputes the value of each witness.  Generators
    run in chunks of 1024, so a streamed family is never held at once.  When
    an entry leaves the exact int64 range or two fields meet, the exact
    evaluation loop (``_eval_vanishing``) gives the answer instead.
    """
    if len(points) == 0:
        return []
    witnesses = []
    try:
        P = quad_array([tuple(x) + (-1,) for x in points])
        gens = iter(G)
        while len(witnesses) < max_witnesses:
            chunk = list(itertools.islice(gens, 1024))
            if not chunk:
                break
            missed = np.argwhere(_nonzero_at(chunk, P, points))
            for g, x in missed[: max_witnesses - len(witnesses)]:
                label, p = chunk[g]
                witnesses.append((label, int(x), scalar_to_text(p.eval(points[x]))))
    except (ArithmeticError, FieldMismatchError):
        return _eval_vanishing(G, points, max_witnesses)
    return witnesses


def _nonzero_at(items, P: QuadArray, points) -> np.ndarray:
    """Mask [g, x]: generator g of the (label, poly) items is nonzero at point x."""
    nonzero = np.ones((len(items), len(P)), dtype=bool)
    factored = [
        (g, p) for g, (_, p) in enumerate(items) if isinstance(p, FactoredPoly) and p.factors
    ]
    if factored:
        F = quad_array([tuple(v) + (c,) for _, p in factored for v, c in p.factors])
        R, I = quad_product(F, P)  # any dtype: compared with 0 only
        zero = (R == 0) if I is None else (R == 0) & (I == 0)
        starts = np.cumsum([0] + [len(p.factors) for _, p in factored[:-1]])
        nonzero[[g for g, _ in factored]] = ~np.logical_or.reduceat(zero, starts, axis=0)
    for g, (_, p) in enumerate(items):
        if not isinstance(p, FactoredPoly):
            nonzero[g] = [p.eval(x) != 0 for x in points]
    return nonzero


def _eval_vanishing(G, points, max_witnesses=5):
    """The exact evaluation loop behind ``_generic_vanishing``, same witnesses."""
    witnesses = []
    for label, p in G:
        for idx, pt in enumerate(points):
            v = p.eval(pt)
            if v != 0:
                witnesses.append((label, idx, scalar_to_text(v)))
                if len(witnesses) >= max_witnesses:
                    return witnesses
    return witnesses


def _shell_units(G: GeneratorSet, den: int) -> Tuple[List[int], int]:
    """The interior roots (the proven values) and r2 in the units of den-scaled coordinates.

    Inner products of rows that carry den times the configuration's
    coordinates are den^2 times the configuration's values.
    """
    scale = den * den
    return [w * scale for w in G.config.lattice.values], int(G.r2 * scale)


def _lattice_witnesses(G: GeneratorSet, A: np.ndarray, q: int) -> List[Tuple]:
    """Witnesses that the points A / q (A integer rows) leave the shell or the lattice.

    First the norm: a point whose squared norm is not r2 is named
    ``('NM', point, squared norm)``, the norm in the units of lcm(den, q),
    den the denominator of ``integer_array``.  Then membership in the
    proof's lattice L, whose rows carry den times configuration units: a
    point whose den-scaled coordinates are not all integers lies outside L,
    as does one that ``LatticeProof.outside`` rejects, and is named
    ``('outside-lattice', point)``.  A point on the shell has coordinates of
    magnitude at most sqrt(r2), so its den-scaled row is small.
    """
    den = G.config.integer_array()[1]
    n2 = squared_norms(A)
    f = den // math.gcd(den, q)  # lcm(den, q) / q
    bad = np.flatnonzero(n2 != G.r2 * q * q)
    if bad.size:
        return [("NM", int(i), int(n2[i]) * f * f) for i in bad[:5]]
    k = q // math.gcd(den, q)  # lcm(den, q) / den, so A / k * f is den-scaled
    # a narrow (int8) A is only the configuration's own array, where k = f = 1
    outside = (A % k).any(axis=1) | G.config.lattice.outside(A // k * f)
    return [("outside-lattice", int(i)) for i in np.flatnonzero(outside)[:5]]


def _same_rows(A: np.ndarray, B: np.ndarray) -> bool:
    """``np.array_equal`` on two 2-D arrays, one row block at a time.

    No bool array the size of A is formed.
    """
    return A.shape == B.shape and all(
        np.array_equal(A[s], B[s]) for s in row_blocks(A.shape[0], A.shape[1])
    )


def _proof_witnesses(G: GeneratorSet, points: Optional[Sequence] = None) -> List[Tuple]:
    """Witnesses against the premises the lattice value-set proof needs.

    The configuration's value-set proof (``lattice.prove_value_set``) shows
    that its lattice L is even with no nonzero vector of norm below r2, and
    that its points lie in L with norm r2.  So for a point x of L with norm
    r2 and a vector a of L with norm r2, either x = +-a or x.a is a proven
    value, which the families take as their interior roots.  That covers
    every pair of a point and a representative once these premises hold:

    * the points are the proof's (by identity, else row by row), or have
      norm r2 and lie in L;
    * the representatives are the proof's ``reps`` (the first half of its
      points), which the families pass as they are, or have norm r2 and lie
      in L.

    ``points`` (rational, else FieldMismatchError) replaces the
    configuration's own points.  Given points, points changed after the
    build (only a copied array can change: Leech's is the proof's own,
    read-only) and changed representatives are checked by norm, then
    membership; no pair product is formed.
    """
    cfg, reps, proof = G.config, G.pair_reps, G.config.lattice
    if proof is None:
        raise ValueError(f"{G.name}: the pair structure needs the configuration's lattice proof")
    arr, den = cfg.integer_array()
    if points is not None:
        q = quad_array(list(points))
        if q.B is not None:
            raise FieldMismatchError(f"{G.name} points must be rational")
        witnesses = _lattice_witnesses(G, q.A, q.den)
    else:
        same = arr is proof.points or _same_rows(arr, proof.points)
        witnesses = [] if same else _lattice_witnesses(G, arr, den)
    if witnesses:
        return witnesses
    if reps is proof.reps or _same_rows(reps, proof.reps):
        return []
    _, extreme = _shell_units(G, den)
    norms = squared_norms(reps)
    return [(f"pair{i}", "norm", int(norms[i])) for i in np.flatnonzero(norms != extreme)[:5]] or [
        (f"pair{i}", "outside-lattice") for i in np.flatnonzero(proof.outside(reps))[:5]
    ]


def check_vanishing(G: GeneratorSet, points: Optional[Sequence] = None) -> ClaimRecord:
    """Pass iff every generator evaluates to zero at every point.

    ``points`` replaces the configuration's own points.  Sets without the
    pair structure evaluate every generator exactly at every point.  The
    sliced-zonal families (e8, Leech) check the premises of the lattice
    value-set proof instead (``_proof_witnesses``), on their own points and
    on given ones alike.  Each generator is Nm or (b.Y) prod_w (a.Y - w)
    over the interior roots w, for a representative a and a vector b
    orthogonal to it.

    * Pass.  A point x of the lattice L with norm N (r2 in configuration
      units) has x -+ a in L for every representative a, so x = +-a or
      x.a is a proven value: b.x = 0 or a factor a.x - w is 0, and every
      generator vanishes at x.
    * Fail.  A point off the shell is no zero of Nm.  A point x on the
      shell but outside L is a real counterexample, not only an unproven
      one: L is unimodular in lattice units (``report``'s lattice stage
      and acceptance criterion 3 pin det(Gram) = scale^m), so L* = L and x
      has a non-integral inner product, in lattice units, with some point a
      of the set, which spans L.  That value is no root, x != +-a, and the
      complement vectors b span the orthogonal complement of a, so some
      b.x != 0 and the generator (b.Y) prod_w (a.Y - w) is nonzero at x.

    Given points whose scaled entries leave the exact int64 range go to
    the exact evaluation loop.
    """
    if G.pair_reps is None:
        pts = list(points) if points is not None else list(_eval_points(G))
        witnesses = _generic_vanishing(G, pts)
        detail = f"{len(G)} generators x {len(pts)} points, exact evaluation"
    elif points is None:
        witnesses = _proof_witnesses(G)
        detail = f"{len(G)} generators x {G.config.npoints} points by the lattice value set"
    else:
        pts = list(points)
        try:
            witnesses = _proof_witnesses(G, pts)
            detail = f"{len(G)} generators x {len(pts)} points"
        except ArithmeticError:
            witnesses = _eval_vanishing(G, pts)
            detail = f"{len(G)} generators x {len(pts)} points, exact evaluation"
    return ClaimRecord(
        f"{G.name}.vanishing", PASS if not witnesses else FAIL, FULL, witnesses, detail=detail
    )


def check_gallery_vanishing(G: GeneratorSet, gallery_points: Sequence) -> ClaimRecord:
    """Every generator vanishes on an extra gallery of points (4-cube companion)."""
    witnesses = _generic_vanishing(G, list(gallery_points))
    return ClaimRecord(
        f"{G.name}.gallery",
        PASS if not witnesses else FAIL,
        FULL,
        witnesses,
        detail=f"{len(G)} generators x {len(gallery_points)} gallery points",
    )


# ---------------------------------------------------------------------------
# simple zeros (Jacobian rank)
# ---------------------------------------------------------------------------


def jacobian_rank_at(G: GeneratorSet, point, method: str = "symbolic") -> int:
    """Rank of the generating set's Jacobian at the point, from the full pass's rows.

    Sets without the pair structure take every generator's exact gradient
    (``_exact_jacobian_rank``).  The sliced-zonal families take the nvars
    rows of ``lattice_jacobian_rows`` in either method.
    """
    if G.pair_reps is not None:
        return len(independent_rows(lattice_jacobian_rows(G, point, method), G.nvars))
    if method == "closed_form":
        raise ValueError("closed_form requires the sliced-zonal pair structure")
    if method != "symbolic":
        raise ValueError(f"unknown jacobian method: {method}")
    return _exact_jacobian_rank(G, point)


def lattice_jacobian_rows(G: GeneratorSet, point, method: str) -> List[Tuple[Scalar, ...]]:
    """The gradient rows at a point over the base set that ``_lattice_jacobian`` reads.

    The base set is C, or C' at the 2m points +-C (``_lattice_bases``).  For
    each base vector c, the generator is (b.Y) prod_w (c.Y - w), b the first
    complement vector with b.x != 0, and the rows are in den-scaled units:
    ``closed_form`` gives (b.x) prod_{w != c.x} (c.x - w) c, ``symbolic``
    the product-rule gradient.  ArithmeticError where c.x is no interior
    root or no b sees the point.
    """
    if method not in ("closed_form", "symbolic"):
        raise ValueError(f"unknown jacobian method: {method}")
    den = G.config.integer_array()[1]
    roots, _ = _shell_units(G, den)
    x = tuple(v * den for v in point)
    base, second = _lattice_bases(G)
    on_base = {x, tuple(-v for v in x)} & {tuple(G.pair_reps[i].tolist()) for i in base}
    rows = []
    for i in second if on_base else base:
        c = tuple(G.pair_reps[i].tolist())
        cx = dot(c, x)
        b = next((b for b in orthogonal_complement_basis(c) if dot(b, x) != 0), None)
        if b is None:
            raise ArithmeticError("no slicing vector sees the point")
        if cx not in roots:
            raise ArithmeticError("base inner product is no interior root")
        if method == "symbolic":
            rows.append(FactoredPoly(G.nvars, [(b, 0)] + [(c, w) for w in roots]).gradient_at(x))
        else:
            s = dot(b, x) * math.prod(cx - w for w in roots if w != cx)
            rows.append(tuple(s * v for v in c))
    return rows


def jacobian_full_pass(G: GeneratorSet) -> ClaimRecord:
    """Rank = nvars at every point.

    The sliced-zonal families take the lattice value-set proof and two
    independent base sets: C for every point, then C' for the 2m points +-C
    (``_lattice_jacobian``).
    """
    m = G.nvars
    claim = f"{G.name}.jacobian"
    if G.pair_reps is None:
        pts = _eval_points(G)
        proven = _full_rank_mod_p(G, pts)
        witnesses = []
        for idx, pt in enumerate(pts):
            if proven[idx]:
                continue
            r = _exact_jacobian_rank(G, pt)
            if r != m:
                witnesses.append((idx, r))
                if len(witnesses) >= 5:
                    break
        return ClaimRecord(
            claim,
            PASS if not witnesses else FAIL,
            FULL,
            witnesses,
            detail=f"symbolic rank {m} at {len(pts)} points",
        )

    witnesses = _proof_witnesses(G) or _lattice_jacobian(G)
    return ClaimRecord(
        claim,
        PASS if not witnesses else FAIL,
        FULL,
        witnesses,
        detail=(
            f"rank {m} at {G.config.npoints} points via closed-form rows over an "
            f"independent base set C, and over a second base set C' for the {2 * m} "
            "points +-C"
        ),
    )


def _exact_jacobian_rank(G: GeneratorSet, pt) -> int:
    """Exact rank of the generators' gradient rows at pt, stopping at nvars."""
    m = G.nvars
    ech = Echelon(m)
    for _, p in G.items:
        if isinstance(p, FactoredPoly):
            row = list(p.gradient_at(pt))
        else:
            row = [p.partial_derivative(i + 1).eval(pt) for i in range(m)]
        ech.add_row(row)
        if ech.rank == m:
            break
    return ech.rank


def _full_rank_mod_p(G: GeneratorSet, pts) -> np.ndarray:
    """Mask of the points where the Jacobian's rank mod RANK_PRIME is nvars.

    The rows are the images of the exact gradient rows under the ring map
    ``to_mod_p``, so rank mod p <= rank <= nvars (``exact.rank_mod_p``):
    where it reaches nvars the rank is proven; other points need the exact
    rank.  Factor values (v.x - c) mod p at every point come from one
    ``int_product`` of entries below p < 2^20 over nvars + 1 terms.  A
    FactoredPoly's gradient is sum_i (prod_{j != i} u_j) v_i over its factor
    values u, from prefix and suffix products mod p, one ``int_product`` per
    point with k terms below p^2 for k factors (float64 while k < 2^13).
    Other generators are differentiated exactly and reduced.  A point, or a
    coefficient, without an image mod p (``to_mod_p`` raises) leaves that
    point, or every point, unproven.
    """
    p, m = RANK_PRIME, G.nvars
    proven = np.zeros(len(pts), dtype=bool)
    factored = [q for _, q in G.items if isinstance(q, FactoredPoly)]
    derivs = [
        q.partial_derivative(i + 1)
        for _, q in G.items
        if not isinstance(q, FactoredPoly)
        for i in range(m)
    ]
    live, coords, sparse_rows = [], [], []
    for idx, x in enumerate(pts):
        try:
            row = [to_mod_p(c) for c in x] + [p - 1]
            grads = [to_mod_p(dq.eval(x)) for dq in derivs]
        except ZeroDivisionError:
            continue
        live.append(idx)
        coords.append(row)
        sparse_rows.append(grads)
    if not live:
        return proven
    try:
        F = np.array(
            [[to_mod_p(c) for c in v] + [to_mod_p(c)] for q in factored for v, c in q.factors],
            dtype=np.int64,
        ).reshape(-1, m + 1)
    except ZeroDivisionError:
        return proven
    # int_product's dtype holds its own bound only, and the prefix and
    # suffix products below reach p^2 < 2^40: reduce in int64
    U = np.mod(int_product(F, np.array(coords, dtype=np.int64).T), p, dtype=np.int64)
    W = np.empty_like(U)
    lo = 0
    for q in factored:
        u = U[lo : lo + len(q.factors)]
        prefix, suffix = np.ones_like(u), np.ones_like(u)
        for i in range(1, len(u)):
            prefix[i] = prefix[i - 1] * u[i - 1] % p
            suffix[-1 - i] = suffix[-i] * u[-i] % p
        W[lo : lo + len(u)] = prefix * suffix % p
        lo += len(u)
    # S[g, i] = 1 when factor i belongs to generator g: the FactoredPoly
    # gradient rows at the i-th live point are (S * W[:, i]) @ vectors mod p
    S = np.repeat(np.eye(len(factored), dtype=np.int64), [q.degree() for q in factored], axis=1)
    sparse = np.array(sparse_rows, dtype=np.int64).reshape(len(live), -1, m)
    for i, idx in enumerate(live):
        rows = int_product(S * W[:, i], F[:, :m])  # rank_mod_p reduces it in int64
        proven[idx] = rank_mod_p(np.vstack([rows, sparse[i]])) == m
    return proven


def _lattice_jacobian(G: GeneratorSet) -> List[Tuple]:
    """Witnesses against rank nvars at every point, given ``_proof_witnesses``' premises.

    Every generator but Nm is (b.Y) prod_w (c.Y - w) over the interior roots
    w, the proven values, which are distinct, for a representative c and
    each b of a basis of c's orthogonal complement.  Where c.x is an
    interior root w0, its gradient at x is (b.x) prod_{w != w0} (w0 - w) c.

    * C = ``independent_rows(reps, m)`` (``_lattice_bases``).  For a point
      x and c in C, either x = +-c or c.x is a proven value (the premises),
      hence an interior root.  A proven value v has |v| <= r2 / 2 < r2, so then x is not
      parallel to c, some b has b.x != 0, and the closed-form row is a
      nonzero multiple of c.  So the rows over C span at every point but
      the 2m points +-C.
    * C' = ``independent_rows(reps, m, skip=C)``.  The points +-C meet C'
      only in proven values exactly when every entry of the m x m product
      C C'^T is one; then the rows over C' span at +-C by the same
      argument.

    No product against the points is formed.
    """
    reps, m = G.pair_reps, G.nvars
    base, second = _lattice_bases(G)
    if len(second) < m:
        return [("independent-base-selection", len(base), len(second))]
    roots, _ = _shell_units(G, G.config.integer_array()[1])
    V = int_product(reps[base], reps[second].T)  # compared and read out only
    stray = np.argwhere(~np.isin(V, roots))
    return [
        ("second-base", f"pair{base[i]}", f"pair{second[j]}", int(V[i, j])) for i, j in stray[:5]
    ]


def _lattice_bases(G: GeneratorSet) -> Tuple[List[int], List[int]]:
    """The indices of C = ``independent_rows(reps, m)`` and of C', chosen outside C."""
    base = independent_rows(G.pair_reps, G.nvars)
    return base, independent_rows(G.pair_reps, G.nvars, skip=base)


# ---------------------------------------------------------------------------
# design strength
# ---------------------------------------------------------------------------


class DesignStrengthResult:
    """Gegenbauer pair sums for k = 1..t plus the pass verdict.

    ``witness`` is the first pair (base point, point, value) whose inner
    product lies outside the configuration's values, None when closure
    holds.
    """

    def __init__(self, name, t, mode, k_sums, per_point_ok, closure_ok, base_count, witness):
        self.name = name
        self.t = t
        self.mode = mode
        self.k_sums = k_sums  # k -> exact global sum over the base points
        self.per_point_ok = per_point_ok
        self.closure_ok = closure_ok
        self.base_count = base_count
        self.witness = witness

    @property
    def passed(self) -> bool:
        return (
            self.closure_ok
            and self.per_point_ok
            and all(v == 0 for v in self.k_sums.values())
        )

    def first_failure(self) -> Optional[int]:
        for k in sorted(self.k_sums):
            if self.k_sums[k] != 0:
                return k
        return None

    def detail(self) -> str:
        """What the pair sums show: the first failure, else that they vanish."""
        if not self.closure_ok:
            i, j, v = self.witness
            return (
                f"point {i} meets point {j} at {scalar_to_text(v)}, "
                "outside the configuration's values"
            )
        over = f"over {self.base_count} base points"
        k = self.first_failure()
        if k is not None:
            return f"pair sums nonzero first at k = {k}: {scalar_to_text(self.k_sums[k])} {over}"
        if not self.per_point_ok:
            return f"pair sums zero for k = 1..{self.t} {over} in total, not at each"
        return f"pair sums zero for k = 1..{self.t} {over}"

    def to_dict(self) -> Dict:
        # after a closure failure the sums cover the matched pairs only and
        # would read as a strength failure; detail() names the stray pair
        sums = self.k_sums if self.closure_ok else {}
        return {
            "config": self.name,
            "t": self.t,
            "mode": self.mode,
            "k_sums": {str(k): scalar_to_text(v) for k, v in sums.items()},
            "pass": self.passed,
        }


def gegenbauer_values(m: int, t: int, s: Scalar) -> List[Scalar]:
    """C_k at s for k = 0..t, classical ultraspherical with alpha = (m-2)/2."""
    if m < 3:
        raise ValueError("the pair-sum test needs dimension >= 3; use the moment test")
    alpha = Fraction(m - 2, 2)
    vals = [Fraction(1), 2 * alpha * s]
    for k in range(1, t):
        nxt = (2 * (k + alpha) * s * vals[k] - (k + 2 * alpha - 1) * vals[k - 1]) / (
            k + 1
        )
        vals.append(nxt)
    return vals[: t + 1]


def design_strength_gegenbauer(
    cfg: SphericalConfiguration,
    t: int,
    mode: str = FULL,
    seed: int = DEFAULT_SEED,
    progress: Progress = None,
) -> DesignStrengthResult:
    """Pair-sum test: sums of C_k(x.y / r2) must vanish for k = 1..t.

    Checked per base point (each row of the pair histogram) and globally,
    with exact rational Gegenbauer values at the finitely many inner products.
    Equal histogram rows have equal sums, so each distinct row is summed once
    and weighted by how many base points share it.  A full pass reports its
    progress through ``pair_distribution``.
    """
    if t < 1:
        raise ValueError("strength t must be at least 1")
    dist = pair_distribution(cfg, mode=mode, seed=seed, progress=progress)
    ck_table = [gegenbauer_values(cfg.m, t, _fdiv(w, cfg.r2)) for w in dist.omegas]
    rows, mult = np.unique(dist.counts, axis=0, return_counts=True)

    k_sums: Dict[int, Scalar] = {}
    per_point_ok = True
    for k in range(1, t + 1):
        total = 0
        for row, times in zip(rows.tolist(), mult.tolist()):
            row_sum = 0
            for cnt, ck in zip(row, ck_table):
                if cnt:
                    row_sum = row_sum + cnt * ck[k]
            if row_sum != 0:
                per_point_ok = False
            total = total + times * row_sum
        k_sums[k] = total
    return DesignStrengthResult(
        cfg.name, t, dist.mode, k_sums, per_point_ok, dist.closure_ok, len(dist.base_indices),
        dist.witness,
    )


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def sphere_moment(m: int, alpha: Sequence[int]) -> Fraction:
    """Average of the monomial x^alpha over the unit sphere in m variables."""
    if any(a % 2 for a in alpha):
        return Fraction(0)
    s = sum(alpha) // 2
    num = 1
    for a in alpha:
        num *= _double_factorial(a - 1)
    den = 1
    for j in range(1, s + 1):
        den *= m + 2 * j - 2
    return Fraction(num, den)


def _exponent_vectors(m: int, d: int):
    if m == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _exponent_vectors(m - 1, d - e):
            yield (e,) + rest


def design_strength_moments(
    cfg: SphericalConfiguration, t: int, guard: int = 10**7
) -> Tuple[int, List[Tuple]]:
    """Raw moment test: sum over X of x^alpha vs |X| r^|alpha| mu_alpha.

    Returns (number of monomials checked, failures).  Refuses when the
    point-by-monomial work area exceeds the guard.
    """
    if t < 1:
        raise ValueError("strength t must be at least 1")
    m = cfg.m
    npts = cfg.npoints
    n_monos = math.comb(m + t, t)
    if npts * n_monos > guard:
        raise ValueError(
            f"moment test needs {npts * n_monos} evaluations, over the guard"
        )

    arr_den = cfg.integer_array()
    int_path = False
    if arr_den is not None:
        arr, den = arr_den
        peak = _max_abs(arr) or 1  # np.abs wraps at the int8 minimum
        int_path = npts * peak ** t < 2**62
    if int_path:
        pows = [
            [np.ones(npts, dtype=np.int64)] for _ in range(m)
        ]
        for i in range(m):
            col = arr[:, i]  # each product with the int64 powers is int64
            for _ in range(t):
                pows[i].append(pows[i][-1] * col)
    else:
        den = 1
        tables = []
        for p in cfg.points:
            per_var = []
            for x in p:
                row = [1]
                for _ in range(t):
                    row.append(row[-1] * x)
                per_var.append(row)
            tables.append(per_var)

    failures: List[Tuple] = []
    checked = 0
    for d in range(t + 1):
        for alpha in _exponent_vectors(m, d):
            checked += 1
            if int_path:
                vec = None
                for i, e in enumerate(alpha):
                    if e:
                        vec = pows[i][e] if vec is None else vec * pows[i][e]
                if vec is None:
                    total = Fraction(npts)
                else:
                    total = Fraction(int(vec.sum()), den**d)
            else:
                total = 0
                for tab in tables:
                    term = 1
                    for i, e in enumerate(alpha):
                        if e:
                            term = term * tab[i][e]
                    total = total + term
            mu = sphere_moment(m, alpha)
            expected = npts * cfg.r2 ** (d // 2) * mu if mu != 0 else 0
            if total != expected:
                failures.append(
                    (alpha, scalar_to_text(total), scalar_to_text(expected))
                )
                if len(failures) >= 5:
                    return checked, failures
    return checked, failures


# ---------------------------------------------------------------------------
# support checks and certificates
# ---------------------------------------------------------------------------


def spanning_check(cfg: SphericalConfiguration) -> ClaimRecord:
    """The points linearly span the whole space (streamed, early exit)."""
    arr_den = cfg.integer_array()
    r = len(independent_rows(cfg.points if arr_den is None else arr_den[0], cfg.m))
    return ClaimRecord(
        f"{cfg.name}.spanning",
        PASS if r == cfg.m else FAIL,
        FULL,
        [] if r == cfg.m else [("rank", r)],
        detail=f"points span rank {r} of {cfg.m}",
    )


def section_embedding_check(cfg: SphericalConfiguration) -> ClaimRecord:
    """Section coordinates match the ambient points under the section map."""
    claim = f"{cfg.name}.section"
    if cfg.section is None or cfg.ambient_points is None:
        return ClaimRecord(claim, SKIPPED, FULL, [], detail="no section data")
    sec = cfg.section
    witnesses = []
    for k, (y, x) in enumerate(zip(cfg.points, cfg.ambient_points)):
        if sec.to_section(x) != y:
            witnesses.append(("forward", k))
        if sec.to_ambient(y) != tuple(x):
            witnesses.append(("lift", k))
        if len(witnesses) >= 5:
            break
    return ClaimRecord(
        claim,
        PASS if not witnesses else FAIL,
        FULL,
        witnesses,
        detail=f"{len(cfg.points)} points match their ambient images",
    )


def sphere_witness_point(G: GeneratorSet) -> Tuple[Scalar, ...]:
    """The first configuration point reflected in u = (1, ..., m).

    The reflection keeps it on the sphere and over the configuration's field.
    Generators in more variables than the configuration has coordinates (e7)
    get it lifted through the section map, into the section hyperplane.
    """
    cfg = G.config
    x, u = cfg.point(0), range(1, cfg.m + 1)
    s = Fraction(2, dot(u, u)) * dot(u, x)
    w = tuple(xi - s * ui for xi, ui in zip(x, u))
    return w if G.nvars == cfg.m else cfg.section.to_ambient(w)


def nontrivial_generator_check(G: GeneratorSet, degree: int) -> ClaimRecord:
    """Some generator of the claimed degree is nonzero at one point of the sphere.

    Every multiple of Nm vanishes on the sphere, so a generator f with
    f(w) != 0 at a point w of the sphere (`sphere_witness_point`, checked to
    lie on it exactly) is not a multiple of Nm.  On e7, w lies in the section
    hyperplane, so f is not trivial on the section either.  The degree is
    exact: f vanishes on X, a t-design, and is nontrivial, so
    deg f >= t//2 + 1 = ``degree``, while deg f is at most ``p.degree()``,
    which counts the factors of a FactoredPoly.
    """
    w = sphere_witness_point(G)
    candidates = list(G.items)
    if G.stream_count:
        candidates.append(G.streamed(0))
    found = dot(w, w) == G.r2 and next(
        (label for label, p in candidates if p.degree() == degree and p.eval(w) != 0),
        None,
    )
    return ClaimRecord(
        f"{G.name}.nontrivial-degree-{degree}",
        PASS if found else FAIL,
        FULL,
        [] if found else [("no nontrivial generator of degree", degree)],
        detail=f"witness generator: {found}" if found else "",
    )


def assemble_certificate(
    cfg: SphericalConfiguration,
    degree: int,
    components: Dict[str, ClaimRecord],
    design: Optional[DesignStrengthResult] = None,
    groebner_certified: bool = False,
) -> VerificationReport:
    """Combine component checks into the per-theorem claim records.

    ``degree`` is the top degree of the generators the components checked.
    components must hold the vanishing, jacobian, and nontrivial records
    (support.* records fold into part i); the design result drives part iii,
    which holds when ``degree`` meets the lower bound the strength forces.
    Claims are named by the configuration's ``theorem`` label, or by its
    name when it declares none.  Raises MissingCheckError when a
    prerequisite is absent.  Each part keeps the mode of the checks it rests
    on: part iv rests on parts i to iii, so it is sampled when any of them
    is; a sampled check is never promoted.
    """
    name, label = cfg.name, cfg.theorem or cfg.name
    theorem = f"thm{cfg.theorem}" if cfg.theorem else name
    report = VerificationReport(name)

    def need(key: str) -> ClaimRecord:
        if key not in components:
            raise MissingCheckError(f"certificate for {name} needs the {key} check")
        return components[key]

    vanish = need("vanishing")
    support = [components[k] for k in sorted(components) if k.startswith("support")]
    part_i_ok = vanish.passed and all(rec.passed for rec in support)
    report.add(
        ClaimRecord(
            f"{theorem}.i",
            PASS if part_i_ok else FAIL,
            vanish.mode,
            [],
            detail="vanishing + zero-set support: "
            + ", ".join([vanish.claim_id] + [rec.claim_id for rec in support]),
        )
    )

    jac = need("jacobian")
    report.add(
        ClaimRecord(
            f"{theorem}.ii", jac.status, jac.mode, jac.witnesses, jac.detail
        )
    )

    if design is None:
        raise MissingCheckError(f"certificate for {name} needs the design result")
    nontriv = need("nontrivial")
    design_id = f"design.{label}.t{design.t}"
    lower = design.t // 2 + 1
    iii_ok = design.passed and nontriv.passed and degree == lower
    if degree != lower:
        found = f"the generators' top degree {degree} misses it"
    elif not nontriv.passed:
        found = f"no non-trivial generator of degree {degree} found"
    else:
        found = f"non-trivial generator of degree {degree} meets it"
    report.add(
        ClaimRecord(
            f"{theorem}.iii",
            PASS if iii_ok else FAIL,
            design.mode,
            [],
            detail=f"strength {design.t} forces degree >= {lower}; {found}"
            + ("" if design.passed else f"; {design_id} fails"),
        )
    )

    level = LEVEL_FULL_GROEBNER if groebner_certified else LEVEL_PAPER
    failed = [part for part, ok in (("i", part_i_ok), ("ii", jac.passed), ("iii", iii_ok)) if not ok]
    iv_mode = SAMPLED if SAMPLED in (vanish.mode, jac.mode, design.mode) else FULL
    if failed:
        rests = f"fails on part{'s' if len(failed) > 1 else ''} {', '.join(failed)}"
    else:
        rests = "radicality from the simple-zero pass"
    report.add(
        ClaimRecord(
            f"{theorem}.iv",
            FAIL if failed else PASS,
            iv_mode,
            [],
            detail=f"ideal generated in degree <= {degree} at level {level}; {rests}",
        )
    )
    report.certificate_level = level
    report.add(
        ClaimRecord(
            design_id, PASS if design.passed else FAIL, design.mode, [], detail=design.detail()
        )
    )
    return report

