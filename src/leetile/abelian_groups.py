"""Finite abelian groups in invariant-factor form, enumeration of all
isomorphism classes of a given order, and Smith-normal-form quotients of
integer lattices.

Elements are plain tuples of residues, one per invariant factor, each
reduced into [0, d_i).  The group object carries the arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import FactorizationError, SingularMatrixError

GroupElement = tuple[int, ...]

_TRIAL_BOUND = 10**6  # trial division limit; rho handles cofactors up to its 4th power
_RHO_ATTEMPTS = 64  # Pollard rho polynomial constants tried per composite cofactor

# Deterministic Miller-Rabin witness set, valid for all inputs < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group Z_{d1} x ... x Z_{dk} with d1 | d2 | ... | dk.

    The invariant factors are the canonical identity of the group: two
    groups are isomorphic exactly when their factor tuples agree.  Trivial
    factors (d = 1) are never stored; the trivial group has an empty tuple.
    Instances are immutable and safe to share.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2 (drop trivial factors)")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain: {factors}")

    @cached_property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @cached_property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def identity(self) -> GroupElement:
        return (0,) * self.rank

    def contains(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == self.rank
            and all(isinstance(r, int) and 0 <= r < d for r, d in zip(g, self.invariant_factors))
        )

    def check_element(self, g) -> GroupElement:
        if not self.contains(g):
            raise ValueError(f"{g!r} is not an element of {self.spec_string()}")
        return g

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return tuple(map(operator.mod, map(operator.add, g, h), self.invariant_factors))

    def neg(self, g: GroupElement) -> GroupElement:
        return tuple(-a % d for a, d in zip(g, self.invariant_factors))

    def scale(self, g: GroupElement, t: int) -> GroupElement:
        """t-fold sum of g; t may be negative or zero."""
        return tuple((a * t) % d for a, d in zip(g, self.invariant_factors))

    def elements(self) -> Iterator[GroupElement]:
        """All elements in lexicographic order of their residue tuples."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def element_index(self, g: GroupElement) -> int:
        """Position of g in the lexicographic enumeration."""
        idx = 0
        for r, d in zip(g, self.invariant_factors):
            idx = idx * d + r
        return idx

    def is_cyclic(self) -> bool:
        return self.rank <= 1

    def spec_string(self) -> str:
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.invariant_factors)

    @classmethod
    def from_cyclic_orders(cls, orders: Sequence[int]) -> "AbelianGroup":
        """Canonical invariant-factor form of a direct product of cyclic
        groups of the given orders (in any order, chained or not)."""
        exps: dict[int, list[int]] = {}
        for m in orders:
            if m < 1:
                raise ValueError(f"cyclic order must be >= 1, got {m}")
            for p, e in factorize(m).items():
                exps.setdefault(p, []).append(e)
        return cls(_assemble_invariant_factors(exps))

    @classmethod
    def from_spec(cls, text: str) -> "AbelianGroup":
        """Parse a group spec string: ``Z13``, ``Z5xZ5`` or ``5,5``."""
        text = text.strip()
        if not text:
            raise ValueError("empty group spec")
        if text[0] in "zZ":
            parts = re.split(r"[xX]", text)
            orders = []
            for part in parts:
                m = re.fullmatch(r"[zZ](\d+)", part.strip())
                if not m:
                    raise ValueError(f"bad group spec {text!r}")
                orders.append(int(m.group(1)))
        else:
            try:
                orders = [int(tok) for tok in text.split(",")]
            except ValueError:
                raise ValueError(f"bad group spec {text!r}") from None
        return cls.from_cyclic_orders(orders)


def _is_probable_prime(m: int) -> bool:
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _pollard_rho(m: int, seed: int) -> int:
    """Floyd-cycle rho with deterministic parameters; returns a nontrivial
    factor of composite odd m, or m itself when this seed fails."""
    x = seed % m
    y = x
    c = seed
    d = 1
    while d == 1:
        x = (x * x + c) % m
        y = (y * y + c) % m
        y = (y * y + c) % m
        if x == y:
            return m
        d = math.gcd(abs(x - y), m)
    return d


def factorize(m: int) -> dict[int, int]:
    """Prime factorization of m >= 1 as {prime: exponent}.

    Trial division runs up to 10**6.  A remaining cofactor is accepted
    outright when it passes a deterministic primality test.  A composite
    cofactor is attacked with Pollard rho only while it is at most 10**24
    (its smallest prime factor is then at most 10**12, which rho digs out
    in about 10**6 steps); anything larger is rejected explicitly instead
    of factoring for an unbounded time.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    p = 5
    step = 2
    while p <= _TRIAL_BOUND and p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += step
        step = 6 - step
    if m == 1:
        return out
    if p * p > m or _is_probable_prime(m):
        out[m] = out.get(m, 0) + 1
        return out
    # Composite cofactor with no factor below the trial bound.
    stack = [m]
    while stack:
        c = stack.pop()
        if _is_probable_prime(c):
            out[c] = out.get(c, 0) + 1
            continue
        if c > _TRIAL_BOUND**4:
            raise FactorizationError(f"order too large to factor: cofactor {c} exceeds bound {_TRIAL_BOUND}**4")
        for attempt in range(1, _RHO_ATTEMPTS + 1):
            d = _pollard_rho(c, attempt)
            if 1 < d < c:
                stack.extend((d, c // d))
                break
        else:
            raise FactorizationError(f"order too large to factor: rho failed on {c}")
    return out


def _partitions(k: int) -> list[tuple[int, ...]]:
    """Partitions of k as descending tuples, in descending lex order
    ([k] first, [1,...,1] last)."""
    if k == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(k, k, ())
    return out


def _assemble_invariant_factors(exps: dict[int, list[int]]) -> tuple[int, ...]:
    """Combine per-prime exponent lists into an ascending divisibility
    chain.  The largest exponents of every prime are aligned into the last
    factor, the next-largest into the one before, and so on."""
    if not exps:
        return ()
    length = max(len(v) for v in exps.values())
    padded = {}
    for p, v in exps.items():
        asc = sorted(v)
        padded[p] = [0] * (length - len(asc)) + asc
    factors = []
    for j in range(length):
        d = math.prod(p ** padded[p][j] for p in padded)
        if d > 1:
            factors.append(d)
    return tuple(factors)


def enumerate_groups(order: int) -> list[AbelianGroup]:
    """One representative per isomorphism class of abelian groups of the
    given order, in canonical invariant-factor form.

    Deterministic order: fewer invariant factors first, then lexicographic
    on the factor tuple, so the cyclic group always comes first.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    fac = factorize(order)
    primes = sorted(fac)
    choices = [_partitions(fac[p]) for p in primes]
    forms = set()
    for combo in itertools.product(*choices):
        forms.add(_assemble_invariant_factors({p: list(part) for p, part in zip(primes, combo)}))
    return [AbelianGroup(f) for f in sorted(forms, key=lambda f: (len(f), f))]


# ---------------------------------------------------------------------------
# Integer matrices: Smith normal form and lattice quotients.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeBasis:
    """An n x n integer matrix whose columns generate a sublattice of Z^n.

    Stored row-wise; ``column(j)`` reads generator j.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("basis matrix must be square and nonempty")

    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "LatticeBasis":
        cols = [tuple(int(v) for v in c) for c in columns]
        n = len(cols)
        return cls(tuple(tuple(c[i] for c in cols) for i in range(n)))

    @classmethod
    def from_text(cls, text: str) -> "LatticeBasis":
        """Parse either the whitespace format (first token n, then n*n
        integers row by row) or a JSON array of rows."""
        stripped = text.lstrip()
        if stripped.startswith("[") or stripped.startswith("{"):
            import json

            try:
                data = json.loads(text)
            except RecursionError:
                raise ValueError("JSON basis is nested too deeply") from None
            if isinstance(data, dict):
                if "rows" not in data:
                    raise ValueError("JSON basis object needs a \"rows\" key")
                data = data["rows"]
            if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
                raise ValueError("JSON basis must be a list of rows, each a list of integers")
            if not all(isinstance(v, int) and not isinstance(v, bool) for row in data for v in row):
                raise ValueError("JSON basis entries must be integers")
            return cls(tuple(tuple(row) for row in data))
        tokens = text.split()
        if not tokens:
            raise ValueError("empty basis file")
        n = int(tokens[0])
        if len(tokens) != 1 + n * n:
            raise ValueError(f"expected {n * n} entries after the dimension, got {len(tokens) - 1}")
        vals = [int(t) for t in tokens[1:]]
        return cls(tuple(tuple(vals[i * n : (i + 1) * n]) for i in range(n)))

    @classmethod
    def from_file(cls, path) -> "LatticeBasis":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


def smith_normal_form(matrix) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Smith normal form of a square nonsingular integer matrix.

    Returns (D, U) with U*M*V = D for some unimodular V, which is not kept;
    D is diagonal with d1 | d2 | ... and all diagonal entries positive, and
    U is unimodular.  The elimination runs on the augmented rows [M | I]:
    row operations act on whole rows and so carry U along in the right
    half, while column operations touch only the M half.  The pivot is
    always the smallest nonzero absolute value in the remaining submatrix,
    ties broken by row-major position, which makes the output
    deterministic.  A singular matrix runs out of nonzero pivots and raises
    SingularMatrixError.
    """
    rows = getattr(matrix, "rows", matrix)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a = [[*map(int, r), *(int(i == j) for j in range(n))] for i, r in enumerate(rows)]

    for k in range(n):
        while True:
            pivot = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    val = abs(a[i][j])
                    if val and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            pi, pj = pivot
            a[k], a[pi] = a[pi], a[k]
            if pj != k:
                for row in a:
                    row[k], row[pj] = row[pj], row[k]
            p = a[k][k]
            for i in range(k + 1, n):
                if a[i][k]:
                    q = a[i][k] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // p
                    for row in a:
                        row[j] -= q * row[k]
            if any(a[i][k] for i in range(k + 1, n)) or any(a[k][j] for j in range(k + 1, n)):
                continue  # remainders left smaller entries; re-pick the pivot
            # Pivot must divide the whole remaining submatrix for the
            # divisibility chain; folding an offending row in and retrying
            # shrinks the pivot.
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]

    return tuple(tuple(r[:n]) for r in a), tuple(tuple(r[n:]) for r in a)


def quotient_map(basis: LatticeBasis) -> tuple[AbelianGroup, tuple[GroupElement, ...]]:
    """The finite abelian group Z^n / (basis * Z^n) together with the images
    of the n standard basis vectors under the projection.

    The induced homomorphism x -> sum x_i * image_i has the column lattice
    as its kernel and is surjective onto the returned group.
    """
    d, u = smith_normal_form(basis.rows)
    n = basis.n
    keep = [i for i in range(n) if d[i][i] != 1]
    group = AbelianGroup(tuple(d[i][i] for i in keep))
    images = tuple(
        tuple(u[i][j] % d[i][i] for i in keep) for j in range(n)
    )
    return group, images


def project(group: AbelianGroup, images: Sequence[GroupElement], vector: Sequence[int]) -> GroupElement:
    """Apply the quotient homomorphism to an integer vector."""
    acc = group.identity()
    for coord, img in zip(vector, images):
        if coord:
            acc = group.add(acc, group.scale(img, coord))
    return acc
