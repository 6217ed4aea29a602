"""Finite abelian groups in invariant-factor form, enumeration of all
isomorphism classes of a given order, and Smith-normal-form quotients of
integer lattices.

Group specs reach invariant-factor form by gcd and lcm alone (``_chain``);
only ``enumerate_groups`` factors an order into primes.

Elements are plain tuples of residues, one per invariant factor, each
reduced into [0, d_i).  The group object carries the arithmetic, the
lexicographic element index (``strides``) and the carry-free integer codes
(``sum_codes``) that the search, the verifier and the profiles count on;
``GroupRingElement`` is their reference in the tests.  Integer inputs must
be ``int`` exactly: a float or a bool is rejected, never coerced.  The
element operations ``add`` and ``neg`` run once per sphere point in the
verifier, so they check nothing: they take elements that ``check_element``
(or the group's own arithmetic) has produced.  ``scale`` and
``scaled_indices`` check their multiplier.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import FactorizationError, SingularMatrixError

GroupElement = tuple[int, ...]

_TRIAL_BOUND = 10**6  # trial division limit; rho handles cofactors up to its 4th power
_RHO_ATTEMPTS = 64  # Pollard rho polynomial constants tried per composite cofactor

# Miller-Rabin witness set, the first 13 primes: deterministic below about
# 3.3e24 (see ``_is_prime``).  Without 41 it is only below about 3.19e23,
# where 318665857834031151167461 = 399165290221 * 798330580441 passes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Bases 2 .. _LUCAS_BASES - 1 are tried for the Lucas test's witnesses.  The
# least base that is not a q-th power mod a prime m is a prime, in practice
# a small one, so for a prime m the first few bases serve every q.
_LUCAS_BASES = 1000


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
        factors = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if type(d) is not int or d < 2:
                raise ValueError(f"invariant factor {d!r} is not an int >= 2 (drop trivial factors)")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain: {factors}")
        # The index data, built once: plain attributes, not fields, so that
        # ==, hash and repr see the invariant factors alone.  rank is the
        # number of factors and order their product; strides[i] is the
        # product of the factors after i, so g has lexicographic index
        # sum(g_i * strides[i]); exponent is the last factor (1 for the
        # trivial group).
        order, strides = 1, []
        for d in reversed(factors):
            strides.append(order)
            order *= d
        strides.reverse()
        vars(self).update(
            rank=len(factors), order=order, strides=tuple(strides), exponent=factors[-1] if factors else 1
        )

    def identity(self) -> GroupElement:
        return (0,) * self.rank

    def contains(self, g) -> bool:
        if not isinstance(g, tuple) or len(g) != self.rank:
            return False
        for r, d in zip(g, self.invariant_factors):
            if type(r) is not int or not 0 <= r < d:
                return False
        return True

    def check_element(self, g) -> GroupElement:
        if not self.contains(g):
            raise ValueError(f"{g!r} is not an element of {self.spec_string()}")
        return g

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g + h, for elements already checked by ``check_element``."""
        return tuple(map(operator.mod, map(operator.add, g, h), self.invariant_factors))

    def neg(self, g: GroupElement) -> GroupElement:
        """-g, for an element already checked by ``check_element``."""
        return tuple(map(operator.mod, map(operator.neg, g), self.invariant_factors))

    def scale(self, g: GroupElement, t: int) -> GroupElement:
        """t-fold sum of a checked element g; t is an int and may be
        negative or zero."""
        _check_multiplier(t)
        return tuple([a * t % d for a, d in zip(g, self.invariant_factors)])

    def elements(self) -> Iterator[GroupElement]:
        """All elements in lexicographic order of their residue tuples."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def element_index(self, g: GroupElement) -> int:
        """Position of g in the lexicographic enumeration."""
        return sum(map(operator.mul, g, self.strides))

    def element_at(self, index: int) -> GroupElement:
        """Element at position index of the lexicographic enumeration; the
        inverse of ``element_index``."""
        return tuple([index // s % d for s, d in zip(self.strides, self.invariant_factors)])

    def scaled_indices(self, t: int) -> list[int]:
        """Element index of t*g for every g, in element-index order."""
        _check_multiplier(t)
        axes = [[t * r % d * s for r in range(d)] for d, s in zip(self.invariant_factors, self.strides)]
        indices, *rest = axes or [[0]]  # the trivial group: [0]
        for axis in rest:
            indices = [i + a for i in indices for a in axis]
        return indices

    def sum_codes(self) -> tuple[list[int], list[int]]:
        """Integer codes under which adding two elements never carries.

        code(g) = sum(g_i * weights[i]) gives residue i a digit of width
        2 d_i - 1, wide enough to hold the sum of two residues, so code(a) +
        code(b) is the code of the unreduced sum of a and b.  fold maps each
        such sum to the lexicographic index of the reduced sum a + b.
        """
        factors = self.invariant_factors
        weights, width = [], 1
        for d in reversed(factors):
            weights.append(width)
            width *= 2 * d - 1
        weights.reverse()
        first, *rest = factors or (1,)  # the trivial group as Z1: fold is [0]
        fold = [*range(first), *range(first - 1)]
        for d in rest:
            wrap = [*range(d), *range(d - 1)]
            fold = [f * d + r for f in fold for r in wrap]
        return weights, fold

    def is_cyclic(self) -> bool:
        return self.rank <= 1

    def spec_string(self) -> str:
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.invariant_factors)

    @classmethod
    def from_cyclic_orders(cls, orders: Sequence[int]) -> "AbelianGroup":
        """Canonical invariant-factor form of a direct product of cyclic
        groups of the given orders (in any order, chained or not), found by
        gcd and lcm alone: no order is factored, so any size is taken."""
        for m in orders:
            if type(m) is not int or m < 1:
                raise ValueError(f"cyclic order {m!r} is not an int >= 1")
        return cls(_chain(orders))

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


def _check_multiplier(t) -> None:
    if type(t) is not int:
        raise ValueError(f"multiplier {t!r} is not an int")


def _is_prime(m: int) -> bool:
    """Whether m is prime, by Miller-Rabin on ``_MR_BASES``.  That proves
    primality only below 3317044064679887385961981, the least composite
    passing every base, so a number at or above it that passes must also
    pass ``_lucas_proves_prime``."""
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
    return m < 3317044064679887385961981 or _lucas_proves_prime(m)


def _lucas_proves_prime(m: int) -> bool:
    """True when the Lucas test proves m prime; otherwise raise
    ``FactorizationError``.

    m is prime when every prime q dividing m - 1 has a witness a, with
    a^(m-1) = 1 and a^((m-1)/q) != 1 mod m: the order of a then holds q's
    full power in m - 1, so m - 1 divides the order of the unit group and
    no composite m has m - 1 units.  m - 1 is split by ``factorize``
    itself, and the bases tried are 2 to ``_LUCAS_BASES - 1``.  A base with
    a^(m-1) != 1 proves m composite, and then no witness can turn up.
    """
    try:
        open_primes = list(factorize(m - 1))
    except FactorizationError as exc:
        raise FactorizationError(f"order too large to factor: cofactor {m} is not proven prime") from exc
    for a in range(2, _LUCAS_BASES):
        if pow(a, m - 1, m) != 1:
            break
        open_primes = [q for q in open_primes if pow(a, (m - 1) // q, m) == 1]
        if not open_primes:
            return True
    raise FactorizationError(f"order too large to factor: cofactor {m} is not proven prime")


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
    outright when a deterministic Miller-Rabin test proves it prime, which
    it can below about 3.3e24; above that a cofactor the test passes is
    proven prime by the Lucas test, with m - 1 factored by this function.
    A composite cofactor is attacked with Pollard rho only while it is at
    most 10**24 (its smallest prime factor is then at most 10**12, which
    rho digs out in about 10**6 steps).  Anything larger, and a cofactor
    the tests pass but cannot prove prime, is rejected explicitly instead
    of factoring for an unbounded time.
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"cannot factor {m!r}: not an int >= 1")
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
    if p * p > m or _is_prime(m):
        out[m] = out.get(m, 0) + 1
        return out
    # Composite cofactor with no factor below the trial bound.
    stack = [m]
    while stack:
        c = stack.pop()
        if _is_prime(c):
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


def _chain(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors of Z_{a_1} x ... x Z_{a_k}, for ints a_i >= 1.

    Z_a x Z_b is Z_gcd(a,b) x Z_lcm(a,b), so replacing each pair (a_i, a_j),
    i < j, by (gcd, lcm) in turn keeps the group, and after i's turn a_i
    divides every later entry: a divisibility chain, whose leading 1s are
    dropped."""
    chain = list(orders)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return tuple([d for d in chain if d > 1])


def enumerate_groups(order: int) -> list[AbelianGroup]:
    """One representative per isomorphism class of abelian groups of the
    given order, in canonical invariant-factor form.

    Deterministic order: fewer invariant factors first, then lexicographic
    on the factor tuple, so the cyclic group always comes first.
    """
    if type(order) is not int or order < 1:
        raise ValueError(f"order must be an int >= 1, got {order!r}")
    fac = factorize(order)
    forms = set()
    for combo in itertools.product(*map(_partitions, fac.values())):
        forms.add(_chain([p**e for p, part in zip(fac, combo) for e in part]))
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
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("basis matrix must be square and nonempty")
        if any(type(v) is not int for r in rows for v in r):
            raise ValueError("basis entries must be ints")

    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "LatticeBasis":
        return cls(tuple(zip(*columns)))

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
            return cls(tuple(tuple(row) for row in data))
        tokens = text.split()
        if not tokens:
            raise ValueError("empty basis file")
        n = int(tokens[0])
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
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
    half, while column operations touch only the M half.  The rows stay
    dense, but each round's work follows the pivot row's nonzeros: they are
    listed once per pivot, each row operation updates only those entries
    in place, and column operations touch only the rows whose pivot-column
    entry is nonzero.  The pivot is always the smallest nonzero absolute
    value in the remaining submatrix, ties broken by row-major position,
    which makes the output deterministic; the scan stops at the first unit,
    which nothing later can beat, and a unit pivot needs no divisibility
    check.  The last round's submatrix is one entry, which is its pivot, so
    that round only fixes the sign.  A singular matrix runs out of nonzero
    pivots and raises SingularMatrixError.

    A ``LatticeBasis`` is taken as it is, its entries having been checked
    when it was built; any other matrix is checked here.
    """
    if isinstance(matrix, LatticeBasis):
        rows = matrix.rows
    else:
        rows = matrix
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        if any(type(v) is not int for r in rows for v in r):
            raise ValueError("matrix entries must be ints")
    n = len(rows)
    a = [[*r, *[0] * i, 1, *[0] * (n - 1 - i)] for i, r in enumerate(rows)]

    for k in range(n - 1):
        while True:
            best = 0
            for i in range(k, n):
                row = a[i]
                for j in range(k, n):
                    val = row[j]
                    if val:
                        if val < 0:
                            val = -val
                        if not best or val < best:
                            best, pi, pj = val, i, j
                            if val == 1:
                                break  # nothing later can beat a unit
                if best == 1:
                    break
            if not best:
                raise SingularMatrixError("matrix is singular")
            a[k], a[pi] = a[pi], a[k]
            if pj != k:
                # rows above k are 0 in columns k..n-1
                for row in a[k:]:
                    row[k], row[pj] = row[pj], row[k]
            pivot_row = a[k]
            p = pivot_row[k]
            # (column, entry) of every nonzero of the pivot row, both halves;
            # the row pass reads them all, the column pass those of M past k.
            nonzero = [(j, v) for j, v in enumerate(pivot_row) if v]
            for i in range(k + 1, n):
                row = a[i]
                if row[k]:
                    q = row[k] // p
                    for j, v in nonzero:
                        row[j] -= q * v
            if best == 1:
                # Every entry below the pivot is now 0, so the column pass
                # changes only the pivot row, and leaves 0 past column k.
                for j, _ in nonzero:
                    if k < j < n:
                        pivot_row[j] = 0
                break  # every remainder mod a unit is 0, and so is every offender
            # the pivot row and every row whose remainder in column k is not 0
            touched = [row for row in a[k:] if row[k]]
            for j, v in nonzero:
                if k < j < n:
                    q = v // p
                    for row in touched:
                        row[j] -= q * row[k]
            if len(touched) > 1 or any(pivot_row[k + 1 : n]):
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
            a[k] = [x + y for x, y in zip(pivot_row, a[offender])]
        if p < 0:
            # the round ends on a column pass, which leaves the pivot row
            # nonzero only where it was when its nonzeros were listed
            for j, _ in nonzero:
                pivot_row[j] = -pivot_row[j]

    if n:  # the last round: the pivot alone, and its sign fix
        last = a[-1]
        if not last[n - 1]:
            raise SingularMatrixError("matrix is singular")
        if last[n - 1] < 0:
            a[-1] = [-x for x in last]
    return tuple([tuple(r[:n]) for r in a]), tuple([tuple(r[n:]) for r in a])


def quotient_map(basis: LatticeBasis) -> tuple[AbelianGroup, tuple[GroupElement, ...]]:
    """The finite abelian group Z^n / (basis * Z^n) together with the images
    of the n standard basis vectors under the projection.

    The induced homomorphism x -> sum x_i * image_i has the column lattice
    as its kernel and is surjective onto the returned group.
    """
    d, u = smith_normal_form(basis)
    n = basis.n
    keep = [i for i in range(n) if d[i][i] != 1]
    factors = tuple([d[i][i] for i in keep])
    # image j is column j of the kept rows of U, each reduced mod its factor
    rows = [[x % f for x in u[i]] for i, f in zip(keep, factors)]
    images = tuple(zip(*rows)) if rows else ((),) * n
    return AbelianGroup(factors), images
