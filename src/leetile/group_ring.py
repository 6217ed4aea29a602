"""Exact integer group-ring arithmetic over a finite abelian group.

An element is a sparse formal sum of group elements with integer
coefficients; zero coefficients are never stored.  Multiplication is the
convolution product.  The power map sends every group element g appearing
in the sum to its t-fold multiple, merging coefficients on collision.

Values are immutable after construction, so they can be shared freely.

A test reference only, not exported from ``leetile``; it stays in ``src``
because ``bench/tracing.py`` imports it unguarded to patch ``__mul__``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .abelian_groups import AbelianGroup, GroupElement
from .errors import LeeTileError


class GroupMismatchError(LeeTileError, ValueError):
    """Two operands live in different groups."""


def _check_coefficient(c) -> None:
    # exactly int, as for residues: bool is an int subclass
    if type(c) is not int:
        raise ValueError(f"coefficient {c!r} is not an int")


class GroupRingElement:
    __slots__ = ("group", "_coeffs")

    def __init__(self, group: AbelianGroup, coefficients: Mapping[GroupElement, int]):
        coeffs = {}
        for g, c in coefficients.items():
            group.check_element(g)
            _check_coefficient(c)
            if c:
                coeffs[g] = c
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def _wrap(cls, group: AbelianGroup, coeffs: dict) -> "GroupRingElement":
        # Internal fast path: caller guarantees valid keys and no zeros.
        obj = object.__new__(cls)
        object.__setattr__(obj, "group", group)
        object.__setattr__(obj, "_coeffs", coeffs)
        return obj

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, group: AbelianGroup) -> "GroupRingElement":
        return cls._wrap(group, {})

    @classmethod
    def singleton(cls, group: AbelianGroup, g: GroupElement, coefficient: int = 1) -> "GroupRingElement":
        group.check_element(g)
        _check_coefficient(coefficient)
        return cls._wrap(group, {g: coefficient} if coefficient else {})

    @classmethod
    def from_set(cls, group: AbelianGroup, elements: Iterable[GroupElement]) -> "GroupRingElement":
        """Coefficient 1 on each listed element.  The input is a set:
        listing an element twice is an error, not a multiplicity."""
        coeffs: dict[GroupElement, int] = {}
        for g in elements:
            group.check_element(g)
            if g in coeffs:
                raise ValueError(f"duplicate element {g!r} in from_set input")
            coeffs[g] = 1
        return cls._wrap(group, coeffs)

    @classmethod
    def all_ones(cls, group: AbelianGroup) -> "GroupRingElement":
        """Coefficient 1 on every element of the group."""
        return cls._wrap(group, {g: 1 for g in group.elements()})

    # -- queries --------------------------------------------------------

    def coefficient(self, g: GroupElement) -> int:
        self.group.check_element(g)
        return self._coeffs.get(g, 0)

    def support(self) -> set[GroupElement]:
        return set(self._coeffs)

    def support_size(self) -> int:
        return len(self._coeffs)

    def coefficient_sum(self) -> int:
        return sum(self._coeffs.values())

    def items(self) -> Iterator[tuple[GroupElement, int]]:
        return iter(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic -----------------------------------------------------

    def _require_same_group(self, other: "GroupRingElement"):
        if self.group != other.group:
            raise GroupMismatchError(
                f"operands live in different groups: {self.group.spec_string()} vs {other.group.spec_string()}"
            )

    def __add__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._require_same_group(other)
        out = dict(self._coeffs)
        for g, c in other._coeffs.items():
            s = out.get(g, 0) + c
            if s:
                out[g] = s
            else:
                out.pop(g, None)
        return GroupRingElement._wrap(self.group, out)

    def __sub__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._require_same_group(other)
        out = dict(self._coeffs)
        for g, c in other._coeffs.items():
            s = out.get(g, 0) - c
            if s:
                out[g] = s
            else:
                out.pop(g, None)
        return GroupRingElement._wrap(self.group, out)

    def __neg__(self):
        return GroupRingElement._wrap(self.group, {g: -c for g, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return GroupRingElement.zero(self.group)
            return GroupRingElement._wrap(self.group, {g: c * other for g, c in self._coeffs.items()})
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._require_same_group(other)
        # Convolution: iterate the smaller support on the outside.
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        add = self.group.add
        out: dict[GroupElement, int] = {}
        for g, cg in a.items():
            for h, ch in b.items():
                k = add(g, h)
                s = out.get(k, 0) + cg * ch
                if s:
                    out[k] = s
                else:
                    del out[k]
        return GroupRingElement._wrap(self.group, out)

    __rmul__ = __mul__

    def power_map(self, t: int) -> "GroupRingElement":
        """Push every supported element g to t*g, keeping coefficients.
        Coefficients of colliding images are summed.  Preserves the
        coefficient sum for any t, including negative t."""
        scale = self.group.scale
        out: dict[GroupElement, int] = {}
        for g, c in self._coeffs.items():
            k = scale(g, t)
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return GroupRingElement._wrap(self.group, out)

    def reduce_coefficients(self, modulus: int) -> "GroupRingElement":
        """Coefficients reduced into [0, modulus); the result is still an
        integer element, there is no modular ring type."""
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        out = {}
        for g, c in self._coeffs.items():
            r = c % modulus
            if r:
                out[g] = r
        return GroupRingElement._wrap(self.group, out)

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group == other.group and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.group, frozenset(self._coeffs.items())))

    def __repr__(self):
        if not self._coeffs:
            return f"GroupRingElement({self.group.spec_string()}, 0)"
        terms = ", ".join(f"{g}: {c}" for g, c in sorted(self._coeffs.items()))
        return f"GroupRingElement({self.group.spec_string()}, {{{terms}}})"
