"""Elementary Abelian groups Z^a x T^b x Z_N1 x ... x Z_Nc and exact element arithmetic.

Coordinates are exact and this module alone fixes their type: a Python
`int` on Z and Z_N factors (reduced into [0, N) on Z_N), a `Fraction` in
[0, 1) on torus factors.  No floating point enters group arithmetic, so
equality checks are bit-exact, and code outside this module computes with
coordinates as they come.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

#: Refuse to enumerate finite groups larger than this unless overridden.
DEFAULT_ENUM_CAP = 1 << 20

Rational = Fraction | int


class GroupError(ValueError):
    """Malformed group, coordinate outside its domain, or operand mismatch."""


@dataclass(frozen=True)
class Factor:
    """One factor of an elementary Abelian group: Z, T or Z_N.

    The characteristic is 0 for Z, 1 for T and N for Z_N; coordinates on a
    factor are only defined modulo its characteristic.
    """

    kind: str  # "Z" | "T" | "cyclic"
    modulus: int = 0  # N for cyclic factors, 0 otherwise

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "T", "cyclic"):
            raise GroupError(f"unknown factor kind {self.kind!r}")
        if self.kind == "cyclic" and self.modulus < 1:
            raise GroupError(f"cyclic factor needs N >= 1, got {self.modulus}")
        if self.kind != "cyclic" and self.modulus != 0:
            raise GroupError("only cyclic factors carry a modulus")

    @property
    def char(self) -> int:
        if self.kind == "Z":
            return 0
        if self.kind == "T":
            return 1
        return self.modulus

    @property
    def is_finite(self) -> bool:
        return self.kind == "cyclic"

    def dual(self) -> Factor:
        if self.kind == "Z":
            return Factor("T")
        if self.kind == "T":
            return Factor("Z")
        return self

    def reduce_coord(self, value: Rational) -> int | Fraction:
        """Canonical representative: an int on Z, an int in [0, N) on Z_N, a
        Fraction in [0, 1) on T.

        An int goes straight through; any other value (a Fraction, a numpy
        integer, a float) is first taken exactly as a Fraction, and must be
        an integer unless the factor is T.
        """
        if self.kind == "T":
            return Fraction(value) % 1
        if type(value) is not int:
            value = Fraction(value)
            if value.denominator != 1:
                raise GroupError(f"non-integer coordinate {value} on a {self!s} factor")
            value = int(value)
        return value % self.modulus if self.kind == "cyclic" else value

    def __str__(self) -> str:
        if self.kind == "cyclic":
            return f"Z{self.modulus}"
        return self.kind


Z = Factor("Z")
T = Factor("T")


def cyclic(n: int) -> Factor:
    return Factor("cyclic", n)


@dataclass(frozen=True)
class ElementaryGroup:
    """Direct product of Z, T and Z_N factors, in a fixed order."""

    factors: tuple[Factor, ...]

    def __init__(self, factors: Sequence[Factor]) -> None:
        object.__setattr__(self, "factors", tuple(factors))

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return format_group(self)

    @cached_property
    def chars(self) -> tuple[int, ...]:
        return tuple(f.char for f in self.factors)

    @cached_property
    def _cyclic_moduli(self) -> tuple[int, ...] | None:
        """The moduli when every factor is cyclic, else None."""
        if all(f.kind == "cyclic" for f in self.factors):
            return self.chars
        return None

    @property
    def is_finite(self) -> bool:
        return all(f.is_finite for f in self.factors)

    def order(self) -> int:
        if not self.is_finite:
            raise GroupError(f"group {self} is infinite")
        return math.prod(f.modulus for f in self.factors)

    def dual(self) -> ElementaryGroup:
        return ElementaryGroup(tuple(f.dual() for f in self.factors))

    def reduce(self, coords: Sequence[Rational]) -> GroupElement:
        """Canonicalize a raw rational vector into a group element.

        On a group of cyclic factors only, coordinates that are all exactly
        `int` take one `c % n` each; everything else (Z and T factors, bools,
        numpy integers, Fractions) goes through `Factor.reduce_coord`.
        """
        if len(coords) != len(self.factors):
            raise GroupError(
                f"expected {len(self.factors)} coordinates, got {len(coords)}"
            )
        moduli = self._cyclic_moduli
        if moduli is not None:
            for c in coords:
                if type(c) is not int:
                    break
            else:
                return GroupElement(self, tuple(map(operator.mod, coords, moduli)))
        reduced = tuple(f.reduce_coord(c) for f, c in zip(self.factors, coords))
        return GroupElement(self, reduced)

    def element(self, *coords: Rational) -> GroupElement:
        return self.reduce(coords)

    def identity(self) -> GroupElement:
        return GroupElement(self, tuple(f.reduce_coord(0) for f in self.factors))

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> Iterator[GroupElement]:
        """Yield every element exactly once.  Finite groups below `cap` only."""
        order = self.order()
        if order > cap:
            raise GroupError(f"group order {order} exceeds enumeration cap {cap}")
        ranges = [range(f.modulus) for f in self.factors]
        for coords in itertools.product(*ranges):
            yield GroupElement(self, coords)

    def random_element(self, rng) -> GroupElement:
        if not self.is_finite:
            raise GroupError("can only sample finite groups uniformly")
        coords = tuple(int(rng.integers(f.modulus)) for f in self.factors)
        return self.reduce(coords)


def group(*factors: Factor) -> ElementaryGroup:
    return ElementaryGroup(factors)


def cyclic_group(*moduli: int) -> ElementaryGroup:
    return ElementaryGroup(tuple(cyclic(n) for n in moduli))


@dataclass(frozen=True)
class GroupElement:
    """Element of an ElementaryGroup, with canonical coordinates: an int on
    each Z and Z_N factor, a Fraction in [0, 1) on each T factor."""

    group: ElementaryGroup
    coords: tuple[int | Fraction, ...]

    def _check_same_group(self, other: GroupElement) -> None:
        if self.group is not other.group and self.group != other.group:
            raise GroupError(f"group mismatch: {self.group} vs {other.group}")

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check_same_group(other)
        return self.group.reduce([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._check_same_group(other)
        return self.group.reduce([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> GroupElement:
        return self.group.reduce([-a for a in self.coords])

    def __mul__(self, k: int) -> GroupElement:
        return self.group.reduce([a * k for a in self.coords])

    __rmul__ = __mul__

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self) -> str:
        return format_element(self)


_FACTOR_RE = re.compile(r"^(Z|T)(?:_?(\d+))?(?:\^(\d+))?$")


def parse_group(text: str) -> ElementaryGroup:
    """Parse a group from text like "Z^2 x T x Z4 x Z9".

    Grammar: factors separated by "x"; each factor is `Z` (integers),
    `T` (torus), or `Z<N>` / `Z_<N>` (cyclic of order N), optionally raised
    to an integer power with `^k`.  The trivial group is written "1".
    """
    text = text.strip()
    if text in ("1", ""):
        return ElementaryGroup(())
    factors: list[Factor] = []
    for part in re.split(r"\s*[x×]\s*", text):
        m = _FACTOR_RE.match(part.strip())
        if m is None:
            raise GroupError(f"cannot parse group factor {part!r}")
        kind, modulus, power = m.groups()
        if kind == "T" and modulus is not None:
            raise GroupError(f"cannot parse group factor {part!r}")
        factor = cyclic(int(modulus)) if modulus is not None else Factor(kind)
        factors.extend([factor] * (int(power) if power else 1))
    return ElementaryGroup(tuple(factors))


def format_group(g: ElementaryGroup) -> str:
    if not g.factors:
        return "1"
    parts: list[str] = []
    for factor, run in itertools.groupby(g.factors):
        count = len(list(run))
        name = str(factor)
        parts.append(name if count == 1 else f"{name}^{count}")
    return " x ".join(parts)


def parse_element(text: str, g: ElementaryGroup) -> GroupElement:
    """Parse an element from text like "(5, 1/4, 3)"."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise GroupError(f"element must be parenthesized, got {text!r}")
    inner = text[1:-1].strip()
    parts = [p.strip() for p in inner.split(",")] if inner else []
    parts = [p for p in parts if p]
    if len(parts) != len(g.factors):
        raise GroupError(
            f"expected {len(g.factors)} coordinates, got {len(parts)} in {text!r}"
        )
    return g.reduce([Fraction(p) for p in parts])


def format_element(el: GroupElement) -> str:
    return "(" + ", ".join(str(c) for c in el.coords) + ")"
