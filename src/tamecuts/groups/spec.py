"""Group family descriptors and their standard generating sets.

Five families are supported, each with exact canonical-form arithmetic:

* ``free_abelian``      Z^d with unit-vector generators e1..ed
* ``semidirect_zd``     Z^d semidirect Z, twisted by an integer matrix A with
                        det A = +-1; generators e1..ed and the twist t
* ``pq``                Z[1/pq] semidirect Z for coprime p, q, realized as
                        2x2 matrices [[(p/q)^k, P], [0, 1]]; generators s
                        (diagonal) and t (unit translation)
* ``lamplighter``       Z_p wr Z; generators a (increment the lamp at the
                        cursor) and t (move the cursor)
* ``baumslag_solitar``  BS(p,q) = <a, t | t a^p t^-1 = a^q>; generators a, t

Generator symbols are closed under formal inversion: the inverse of ``s`` is
written ``s^-1``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..errors import InputError
from . import intmat

FREE_ABELIAN = "free_abelian"
SEMIDIRECT_ZD = "semidirect_zd"
PQ = "pq"
LAMPLIGHTER = "lamplighter"
BAUMSLAG_SOLITAR = "baumslag_solitar"

FAMILIES = (FREE_ABELIAN, SEMIDIRECT_ZD, PQ, LAMPLIGHTER, BAUMSLAG_SOLITAR)

# the parameters that name a group of each family, in serialization order
_FIELDS = {
    FREE_ABELIAN: ("d",),
    SEMIDIRECT_ZD: ("matrix",),
    PQ: ("p", "q"),
    LAMPLIGHTER: ("p",),
    BAUMSLAG_SOLITAR: ("p", "q"),
}


@dataclass(frozen=True)
class GroupSpec:
    """Immutable description of one concrete group."""

    family: str
    d: int | None = None
    matrix: intmat.IntMatrix | None = None
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        if self.family == FREE_ABELIAN:
            if not isinstance(self.d, int) or self.d < 1:
                raise InputError("free_abelian requires dimension d >= 1")
        elif self.family == SEMIDIRECT_ZD:
            if self.matrix is None:
                raise InputError("semidirect_zd requires an integer matrix")
            mat = intmat.as_int_matrix(self.matrix)
            object.__setattr__(self, "matrix", mat)
            object.__setattr__(self, "d", len(mat))
            if intmat.det(mat) not in (1, -1):
                raise InputError("semidirect_zd matrix must have determinant +-1")
        elif self.family == PQ:
            if not (isinstance(self.p, int) and isinstance(self.q, int)
                    and self.p >= 1 and self.q >= 1):
                raise InputError("pq requires positive integers p, q")
            if math.gcd(self.p, self.q) != 1:
                raise InputError(f"pq requires gcd(p, q) = 1, got ({self.p}, {self.q})")
        elif self.family == LAMPLIGHTER:
            if not isinstance(self.p, int) or self.p < 2:
                raise InputError("lamplighter requires lamp modulus p >= 2")
        elif self.family == BAUMSLAG_SOLITAR:
            if not (isinstance(self.p, int) and isinstance(self.q, int)
                    and self.p >= 1 and self.q >= 1):
                raise InputError("baumslag_solitar requires positive integers p, q")
        else:
            raise InputError(f"unknown group family {self.family!r}")

    # constructors

    @classmethod
    def free_abelian(cls, d: int) -> "GroupSpec":
        return cls(FREE_ABELIAN, d=d)

    @classmethod
    def semidirect_zd(cls, matrix) -> "GroupSpec":
        return cls(SEMIDIRECT_ZD, matrix=intmat.as_int_matrix(matrix))

    @classmethod
    def pq(cls, p: int, q: int) -> "GroupSpec":
        return cls(PQ, p=p, q=q)

    @classmethod
    def lamplighter(cls, p: int) -> "GroupSpec":
        return cls(LAMPLIGHTER, p=p)

    @classmethod
    def baumslag_solitar(cls, p: int, q: int) -> "GroupSpec":
        return cls(BAUMSLAG_SOLITAR, p=p, q=q)

    # generating set

    def base_symbols(self) -> tuple[str, ...]:
        """Generator symbols without their formal inverses, in fixed order."""
        from .elements import family_ops  # elements imports this module
        return tuple(family_ops(self).base_generators)

    def symbols(self) -> tuple[str, ...]:
        """All generator symbols, each immediately followed by its inverse."""
        out: list[str] = []
        for s in self.base_symbols():
            out.append(s)
            out.append(s + "^-1")
        return tuple(out)

    # serialization

    def to_dict(self) -> dict:
        out: dict = {"family": self.family}
        for name in _FIELDS[self.family]:
            value = getattr(self, name)
            out[name] = ([list(row) for row in value] if name == "matrix"
                         else value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GroupSpec":
        family = data.get("family")
        if family not in FAMILIES:
            raise InputError(f"unknown group family {family!r}")
        return cls(family, **{name: data[name] for name in _FIELDS[family]})

    def spec_hash(self) -> str:
        """Stable short hash used to key ball-cache files."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]

    def label(self) -> str:
        if self.family == FREE_ABELIAN:
            return f"Z^{self.d}"
        if self.family == SEMIDIRECT_ZD:
            return f"Z^{self.d} x| Z (A={self.matrix})"
        if self.family == PQ:
            return f"Z[1/{self.p * self.q}] x| Z (p={self.p}, q={self.q})"
        if self.family == LAMPLIGHTER:
            return f"Z_{self.p} wr Z"
        return f"BS({self.p},{self.q})"
