"""Exact group arithmetic, word metrics, and ball enumeration."""

from .balls import (
    DEFAULT_BUDGET,
    Ball,
    CosetSection,
    ball,
    coset_section,
    subgroup_ball,
    word_length,
)
from .cache import BallCache
from .elements import (
    Element,
    canonicalize,
    embed_j2,
    generator,
    generators,
    identity,
    invert,
    multiply,
    subgroup_membership,
    t_length,
)
from .spec import FAMILIES, GroupSpec

__all__ = [
    "FAMILIES",
    "GroupSpec",
    "Element",
    "Ball",
    "BallCache",
    "CosetSection",
    "DEFAULT_BUDGET",
    "ball",
    "canonicalize",
    "coset_section",
    "embed_j2",
    "generator",
    "generators",
    "identity",
    "invert",
    "multiply",
    "subgroup_ball",
    "subgroup_membership",
    "t_length",
    "word_length",
]
