"""Symbol combinatorics for Weyl-group representations and class invariants.

The package computes, for the classical families, the special irreducible
representations of a Weyl group together with their numeric invariants, the
stratification of unipotent classes with component-group data, and the
truncated-induction maps relating the two; it verifies the resulting
bijection exhaustively at desk scale and ships validated tables for the
exceptional types. Everything is exact integer arithmetic on tuples.

``import weylsymbols`` loads ``errors``, ``seqcomb``, ``irreps``,
``jinduction``, ``oracle``, ``springer`` and ``exceptional``.  The
verification engine, ``engine``, loads on first use of one of its names
(``RANK_FLOOR``, ``VerificationReport``, ``bar_S``, ``fa``, ``fc``,
``verify``) or of ``weylsymbols.engine`` itself; the command line,
``weylsymbols.cli``, loads it for every run, and the suites behind
``lemmas`` and ``oracle-check`` load only when one of those runs.
"""

from __future__ import annotations

import importlib

from .errors import (
    DomainError,
    InvariantError,
    NotFoundError,
    OracleError,
    ResourceError,
    ValidationError,
    WeylSymbolsError,
)
from .exceptional import ExceptionalRow, load_tables, lookup, validate_tables
from .irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    SpecialRep,
    b_invariant,
    canonicalize,
    dimension,
    is_special,
    special_f,
    special_reps,
)
from .jinduction import EMBED_KINDS, Embedding, f_product, j_induce
from .oracle import b_oracle, character_table, induction_multiplicity, j_oracle
from .springer import (
    ClassInvariants,
    ClassLabel,
    class_invariants,
    enumerate_classes,
    tau,
    tau_fiber,
)

__version__ = "0.1.0"

# the names of engine that the package exports, bound on first use
_ENGINE_NAMES = frozenset(
    ("RANK_FLOOR", "VerificationReport", "bar_S", "fa", "fc", "verify"))

__all__ = [
    "ClassInvariants",
    "ClassLabel",
    "DomainError",
    "EMBED_KINDS",
    "Embedding",
    "ExceptionalRow",
    "FAMILY_A",
    "FAMILY_BC",
    "FAMILY_D",
    "InvariantError",
    "IrrLabel",
    "NotFoundError",
    "OracleError",
    "RANK_FLOOR",
    "ResourceError",
    "SpecialRep",
    "ValidationError",
    "VerificationReport",
    "WeylSymbolsError",
    "b_invariant",
    "b_oracle",
    "bar_S",
    "canonicalize",
    "character_table",
    "class_invariants",
    "dimension",
    "enumerate_classes",
    "f_product",
    "fa",
    "fc",
    "induction_multiplicity",
    "is_special",
    "j_induce",
    "j_oracle",
    "load_tables",
    "lookup",
    "special_f",
    "special_reps",
    "tau",
    "tau_fiber",
    "validate_tables",
    "verify",
]


def __getattr__(name: str) -> object:
    """Import engine on first use of one of its exported names, or of the
    submodule itself, and bind the value here so later reads skip this."""
    if name != "engine" and name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    engine = importlib.import_module(".engine", __name__)
    value = engine if name == "engine" else getattr(engine, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
