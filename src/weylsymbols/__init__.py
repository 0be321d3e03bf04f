"""Symbol combinatorics for Weyl-group representations and class invariants.

The package computes, for the classical families, the special irreducible
representations of a Weyl group together with their numeric invariants, the
stratification of unipotent classes with component-group data, and the
truncated-induction maps relating the two; it verifies the resulting
bijection exhaustively at desk scale and ships validated tables for the
exceptional types. Everything is exact integer arithmetic on tuples.

``import weylsymbols`` loads ``errors``, ``seqcomb``, ``irreps``,
``jinduction``, ``springer`` and ``exceptional``.  The verification
engine, ``engine``, and the character-theory oracle, ``oracle``, load on
first use of one of their exported names (``RANK_FLOOR``,
``VerificationReport``, ``bar_S``, ``fa``, ``fc``, ``verify``; ``b_oracle``,
``character_table``, ``induction_multiplicity``, ``j_oracle``) or of the
submodule itself; the command line, ``weylsymbols.cli``, loads the engine
for every run, and the suites behind ``lemmas`` and ``oracle-check``, with
the oracle, load only when one of those runs.
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
from .springer import (
    ClassInvariants,
    ClassLabel,
    class_invariants,
    enumerate_classes,
    tau,
    tau_fiber,
)

__version__ = "0.1.0"

# each name bound on first use -> the submodule it comes from
_LAZY = {
    **dict.fromkeys(("engine", "RANK_FLOOR", "VerificationReport", "bar_S",
                     "fa", "fc", "verify"), "engine"),
    **dict.fromkeys(("oracle", "b_oracle", "character_table",
                     "induction_multiplicity", "j_oracle"), "oracle"),
}

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
    """Import a lazy submodule on first use of one of its exported names,
    or of the submodule itself, and bind the value here so later reads
    skip this."""
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
