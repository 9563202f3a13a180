"""Two-prover 3-coloring proof games and their soundness machinery."""

import enum

__version__ = "0.1.0"


class ColorproofError(Exception):
    """Root of the errors the CLI reports as `error: ...` with exit 1; a certificate failure is a bug, not one."""


class GameType(enum.Enum):
    ALT_RZKP = "alt-rzkp"
    ALT_EDGE = "alt-edge"
    BCS = "bcs"
    VERTEX = "vertex"

    # members are singletons, so identity hashing is exact, and it keeps the
    # per-round SPECS lookup off Enum's Python-level __hash__
    __hash__ = object.__hash__
