"""Two-prover 3-coloring proof games and their soundness machinery."""

__version__ = "0.1.0"


class ColorproofError(Exception):
    """Root of the errors the CLI reports as `error: ...` with exit 1; a certificate failure is a bug, not one."""
