"""Encoders for LDPC codes.

:class:`~repro.encode.systematic.SystematicEncoder` works for any
parity-check matrix: it encodes through H's systematic form, which the
matrix derives once by GF(2) row reduction.
"""

from repro.encode.systematic import SystematicEncoder

__all__ = ["SystematicEncoder"]
