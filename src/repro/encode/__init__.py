"""Encoders for LDPC codes.

:class:`~repro.encode.systematic.SystematicEncoder` works for any
parity-check matrix (it encodes through H's systematic form, which the
matrix derives once by GF(2) row reduction);
:class:`~repro.encode.qc_encoder.QCCirculantEncoder` exploits the
circulant structure of Quasi-Cyclic codes and models the linear-complexity
shift-register encoder the paper attributes to the QC construction.
"""

from repro.encode.qc_encoder import QCCirculantEncoder, derive_circulant_generator
from repro.encode.systematic import SystematicEncoder

__all__ = ["SystematicEncoder", "QCCirculantEncoder", "derive_circulant_generator"]
