"""Registered code families: the ``code`` axis of the campaign registry.

Each entry wraps one of the concrete constructions in this package behind a
flat keyword interface so :class:`~repro.sim.campaign.spec.CodeSpec` (and
the ``components`` CLI) can build and document it symbolically:

* ``ccsds-c2`` — the paper's full (8176, 7156) code; a ``circulant``
  override builds the scaled structural twin instead (the spec's ``key``
  reflects that, so stored curves never claim the full code's results);
* ``scaled`` — the smaller structural twin directly (``circulant`` is
  required).

Third-party families register through the same decorator
(:func:`repro.registry.register_code`); any parameter their builder accepts
from the ``(circulant, rate, params)`` vocabulary of ``CodeSpec`` becomes
spec-addressable.
"""

from __future__ import annotations

from repro.codes.ccsds_c2 import (
    CCSDS_C2_CIRCULANT_SIZE,
    build_ccsds_c2_code,
    build_scaled_ccsds_code,
)
from repro.registry import Param, register_code

__all__ = []  # nothing to export: importing this module registers the families


@register_code(
    "ccsds-c2",
    params=[
        Param(
            "circulant",
            "int",
            doc=f"circulant size; omitted or {CCSDS_C2_CIRCULANT_SIZE} builds "
            "the full code, anything else its scaled structural twin",
        ),
    ],
    summary="The paper's (8176, 7156) CCSDS near-earth C2 code",
)
def _build_ccsds_c2_family(circulant: int | None = None):
    if circulant in (None, CCSDS_C2_CIRCULANT_SIZE):
        return build_ccsds_c2_code()
    return build_scaled_ccsds_code(circulant)


@register_code(
    "scaled",
    params=[
        Param(
            "circulant",
            "int",
            required=True,
            doc="circulant size of the scaled twin (e.g. 31, 63)",
        ),
    ],
    summary="Scaled structural twin of the CCSDS C2 code (fast to simulate)",
)
def _build_scaled_family(circulant: int):
    return build_scaled_ccsds_code(circulant)

