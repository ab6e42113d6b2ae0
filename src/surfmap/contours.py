"""Node-free apparent-contour data synthesized from a decomposition.

Each branch point of index i contributes a fold circle with i+2 cusps;
a collapsed handle contributes a 4-cusp fold per handle; a collapsed
crosscap contributes two 1-cusp folds.  The contour never needs nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphLike, InputError
from .factorize import Decomposition

# The most folds a contour is built with.  A map's pinches may have any
# number of handles or crosscaps, one or two folds each, while the
# CLI's generators make contours of a few dozen folds at most.
MAX_FOLDS = 100_000

# The figure enumerating the crosscap collapse lists two one-cusp fold
# curves while the running text mentions a single cusped curve around the
# fold; the explicit enumeration wins and the choice is recorded in the
# output metadata.
_CROSSCAP_NOTE = ("crosscap collapse emits two one-cusp folds per crosscap "
                  "(component enumeration convention)")


@dataclass(frozen=True)
class Fold:
    cusps: int
    origin: str          # "branch" | "handle_pinch" | "moebius_pinch"


@dataclass
class ApparentContour:
    folds: list = field(default_factory=list)
    nodes: int = 0
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"type": "contour",
                "folds": [{"cusps": f.cusps, "origin": f.origin} for f in self.folds],
                "nodes": self.nodes,
                "notes": list(self.notes)}


def synthesize_contour(decomp: Decomposition) -> ApparentContour:
    if decomp.variant != "pinched_cover":
        raise GraphLike("no contour convention for degree-zero maps")
    count = len(decomp.branch_indices) + sum(
        piece.kind.handles if piece.kind.orientable else 2 * piece.kind.crosscaps
        for piece in decomp.pinches)
    if count > MAX_FOLDS:
        raise InputError(f"the contour would have {count} folds, "
                         f"more than the {MAX_FOLDS} allowed")
    folds = []
    for i in decomp.branch_indices:
        folds.append(Fold(i + 2, "branch"))
    notes = []
    for piece in decomp.pinches:
        if piece.kind.orientable:
            folds.extend(Fold(4, "handle_pinch") for _ in range(piece.kind.handles))
        else:
            folds.extend(Fold(1, "moebius_pinch")
                         for _ in range(2 * piece.kind.crosscaps))
            if _CROSSCAP_NOTE not in notes:
                notes.append(_CROSSCAP_NOTE)
    return ApparentContour(folds=folds, nodes=0, notes=notes)
