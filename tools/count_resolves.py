"""Count the domain solves and the region checks of one pass of a
perfbench catalog, per move.

    python3 tools/count_resolves.py CATALOG        # corpus or bounds

Runs every operation of the catalog once, in catalog order (for `bounds`,
after writing its maps to a temporary directory, which is not counted),
with counting wrappers installed at run time on surfmap's moves, on
RegionChecks.__init__, on RibbonFacts.walk_key, on moves.checked_tiling,
on the domain solves (whole and derived) and the region ties they
resolve, on ParityUF.union, on TransverseMap.own and
TransverseMap.replace, on RibbonFacts.derive, on
RibbonFacts.table_problem and on RibbonFacts.vertex_charts, as
perfbench/tracer.py installs its spans; nothing under src/ has hooks.
Prints one row per move kind, what is done outside any move under
"(none)":

* moves: the calls of the move;
* checks: the RegionChecks built (RegionChecks.__init__, the one
  constructor, so a lift's disks, whose circuits take their answers
  from the one-sheeted lift, count too); those of the lift
  (map_from_cover, add_pinch) and of a load's first check count under
  "(none)";
* walks: the circuits walked to find their answers
  (RibbonFacts.walk_key).  A join, an insert or a relocation keeps the
  facts and takes the answers of the circuits its new regions share
  with those it replaces, so it reads 0;
* whole solves: the domain solves made from scratch (transverse._solve),
  each for the tiling of a checked map state (Tiling.domain_solve), one
  per state that is measured: a map without a parent solve, a collapse
  or a surgery (they derive new facts), and a derived solve whose
  certificate failed;
* derived solves: the domain solves derived from the solve of the
  state a join, an insert or a relocation was made on
  (transverse._derive_solve), whose spanning forest certified them;
* certificate failures: the derived solves that the parent's forest did
  not certify, each then made from scratch (it counts under whole solves
  too);
* ties resolved: the regions whose ties were resolved by the chart
  flips (transverse._ties), the misses of the ties memoized per ribbon
  facts.  A join or an insert keeps the facts, so it resolves those of
  the at most three regions it adds; a collapse or a surgery derives new
  facts, so it resolves those of every linked region (one with other
  than one distinct tie);
* tables owned: the dart tables copied to be written (TransverseMap.own
  on a shared table).  A move that keeps the tables (a join, an insert,
  a relocation) shares its input's, so it reads 0;
* replaces: the edit records a move writes (TransverseMap.replace, the
  one way a map's regions and circles change).  Each move makes its
  region and circle edits in one call, so each reads 1 per move; the
  lift's disks and a pinch count under "(none)";
* entry checks: the checks moves.checked_tiling ran because the map it
  was given, a move's input or the join finder's or normalize's (these
  two count under "(none)"), had no current tiling.  Every map a pass
  hands them carries the tiling of its last check, so it reads 0;
* uncarried: the facts RibbonFacts.derive made new without carrying
  its parent's over (origin None), which compute every fact from the
  tables and whose map is checked from scratch.  A collapse deletes
  whole vertices and rewires bands, a surgery rewires bands only, and
  derive carries after both, so each reads 0;
* unions: the ParityUF.union calls made inside the domain solves, one
  for each tie of a linked region but its first: of every linked region
  in a whole solve, of the regions that came in a derived one;
* table checks: the whole-table passes over the dart tables for their
  axioms (RibbonFacts.table_problem computed from the tables).  Facts
  derived after a collapse or a surgery read the axioms at the changed
  darts only (RibbonFacts._tables_hold), so each reads 0;
* charts: the searches of the whole graph for its components and chart
  flips (RibbonFacts.vertex_charts), which every solve under new dart
  tables makes.
"""

from __future__ import annotations

import functools
import os
import sys
import tempfile
from collections import Counter, defaultdict
from types import MappingProxyType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from surfmap import moves, transverse, unionfind  # noqa: E402

import workloads  # noqa: E402
from tracer import MOVES  # noqa: E402

COLUMNS = ("moves", "checks", "walks", "whole solves", "derived solves",
           "certificate failures", "ties resolved", "tables owned", "replaces",
           "entry checks", "uncarried", "unions", "table checks", "charts")


class Counts:
    """Wrappers that count, per innermost move, what the solves did."""

    def __init__(self):
        self.rows = defaultdict(Counter)
        self.move = ["(none)"]
        self._saved = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        counts = self

        def moved(name, fn):
            def wrapper(*args, **kwargs):
                counts.rows[name]["moves"] += 1
                counts.move.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts.move.pop()
            return wrapper

        for name in MOVES:
            self._set(moves, name, moved(name, getattr(moves, name)))

        checks_init = transverse.RegionChecks.__init__

        def built(checks, *args):
            counts.rows[counts.move[-1]]["checks"] += 1
            checks_init(checks, *args)

        self._set(transverse.RegionChecks, "__init__", built)

        walk_key = transverse.RibbonFacts.walk_key

        def walked(facts, seq):
            counts.rows[counts.move[-1]]["walks"] += 1
            return walk_key(facts, seq)

        self._set(transverse.RibbonFacts, "walk_key", walked)

        checked_tiling = moves.checked_tiling

        def entry(tm, context):
            if tm.tiling() is None:
                counts.rows[counts.move[-1]]["entry checks"] += 1
            return checked_tiling(tm, context)

        self._set(moves, "checked_tiling", entry)

        own = transverse.TransverseMap.own

        def owned(tm, *names):
            counts.rows[counts.move[-1]]["tables owned"] += sum(
                getattr(tm, name).__class__ is MappingProxyType for name in names)
            return own(tm, *names)

        self._set(transverse.TransverseMap, "own", owned)

        replace = transverse.TransverseMap.replace

        def replaced(tm, *args, **kwargs):
            counts.rows[counts.move[-1]]["replaces"] += 1
            return replace(tm, *args, **kwargs)

        self._set(transverse.TransverseMap, "replace", replaced)

        derive = transverse.RibbonFacts.derive.__func__

        def derived(cls, parent, tm):
            out = derive(cls, parent, tm)
            if out is not parent and out.origin is None:
                counts.rows[counts.move[-1]]["uncarried"] += 1
            return out

        self._set(transverse.RibbonFacts, "derive", classmethod(derived))

        inside = []            # per open solve

        def solving(fn, column):
            def solve(*args):
                inside.append(True)
                try:
                    out = fn(*args)
                finally:
                    inside.pop()
                row = counts.rows[counts.move[-1]]
                row[column if out is not None else "certificate failures"] += 1
                return out
            return solve

        union = unionfind.ParityUF.union

        def united(uf, *args):
            if inside:
                counts.rows[counts.move[-1]]["unions"] += 1
            return union(uf, *args)

        ties = transverse._ties

        def resolved(*args):
            counts.rows[counts.move[-1]]["ties resolved"] += 1
            return ties(*args)

        def counted(attr, column):
            compute = transverse.RibbonFacts.__dict__[attr].func

            def computed(facts):
                counts.rows[counts.move[-1]][column] += 1
                return compute(facts)

            prop = functools.cached_property(computed)
            prop.__set_name__(transverse.RibbonFacts, attr)
            self._set(transverse.RibbonFacts, attr, prop)

        counted("table_problem", "table checks")
        counted("vertex_charts", "charts")
        self._set(transverse, "_solve", solving(transverse._solve, "whole solves"))
        self._set(transverse, "_derive_solve",
                  solving(transverse._derive_solve, "derived solves"))
        self._set(transverse, "_ties", resolved)
        self._set(unionfind.ParityUF, "union", united)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def count(catalog: str, limit: int = None) -> dict:
    """Move kind -> Counter of COLUMNS over one pass of the catalog (its
    first `limit` operations when given)."""
    if catalog not in ("corpus", "bounds"):
        raise SystemExit(f"CATALOG must be corpus or bounds, not {catalog!r}")
    specs = workloads.catalog(catalog)[:limit]
    with tempfile.TemporaryDirectory() as workdir:
        if catalog == "bounds":
            workloads.bounds_setup(workdir)
            op = lambda spec: workloads.bounds_op(spec, workdir)  # noqa: E731
        else:
            op = workloads.corpus_op
        counts = Counts().install()
        try:
            for spec in specs:
                op(spec)
        finally:
            counts.uninstall()
    return dict(counts.rows)


def table(rows: dict) -> str:
    names = [m for m in MOVES + ("(none)",) if m in rows]
    width = max(map(len, names + ["move"]))
    lines = ["  ".join(["move".ljust(width)] + list(COLUMNS))]
    for name in names:
        row = rows[name]
        lines.append("  ".join([name.ljust(width)] + [str(row[c]).rjust(len(c))
                                                       for c in COLUMNS]))
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    print(table(count(argv[0])))


if __name__ == "__main__":
    main()
