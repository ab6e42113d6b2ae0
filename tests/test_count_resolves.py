"""tools/count_resolves.py over the first operations of the corpus catalog."""

import importlib.util
from pathlib import Path

from surfmap import moves, transverse, unionfind
from surfmap.surfaces import BUILTIN_NAMES, builtin_triangulation
from surfmap.transverse import TransverseMap

from helpers import builtin_example

ROOT = Path(__file__).resolve().parent.parent


def _count_resolves():
    spec = importlib.util.spec_from_file_location("count_resolves",
                                                  ROOT / "tools" / "count_resolves.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build_lifts():
    """The one-sheeted lifts the lifts are checked by, built and solved
    once per base, outside the count."""
    for name in BUILTIN_NAMES:
        transverse.identity_map(builtin_triangulation(name))


def test_counts_of_the_first_corpus_maps():
    tool = _count_resolves()
    _build_lifts()
    originals = (moves.join_isolated_circle, moves.checked_tiling, transverse._solve,
                 transverse._derive_solve, transverse._ties,
                 transverse.RegionChecks.__init__, transverse.TransverseMap.own,
                 transverse.TransverseMap.replace)
    charts = transverse.RibbonFacts.__dict__["vertex_charts"]
    table_problem = transverse.RibbonFacts.__dict__["table_problem"]
    derive = transverse.RibbonFacts.__dict__["derive"]
    walk_key = transverse.RibbonFacts.__dict__["walk_key"]
    union = unionfind.ParityUF.union
    rows = tool.count("corpus", limit=4)
    assert (moves.join_isolated_circle, moves.checked_tiling, transverse._solve,
            transverse._derive_solve, transverse._ties,
            transverse.RegionChecks.__init__, transverse.TransverseMap.own,
            transverse.TransverseMap.replace) == originals
    assert set(rows) == set(tool.MOVES) | {"(none)"}
    joins = rows["join_isolated_circle"]
    # each move's check solves its result once, from the tiling: from
    # scratch after a collapse or a surgery (new facts), derived from its
    # input's solve after a join or a relocation, and after an insert too,
    # which also derives the solve of a pinched map it is the first to
    # measure (one more than the inserts); map_from_cover solves each map
    # once.  None of these maps fails the certificate.  A solve unites
    # each region's ties with its first one and gives the regions no
    # node, and a derived solve unites those of the regions that came
    # only: 89 unions, where whole solves made 335 and a node per region
    # 557
    solves = {name: tuple(row[column] for column in (
        "moves", "whole solves", "derived solves", "certificate failures", "unions"))
        for name, row in rows.items()}
    assert solves == {"collapse_edge": (8, 8, 0, 0, 6),
                      "join_isolated_circle": (27, 0, 27, 0, 47),
                      "boundary_surgery": (2, 2, 0, 0, 0),
                      "relocate_crosscap": (2, 0, 2, 0, 0),
                      "insert_trivial_circle": (27, 0, 30, 0, 36),
                      "(none)": (0, 4, 0, 0, 0)}
    for name in ("collapse_edge", "boundary_surgery"):
        # a solve under new dart tables searches the graph, and resolves
        # the ties of every linked region (these surgeries'
        # results have none)
        assert rows[name]["charts"] == rows[name]["moves"]
    assert rows["collapse_edge"]["ties resolved"] > 0
    # the edits a collapse and a surgery make are the ones derived facts
    # carry the parent's over for
    for name in ("collapse_edge", "boundary_surgery"):
        assert rows[name]["moves"] > 0 and rows[name]["uncarried"] == 0
    # moves that keep the dart tables resolve the ties of the regions they
    # add only
    for name in ("join_isolated_circle", "insert_trivial_circle"):
        assert 0 < rows[name]["ties resolved"] <= 3 * rows[name]["moves"]
    # moves that keep the dart tables keep the facts and their charts, and
    # share the tables: none copies one to write it
    assert joins["charts"] == rows["insert_trivial_circle"]["charts"] == 0
    for name in ("join_isolated_circle", "insert_trivial_circle", "relocate_crosscap"):
        assert rows[name]["moves"] > 0 and rows[name]["tables owned"] == 0
    # a collapse writes all five tables, a surgery the pairing and the signs
    assert rows["collapse_edge"]["tables owned"] == 5 * rows["collapse_edge"]["moves"]
    assert rows["boundary_surgery"]["tables owned"] == 2 * rows["boundary_surgery"]["moves"]
    assert rows["(none)"]["charts"] == 4
    # every move writes one edit record, its new circles included; outside
    # the moves, each of the 4 lifts writes one and each of the 3 pinches
    for name in tool.MOVES:
        assert rows[name]["replaces"] == rows[name]["moves"] > 0, name
    assert rows["(none)"]["replaces"] == 7
    # every map a move, the join finder or normalize is given carries
    # the tiling of its last check
    assert all(row["entry checks"] == 0 for row in rows.values())
    # a move builds RegionChecks only for the regions it makes
    inserts = rows["insert_trivial_circle"]
    assert 0 < inserts["checks"] <= 3 * inserts["moves"]
    # a move that keeps the dart tables walks none of its new regions'
    # circuits: it takes their answers from the regions it replaces; a
    # collapse walks those it retraces
    for name in ("join_isolated_circle", "insert_trivial_circle", "relocate_crosscap"):
        assert rows[name]["checks"] > 0 and rows[name]["walks"] == 0
    assert rows["collapse_edge"]["walks"] > 0
    # facts derived after a collapse or a surgery read the table axioms at
    # the changed darts only (_tables_hold): no whole-table pass
    for name in ("collapse_edge", "boundary_surgery"):
        assert rows[name]["table checks"] == 0
    assert rows["(none)"]["table checks"] > 0
    lines = tool.table(rows).splitlines()
    assert lines[0].split()[:10] == ["move", "moves", "checks", "walks", "whole", "solves",
                                     "derived", "solves", "certificate", "failures"]
    assert lines[0].split()[-1] == "charts"
    assert len(lines) == 1 + len(rows)
    assert transverse.RibbonFacts.__dict__["vertex_charts"] is charts
    assert transverse.RibbonFacts.__dict__["table_problem"] is table_problem
    assert transverse.RibbonFacts.__dict__["derive"] is derive
    assert transverse.RibbonFacts.__dict__["walk_key"] is walk_key
    assert unionfind.ParityUF.union is union


def test_joins_whose_certificate_fails_are_solved_from_scratch():
    """Over the first 19 corpus maps, five joins change a relation that
    their input's forest carried (one of them: the circle joined was tied
    to the graph and to a circle beside it by the two regions it bounded,
    and the regions that came tie that circle to the graph with the
    other parity), so each is solved from scratch; every other join and
    insert, and every relocation, derives its solve."""
    tool = _count_resolves()
    _build_lifts()
    rows = tool.count("corpus", limit=19)
    solves = {name: tuple(row[column] for column in (
        "moves", "whole solves", "derived solves", "certificate failures"))
        for name, row in rows.items()}
    assert solves == {"collapse_edge": (40, 40, 0, 0),
                      "join_isolated_circle": (196, 5, 191, 5),
                      "boundary_surgery": (10, 10, 0, 0),
                      "relocate_crosscap": (6, 0, 6, 0),
                      "insert_trivial_circle": (192, 0, 208, 0),
                      "(none)": (0, 19, 0, 0)}


def test_entry_checks_count_the_maps_checked_for_their_tiling():
    """A map read back from its document has no tiling: normalize checks
    it on entry, under "(none)", and its moves then read the tiling."""
    tool = _count_resolves()
    fold = builtin_example("fold_degree_zero")
    counts = tool.Counts().install()
    try:
        moves.normalize(TransverseMap.from_json(fold.to_json()))
    finally:
        counts.uninstall()
    assert counts.rows["(none)"]["entry checks"] == 1
    assert counts.rows["collapse_edge"]["moves"] > 0
    assert sum(row["entry checks"] for row in counts.rows.values()) == 1
