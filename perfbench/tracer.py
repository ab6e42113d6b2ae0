"""Outside-in tracing of surfmap's public functions.

`Tracer.install()` replaces each traced function with a wrapper that
records one span per call: operation id, name, parent span, start, end
(process CPU time, in ns, like the end-to-end metrics), whether it
raised, and how many `MonodromyCover` objects were built during it.  The wrappers are installed on the module attributes and
class attributes at run time, and on every other surfmap module that
imported the same function by name, so nothing under `src/` changes.
`uninstall()` puts the originals back.

Spans stay in memory (one flat `array` of int64) and are written out
once, when the run ends.  `per_layer()` derives the per-layer metrics:
self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from surfmap import cli, contours, covers, factorize, moves, surfaces, transverse

FIELDS = ("op", "name", "parent", "start_cpu_ns", "end_cpu_ns", "raised",
          "covers_built")
_W = len(FIELDS)

MOVES = ("collapse_edge", "join_isolated_circle", "boundary_surgery",
         "relocate_crosscap", "insert_trivial_circle")
# Called directly under a move's span, these are the move's self-check.
CHECKS = ("transverse.validate_map", "transverse.chi_domain",
          "transverse.domain_orientable", "transverse.mod2_degree",
          "transverse.edge_count")

# (module, attribute) for module-level functions.  Permutation helpers and
# other leaf arithmetic are left out: a span there would cost more than the
# work it times.
FUNCTIONS = (
    (covers, ("random_cover", "assemble_total_space", "cover_connected")),
    (transverse, ("validate_map", "chi_domain", "domain_orientable", "mod2_degree",
                  "classify_circuit", "edge_count", "map_from_cover", "add_pinch",
                  "signed_degree")),
    (moves, MOVES + ("normalize", "is_normal")),
    (factorize, ("factorize", "geometric_degree", "verify_kneser")),
    (contours, ("synthesize_contour",)),
)
# (class, method, span name)
METHODS = (
    (covers.MonodromyCover, "validate", "covers.MonodromyCover.validate"),
    (transverse.TransverseMap, "edge_keys", "transverse.TransverseMap.edge_keys"),
    (transverse.TransverseMap, "trace_circuits",
     "transverse.TransverseMap.trace_circuits"),
    (transverse.TransverseMap, "copy", "transverse.TransverseMap.copy"),
    (transverse.TransverseMap, "from_json", "transverse.TransverseMap.from_json"),
    (transverse.TransverseMap, "to_json", "transverse.TransverseMap.to_json"),
    (surfaces.Triangulation, "from_json", "surfaces.Triangulation.from_json"),
    (surfaces.Triangulation, "validate", "surfaces.Triangulation.validate"),
)
CLI_SUBCOMMANDS = ("generate.composite", "generate.scramble", "analyze.degree",
                   "analyze.kneser", "analyze.factorize", "analyze.normalize")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + ".".join(argv[:2]) if argv else "cli.main"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.rows = array("q")
        self.stack = []
        self.op = -1
        self.covers_built = 0
        self._saved = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        """A span-recording wrapper; `name` is a str or a function of the
        call's (args, kwargs) returning one."""
        tracer = self
        fixed = self.name_id(name) if isinstance(name, str) else None
        now = time.process_time_ns

        def traced(*args, **kwargs):
            rows, stack = tracer.rows, tracer.stack
            nid = fixed if fixed is not None else tracer.name_id(name(args, kwargs))
            idx = len(rows) // _W
            rows.extend((tracer.op, nid, stack[-1] if stack else -1, 0, 0, 1, 0))
            stack.append(idx)
            built = tracer.covers_built
            start = now()
            try:
                result = fn(*args, **kwargs)
                rows[idx * _W + 5] = 0
                return result
            finally:
                end = now()
                stack.pop()
                base = idx * _W
                rows[base + 3] = start
                rows[base + 4] = end
                rows[base + 6] = tracer.covers_built - built

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "surfmap" or n.startswith("surfmap.")]
        for module, names in FUNCTIONS:
            for attr in names:
                orig = getattr(module, attr)
                wrapper = self.wrap(orig, f"{_short(module)}.{attr}")
                # every surfmap module that bound the function by name
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._set(m, k, wrapper)
        for cls, attr, span in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(raw.__func__, span)))
            else:
                self._set(cls, attr, self.wrap(raw, span))
        self._set(cli, "main", self.wrap(cli.main, _cli_name))
        init = covers.MonodromyCover.__init__

        def counting_init(obj, *args, **kwargs):
            self.covers_built += 1
            init(obj, *args, **kwargs)

        self._set(covers.MonodromyCover, "__init__", counting_init)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def write(self, stem: str):
        """`<stem>.spans` holds the rows as native int64, `<stem>.json`
        the field layout and the name table."""
        with open(stem + ".spans", "wb") as fh:
            self.rows.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"fields": list(FIELDS), "itemsize": self.rows.itemsize,
                       "byteorder": sys.byteorder, "names": self.names,
                       "spans": len(self.rows) // _W}, fh, indent=1)
            fh.write("\n")

    def per_layer(self) -> dict:
        rows, n = self.rows, len(self.rows) // _W
        names = self.names
        calls = [0] * len(names)
        total = [0] * len(names)
        child = [0] * n
        check = [0] * n
        raised = [0] * len(names)
        built = [0] * len(names)
        check_ids = {self._ids[c] for c in CHECKS if c in self._ids}
        for i in range(n):
            b = i * _W
            nid, parent = rows[b + 1], rows[b + 2]
            dur = rows[b + 4] - rows[b + 3]
            calls[nid] += 1
            total[nid] += dur
            raised[nid] += rows[b + 5]
            built[nid] += rows[b + 6]
            if parent >= 0:
                child[parent] += dur
                if nid in check_ids:
                    check[parent] += dur
        self_ns = [0] * len(names)
        check_ns = [0] * len(names)
        # a random_cover span that raised before building any cover was
        # refused; one that raised after building some ran out of tries
        refused = exhausted = 0
        rc = self._ids.get("covers.random_cover")
        fz = self._ids.get("factorize.factorize")
        mv = self._ids.get("covers.MonodromyCover.validate")
        placement_validate = 0
        for i in range(n):
            b = i * _W
            nid = rows[b + 1]
            self_ns[nid] += rows[b + 4] - rows[b + 3] - child[i]
            check_ns[nid] += check[i]
            if nid == rc and rows[b + 5]:
                if rows[b + 6]:
                    exhausted += 1
                else:
                    refused += 1
            if nid == mv and fz is not None:
                p = rows[b + 2]
                while p >= 0 and rows[p * _W + 1] != fz:
                    p = rows[p * _W + 2]
                placement_validate += p >= 0

        def get(name, field):
            nid = self._ids.get(name)
            if nid is None:
                return 0.0 if field.endswith("_s") else 0
            return {"calls": calls[nid], "time_s": total[nid] / 1e9,
                    "self_s": self_ns[nid] / 1e9, "check_s": check_ns[nid] / 1e9,
                    "raised": raised[nid], "built": built[nid]}[field]

        out = {}

        def put(name, unit, value):
            out[name] = {"value": value, "unit": unit}

        tries = get("covers.random_cover", "built")
        accepted = get("covers.random_cover", "calls") - get("covers.random_cover",
                                                              "raised")
        put("covers.random_cover.calls", "count", get("covers.random_cover", "calls"))
        put("covers.random_cover.time_s", "s", get("covers.random_cover", "time_s"))
        put("covers.random_cover.tries", "count", tries)
        put("covers.random_cover.accept_ratio", "ratio",
            accepted / tries if tries else 0.0)
        put("covers.random_cover.exhausted", "count", exhausted)
        put("covers.random_cover.refused", "count", refused)
        put("covers.assemble_total_space.time_s", "s",
            get("covers.assemble_total_space", "time_s"))
        put("covers.MonodromyCover.validate.calls", "count",
            get("covers.MonodromyCover.validate", "calls"))
        put("covers.MonodromyCover.validate.time_s", "s",
            get("covers.MonodromyCover.validate", "time_s"))
        put("covers.cover_connected.time_s", "s", get("covers.cover_connected", "time_s"))
        for f in ("validate_map", "chi_domain", "domain_orientable", "mod2_degree",
                  "classify_circuit"):
            name = "transverse." + f
            put(name + ".calls", "count", get(name, "calls"))
            put(name + ".time_s", "s", get(name, "time_s"))
            put(name + ".self_s", "s", get(name, "self_s"))
        for f in ("map_from_cover", "add_pinch", "signed_degree"):
            put(f"transverse.{f}.time_s", "s", get("transverse." + f, "time_s"))
        for f in ("edge_keys", "trace_circuits", "copy", "from_json", "to_json"):
            name = "transverse.TransverseMap." + f
            put(name + ".calls", "count", get(name, "calls"))
            put(name + ".time_s", "s", get(name, "time_s"))
        move_time = move_check = 0.0
        for m in MOVES:
            name = "moves." + m
            t, c = get(name, "time_s"), get(name, "check_s")
            move_time += t
            move_check += c
            put(name + ".calls", "count", get(name, "calls"))
            put(name + ".time_s", "s", t)
            put(name + ".check_s", "s", c)
            put(name + ".body_s", "s", t - c)
        put("moves.normalize.calls", "count", get("moves.normalize", "calls"))
        put("moves.normalize.time_s", "s", get("moves.normalize", "time_s"))
        put("moves.normalize.self_s", "s", get("moves.normalize", "self_s"))
        put("moves.is_normal.time_s", "s", get("moves.is_normal", "time_s"))
        put("moves.check_share", "ratio", move_check / move_time if move_time else 0.0)
        for f in ("factorize", "geometric_degree", "verify_kneser"):
            put(f"factorize.{f}.time_s", "s", get("factorize." + f, "time_s"))
        put("factorize.placement_validate_calls", "count", placement_validate)
        for f in ("from_json", "validate"):
            name = "surfaces.Triangulation." + f
            put(name + ".calls", "count", get(name, "calls"))
            put(name + ".time_s", "s", get(name, "time_s"))
        for sub in CLI_SUBCOMMANDS:
            name = "cli." + sub
            put(name + ".calls", "count", get(name, "calls"))
            put(name + ".time_s", "s", get(name, "time_s"))
        put("contours.synthesize_contour.time_s", "s",
            get("contours.synthesize_contour", "time_s"))
        put("trace.spans", "count", n)
        return out
