"""In-memory span tracer wrapped around phiring's layer entry points.

The wrappers are installed from outside the package, after import: each
entry point is replaced, in every phiring module that binds it, by a
function that records a span (name, start, end, parent) in flat arrays.
A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time spent inside
the outermost spans.  ``PolyExtElement.__mul__`` is hot enough that it is
only counted, and its time stays with the span that called it.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter


def _num_relations(pres) -> int:
    return len(pres.relations)


# (module, attribute, span name, (counter, measure of the result) or None).
# Several entry points may share a span name; their self times add up.
# build_phi_presentation calls line_presentation, so only the inner one counts.
ENTRY_POINTS = (
    ("cli", "config_from_args", "cli", None),
    ("cli", "run", "cli", None),
    ("phi", "verify_phi", "phi.verify", None),
    ("phi", "build_phi_presentation", "phi.build", None),
    ("phi", "line_presentation", "phi.build", ("phi.relations", _num_relations)),
    ("charspace", "zero_sum_triples", "charspace.zero_sum_triples", ("charspace.triples", len)),
    ("superalg", "quotient_dimension", "superalg.quotient", None),
    ("oracle", "subring_hilbert", "oracle.hilbert", None),
    ("oracle", "span_rank", "oracle.span_rank", None),
    ("oracle", "embed", "oracle.embed", None),
    ("rograde", "localized_hilbert", "rograde.localize", None),
    ("rograde", "ro_table", "rograde.ro_table", None),
    ("rograde", "ro_dimension", "rograde.ro_dimension", None),
)

# A RowReducer belongs to the nearest enclosing span of one of these; the
# rows of a reducer with no such span are neither spanned nor counted.
REDUCER_OWNERS = {"superalg.quotient": "superalg", "oracle.span_rank": "oracle"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._mul_calls = [0]
        # id(reducer) -> [owner, ncols, rows fed, rank].  A record whose id
        # is reused by a new reducer moves to _retired first.
        self._reducers: dict[int, list] = {}
        self._retired: list[list] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn, counter):
        nid = self._nid(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                key, measure = counter
                counts[key] = counts.get(key, 0) + measure(result)
            return result

        return wrapper

    def _owner(self) -> str | None:
        for idx in reversed(self._stack):
            owner = REDUCER_OWNERS.get(self.names[self.span_name[idx]])
            if owner is not None:
                return owner
        return None

    def install(self) -> None:
        """Wrap the entry points of every layer; call once, after import."""
        mods = {
            name.rpartition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name.startswith("phiring.") and mod is not None
        }
        for mod_name, attr, span, counter in ENTRY_POINTS:
            original = getattr(mods[mod_name], attr)
            wrapped = self._spanned(span, original, counter)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        self._wrap_reducer(mods["modp"].RowReducer)
        self._wrap_polyext(mods["oracle"].PolyExtElement)

    def _wrap_reducer(self, cls) -> None:
        init, add_row = cls.__init__, cls.add_row
        reducers, retired = self._reducers, self._retired
        row_nid = {owner: self._nid("modp.%s.add_row" % owner)
                   for owner in REDUCER_OWNERS.values()}

        def traced_init(red, ncols, p):
            init(red, ncols, p)
            old = reducers.get(id(red))
            if old is not None:
                retired.append(old)
            reducers[id(red)] = [self._owner(), ncols, 0, 0]

        def traced_add_row(red, items):
            rec = reducers[id(red)]
            if rec[0] is None:  # its time stays with the enclosing span
                return add_row(red, items)
            idx = self._open(row_nid[rec[0]])
            try:
                grew = add_row(red, items)
            finally:
                self._close(idx)
            rec[2] += 1
            if grew:
                rec[3] += 1
            return grew

        cls.__init__ = traced_init
        cls.add_row = traced_add_row

    def _wrap_polyext(self, cls) -> None:
        mul, calls = cls.__mul__, self._mul_calls

        def counted_mul(a, b):
            calls[0] += 1
            return mul(a, b)

        cls.__mul__ = counted_mul

    def summary(self) -> dict:
        """Self time and span count per span name, the time covered by
        outermost spans, and the counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        self_s = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        outer_s = 0.0
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            self_s[name] += dur - child[i]
            calls[name] += 1
            if self.span_parent[i] < 0:
                outer_s += dur
        counts = dict(self.counts)
        counts["oracle.polyext_mul_calls"] = self._mul_calls[0]
        reducers = self._retired + list(self._reducers.values())
        for owner in REDUCER_OWNERS.values():
            mine = [r for r in reducers if r[0] == owner]
            counts["modp.%s.rows_fed" % owner] = sum(r[2] for r in mine)
            counts["modp.%s.rank" % owner] = sum(r[3] for r in mine)
            counts["modp.%s.cols_max" % owner] = max((r[1] for r in mine), default=0)
        counts["modp.pivot_bytes"] = max(
            (r[3] * r[1] * 8 for r in reducers if r[0] is not None), default=0
        )
        return {"self_s": self_s, "calls": calls, "outer_s": outer_s, "counts": counts}
