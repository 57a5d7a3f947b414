"""Span recording for the traced benchmark run.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces the
public functions and methods listed in :data:`SPANS` with wrappers that
record one span per call: name, start, end (``perf_counter_ns``) and the
index of the enclosing span.  Spans nest the way the calls do
(``verify`` -> ``correspondence`` -> ``bitableaux`` / ``partitions``).
:meth:`Tracer.uninstall` puts the originals back.

Spans are kept in four flat arrays (24 bytes a span, about 1.5 million spans
for one n = 5 sweep), written out by :meth:`Tracer.write` when the run ends,
and reduced by :meth:`Tracer.summary` to per-name call counts and inclusive
time, and to per-layer self time (inclusive time minus the time of direct
child spans).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("partitions", "bitableaux", "signed_perm", "correspondence", "verify", "cli")

# The calls that get a span: "<layer>.<function>" or "<layer>.<Class>.<method>".
# Cheap accessors (Partition.part, Bitableau.entry, Position(...), row_number,
# ...) are left unwrapped on purpose: they run millions of times per sweep,
# and a span each would cost more than the call itself.  Their time counts
# as self time of whichever span calls them.
SPANS = (
    "partitions.max_gamma",
    "partitions.max_delta",
    "partitions.enumerate_bipartitions",
    "partitions.count_bitableaux",
    "bitableaux.Bitableau.__post_init__",
    "bitableaux.Bitableau.with_box",
    "bitableaux.Bitableau.with_replaced",
    "bitableaux.Bitableau.without_box",
    "bitableaux.Bitableau.truncate",
    "bitableaux.Bitableau.position_of",
    "bitableaux.insertable_positions",
    "bitableaux.available_positions",
    "bitableaux.first_column_insertables",
    "bitableaux.enumerate_standard_bitableaux",
    "signed_perm.SignedPermutation.__post_init__",
    "signed_perm.SignedPermutation.inverse",
    "signed_perm.enumerate_signed_permutations",
    "signed_perm.iota_embed",
    "signed_perm.permutation_inverse",
    "signed_perm.is_mirror_symmetric",
    "signed_perm.derive_w_tilde",
    "correspondence.CorrespondencePair.__post_init__",
    "correspondence.insertion",
    "correspondence.insertion_with_trace",
    "correspondence.reverse_bumping",
    "correspondence.reverse_bumping_with_trace",
    "correspondence.bump_once",
    "correspondence.second_decrement",
    "correspondence.outcome_of_step",
    "verify.iter_pairs",
    "verify.verify_golden_n3",
    "verify.verify_roundtrip",
    "verify.verify_inverse",
    "verify.verify_counting",
    "verify.verify_transition",
    "verify.verify_wtilde",
    "verify.verify_embedding",
    "verify.cells",
    "verify.load_golden_table",
    "verify.run_verifier",
    "cli.run",
    "cli.build_parser",
    "cli.cmd_insert",
    "cli.cmd_bump",
    "cli.cmd_table",
)

# Span families whose outermost calls record their first argument (the word
# or the pair), so that hops and distinct inputs can be counted exactly.
KEYED = ("correspondence.insertion", "correspondence.reverse_bumping")


@dataclass
class NameStats:
    calls: int = 0
    outer_calls: int = 0  # calls not nested in a span of the same family
    outer_ns: int = 0
    total_ns: int = 0


@dataclass
class Summary:
    wall_ns: int
    spans: int
    by_name: dict[str, NameStats]
    layer_self_ns: dict[str, int]
    inputs: dict[str, Counter] = field(default_factory=dict)

    def stats(self, name: str) -> NameStats:
        return self.by_name.get(name, NameStats())

    @property
    def harness_ns(self) -> int:
        """Traced wall time not covered by any span: the harness's own work."""
        return self.wall_ns - sum(self.layer_self_ns.values())


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._family: list[str] = []
        self.inputs: dict[str, Counter] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.wall_ns = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span: str):
        nid = len(self.names)
        fam = _family(span)
        self.names.append(span)
        self._family.append(fam)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        families = self._family
        clock = time.perf_counter_ns
        inputs = self.inputs.setdefault(fam, Counter()) if fam in KEYED else None

        if inspect.isgeneratorfunction(fn):
            # One span per next(): the generator's own work, not its consumer's.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0)
                    stack.append(i)
                    starts.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = clock()
                        stack.pop()
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inputs is not None and (stack[-1] < 0 or families[names[stack[-1]]] != fam):
                inputs[args[0]] += 1
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict[str, object], package: object) -> None:
        """Wrap every name in SPANS that exists in ``modules`` (layer -> module).

        Module-level functions are replaced in every namespace of the package
        that holds them, including dict values such as ``verify.VERIFIERS``,
        because modules call each other through names they imported.
        Names a later version of the package no longer has are skipped.
        """
        replaced: dict[int, object] = {}
        for span in SPANS:
            layer, *path = span.split(".")
            if len(path) == 2:  # a method: wrap it on its class
                cls = getattr(modules[layer], path[0], None)
                fn = vars(cls).get(path[1]) if cls is not None else None
                if inspect.isfunction(fn):
                    self._set(cls, path[1], self._wrap(fn, span))
            else:
                fn = getattr(modules[layer], path[0], None)
                if inspect.isfunction(fn):
                    replaced[id(fn)] = self._wrap(fn, span)
        for ns in [*modules.values(), package]:
            for attr, value in list(vars(ns).items()):
                if id(value) in replaced:
                    self._set(ns, attr, replaced[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            self._set(value, key, replaced[id(item)])

    def _set(self, container, key, value) -> None:
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = value
        else:
            self._undo.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    def uninstall(self) -> None:
        while self._undo:
            container, key, original = self._undo.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def timed(self, fn, *args):
        """Run fn(*args) as the traced pass, recording its wall time."""
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.wall_ns += time.perf_counter_ns() - t0

    # -- reduction and output ----------------------------------------------

    def summary(self) -> Summary:
        n = len(self.name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        family = self._family
        layer = [s.split(".", 1)[0] for s in self.names]
        stats = [NameStats() for _ in self.names]
        layer_self = dict.fromkeys(LAYERS, 0)
        for i in range(n):
            nid = name[i]
            s = stats[nid]
            dur = end[i] - start[i]
            s.calls += 1
            s.total_ns += dur
            layer_self[layer[nid]] += dur - child[i]
            p = parent[i]
            if p < 0 or family[name[p]] != family[nid]:
                s.outer_calls += 1
                s.outer_ns += dur
        by_name = {self.names[i]: stats[i] for i in range(len(self.names))}
        return Summary(self.wall_ns, n, by_name, layer_self, self.inputs)

    def write(self, path) -> None:
        """Write the spans: one JSON header line, then the name, parent, start
        and end arrays in native byte order (see the header for the codes)."""
        header = {
            "names": self.names,
            "spans": len(self.name),
            "arrays": [["name", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "wall_ns": self.wall_ns,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)


def _family(span: str) -> str:
    """Spans of one family are one logical call: ``insertion`` calls
    ``insertion_with_trace``, and counting both would count it twice."""
    return span.removesuffix("_with_trace")


def read_spans(path) -> tuple[dict, list[array]]:
    """Load a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(f, header["spans"])
            arrays.append(arr)
    return header, arrays
