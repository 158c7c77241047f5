"""Spans and counters around calls into zecknum, for the traced run only.

``Tracer.install`` replaces public functions and methods of the already
imported ``zecknum`` modules with wrappers; ``uninstall`` puts the originals
back.  Each wrapped call is one span: name, start, end and the span that was
open when it started.  Spans are folded into per-name totals as they close
(calls, inclusive time of the outermost span of a name, self time), and the
parent -> child call counts are kept, so memory stays flat however many calls
a run makes.  Self time is a span's duration minus the time its child spans
cover.  Counters (``CoeffFn`` construction and ``digit`` lookups, integer and
real sequence terms) are taken at the same boundaries without a span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name); a function imported by name into other
# zecknum modules is replaced there too.
FUNCTION_SPANS = (
    ("zecknum.config", "load_fixture", "config.load_fixture"),
    ("zecknum.config", "build_system", "config.build_system"),
    ("zecknum.cli", "main", "cli.main"),
    ("zecknum.blocks", "successor_asc", "blocks.successor_asc"),
    ("zecknum.blocks", "is_member_asc", "blocks.scan"),
    ("zecknum.blocks", "decompose_asc", "blocks.scan"),
    ("zecknum.integers", "encode_int", "integers.encode_int"),
    ("zecknum.integers", "decode_int", "integers.decode_int"),
    ("zecknum.integers", "enumerate_subset", "integers.enumerate_subset"),
    ("zecknum.uniqueness", "check_unique", "uniqueness.check_unique"),
    ("zecknum.real", "expand_real", "real.expand_real"),
    ("zecknum.real", "find_first_below", "real.find_first_below"),
    ("zecknum.real", "verify_maximal_identity", "real.verify_maximal_identity"),
    ("zecknum.padic", "decode_padic", "padic.decode_padic"),
    ("zecknum.padic", "eval_padic", "padic.eval_padic"),
    ("zecknum.padic", "check_unique_padic", "padic.check_unique_padic"),
    ("zecknum.padic", "weak_converse_probe", "padic.weak_converse_probe"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("zecknum.integers", "FundamentalSeq", "find_top", "integers.find_top"),
    ("zecknum.padic", "PadicSeq", "__init__", "padic.seq_build"),
)

# (module, class, method, counter name): counted, no span.  These methods are
# called millions of times per run and do little per call, so a span's own
# cost would swamp theirs and their callers'.
METHOD_COUNTERS = (
    ("zecknum.integers", "FundamentalSeq", "value", "integers.seq_value.calls"),
    ("zecknum.coeff", "CoeffFn", "__init__", "coeff.CoeffFn.init.calls"),
    ("zecknum.coeff", "CoeffFn", "digit", "coeff.CoeffFn.digit.calls"),
    ("zecknum.real", "GeometricSeq", "value", "real.seq_value.calls"),
    ("zecknum.real", "HarmonicSeq", "value", "real.seq_value.calls"),
    ("zecknum.real", "BlockGeometricSeq", "value", "real.seq_value.calls"),
)

ROW_BUILD = "recurrences.row_build"
ENCODE = "integers.encode_int"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._depth = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self._rows_seen: dict[int, set[int]] = {}
        self._rows_read_max: dict[int, int] = {}
        self._families: list[object] = []  # keep ids stable while traced
        self._seqs: list[object] = []
        self._terms_used_max: dict[int, int] = {}

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        calls, inclusive, self_time, edges = self.calls, self.inclusive, self.self_time, self.edges

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            depth[name] += 1
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[name] -= 1
                self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if not depth[name]:
                    inclusive[name] += dur
                calls[name] += 1
                edges[(parent, name)] += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _row(self, fn):
        """PredecessorFamily.row: the first call per family and n is a
        ``recurrences.row_build`` span; a direct read from encode_int records
        the row index it used."""
        stack, seen, read_max, counts = self._stack, self._rows_seen, self._rows_read_max, self.counts
        build = self._span(ROW_BUILD, fn)

        def row(fam, n):
            built = seen.get(id(fam))
            if built is None:
                built = seen[id(fam)] = set()
                self._families.append(fam)
            if stack and stack[-1][0] == ENCODE:
                read_max[id(fam)] = max(read_max.get(id(fam), 0), n)
            if n in built:
                return fn(fam, n)
            r = build(fam, n)
            built.add(n)
            counts["recurrences.rows_built"] += 1
            counts["recurrences.row_digits"] += len(r)
            return r

        row.__wrapped__ = fn
        return row

    def _after_encode(self, args, mu):
        seq = args[2]
        self._terms_used_max[id(seq)] = max(self._terms_used_max.get(id(seq), 0), mu.order_asc)

    def _after_seq_init(self, args, _):
        self._seqs.append(args[0])

    def _after_check_unique(self, args, report):
        self.counts["uniqueness.members_seen"] += report.members_seen

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items() if k == "zecknum" or k.startswith("zecknum.")}
        after = {ENCODE: self._after_encode, "uniqueness.check_unique": self._after_check_unique}
        for mod, attr, name in FUNCTION_SPANS:
            if mod not in mods:
                continue
            orig = getattr(mods[mod], attr)
            wrapped = self._span(name, orig, after.get(name))
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        for mod, cls, attr, name in METHOD_SPANS:
            klass = getattr(mods[mod], cls)
            self._set(klass, attr, self._span(name, getattr(klass, attr)))
        for mod, cls, attr, name in METHOD_COUNTERS:
            klass = getattr(mods[mod], cls)
            self._set(klass, attr, self._counter(name, getattr(klass, attr)))
        fam_cls = mods["zecknum.blocks"].PredecessorFamily
        self._set(fam_cls, "row", self._row(fam_cls.row))
        seq_cls = mods["zecknum.integers"].FundamentalSeq
        self._set(seq_cls, "__init__", self._span("integers.seq_init", seq_cls.__init__, self._after_seq_init))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span totals in milliseconds, counters (each span's call count
        among them, as ``<span>.calls``), and the numerators and denominators
        of the waste ratios."""
        names = set(self.calls)
        spans = {
            n: {"calls": self.calls[n], "ms": self.inclusive[n] * 1e3, "self_ms": self.self_time[n] * 1e3}
            for n in sorted(names)
        }
        built = {fid: len(ns) for fid, ns in self._rows_seen.items()}
        read = {fid: n for fid, n in self._rows_read_max.items() if fid in built}
        seq_len = {id(s): len(s) for s in self._seqs}
        used = {sid: k for sid, k in self._terms_used_max.items() if sid in seq_len}
        return {
            "spans": spans,
            "counts": {**{f"{n}.calls": c for n, c in self.calls.items()}, **self.counts},
            "edges": [[p or "", c, k] for (p, c), k in sorted(self.edges.items(), key=lambda e: -e[1])],
            "rows_read_max": sum(read.values()),
            "rows_built_read": sum(built[f] for f in read),
            "seq_terms": sum(seq_len.values()),
            "terms_used_max": sum(used.values()),
            "terms_of_used": sum(seq_len[s] for s in used),
        }
