"""Per-layer tracing of the stripconf library from outside it.

``Tracer.install()`` wraps the public entry points of each layer (cells,
chains, linalg, homology, cycles, basis, algebra) wherever callers look
them up: every module attribute bound to the function is replaced, so
``stripconf.homology.boundary_matrix`` is traced as well as
``stripconf.chains.boundary_matrix`` and the benchmark's own imports.  ``Echelon`` methods are wrapped on
the class.  No library file is changed; ``uninstall()`` restores
everything.

Each call records a span ``[name, start, end, parent, attrs]`` in memory,
timed in process CPU seconds like the untraced pass.
A span's self time is its duration minus the time covered by its direct
children.  The per-layer metrics are sums of self times and counts taken
at the same boundaries.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, ATTRS = range(5)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original)
        self.input_nnz: dict = defaultdict(int)  # image_echelon span -> nnz absorbed
        self.built: list = []      # (span index, echelon) for fresh image echelons
        self._seen_echelons: set = set()  # ids; `built` keeps them alive
        self._boundary_cell = None        # chains.boundary_cell, if it has cache_info
        self._boundary_cell_start = None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name, on_exit=None, on_enter=None):
        """`name` is a string or a function of the call's arguments.

        `on_enter(args)` fills the span's attrs before the call and
        `on_exit(idx, span, args, result)` may replace them after it.
        """
        spans, stack = self.spans, self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                   stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            if on_enter is not None:
                rec[ATTRS] = on_enter(args)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ATTRS] = None  # a call that raised records no result
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(idx, rec, args, out)
            return out

        return wrapper

    def _patch_function(self, fn, name, on_exit=None, on_enter=None):
        """Replace `fn` in every loaded module that binds it: the library's
        own modules and the benchmark's, which imported it by name."""
        wrapper = self._wrap(fn, name, on_exit, on_enter)
        for mod in list(sys.modules.values()):
            for attr, value in list(getattr(mod, "__dict__", {}).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name, on_exit=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, on_exit))

    def install(self):
        import stripconf.algebra as algebra
        import stripconf.basis as basis
        import stripconf.cells as cells
        import stripconf.chains as chains
        import stripconf.cycles as cycles
        import stripconf.homology as homology
        from stripconf.linalg import Echelon

        def cells_exit(idx, rec, args, out):
            rec[ATTRS] = (args[0].describe(), args[1], len(out))

        def matrix_exit(idx, rec, args, out):
            rec[ATTRS] = (args[0].describe(), args[1], len(out.triplets), maxrss_mb())

        def absorb_exit(idx, rec, args, out):
            parent = rec[PARENT]
            if parent >= 0 and self.spans[parent][NAME] == "homology.image_echelon":
                self.input_nnz[parent] += len(args[1])
            rec[ATTRS] = bool(out)

        def echelon_exit(idx, rec, args, out):
            fresh = id(out) not in self._seen_echelons
            if fresh:
                self._seen_echelons.add(id(out))
                self.built.append((idx, out))
            rec[ATTRS] = (args[0].describe(), args[1], bool(out.track), fresh,
                          rec[ATTRS], maxrss_mb())

        def count_exit(idx, rec, args, out):
            rec[ATTRS] = len(out)

        def terms_exit(idx, rec, args, out):
            rec[ATTRS] = len(out.terms)

        def chain_exit(idx, rec, args, out):
            rec[ATTRS] = len(out.coeffs)

        bc = getattr(chains, "boundary_cell", None)
        if hasattr(bc, "cache_info"):
            self._boundary_cell = bc
            self._boundary_cell_start = bc.cache_info()

        self._patch_function(cells.enumerate_cells, "cells.enumerate", cells_exit)
        self._patch_function(chains.boundary_matrix, "chains.boundary_matrix", matrix_exit)
        self._patch_function(chains.boundary, "chains.boundary")
        self._patch_function(chains.is_cycle, "chains.is_cycle")
        self._patch_method(Echelon, "absorb",
                           lambda a: "linalg.absorb_tracked" if a[0].track else "linalg.absorb",
                           absorb_exit)
        for attr in ("residue", "coordinates", "annihilator"):
            self._patch_method(Echelon, attr, "linalg." + attr)
        self._patch_function(homology.image_echelon, "homology.image_echelon", echelon_exit,
                             lambda args: maxrss_mb())
        self._patch_function(homology.homology_profile, "homology.homology_profile")
        self._patch_function(homology.betti_number, "homology.betti_number")
        self._patch_function(homology.is_boundary, "homology.is_boundary")
        self._patch_function(homology.express, "homology.express")
        self._patch_function(cycles.word_cycle, "cycles.word_cycle", chain_exit)
        self._patch_function(basis.enumerate_basis, "basis.enumerate_basis", count_exit)
        self._patch_function(basis.verify_basis, "basis.verify_basis")
        self._patch_function(basis.basis_change, "basis.basis_change")
        self._patch_function(algebra.act, "algebra.act")
        self._patch_function(algebra.reduce, "algebra.reduce", terms_exit)
        self._patch_function(algebra.quotient_reduce, "algebra.quotient_reduce")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict:
        """Totals for the pass; ratios are 0 when their base is 0."""
        selft = self.self_times()
        time_of = defaultdict(float)
        calls = defaultdict(int)
        for rec, st in zip(self.spans, selft):
            time_of[rec[NAME]] += st
            calls[rec[NAME]] += 1

        def ratio(a, b):
            return a / b if b else 0.0

        cells = {}
        nnz = 0
        chain_terms = words = output_terms = 0
        absorbs = added = 0
        for rec in self.spans:
            name, attrs = rec[NAME], rec[ATTRS]
            if attrs is None:
                continue
            if name == "cells.enumerate":
                cells[attrs[:2]] = attrs[2]
            elif name == "chains.boundary_matrix":
                nnz += attrs[2]
            elif name in ("linalg.absorb", "linalg.absorb_tracked"):
                absorbs += 1
                added += attrs
            elif name == "cycles.word_cycle":
                chain_terms += attrs
            elif name == "basis.enumerate_basis":
                words += attrs
            elif name == "algebra.reduce":
                output_terms += attrs
        echelon_nnz = input_nnz = rows = unit = combo_nnz = 0
        max_abs = 0
        for idx, ech in self.built:
            for row, col in zip(ech.rows, ech.pivots_of):
                echelon_nnz += len(row)
                rows += 1
                unit += row[col] == 1
                for v in row.values():
                    if abs(v) > max_abs:
                        max_abs = abs(v)
            input_nnz += self.input_nnz.get(idx, 0)
            if ech.track:
                combo_nnz += sum(len(c) for c in ech.combos)
        # growth of the RSS high-water mark while fresh echelons were built
        rss_growth = sum(self.spans[idx][ATTRS][5] - self.spans[idx][ATTRS][4]
                         for idx, _ in self.built)
        echelon_calls = calls["homology.image_echelon"]

        hit_ratio = 0.0
        if self._boundary_cell is not None:
            end, start = self._boundary_cell.cache_info(), self._boundary_cell_start
            hits, misses = end.hits - start.hits, end.misses - start.misses
            hit_ratio = ratio(hits, hits + misses)

        return {
            "cells.enumerate_s": time_of["cells.enumerate"],
            "cells.count": sum(cells.values()),
            "chains.boundary_matrix_s": time_of["chains.boundary_matrix"],
            "chains.boundary_matrix_calls": calls["chains.boundary_matrix"],
            "chains.boundary_nnz": nnz,
            "chains.boundary_cell_hit_ratio": hit_ratio,
            "chains.boundary_apply_s": time_of["chains.boundary"] + time_of["chains.is_cycle"],
            "linalg.absorb_s": time_of["linalg.absorb"],
            "linalg.absorb_tracked_s": time_of["linalg.absorb_tracked"],
            "linalg.absorb_calls": absorbs,
            "linalg.rank_added_ratio": ratio(added, absorbs),
            "linalg.echelon_nnz": echelon_nnz,
            "linalg.fill_ratio": ratio(echelon_nnz, input_nnz),
            "linalg.unit_pivot_ratio": ratio(unit, rows),
            "linalg.max_abs_entry": max_abs,
            "linalg.combo_nnz": combo_nnz,
            "linalg.residue_s": (time_of["linalg.residue"] + time_of["linalg.coordinates"]
                                 + time_of["linalg.annihilator"]),
            "homology.image_echelon_s": time_of["homology.image_echelon"],
            "homology.image_echelon_calls": echelon_calls,
            "homology.echelon_reuse_ratio": ratio(echelon_calls - len(self.built), echelon_calls),
            "homology.rss_growth_mb": rss_growth,
            "homology.query_s": time_of["homology.is_boundary"] + time_of["homology.express"],
            "cycles.word_cycle_s": time_of["cycles.word_cycle"],
            "cycles.word_cycle_calls": calls["cycles.word_cycle"],
            "cycles.chain_terms": chain_terms,
            "basis.enumerate_s": time_of["basis.enumerate_basis"],
            "basis.words": words,
            "algebra.reduce_s": time_of["algebra.reduce"],
            "algebra.act_s": time_of["algebra.act"],
            "algebra.output_terms": output_terms,
            "trace.spans": len(self.spans),
        }

    def stages(self) -> dict:
        """Per-stage rows and per-complex totals.

        ``rows`` has one row per (complex, degree, tracked) that
        image_echelon eliminated.  The row for degree d describes d_d: its
        cells, the nonzeros of its boundary matrix, its rank (from the
        echelon of the image in degree d-1), the echelon's nonzeros and
        absorb calls, the seconds spent enumerating d-cells, building the
        matrix and eliminating, and the RSS high-water mark when the
        elimination ended.  ``complexes`` sums cells (every degree),
        enumeration, boundary build and elimination per complex.
        """
        selft = self.self_times()
        enum_s = defaultdict(float)
        cells = {}
        boundary_total = defaultdict(float)
        for rec, st in zip(self.spans, selft):
            if rec[ATTRS] is None:
                continue
            if rec[NAME] == "cells.enumerate":
                key = rec[ATTRS][:2]
                enum_s[key] += st
                cells[key] = rec[ATTRS][2]
            elif rec[NAME] == "chains.boundary_matrix":
                boundary_total[rec[ATTRS][0]] += st
        children = defaultdict(list)
        for idx, rec in enumerate(self.spans):
            if rec[PARENT] >= 0:
                children[rec[PARENT]].append(idx)
        rows = []
        for idx, ech in self.built:
            rec = self.spans[idx]
            spec, below, track, _, _, rss = rec[ATTRS]
            d = below + 1
            nnz, boundary_s, absorbs, eliminate_s = 0, 0.0, 0, selft[idx]
            for c in children[idx]:
                child = self.spans[c]
                if child[NAME] == "chains.boundary_matrix" and child[ATTRS] is not None:
                    nnz = child[ATTRS][2]
                    boundary_s += selft[c]
                elif child[NAME] in ("linalg.absorb", "linalg.absorb_tracked"):
                    absorbs += 1
                    eliminate_s += child[END] - child[START]
            if not nnz and not absorbs:
                continue  # degree at or above the top: nothing to eliminate
            rows.append({
                "complex": spec, "degree": d, "tracked": track,
                "cells": cells.get((spec, d), 0),
                "input_nnz": nnz, "rank": ech.rank,
                "echelon_nnz": sum(len(r) for r in ech.rows),
                "absorb_calls": absorbs,
                "enumerate_s": enum_s.get((spec, d), 0.0),
                "boundary_s": boundary_s,
                "eliminate_s": eliminate_s,
                "rss_mb": rss,
            })
        complexes = []
        for spec in dict.fromkeys(row["complex"] for row in rows):
            complexes.append({
                "complex": spec,
                "cells": sum(n for (s, _), n in cells.items() if s == spec),
                "enumerate_s": sum(t for (s, _), t in enum_s.items() if s == spec),
                "boundary_s": boundary_total[spec],
                "eliminate_s": sum(r["eliminate_s"] for r in rows if r["complex"] == spec),
            })
        return {"rows": rows, "complexes": complexes}
