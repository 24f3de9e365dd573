"""Chain maps between strip complexes.

* spin_{a:b,c} splits one label a of weight w_a into fresh labels b, c with
  w_b + w_c = w_a.  On a symbol it substitutes `.. a ..` by `.. b c ..`
  with the same coefficient plus `.. c b ..` with coefficient
  (-1)^{w_b w_c - 1}.  Raises the topological degree by 1.
* include_permutohedron realizes each unordered block in a chosen label
  order (ascending for the identity); it carries no sign.
* averaged_inclusion_q averages the inclusions over all orderings of each
  block, weighting an ordering by its weighted sign; the projection p
  forgets the order inside blocks while multiplying by the same sign.
  p composed with q is the identity, and p kills every spin image.
* spin_sigma expands the wheels of a permutation one disk at a time,
  spin_tau_sigma unwinds the wheels of tau (right to left) down to the
  wheels of sigma.  Both are one unwinding: each axle becomes its group
  of parts (disks, or sigma's wheels), every group is peeled right to
  left, the last group first, and the parts get their labels back.
  wheel_expansion_program lists the steps of that same peel.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .cells import (
    ORDERED,
    PERMUTOHEDRON,
    ComplexSpec,
    wheel_decomposition,
    wsgn,
)
from .chains import ChainVector


# ---------------------------------------------------------------------------
# spin


@dataclass(frozen=True)
class SpinStep:
    a: object
    b: object
    c: object
    wb: int
    wc: int

    def as_dict(self) -> dict:
        enc = lambda x: list(x) if isinstance(x, tuple) else x
        return {"a": enc(self.a), "b": enc(self.b), "c": enc(self.c),
                "wb": self.wb, "wc": self.wc}

    @classmethod
    def from_dict(cls, d: dict) -> "SpinStep":
        dec = lambda x: tuple(x) if isinstance(x, list) else x
        return cls(dec(d["a"]), dec(d["b"]), dec(d["c"]), d["wb"], d["wc"])


@dataclass(frozen=True)
class SpinProgram:
    steps: tuple

    def to_json(self) -> str:
        return json.dumps([s.as_dict() for s in self.steps])

    @classmethod
    def from_json(cls, text: str) -> "SpinProgram":
        return cls(tuple(SpinStep.from_dict(d) for d in json.loads(text)))


def spin_target(step: SpinStep, spec: ComplexSpec) -> ComplexSpec:
    if spec.kind != ORDERED:
        raise ValueError("spin acts on ordered complexes")
    if step.a not in spec.labels:
        raise ValueError(f"label {step.a} not in complex")
    if spec.weight(step.a) != step.wb + step.wc:
        raise ValueError("weight mismatch: w_a must equal w_b + w_c")
    if step.b in spec.labels or step.c in spec.labels or step.b == step.c:
        raise ValueError("replacement labels must be fresh")
    wmap = {x: spec.weight(x) for x in spec.labels if x != step.a}
    wmap[step.b] = step.wb
    wmap[step.c] = step.wc
    labels = tuple(sorted(wmap))
    return ComplexSpec(ORDERED, labels, tuple(wmap[x] for x in labels), spec.width)


def spin(step: SpinStep, chain: ChainVector) -> ChainVector:
    """Apply one spin step to every symbol of the chain."""
    target = spin_target(step, chain.spec)
    flip = -1 if (step.wb * step.wc - 1) % 2 == 1 else 1
    out: dict = {}
    for cell, v in chain.coeffs.items():
        for bi, block in enumerate(cell):
            if step.a in block:
                p = block.index(step.a)
                fwd = block[:p] + (step.b, step.c) + block[p + 1:]
                rev = block[:p] + (step.c, step.b) + block[p + 1:]
                for nb, s in ((fwd, 1), (rev, flip)):
                    sym = cell[:bi] + (nb,) + cell[bi + 1:]
                    out[sym] = out.get(sym, 0) + v * s
                break
        else:
            raise ValueError(f"label {step.a} missing from cell")
    return ChainVector(target, chain.degree + 1, out)


# ---------------------------------------------------------------------------
# inclusions and projection


def _as_kind(spec: ComplexSpec, kind: str) -> ComplexSpec:
    return spec if spec.kind == kind else ComplexSpec(kind, spec.labels, spec.weights, spec.width)


def include_permutohedron(chain: ChainVector, order: Optional[Sequence] = None) -> ChainVector:
    """Inclusion of a permutohedron chain into the ordered complex.

    `order` lists the whole label set; each block is realized with its
    entries in that relative order, signed by the weighted sign of the
    rearrangement so the result is a chain map for every order.  Default
    is ascending (the identity inclusion, always sign +1).
    """
    if chain.spec.kind != PERMUTOHEDRON:
        raise ValueError("include_permutohedron expects a permutohedron chain")
    target = _as_kind(chain.spec, ORDERED)
    spec = chain.spec
    if order is None:
        order = spec.labels
    order = tuple(order)
    if tuple(sorted(order)) != spec.labels:
        raise ValueError("order must be a permutation of the label set")
    pos = {a: i for i, a in enumerate(order)}
    out: dict = {}
    for cell, v in chain.coeffs.items():
        s = 1
        sym = []
        for b in cell:
            arranged = tuple(sorted(b, key=pos.get))
            s *= wsgn(b, arranged, spec)
            sym.append(arranged)
        sym = tuple(sym)
        out[sym] = out.get(sym, 0) + v * s
    return ChainVector(target, chain.degree, out)


def averaged_inclusion_q(chain: ChainVector) -> ChainVector:
    """Signed average over the orderings of each block.

    Every tuple of per-block orderings contributes with coefficient
    (product of per-block weighted signs) / (product of block factorials).
    On singleton blocks this is the plain inclusion.
    """
    if chain.spec.kind != PERMUTOHEDRON:
        raise ValueError("averaged_inclusion_q expects a permutohedron chain")
    target = _as_kind(chain.spec, ORDERED)
    spec = chain.spec
    out: dict = {}
    for cell, v in chain.coeffs.items():
        denom = 1
        for b in cell:
            denom *= factorial(len(b))
        for arranged in itertools.product(*(itertools.permutations(b) for b in cell)):
            s = 1
            for b, a in zip(cell, arranged):
                s *= wsgn(b, a, spec)
            sym = tuple(arranged)
            out[sym] = out.get(sym, 0) + Fraction(v) * s / denom
    return ChainVector(target, chain.degree, out)


def project_p(chain: ChainVector) -> ChainVector:
    """Forget the order inside blocks, multiplying by the weighted sign."""
    if chain.spec.kind != ORDERED:
        raise ValueError("project_p expects an ordered-complex chain")
    target = _as_kind(chain.spec, PERMUTOHEDRON)
    spec = chain.spec
    out: dict = {}
    for cell, v in chain.coeffs.items():
        s = 1
        sym = []
        for b in cell:
            sb = tuple(sorted(b))
            s *= wsgn(b, sb, spec)
            sym.append(sb)
        sym = tuple(sym)
        out[sym] = out.get(sym, 0) + v * s
    return ChainVector(target, chain.degree, out)


# ---------------------------------------------------------------------------
# composite spins along wheel decompositions


def _unwind_steps(groups: Sequence[tuple], weight_of) -> list:
    """Spin steps unwinding each group of parts, the last group first.

    A group is a tuple of parts, and the labels met on the way are tuples
    of parts; the final labels are the singleton tuples.  Every step peels
    the last part off what is left of a group, which is exactly the
    left-comb recipe of a proper wheel.  `weight_of` weighs one part.
    """
    steps = []
    for seg in reversed(groups):
        while len(seg) > 1:
            head = seg[:-1]
            steps.append(SpinStep(seg, head, seg[-1:],
                                  sum(map(weight_of, head)), weight_of(seg[-1])))
            seg = head
    return steps


def wheel_expansion_program(sigma: Sequence, weight_of=None) -> SpinProgram:
    if weight_of is None:
        weight_of = lambda a: 1
    return SpinProgram(tuple(_unwind_steps(wheel_decomposition(sigma, weight_of).wheels,
                                           weight_of)))


def _tuple_relabel(chain: ChainVector, mapping: dict, weights: dict) -> ChainVector:
    # all target labels share one type, so plain sort is well defined
    labels = tuple(sorted(mapping.values()))
    spec = ComplexSpec(ORDERED, labels, tuple(weights[x] for x in labels), chain.spec.width)
    out = {}
    for cell, v in chain.coeffs.items():
        sym = tuple(tuple(mapping[a] for a in b) for b in cell)
        out[sym] = out.get(sym, 0) + v
    return ChainVector(spec, chain.degree, out)


def _unwind(chain: ChainVector, dec, groups: tuple, weight_of, name) -> ChainVector:
    """Spin each axle of the wheel decomposition `dec` out to its group of parts.

    The chain must live on the axles, weighted by wheel weight.  They become
    the groups themselves, so that no intermediate label can collide with
    another; `_unwind_steps` peels every group down to single parts, and
    each part p ends up as the label name(p) of weight weight_of(p).
    """
    if chain.spec.labels != dec.superlabels or chain.spec.weights != dec.weights:
        raise ValueError(
            f"chain must live on labels {dec.superlabels} with weights {dec.weights}")
    work = _tuple_relabel(chain, dict(zip(chain.spec.labels, groups)),
                          dict(zip(groups, chain.spec.weights)))
    for step in _unwind_steps(groups, weight_of):
        work = spin(step, work)
    parts = [p for group in groups for p in group]
    return _tuple_relabel(work, {(p,): name(p) for p in parts},
                          {name(p): weight_of(p) for p in parts})


def spin_sigma(sigma: Sequence, chain: ChainVector, weight_of=None) -> ChainVector:
    """Expand each wheel of sigma one disk at a time.

    The input chain lives on the ordered complex whose labels are the
    axles of sigma's wheels, weighted by total wheel weight.  The output
    lives on the ordered complex of sigma's disks.
    """
    if weight_of is None:
        weight_of = lambda a: 1
    dec = wheel_decomposition(sigma, weight_of)
    return _unwind(chain, dec, dec.wheels, weight_of, lambda a: a)


def spin_tau_sigma(tau: Sequence, sigma: Sequence, chain: ChainVector,
                   weight_of=None) -> ChainVector:
    """Unwind the wheels of tau, right to left, down to the wheels of sigma.

    Requires every wheel of tau to be a concatenation of wheels of sigma
    (tau in the orbit S(sigma)).  The input chain lives on tau's wheel
    axles, the output on sigma's.
    """
    if weight_of is None:
        weight_of = lambda a: 1
    dec_t = wheel_decomposition(tau, weight_of)
    swheels = wheel_decomposition(sigma, weight_of).wheels

    def chunks(wheel: tuple) -> tuple:
        """Split one tau-wheel into the sigma-wheels composing it."""
        out, i = [], 0
        while i < len(wheel):
            for sw in swheels:
                if wheel[i:i + len(sw)] == sw:
                    out.append(sw)
                    i += len(sw)
                    break
            else:
                raise ValueError("tau is not a concatenation of sigma's wheels")
        return tuple(out)

    # the parts are sigma's wheels, each named by its axle
    wheel_weight = {sw: sum(weight_of(a) for a in sw) for sw in swheels}
    return _unwind(chain, dec_t, tuple(chunks(w) for w in dec_t.wheels),
                   wheel_weight.__getitem__, lambda sw: sw[0])
