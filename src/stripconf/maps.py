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
  wheels of sigma.
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


def apply_program(program: SpinProgram, chain: ChainVector) -> ChainVector:
    for step in program.steps:
        chain = spin(step, chain)
    return chain


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


def _peel_program(wheel: tuple, weight_of) -> list:
    """Spin steps expanding one wheel label (the whole tuple) one disk at a time.

    Labels during expansion are tuples of disks; the final labels are the
    singleton tuples.  Peels the last entry at every step, which is exactly
    the left-comb recipe of a proper wheel.
    """
    steps = []
    seg = tuple(wheel)
    while len(seg) > 1:
        head, last = seg[:-1], (seg[-1],)
        steps.append(SpinStep(seg, head, last,
                              sum(weight_of(x) for x in head), weight_of(seg[-1])))
        seg = head
    return steps


def wheel_expansion_program(sigma: Sequence, weight_of=None) -> SpinProgram:
    if weight_of is None:
        weight_of = lambda a: 1
    dec = wheel_decomposition(sigma, weight_of)
    steps = []
    for wheel in reversed(dec.wheels):
        steps.extend(_peel_program(wheel, weight_of))
    return SpinProgram(tuple(steps))


def _tuple_relabel(chain: ChainVector, mapping: dict, weights: dict, kind=ORDERED) -> ChainVector:
    # all target labels share one type, so plain sort is well defined
    labels = tuple(sorted(mapping.values()))
    spec = ComplexSpec(kind, labels, tuple(weights[x] for x in labels), chain.spec.width)
    out = {}
    for cell, v in chain.coeffs.items():
        sym = tuple(tuple(mapping[a] for a in b) for b in cell)
        out[sym] = out.get(sym, 0) + v
    return ChainVector(spec, chain.degree, out)


def spin_sigma(sigma: Sequence, chain: ChainVector, weight_of=None) -> ChainVector:
    """Expand each wheel of sigma one disk at a time.

    The input chain lives on the ordered complex whose labels are the
    axles of sigma's wheels, weighted by total wheel weight.  The output
    lives on the ordered complex of sigma's disks.
    """
    if weight_of is None:
        weight_of = lambda a: 1
    dec = wheel_decomposition(sigma, weight_of)
    expected = tuple(dec.superlabels)
    if chain.spec.labels != expected or chain.spec.weights != dec.weights:
        raise ValueError(
            f"chain must live on labels {expected} with weights {dec.weights}")
    # move to tuple labels so intermediate stages cannot collide
    mapping = {axle: tuple(wheel) for axle, wheel in zip(dec.superlabels, dec.wheels)}
    weights = {tuple(wheel): wt for wheel, wt in zip(dec.wheels, dec.weights)}
    work = _tuple_relabel(chain, mapping, weights)
    for wheel in reversed(dec.wheels):
        for step in _peel_program(tuple(wheel), weight_of):
            work = spin(step, work)
    back = {(a,): a for w in dec.wheels for a in w}
    final_weights = {a: weight_of(a) for w in dec.wheels for a in w}
    return _tuple_relabel(work, back, final_weights)


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
    dec_s = wheel_decomposition(sigma, weight_of)
    swheels = list(dec_s.wheels)

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

    if chain.spec.labels != dec_t.superlabels or chain.spec.weights != dec_t.weights:
        raise ValueError(
            f"chain must live on labels {dec_t.superlabels} with weights {dec_t.weights}")
    wheel_weight = {sw: sum(weight_of(a) for a in sw) for sw in swheels}
    # labels here are tuples of sigma-wheels
    mapping = {axle: chunks(w) for axle, w in zip(dec_t.superlabels, dec_t.wheels)}
    weights = {t: sum(wheel_weight[sw] for sw in t) for t in mapping.values()}
    work = _tuple_relabel(chain, mapping, weights)
    for w in reversed(dec_t.wheels):
        seg = chunks(w)
        while len(seg) > 1:
            head, last = seg[:-1], (seg[-1],)
            step = SpinStep(seg, head, last,
                            sum(wheel_weight[sw] for sw in head), wheel_weight[seg[-1]])
            work = spin(step, work)
            seg = head
    back = {(sw,): sw[0] for sw in swheels}
    final_weights = {sw[0]: wheel_weight[sw] for sw in swheels}
    return _tuple_relabel(work, back, final_weights)
