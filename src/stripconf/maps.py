"""Chain maps between strip complexes, and the split trees that drive spins.

Every map here sends a cell to the product of its blocks' images (`_blockwise`).

* A split tree is a spin recipe: a leaf is a disk, and a node spins the
  point of its total weight into its two sides.  `segment_chain` unwinds
  a tree into the one-block chain the point becomes: each node of side
  weights u, v contributes (left right) with coefficient 1 and (right
  left) with coefficient (-1)^{uv-1}.  That recursion is the only place
  the spin sign lives.
* `substitute` replaces every label of an ordered chain by the segment
  chain of its split tree: the image of a block is the product of its
  labels' segments, concatenated.  Every spin map is this one
  substitution: spin_{a:b,c} substitutes the two-leaf tree (b c) for a,
  spin_sigma the left comb over each wheel of sigma for its axle, and
  spin_tau_sigma the left comb over the sigma-wheels making up each wheel
  of tau.  Each raises the topological degree by the number of labels it
  adds.
* include_permutohedron realizes each unordered block in a chosen label
  order, signed by the weighted sign of the rearrangement (+1 for the
  ascending identity order).
* averaged_inclusion_q averages the inclusions over all orderings of each
  block, weighting an ordering by its weighted sign; the projection p
  forgets the order inside blocks while multiplying by the same sign.
  p composed with q is the identity, and p kills every spin image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Optional, Sequence, Union

from .cells import (
    ORDERED,
    PERMUTOHEDRON,
    ComplexSpec,
    wheel_decomposition,
    wsgn,
)
from .chains import ChainVector


# ---------------------------------------------------------------------------
# split trees


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Node:
    left: "WheelTree"
    right: "WheelTree"


WheelTree = Union[Leaf, Node]


def comb(labels: Sequence[int]) -> WheelTree:
    """Left comb over the labels: the proper-wheel split recipe."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("a wheel needs at least one disk")
    tree: WheelTree = Leaf(labels[0])
    for a in labels[1:]:
        tree = Node(tree, Leaf(a))
    return tree


def tree_labels(tree: WheelTree) -> tuple:
    if isinstance(tree, Leaf):
        return (tree.label,)
    return tree_labels(tree.left) + tree_labels(tree.right)


def tree_weight(tree: WheelTree, weight_of=None) -> int:
    if weight_of is None:
        return len(tree_labels(tree))
    return sum(weight_of(a) for a in tree_labels(tree))


def segment_chain(tree: WheelTree, weight_of) -> dict:
    """The one-block chain a point spins out to along a split tree.

    Returns {label tuple: coefficient}; `weight_of` weighs a leaf.
    """
    if isinstance(tree, Leaf):
        return {(tree.label,): 1}
    left = segment_chain(tree.left, weight_of)
    right = segment_chain(tree.right, weight_of)
    wl = tree_weight(tree.left, weight_of)
    wr = tree_weight(tree.right, weight_of)
    flip = -1 if (wl * wr - 1) % 2 == 1 else 1
    out: dict = {}
    for s, c in left.items():
        for t, d in right.items():
            out[s + t] = out.get(s + t, 0) + c * d
            out[t + s] = out.get(t + s, 0) + c * d * flip
    return out


def _blockwise(terms, image) -> dict:
    """Send each (cell, coefficient) term to the product of its blocks'
    images, image(block) -> {block': coefficient}, and sum them."""
    out: dict = {}
    images: dict = {}  # blocks recur across cells; each is imaged once
    for cell, v in terms:
        products = [((), v)]
        for block in cell:
            if block not in images:
                images[block] = image(block)
            products = [(sym + (b,), c * d) for sym, c in products
                        for b, d in images[block].items()]
        for sym, c in products:
            out[sym] = out.get(sym, 0) + c
    return out


def substitute(chain: ChainVector, trees: dict, target: ComplexSpec) -> ChainVector:
    """Spin every label x of an ordered chain out along the split tree trees[x].

    Labels without a tree stay put.  `target` is the ordered complex of
    the result, and its weights weigh the leaves; every cell of the result
    is checked to be one of its cells.
    """
    if chain.spec.kind != ORDERED:
        raise ValueError("spins act on ordered complexes")
    segments = {x: {(x,): 1} for x in chain.spec.labels}
    segments.update((x, segment_chain(t, target.weight)) for x, t in trees.items())

    def spelled(block):
        # a block spells out as the concatenated segments of its labels
        return {sum(segs, ()): c for segs, c in _blockwise([(block, 1)], segments.get).items()}

    out = _blockwise(chain.coeffs.items(), spelled)
    return ChainVector(target, chain.degree + target.n - chain.spec.n, out, validate=True)


# ---------------------------------------------------------------------------
# spin


@dataclass(frozen=True)
class SpinStep:
    a: object
    b: object
    c: object
    wb: int
    wc: int


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
    return substitute(chain, {step.a: Node(Leaf(step.b), Leaf(step.c))},
                      spin_target(step, chain.spec))


# ---------------------------------------------------------------------------
# inclusions and projection


def _as_kind(spec: ComplexSpec, kind: str) -> ComplexSpec:
    return spec if spec.kind == kind else ComplexSpec(kind, spec.labels, spec.weights, spec.width)


def _arranged(spec: ComplexSpec, key=None):
    """The block image that sorts a block by `key`, signed by the weighted
    sign of that rearrangement."""
    def image(block):
        arranged = tuple(sorted(block, key=key))
        return {arranged: wsgn(block, arranged, spec)}
    return image


def include_permutohedron(chain: ChainVector, order: Optional[Sequence] = None) -> ChainVector:
    """Inclusion of a permutohedron chain into the ordered complex.

    `order` lists the whole label set; each block is realized with its
    entries in that relative order, signed by the weighted sign of the
    rearrangement so the result is a chain map for every order.  Default
    is ascending (the identity inclusion, always sign +1).
    """
    if chain.spec.kind != PERMUTOHEDRON:
        raise ValueError("include_permutohedron expects a permutohedron chain")
    spec = chain.spec
    if order is None:
        order = spec.labels
    order = tuple(order)
    if tuple(sorted(order)) != spec.labels:
        raise ValueError("order must be a permutation of the label set")
    pos = {a: i for i, a in enumerate(order)}
    return ChainVector(_as_kind(spec, ORDERED), chain.degree,
                       _blockwise(chain.coeffs.items(), _arranged(spec, pos.get)))


def averaged_inclusion_q(chain: ChainVector) -> ChainVector:
    """Signed average over the orderings of each block.

    Every tuple of per-block orderings contributes with coefficient
    (product of per-block weighted signs) / (product of block factorials).
    On singleton blocks this is the plain inclusion.  Sorting the blocks
    of an ordering gives its cell back, so no two cells share one.
    """
    if chain.spec.kind != PERMUTOHEDRON:
        raise ValueError("averaged_inclusion_q expects a permutohedron chain")
    spec = chain.spec
    signed = _blockwise(chain.coeffs.items(), lambda block: {
        a: wsgn(block, a, spec) for a in itertools.permutations(block)})
    # an ordering has the block sizes of its cell, so it knows its denominator
    return ChainVector(_as_kind(spec, ORDERED), chain.degree,
                       {a: Fraction(c, prod(map(factorial, map(len, a))))
                        for a, c in signed.items()})


def project_p(chain: ChainVector) -> ChainVector:
    """Forget the order inside blocks, multiplying by the weighted sign."""
    if chain.spec.kind != ORDERED:
        raise ValueError("project_p expects an ordered-complex chain")
    return ChainVector(_as_kind(chain.spec, PERMUTOHEDRON), chain.degree,
                       _blockwise(chain.coeffs.items(), _arranged(chain.spec)))


# ---------------------------------------------------------------------------
# composite spins along wheel decompositions


def _spin_axles(chain: ChainVector, dec, parts: tuple, weight_of) -> ChainVector:
    """Spin each axle of the wheel decomposition `dec` out along the left
    comb over its group of parts, each part weighing weight_of(part).

    The chain must live on the axles, weighted by wheel weight.
    """
    if chain.spec.labels != dec.superlabels or chain.spec.weights != dec.weights:
        raise ValueError(
            f"chain must live on labels {dec.superlabels} with weights {dec.weights}")
    labels = tuple(sorted(p for group in parts for p in group))
    target = ComplexSpec(ORDERED, labels, tuple(map(weight_of, labels)), chain.spec.width)
    return substitute(chain, dict(zip(dec.superlabels, map(comb, parts))), target)


def spin_sigma(sigma: Sequence, chain: ChainVector, weight_of=None) -> ChainVector:
    """Expand each wheel of sigma one disk at a time.

    The input chain lives on the ordered complex whose labels are the
    axles of sigma's wheels, weighted by total wheel weight.  The output
    lives on the ordered complex of sigma's disks.
    """
    if weight_of is None:
        weight_of = lambda a: 1
    dec = wheel_decomposition(sigma, weight_of)
    return _spin_axles(chain, dec, dec.wheels, weight_of)


def spin_tau_sigma(tau: Sequence, sigma: Sequence, chain: ChainVector,
                   weight_of=None) -> ChainVector:
    """Spin each wheel of tau out to the wheels of sigma it is made of.

    Requires every wheel of tau to be a concatenation of wheels of sigma
    (tau in the orbit S(sigma)).  The input chain lives on tau's wheel
    axles, the output on sigma's.
    """
    if weight_of is None:
        weight_of = lambda a: 1
    dec_t = wheel_decomposition(tau, weight_of)
    dec_s = wheel_decomposition(sigma, weight_of)

    def axles(wheel: tuple) -> tuple:
        """The axles of the sigma-wheels composing one tau-wheel."""
        out, i = [], 0
        while i < len(wheel):
            for sw in dec_s.wheels:
                if wheel[i:i + len(sw)] == sw:
                    out.append(sw[0])
                    i += len(sw)
                    break
            else:
                raise ValueError("tau is not a concatenation of sigma's wheels")
        return tuple(out)

    return _spin_axles(chain, dec_t, tuple(map(axles, dec_t.wheels)),
                       dict(zip(dec_s.superlabels, dec_s.weights)).__getitem__)
