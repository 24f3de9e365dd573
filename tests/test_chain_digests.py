"""Pinned digests of the generator chains and the spin maps.

Every filter, averaged filter, relation witness, spin output, projection
p and ordered inclusion of a permutohedron below is serialised exactly
(complex, degree, every term with its coefficient in canonical cell
order) and hashed per family.  The digests were recorded from the
earlier, separate implementations of these maps (a face arrangement for
the filters, a step-by-step unwinding for the spins, a loop of its own
for each block map), so a change to any sign, coefficient or term fails
here even when two routes through the current code still agree with
each other.

Regenerate the table with `python tests/test_chain_digests.py` only when
a convention is changed on purpose.
"""

import hashlib
import itertools
import random

import pytest

from stripconf.algebra import r2_instance, r5_instance
from stripconf.cells import cell_complex, permutohedron, wheel_decomposition
from stripconf.cycles import Leaf, Node, Wheel, averaged_filter_cycle, filter_cycle, wheel_cycle
from stripconf.maps import (SpinStep, include_permutohedron, project_p, spin, spin_sigma,
                            spin_tau_sigma)

from conftest import random_chain, s_of_sigma, wheels_on_blocks


def _chain_text(chain) -> str:
    terms = " + ".join(f"{v}*[{'|'.join(' '.join(map(str, b)) for b in cell)}]"
                       for cell, v in chain.terms())
    return f"{chain.spec.describe()} d={chain.degree}: {terms or '0'}"


def _shapes(arities, top_size=3):
    for m in arities:
        yield from itertools.product(range(1, top_size + 1), repeat=m)


def _filter_cases():
    """(width, wheels) on 2-5 wheels of sizes 1-3: unbounded width up to a
    total of 6 disks, width 4 wherever the filter is admissible."""
    for sizes in _shapes(range(2, 6)):
        if sum(sizes) <= 6:
            yield None, wheels_on_blocks(sizes)
        if sum(sizes) - min(sizes) <= 4:
            yield 4, wheels_on_blocks(sizes)
    # improper wheels and a split tree that is not a comb
    yield None, (Wheel((1, 3)), Wheel((2,)))
    yield 4, (Wheel((1, 2)), Wheel((3,)), Wheel((4, 5)))
    yield None, (Node(Leaf(1), Node(Leaf(2), Leaf(3))), Wheel((4,)), Wheel((5,)))


def _filters(build):
    for width, wheels in _filter_cases():
        yield f"{width} {wheels}\n{_chain_text(build(wheels, width))}"


def _wheels():
    trees = [Leaf(1), Node(Leaf(2), Leaf(1)), Node(Leaf(1), Node(Leaf(3), Leaf(2))),
             Node(Node(Leaf(2), Leaf(4)), Node(Leaf(1), Leaf(3)))]
    for tree in trees:
        for weights in (None, {a: 2 for a in range(1, 5)}, {1: 1, 2: 2, 3: 3, 4: 2}):
            yield f"{tree} {weights}\n{_chain_text(wheel_cycle(tree, None, weights))}"


def _r2():
    wheels = [Wheel((1,)), Wheel((3, 2)), Wheel((2, 3)), Wheel((6, 4, 5)), Wheel((4, 6, 5))]
    for w1, w2 in itertools.permutations(wheels, 2):
        if set(w1.labels) & set(w2.labels):
            continue
        inst = r2_instance(w1, w2, w1.size + w2.size)
        yield (f"{w1} {w2}\n{_chain_text(inst.witness)}\n{_chain_text(inst.difference)}")


def _r5():
    for sizes in _shapes(range(3, 6)):
        for width in (3, 4):
            if any(sum(sizes) - sizes[k] - sizes[j] > width
                   for k in range(len(sizes)) for j in range(len(sizes)) if j != k):
                continue
            if sum(sizes) > 8:
                continue
            inst = r5_instance(wheels_on_blocks(sizes), width)
            witness = "none" if inst.witness is None else _chain_text(inst.witness)
            yield f"{sizes} {width}\n{witness}\n{_chain_text(inst.difference)}"


def _weight_rules():
    return {"unit": lambda a: 1, "two": lambda a: 2, "mixed": lambda a: 1 + a % 2}


def _spin():
    rng = random.Random(1101)
    for name, weight_of in _weight_rules().items():
        for n in (1, 2, 3, 4):
            labels = tuple(range(1, n + 1))
            weights = {a: weight_of(a) + (a == n) for a in labels}
            spec = cell_complex(labels, 5, weights)
            for wb in range(1, weights[n]):
                step = SpinStep(n, 7, 8, wb, weights[n] - wb)
                for d, _ in itertools.product(range(spec.top_degree() + 1), range(3)):
                    z = random_chain(spec, d, rng)
                    yield f"{name} {step} d={d}\n{_chain_text(spin(step, z))}"


def _axle_chains(perm, weight_of, rng):
    dec = wheel_decomposition(perm, weight_of)
    for width in (None, 4):
        spec = cell_complex(dec.superlabels, width, dec.weights)
        for d in range(spec.top_degree() + 1):
            yield width, d, random_chain(spec, d, rng, terms=3)


def _spin_sigma():
    rng = random.Random(1102)
    for name, weight_of in _weight_rules().items():
        for n in (3, 4, 5):
            for sigma in itertools.permutations(range(1, n + 1)):
                for width, d, z in _axle_chains(sigma, weight_of, rng):
                    yield (f"{name} {sigma} {width} d={d}\n"
                           f"{_chain_text(spin_sigma(sigma, z, weight_of))}")


def _spin_tau_sigma():
    rng = random.Random(1103)
    for name, weight_of in _weight_rules().items():
        for n in (3, 4, 5):
            for sigma in itertools.permutations(range(1, n + 1)):
                for tau in s_of_sigma(sigma):
                    for width, d, z in _axle_chains(tau, weight_of, rng):
                        yield (f"{name} {tau} {sigma} {width} d={d}\n"
                               f"{_chain_text(spin_tau_sigma(tau, sigma, z, weight_of))}")


def _block_map_chains(make, seed):
    """(text, chain, rng): seeded chains of `make` in every degree, on 2-5
    labels of every weight rule, at widths None and 4."""
    rng = random.Random(seed)
    for name, weight_of in _weight_rules().items():
        for n in (2, 3, 4, 5):
            labels = tuple(range(1, n + 1))
            for width in (None, 4):
                spec = make(labels, width, {a: weight_of(a) for a in labels})
                for d, _ in itertools.product(range(spec.top_degree() + 1), range(3)):
                    yield f"{name} {width} d={d}", random_chain(spec, d, rng), rng


def _project_p():
    for text, z, _ in _block_map_chains(cell_complex, 1104):
        yield f"{text}\n{_chain_text(project_p(z))}"


def _include_permutohedron():
    for text, z, rng in _block_map_chains(permutohedron, 1105):
        labels = z.spec.labels
        order = labels
        while order == labels:  # a seeded order other than the identity
            order = tuple(rng.sample(labels, len(labels)))
        yield f"{text} {order}\n{_chain_text(include_permutohedron(z, order))}"


FAMILIES = {
    "filter": lambda: _filters(filter_cycle),
    "averaged_filter": lambda: _filters(averaged_filter_cycle),
    "wheel": _wheels,
    "r2": _r2,
    "r5": _r5,
    "spin": _spin,
    "spin_sigma": _spin_sigma,
    "spin_tau_sigma": _spin_tau_sigma,
    "project_p": _project_p,
    "include_permutohedron": _include_permutohedron,
}


def family_digest(name: str) -> tuple:
    """(number of cases, sha256 of their texts) for one family."""
    texts = list(FAMILIES[name]())
    return len(texts), hashlib.sha256("\n\n".join(texts).encode()).hexdigest()


DIGESTS = {
    'filter': (76, 'df7bb45fb94e22f4db9d3d96f2ada253f88db259ac2d00f73eaf7236ce588a2f'),
    'averaged_filter': (76, 'ab84cb1e2c277f4fcad6e4b698be9691e61e600f1ba0a37e7d5ee2f23b8a7039'),
    'wheel': (12, 'b8d2142cdb55392ccbf5cef0f957c8b90436972cf665db08a23cd1fefbad4e78'),
    'r2': (16, 'c2367c3ee799e231a9911f10a9b85995bdd89a4ff3fe71b2ee8bc5017488d0ca'),
    'r5': (84, '7cc03ae78d88c20bb4bc102ce79ac5a51fd265b954199019ca9e4ea15a3c1f3b'),
    'spin': (111, '0059baa5166befc5486c1daf25698ce56e3a7ac2c05505a484d3f2b6bc53e3f4'),
    'spin_sigma': (1384, 'e77d8d176282c0ad39d411328ee8fe0dc3dc43eec92f6829a307e9f36eff7f49'),
    'spin_tau_sigma': (5801, 'e7d454a0fcfd0e4a971f9bed62a692339554b21803f1f79c38bb501d4053c05d'),
    'project_p': (228, '3871906880b068ec0b5ffe2b3cd4da643989b81af318a1c11c5a19adfa1d5701'),
    'include_permutohedron': (228, 'd100f3ed36a14c1d95fca902481d927d1757c366dd1bebbd8180b486dce0ed78'),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_chain_family_digest(name):
    assert family_digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for name in FAMILIES:
        print(f"    {name!r}: {family_digest(name)},")
