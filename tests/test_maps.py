import itertools
from fractions import Fraction

import pytest

from stripconf.cells import cell_complex, enumerate_cells, permutohedron, wheel_decomposition
from stripconf.chains import ChainVector, boundary, is_cycle
from stripconf.cycles import _generator_cycle
from stripconf.maps import (
    SpinStep,
    averaged_inclusion_q,
    comb,
    include_permutohedron,
    project_p,
    spin,
    spin_sigma,
    spin_target,
    spin_tau_sigma,
)

from conftest import random_chain


def test_spin_is_a_chain_map(rng):
    spec = cell_complex((1, 9), 4, (1, 3))
    step = SpinStep(9, 7, 8, 2, 1)
    for d in (0, 1):
        for _ in range(8):
            z = random_chain(spec, d, rng)
            assert boundary(spin(step, z)) == spin(step, boundary(z))


def test_spin_target_validation():
    spec = cell_complex((1, 9), 4, (1, 3))
    with pytest.raises(ValueError):
        spin_target(SpinStep(9, 7, 8, 1, 1), spec)  # weights must sum to 3
    with pytest.raises(ValueError):
        spin_target(SpinStep(9, 1, 8, 2, 1), spec)  # replacement label not fresh


def test_spin_raises_degree_and_splits_weight():
    spec = cell_complex((5,), 2, (2,))
    z = ChainVector(spec, 0, {((5,),): 1})
    out = spin(SpinStep(5, 1, 2, 1, 1), z)
    assert out.degree == 1
    assert out.spec.weights == (1, 1)
    assert out.coeffs == {((1, 2),): 1, ((2, 1),): 1}


def test_projection_kills_spin(rng):
    spec = cell_complex((1, 9), 4, (1, 3))
    step = SpinStep(9, 7, 8, 2, 1)
    for d in (0, 1):
        for _ in range(8):
            z = random_chain(spec, d, rng)
            assert project_p(spin(step, z)).is_zero()


def test_inclusions_are_chain_maps(rng):
    spec = permutohedron(4, 2)
    labels = spec.labels
    for _ in range(30):
        d = rng.choice((0, 1))
        z = random_chain(spec, d, rng, terms=2)
        order = tuple(rng.sample(labels, len(labels)))
        assert boundary(include_permutohedron(z, order)) == \
            include_permutohedron(boundary(z), order)
        assert boundary(averaged_inclusion_q(z)) == averaged_inclusion_q(boundary(z))


def test_q_is_the_average_of_signed_inclusions(rng):
    spec = permutohedron(4, 2)
    z = random_chain(spec, 1, rng, terms=3)
    total = None
    for order in itertools.permutations(spec.labels):
        term = include_permutohedron(z, order)
        total = term if total is None else total + term
    assert total.scale(Fraction(1, 24)) == averaged_inclusion_q(z)


def test_p_section_of_q(rng):
    spec = permutohedron(4, 2)
    for d in (0, 1):
        for _ in range(10):
            z = random_chain(spec, d, rng)
            assert project_p(averaged_inclusion_q(z)) == z
            assert project_p(include_permutohedron(z)) == z


def test_q_on_three_units_is_the_half_hexagon():
    spec = permutohedron(3, 2)
    top = ChainVector(permutohedron(3, None), 2, {((1, 2, 3),): 1})
    z = boundary(top)
    z = ChainVector(spec, 1, {c: v for c, v in z.coeffs.items()
                              if all(len(b) <= 2 for b in c)})
    img = averaged_inclusion_q(z)
    assert is_cycle(img)
    halves = {v for v in img.coeffs.values()}
    assert halves <= {Fraction(1, 2), Fraction(-1, 2)}
    assert len(img.coeffs) == 12


def test_spin_sigma_expands_axles_to_wheels():
    sigma = (2, 1, 3)
    dec = wheel_decomposition(sigma)
    spec = cell_complex(dec.superlabels, 2, dec.weights)
    z = ChainVector(spec, 0, {((2,), (3,)): 1})
    out = spin_sigma(sigma, z)
    assert out.spec.labels == (1, 2, 3)
    assert out.coeffs == {((2, 1), (3,)): 1, ((1, 2), (3,)): 1}


def test_spin_sigma_rejects_wrong_home():
    spec = cell_complex((1, 2), 2)
    z = ChainVector(spec, 0, {((1,), (2,)): 1})
    with pytest.raises(ValueError):
        spin_sigma((2, 1, 3), z)


def test_spin_composition_matches_direct_filter_chain():
    # build the averaged filter by the definitional route: take the boundary
    # of the top permutohedron cell on the axles, average block orders, then
    # spin every axle out to its wheel; must agree with the direct chain.
    for sigma, width in [((2, 1, 3), 4), ((1, 3, 2, 4), 4), ((3, 2, 4, 5), 4),
                         ((1, 2, 4, 3), 4), ((2, 1, 4, 3, 5), 5)]:
        dec = wheel_decomposition(sigma)
        pspec = permutohedron(dec.superlabels, width, dec.weights)
        m = len(dec.wheels)
        top = ChainVector(pspec, m - 1, {(dec.superlabels,): Fraction(1)})
        built = spin_sigma(sigma, averaged_inclusion_q(boundary(top)))
        direct = _generator_cycle(tuple(comb(w) for w in dec.wheels), width, True)
        assert built == direct


def test_spin_tau_sigma_unwinds_merged_wheels():
    # tau glues sigma's wheels (2,1) and (3,) into one wheel (3,2,1)
    sigma, tau = (2, 1, 3), (3, 2, 1)
    dec_t = wheel_decomposition(tau)
    spec_t = cell_complex(dec_t.superlabels, 3, dec_t.weights)
    z = ChainVector(spec_t, 0, {((3,),): 1})
    out = spin_tau_sigma(tau, sigma, z)
    dec_s = wheel_decomposition(sigma)
    assert out.spec.labels == dec_s.superlabels
    assert out.spec.weights == dec_s.weights
    assert out.degree == 1
    assert out.coeffs == {((3, 2),): 1, ((2, 3),): -1}
