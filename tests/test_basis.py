import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from stripconf.basis import (
    AM,
    AMW,
    basis_change,
    basis_cycle,
    enumerate_basis,
    verify_basis,
)
import stripconf.basis as basis
from stripconf.cells import cell_complex
from stripconf.chains import is_cycle
import stripconf.cycles as cycles
from stripconf.cycles import AvgFilter, Filter, Wheel
import stripconf.homology as homology
from stripconf.homology import CertificateError, ResourceRefusal, betti_number
from stripconf.linalg import Echelon


def test_am_basis_frozen_at_three_disks_width_two():
    words = enumerate_basis(3, 2, 1, AM)
    assert [str(w) for w in words] == [
        "W(2,1)|W(3)",
        "W(3,1)|W(2)",
        "W(3,2)|W(1)",
        "F(W(1),W(2),W(3))",
        "F(W(1),W(3,2))",
        "F(W(2),W(3,1))",
        "F(W(3),W(2,1))",
    ]


def test_amw_basis_frozen_at_three_disks_width_two():
    words = enumerate_basis(3, 2, 1, AMW)
    assert [str(w) for w in words] == [
        "W(2,1)|W(3)",
        "W(3,1)|W(2)",
        "W(3,2)|W(1)",
        "W(1)|W(3,2)",
        "W(2)|W(3,1)",
        "W(3)|W(2,1)",
        "AF(W(1),W(2),W(3))",
    ]


def test_degree_zero_word_is_unique():
    for style in (AM, AMW):
        words = enumerate_basis(3, 2, 0, style)
        assert [str(w) for w in words] == ["W(3)|W(2)|W(1)"]


def test_basis_styles_use_their_own_filters():
    for style, cls in ((AM, Filter), (AMW, AvgFilter)):
        for word in enumerate_basis(4, 2, 2, style):
            for f in word.factors:
                if not isinstance(f, Wheel):
                    assert type(f) is cls
                    if style == AMW:
                        assert f.arity >= 3


def test_enumeration_rejects_an_unknown_style():
    with pytest.raises(ValueError, match="unknown basis style"):
        enumerate_basis(3, 2, 1, "amx")


def test_enumeration_is_deterministic():
    a = enumerate_basis(4, 3, 2, AMW)
    b = enumerate_basis(4, 3, 2, AMW)
    assert a == b


def test_counts_match_betti_small():
    for n, w in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
        spec = cell_complex(range(1, n + 1), w)
        for k in range(n):
            b = betti_number(spec, k)
            for style in (AM, AMW):
                words = enumerate_basis(n, w, k, style)
                assert len(words) == b, (n, w, k, style)


def test_verify_basis_reports_ok():
    for style in (AM, AMW):
        rep = verify_basis(3, 2, 1, style)
        assert rep.ok
        assert rep.count == rep.betti == 7
        assert "ok" in str(rep)
    rep = verify_basis(4, 3, 2, AMW)
    assert rep.ok


def test_verify_basis_reads_betti_from_its_echelons_in_any_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_basis ranked isotypic blocks")

    monkeypatch.setattr(homology, "_image_cache", {})
    monkeypatch.setattr(homology, "block_ranks", refuse)
    reports = [verify_basis(5, 3, k) for k in (3, 2, 1, 0)]
    assert [rep.betti for rep in reports] == [40, 169, 10, 1]
    assert all(rep.ok for rep in reports)


def test_verify_basis_refuses_before_building_a_word_cycle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a word cycle was built")

    monkeypatch.setattr(cycles, "word_cycle", refuse)
    monkeypatch.setattr(basis, "basis_cycle", refuse)
    with pytest.raises(ResourceRefusal):
        verify_basis(5, 3, 2, max_cells=1)


# cell(5;3) has 120, 480, 720 and 240 cells in degrees 0-3: a cap of 1000
# passes degrees 0 and 1 and refuses degrees 1 and 2
@pytest.mark.parametrize("degree,cap", [(2, 1), (1, 1000)])
def test_verify_basis_refuses_before_enumerating_words(monkeypatch, degree, cap):
    def refuse(*args, **kwargs):
        raise AssertionError("the basis words were enumerated")

    monkeypatch.setattr(basis, "enumerate_basis", refuse)
    with pytest.raises(ResourceRefusal):
        verify_basis(5, 3, degree, max_cells=cap)


def test_basis_change_refuses_before_enumerating_words(monkeypatch):
    # degrees 4-6 of cell(9;3) hold 22.5 M cells, past the default cap
    def refuse(*args, **kwargs):
        raise AssertionError("the basis words were enumerated")

    monkeypatch.setattr(basis, "enumerate_basis", refuse)
    monkeypatch.setattr(basis, "basis_cycle", refuse)
    with pytest.raises(ResourceRefusal, match=r"across degrees \[4, 5, 6\]"):
        basis_change(9, 3, 4)


def test_verify_basis_checks_its_betti_number(monkeypatch):
    monkeypatch.setattr(Echelon, "rank", property(lambda self: 10 ** 6))
    with pytest.raises(CertificateError, match="negative Betti number"):
        verify_basis(3, 2, 1)


def test_basis_cycles_live_in_the_right_complex():
    spec = cell_complex((1, 2, 3, 4), 2)
    for word in enumerate_basis(4, 2, 2, AMW):
        z = basis_cycle(word, 2)
        assert z.spec == spec
        assert z.degree == 2
        assert is_cycle(z)


def test_amw_inversions_need_oversize_pairs():
    # W(1)|W(2) has an inversion and fits in the width, so it is not a word
    words = {str(w) for w in enumerate_basis(2, 2, 0, AMW)}
    assert words == {"W(2)|W(1)"}
    # at width 2 the inverted pair W(1)|W(3,2) is legal since 1+2 > 2
    words = {str(w) for w in enumerate_basis(3, 2, 1, AMW)}
    assert "W(1)|W(3,2)" in words


def test_basis_change_triangular():
    change = basis_change(3, 2, 1)
    assert change.triangular is True
    assert len(change.amw_words) == len(change.am_words) == 7
    # bare decreasing words are fixed by the change of basis
    for i, w in enumerate(change.amw_words[:3]):
        row = change.matrix[i]
        assert row[change.am_words.index(w)] == 1
        assert sum(1 for c in row if c) == 1
    text = str(change)
    assert "triangular with unit diagonal: True" in text


def test_basis_change_four_disks():
    change = basis_change(4, 3, 2)
    assert change.triangular is True


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name from here on, in a dict under "calls"."""
    seen = {"calls": 0}
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        seen["calls"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return seen


def test_basis_change_reduces_each_cycle_once(monkeypatch):
    residues = counting(monkeypatch, Echelon, "residue")
    cycle_checks = counting(monkeypatch, homology, "is_cycle")
    change = basis_change(4, 3, 2)
    words = len(change.am_words)
    assert words == len(change.amw_words) == 29
    # the coordinates need no residue: one remainder check per amw word
    assert residues["calls"] == words
    assert cycle_checks["calls"] == 0


def test_verify_basis_reports_and_reads_no_residue(monkeypatch):
    residues = counting(monkeypatch, Echelon, "residue")
    asked = [(5, 3, k) for k in range(4)] + [(4, 2, k) for k in range(3)]
    reports = [verify_basis(*a, style=s) for a in asked for s in (AM, AMW)]
    assert [(r.count, r.betti, r.independent) for r in reports] == [
        (1, 1, True), (1, 1, True), (10, 10, True), (10, 10, True),
        (169, 169, True), (169, 169, True), (40, 40, True), (40, 40, True),
        (1, 1, True), (1, 1, True), (31, 31, True), (31, 31, True),
        (6, 6, True), (6, 6, True)]
    assert residues["calls"] == 0


def test_verify_basis_sees_a_repeated_word(monkeypatch):
    # the extension starts from the image rows: independence is the rank
    # the word cycles add, not the rank of the whole extension
    real = basis.enumerate_basis
    monkeypatch.setattr(basis, "enumerate_basis", lambda *args: real(*args) + real(*args)[:1])
    report = verify_basis(4, 2, 1, style=AM)
    assert (report.count, report.betti, report.independent) == (32, 31, False)


def snapshot(ech):
    index = None if ech.rows_at is None else {p: list(r) for p, r in ech.rows_at.items()}
    return ech.rank, list(ech.rows), list(ech.pivots_of), dict(ech.pivot_row), index


@pytest.mark.parametrize("certify_first", [False, True])
def test_reducing_word_cycles_leaves_the_cached_image_echelons(monkeypatch, certify_first):
    monkeypatch.setattr(homology, "_image_cache", {})
    spec = cell_complex(4, 3)
    cycles = [basis_cycle(w, 3) for w in enumerate_basis(4, 3, 2, AM)]
    images = {k: homology.image_echelon(spec, k) for k in (1, 2)}
    if certify_first:
        # a cycle that does not bound: its certificate builds the column index
        assert homology.is_boundary(cycles[0]).certificate
        assert images[2].rows_at is not None
    before = {k: snapshot(ech) for k, ech in images.items()}
    for s in (AM, AMW):
        assert verify_basis(4, 3, 2, style=s).ok
    basis_change(4, 3, 2)
    assert homology.express(cycles[1] - cycles[0], cycles).coefficients[:3] == (-1, 1, 0)
    assert all(homology._image_cache[(spec, k)] is ech for k, ech in images.items())
    assert {k: snapshot(ech) for k, ech in images.items()} == before
    # a certificate asked afterwards still checks against the image rows
    assert homology.is_boundary(cycles[1]).certificate


def test_basis_checks_raise_under_python_O():
    script = textwrap.dedent("""
        import sys
        from stripconf import basis
        from stripconf.homology import CertificateError, ExpressResult

        try:
            basis.enumerate_basis(3, 2, 1, "xx")
        except ValueError:
            print("ValueError")
        basis._express = lambda chain, cycles, *reduced: ExpressResult(False)
        try:
            basis.basis_change(3, 2, 1)
        except CertificateError:
            print("CertificateError", sys.flags.optimize)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError", "CertificateError", "1"]
