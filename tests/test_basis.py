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


def test_basis_change_reduces_each_cycle_once(monkeypatch):
    calls = {"residue": 0, "is_cycle": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Echelon, "residue", counted("residue", Echelon.residue))
    monkeypatch.setattr(homology, "is_cycle", counted("is_cycle", homology.is_cycle))
    change = basis_change(4, 3, 2)
    words = len(change.am_words)
    assert words == len(change.amw_words) == 29
    # one residue per am cycle, and per amw cycle its target and its remainder
    assert calls["residue"] <= 3 * words
    assert calls["is_cycle"] == 0


def test_only_coordinate_readers_track_their_residues(monkeypatch):
    # verify_basis reads only the rank of the reduced word cycles, so its
    # residue echelon is untracked; basis_change and express read coordinates
    real = homology._modulo_boundaries
    tracked = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        tracked.append(out[2].track)
        return out

    def all_tracked(*args, rank_only=False, **kwargs):
        return real(*args, **kwargs)

    asked = [(5, 3, k) for k in range(4)] + [(4, 2, k) for k in range(3)]
    monkeypatch.setattr(basis, "_modulo_boundaries", spy)
    reports = [verify_basis(*a, style=s) for a in asked for s in (AM, AMW)]
    assert tracked == [False] * 2 * len(reports)
    assert [r.betti for r in reports[:8:2]] == [1, 10, 169, 40]
    assert all(r.ok for r in reports)
    tracked.clear()
    basis_change(4, 3, 2)
    assert tracked == [True]
    monkeypatch.setattr(homology, "_modulo_boundaries", spy)
    homology.express(basis_cycle(enumerate_basis(3, 2, 1, AMW)[0], 2),
                     [basis_cycle(w, 2) for w in enumerate_basis(3, 2, 1, AM)])
    assert tracked == [True, True]
    monkeypatch.setattr(basis, "_modulo_boundaries", all_tracked)
    assert [verify_basis(*a, style=s) for a in asked for s in (AM, AMW)] == reports


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
