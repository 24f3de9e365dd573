import json
import shlex
import time
from pathlib import Path

import pytest

from stripconf.cells import enumerate_cells
from stripconf.cli import build_parser, main, parse_permutation

from test_homology import HARD_PACKING


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# permutation parsing


def test_parse_permutation():
    assert parse_permutation("(1 3)(2 4)") == {1: 3, 3: 1, 2: 4, 4: 2}
    assert parse_permutation("(1 2 3)") == {1: 2, 2: 3, 3: 1}
    assert parse_permutation("(1, 2, 3)") == {1: 2, 2: 3, 3: 1}
    assert parse_permutation("") == {}
    assert parse_permutation("(7)") == {}


def test_parse_permutation_errors():
    with pytest.raises(ValueError):
        parse_permutation("1 2")
    with pytest.raises(ValueError):
        parse_permutation("(1 2)(2 3)")
    with pytest.raises(ValueError):
        parse_permutation("(1 1)")


# ---------------------------------------------------------------------------
# betti


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", "--n", "3", "--w", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 7]
    assert payload["cells"] == [6, 12]
    assert payload["width"] == 2


def test_betti_table_single_degree(capsys):
    code, out, _ = run(capsys, "betti", "--labels", "1 2:2", "--w", "2",
                       "--degree", "0")
    assert code == 0
    assert "b0 = 2" in out


def test_betti_permutohedron(capsys):
    code, out, _ = run(capsys, "betti", "--kind", "perm", "--n", "3", "--w", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1]


def test_betti_irreps_json(capsys):
    code, out, _ = run(capsys, "betti", "--n", "4", "--w", "3", "--irreps",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 6, 29]
    h1 = payload["irreps"][1]
    assert h1["degree"] == 1
    assert [(t["shape"], t["dim"], t["multiplicity"]) for t in h1["terms"]] == \
        [([4], 1, 1), ([3, 1], 3, 1), ([2, 2], 2, 1)]
    for k, group in enumerate(payload["irreps"]):
        assert sum(t["dim"] * t["multiplicity"] for t in group["terms"]) == payload["betti"][k]


def test_betti_irreps_one_degree(capsys):
    code, out, _ = run(capsys, "betti", "--n", "4", "--w", "3", "--irreps",
                       "--degree", "1")
    assert code == 0
    assert out.splitlines()[1:] == ["b1 = 6", "H1 = V(4) + V(3,1) + V(2,2)"]


@pytest.mark.parametrize("argv", [["--kind", "perm", "--n", "3"],
                                  ["--labels", "1 2:2 3"]])
def test_betti_irreps_refused_off_unit_weight_cells(capsys, argv):
    code, out, err = run(capsys, "betti", *argv, "--w", "3", "--irreps")
    assert code == 2
    assert "unit weights and ordered blocks" in err and not out


def test_betti_needs_a_label_set(capsys):
    code, _, err = run(capsys, "betti", "--w", "2")
    assert code == 2
    assert "error:" in err


def test_betti_resource_refusal(capsys):
    code, _, err = run(capsys, "betti", "--n", "6", "--w", "3",
                       "--max-cells", "10")
    assert code == 3
    assert "refused:" in err


def test_betti_refuses_a_hard_packing_at_once(capsys):
    labels = " ".join(f"{a}:{w}" for a, w in enumerate(HARD_PACKING, 1))
    start = time.process_time()
    code, _, err = run(capsys, "betti", "--labels", labels, "--w", "10")
    assert time.process_time() - start < 0.5
    assert code == 3
    assert "refused:" in err


def test_missing_required_width_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["betti", "--n", "3"])


# ---------------------------------------------------------------------------
# verify


def test_verify_boundary(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "boundary", "--n", "3",
                       "--w", "2")
    assert code == 0
    assert "all checks passed" in out


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "relations", "--w", "2")
    assert code == 0
    assert "FAIL" not in out


def test_verify_basis_one_degree(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "basis", "--n", "3",
                       "--w", "2", "--degree", "1", "--style", "am",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert "7 words, betti 7" in payload["checks"][0]["name"]


def test_verify_decomposition(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "decomposition", "--n", "3",
                       "--w", "2")
    assert code == 0
    assert "6 sectors" in out


def test_verify_generation(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "generation", "--k", "1",
                       "--w", "2")
    assert code == 0


@pytest.mark.parametrize("scope", ["boundary", "basis", "decomposition"])
def test_verify_refuses_past_the_cap_before_enumerating(capsys, scope):
    before = enumerate_cells.cache_info().misses
    code, _, err = run(capsys, "verify", "--scope", scope, "--n", "3", "--w", "2",
                       "--max-cells", "10")
    assert code == 3
    assert "refused:" in err
    assert enumerate_cells.cache_info().misses == before


@pytest.mark.parametrize("command", [["reduce", "--word", "W(2,1)"],
                                     ["stability", "--k", "1"],
                                     ["verify", "--scope", "relations"],
                                     ["verify", "--scope", "generation", "--k", "1"]])
def test_max_cells_is_only_accepted_where_it_is_read(capsys, command):
    argv = command + ["--w", "2", "--max-cells", "10"]
    if command[0] == "verify":
        # the verify scopes that enumerate no complex refuse the cap as bad usage
        assert main(argv) == 2
        assert "--max-cells does not apply" in capsys.readouterr().err
        return
    with pytest.raises(SystemExit):
        main(argv)
    assert "unrecognized arguments: --max-cells" in capsys.readouterr().err


def test_verify_generation_needs_k(capsys):
    code, _, err = run(capsys, "verify", "--scope", "generation", "--w", "2")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# reduce


def test_reduce_swap(capsys):
    code, out, _ = run(capsys, "reduce", "--word", "W(3)|W(2,1)", "--w", "3")
    assert code == 0
    assert "W(2,1)|W(3)" in out


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", "--word", "W(3)|W(2,1)", "--w", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"coefficient": "1", "word": "W(2,1)|W(3)"}]


def test_reduce_trivial_filter_prints_zero(capsys):
    code, out, _ = run(capsys, "reduce", "--word", "AF(W(1),W(2),W(3))",
                       "--w", "3")
    assert code == 0
    assert out.strip() == "0"


def test_reduce_with_act(capsys):
    code, out, _ = run(capsys, "reduce", "--word", "W(2,1)", "--w", "2",
                       "--act", "(1 2)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"coefficient": "1", "word": "W(2,1)"}]
    assert payload["act"] == "(1 2)"


def test_reduce_with_quotient(capsys):
    code, out, _ = run(capsys, "reduce", "--word", "W(3)|W(2,1)", "--w", "3",
                       "--quotient", "1")
    assert code == 0
    assert out.strip() == "0"


def test_reduce_rejects_improper_wheel(capsys):
    code, _, err = run(capsys, "reduce", "--word", "W(1,2)", "--w", "2")
    assert code == 2
    assert "improper" in err


def test_reduce_rejects_syntax_errors(capsys):
    code, _, err = run(capsys, "reduce", "--word", "garbage", "--w", "2")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# stability


def test_stability_first_order(capsys):
    code, out, _ = run(capsys, "stability", "--k", "5", "--w", "4")
    assert code == 0
    assert "b=1, FI-width 2, generation degree 10" in out


def test_stability_higher_order(capsys):
    code, out, _ = run(capsys, "stability", "--k", "3", "--w", "4",
                       "--order", "2")
    assert code == 0
    assert "b=3, FIW(2)-width 4, generation degree 11" in out


def test_stability_with_check(capsys):
    code, out, _ = run(capsys, "stability", "--k", "1", "--w", "2", "--check")
    assert code == 0
    assert "ok" in out


def test_stability_rejects_narrow_strip(capsys):
    code, _, err = run(capsys, "stability", "--k", "1", "--w", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["stability", "--k", "-1", "--w", "3"], "degree >= 0, not 3 and -1"),
    (["stability", "--k", "1", "--w", "3", "--order", "0"], "order 0 at degree 1"),
    (["stability", "--k", "1", "--w", "3", "--order", "-3"], "order -3 at degree 1"),
    (["betti", "--n", "-2", "--w", "2"], "label count -2 is negative"),
    (["verify", "--scope", "generation", "--k", "1", "--w", "1"], "width >= 2"),
])
def test_out_of_range_integers_are_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err
    # the command itself raises, and main turns that into exit code 2
    args = build_parser().parse_args(argv)
    with pytest.raises(ValueError, match=message):
        args.run(args)


# ---------------------------------------------------------------------------
# the examples in README.md


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, expected stdout lines) for each `$ stripconf` line in a fenced
    block of README.md; the expected lines are those up to the next command
    or the end of the block."""
    examples, current = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ stripconf "):
            current = []
            examples.append((shlex.split(line[len("$ stripconf "):], comments=True), current))
        elif current is not None:
            current.append(line)
    return examples


def test_readme_has_examples():
    assert len(readme_examples()) == 11


@pytest.mark.parametrize("argv, expected", readme_examples(),
                         ids=[" ".join(argv) for argv, _ in readme_examples()])
def test_readme_example(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if expected:
        assert out.splitlines() == expected
