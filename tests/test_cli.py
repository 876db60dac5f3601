"""Tests for the command-line surface and the result cache."""

import json

import numpy as np
import pytest

from skostka import cli, modrep, reduction, tabx
from skostka.combinat import enumerate_p2p, total_key

P = 3


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# label strings


def test_label_round_trip():
    for n in range(0, 7):
        for label in enumerate_p2p(n, P):
            s = cli.format_label(label, P)
            assert cli.parse_label(s, P) == label


def test_label_strings():
    assert cli.format_label(((2, 1), (1,)), 3) == "2,1|3"
    assert cli.format_label(((), ()), 3) == "-|-"
    assert cli.parse_label("4,2|-", 3) == ((4, 2), ())
    assert cli.parse_label("-|3,3", 3) == ((), (1, 1))


def test_label_parse_errors():
    with pytest.raises(cli.UsageError):
        cli.parse_label("4,2", 3)
    with pytest.raises(cli.UsageError):
        cli.parse_label("2,1|4", 3)
    with pytest.raises(cli.UsageError):
        cli.parse_label("1,2|-", 3)
    with pytest.raises(cli.UsageError):
        cli.parse_part("2,x")
    with pytest.raises(cli.UsageError):
        cli.parse_part("2,0,1")


# ---------------------------------------------------------------------------
# the matrix type and the cache


def small_matrix():
    labels = ["2|-", "1,1|-"]
    return cli.KostkaMatrix(2, P, True, labels, [[1, 0], [1, 1]])


def test_matrix_validation():
    km = small_matrix()
    assert [cli.parse_label(s, P) for s in km.labels] == [((2,), ()), ((1, 1), ())]
    with pytest.raises(cli.UsageError):
        cli.KostkaMatrix(2, P, True, ["2|-", "1,1|-"], [[1, 1], [1, 1]])
    with pytest.raises(cli.UsageError):
        cli.KostkaMatrix(2, P, True, ["1,1|-", "2|-"], [[1, 0], [1, 1]])
    with pytest.raises(cli.UsageError):
        cli.KostkaMatrix(2, P, True, ["2|-"], [[1, 0], [1, 1]])


def test_cache_round_trip(tmp_path):
    km = small_matrix()
    path = cli.cache_path(tmp_path, 2, P, True)
    cli.save_cache(path, km, "direct", 0)
    back = cli.load_cache(path, 2, P, True, "direct")
    assert back is not None
    assert back.labels == km.labels and back.matrix == km.matrix
    assert cli.load_cache(path, 2, P, True, "reduction") is None
    assert cli.load_cache(path, 3, P, True, "direct") is None
    obj = json.loads(path.read_text())
    assert set(obj) == {
        "version", "n", "p", "signed", "labels", "matrix", "engine", "seed",
    }
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    assert cli.load_cache(path, 2, P, True, "direct") is None


def test_partial_cache_is_recomputed(tmp_path, capsys):
    argv = ["matrix", "--n", "3", "--p", "3", "--signed",
            "--cache-dir", str(tmp_path)]
    code, full, _ = run(argv, capsys)
    assert code == 0
    path = cli.cache_path(tmp_path, 3, P, True)
    obj = json.loads(path.read_text())
    assert len(obj["labels"]) == 4
    # a legal lower unitriangular matrix, but over 2 of the 4 labels
    obj["labels"] = obj["labels"][:2]
    obj["matrix"] = [row[:2] for row in obj["matrix"][:2]]
    path.write_text(json.dumps(obj))
    assert cli.load_cache(path, 3, P, True, "direct") is None
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == full and len(out.splitlines()) == 5


def test_malformed_cache_is_recomputed(tmp_path, capsys):
    """A cache file that is valid JSON of the wrong shape counts as
    stale: a list, a non-integer entry and a null matrix."""
    argv = ["matrix", "--n", "3", "--p", "3", "--signed",
            "--cache-dir", str(tmp_path)]
    code, full, _ = run(argv, capsys)
    assert code == 0
    path = cli.cache_path(tmp_path, 3, P, True)
    good = json.loads(path.read_text())
    entry = json.loads(path.read_text())
    entry["matrix"][1][0] = "x"
    null = dict(good, matrix=None)
    for payload in ([good], entry, null):
        path.write_text(json.dumps(payload))
        assert cli.load_cache(path, 3, P, True, "direct") is None
        code, out, _ = run(argv, capsys)
        assert code == 0 and out == full
        assert json.loads(path.read_text()) == good


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert cli.cache_dir(str(tmp_path)) == tmp_path
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "env"))
    assert cli.cache_dir(None) == tmp_path / "env"
    monkeypatch.delenv(cli.CACHE_ENV)
    assert cli.cache_dir(None).name == "skostka"


def test_fixture_file_loads():
    ref = cli.load_fixture()
    assert ref["n"] == 6 and ref["p"] == 3 and ref["signed"] is True
    assert len(ref["labels"]) == 16
    assert len(ref["matrix"]) == 16
    pairs = [cli.parse_label(s, 3) for s in ref["labels"]]
    assert pairs == sorted(pairs, key=total_key)
    assert ref["matrix"][2][1] == 1 and ref["matrix"][10][2] == 9


# ---------------------------------------------------------------------------
# subcommands


def test_matrix_trivial_degree(tmp_path, capsys):
    code, out, _ = run(
        ["matrix", "--n", "0", "--p", "3", "--signed",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == [",-|-", "-|-,1"]


def test_matrix_csv_and_json_agree(tmp_path, capsys):
    argv = ["matrix", "--n", "3", "--p", "3", "--signed",
            "--cache-dir", str(tmp_path)]
    code, out_csv, _ = run(argv, capsys)
    assert code == 0
    code, out_json, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out_json)
    rows = [line.split(",") for line in out_csv.splitlines()[1:]]
    got = [[int(x) for x in r[-len(obj["labels"]):]] for r in rows]
    assert got == obj["matrix"]
    assert obj["engine"] == "direct" and obj["seed"] == 0


def test_matrix_cache_hit_skips_recompute(tmp_path, capsys):
    # plant a legal but recognizably different cache entry; a hit must
    # reproduce it verbatim instead of recomputing
    planted = cli.KostkaMatrix(2, P, True, ["2|-", "1,1|-"], [[1, 0], [2, 1]])
    path = cli.cache_path(tmp_path, 2, P, True)
    cli.save_cache(path, planted, "direct", 0)
    code, out, _ = run(
        ["matrix", "--n", "2", "--p", "3", "--signed",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[2] == '"1,1|-",2,1'


def test_matrix_engines_agree(tmp_path, capsys):
    argv = ["matrix", "--n", "3", "--p", "3", "--signed", "--engine", "both",
            "--cache-dir", str(tmp_path)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(cli.cache_path(tmp_path, 3, P, True).read_text())[
        "engine"
    ] == "direct"


def plant_one_off(monkeypatch, target):
    """reduction.signed_kostka one too large at the (pair, label) target."""
    real = reduction.signed_kostka

    def planted(ab, x, oracle):
        return real(ab, x, oracle) + ((ab, x) == target)

    monkeypatch.setattr(reduction, "signed_kostka", planted)


def test_matrix_engines_disagree(tmp_path, capsys, monkeypatch):
    plant_one_off(monkeypatch, (((2, 1), ()), ((2, 1), ())))
    argv = ["matrix", "--n", "3", "--p", "3", "--signed", "--engine", "both",
            "--cache-dir", str(tmp_path)]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "mismatch: engines disagree at row 2,1|- column 2,1|-: "
        "direct 1, reduction 2"
    ]
    assert not cli.cache_path(tmp_path, 3, P, True).exists()


def test_engine_defect_is_an_integrity_failure(tmp_path, capsys, monkeypatch):
    """A computed matrix that is not unitriangular is an engine defect,
    exit 2 naming the engine and (n, p), not a usage error."""
    real = modrep.assemble_matrix

    def planted(n, p, signed=True, engine=None):
        labels, mat = real(n, p, signed=signed, engine=engine)
        mat = mat.copy()
        mat[0, 1] = 1
        return labels, mat

    monkeypatch.setattr(modrep, "assemble_matrix", planted)
    argv = ["matrix", "--n", "3", "--p", "3", "--cache-dir", str(tmp_path)]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_MISMATCH and out == ""
    assert err.splitlines() == [
        "integrity failure: direct engine at n=3, p=3: "
        "matrix is not lower unitriangular"
    ]
    assert not cli.cache_path(tmp_path, 3, P, True).exists()


def test_matrix_plain(tmp_path, capsys):
    code, out, _ = run(
        ["matrix", "--n", "3", "--p", "3", "--plain",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",3|-,2,1|-,1,1,1|-".replace("2,1|-", '"2,1|-"').replace(
        "1,1,1|-", '"1,1,1|-"'
    )
    assert [l.split(",")[-3:] for l in lines[1:]] == [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "1", "1"],
    ]


def test_entry_examples(capsys):
    code, out, _ = run(
        ["entry", "--p", "3", "--alpha", "1,1,1", "--beta", "6,3,3",
         "--lambda", "2,2,1,1", "--mu", "2,1", "--method", "reduction"],
        capsys,
    )
    assert code == 0 and out.strip() == "9"
    code, out, _ = run(
        ["entry", "--p", "3", "--alpha", "5,1", "--beta", "-",
         "--lambda", "6", "--mu", "-", "--method", "direct"],
        capsys,
    )
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(
        ["entry", "--p", "3", "--alpha", "4,2", "--beta", "-",
         "--lambda", "4,2", "--mu", "-"],
        capsys,
    )
    assert code == 0 and out.strip() == "1"


def test_entry_both_agree(capsys):
    code, out, _ = run(
        ["entry", "--p", "3", "--alpha", "2,1", "--beta", "3",
         "--lambda", "2,1", "--mu", "1", "--method", "both"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["1", "engines agree"]


def test_entry_both_disagree(capsys, monkeypatch):
    plant_one_off(monkeypatch, (((2, 1), (3,)), ((2, 1), (1,))))
    code, out, err = run(
        ["entry", "--p", "3", "--alpha", "2,1", "--beta", "3",
         "--lambda", "2,1", "--mu", "1", "--method", "both"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "mismatch: engines disagree: direct 1, reduction 2"
    ]


def test_entry_size_mismatch(capsys):
    code, _, err = run(
        ["entry", "--p", "3", "--alpha", "2", "--beta", "-",
         "--lambda", "3", "--mu", "-"],
        capsys,
    )
    assert code == 1 and "size mismatch" in err


def test_even_prime_rejected(capsys):
    code, _, err = run(
        ["entry", "--p", "2", "--alpha", "2", "--beta", "-",
         "--lambda", "2", "--mu", "-"],
        capsys,
    )
    assert code == 1


def test_decompose_examples(capsys):
    code, out, _ = run(["decompose", "--p", "3", "--alpha", "2,1", "--beta", "3"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "3,1,1,1|-: 1",
        "2,2,1,1|-: 1",
        "2,1|3: 1",
    ]
    code, out, _ = run(["decompose", "--p", "3", "--alpha", "6", "--beta", "-"], capsys)
    assert code == 0 and out.splitlines() == ["6|-: 1"]
    code, out, _ = run(["decompose", "--p", "3", "--alpha", "-", "--beta", "3,3"], capsys)
    assert code == 0
    assert out.splitlines() == ["2,2,1,1|-: 1", "-|6: 1", "-|3,3: 1"]


def refuse_builds(monkeypatch):
    """build_module, raising on a call: a refusal must come first."""

    def refuse(ab, *args, **kwargs):
        raise AssertionError(f"build_module{ab} called before the refusal")

    monkeypatch.setattr(modrep, "build_module", refuse)


def test_decompose_dimension_cap(capsys, monkeypatch):
    """M(1^9) at p = 5 needs the degree-9 sweep, which would split
    M(5,1,1,1,1), over the cap: exit 3 before any module is built."""
    refuse_builds(monkeypatch)
    code, _, err = run(
        ["decompose", "--p", "5", "--alpha", "1,1,1,1,1,1,1,1,1", "--beta", "-"],
        capsys,
    )
    assert code == 3 and "refused:" in err and "3024" in err


def test_matrix_degree_nine_refused_before_building(tmp_path, capsys, monkeypatch):
    """Degree 9 = p^2 at p = 3 has no species, so its sweep is refused
    before any module is built."""
    refuse_builds(monkeypatch)
    code, _, err = run(
        ["matrix", "--n", "9", "--p", "3", "--signed", "--engine", "direct",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 3 and "refused:" in err
    assert "degree 9 >= p^2 = 9" in err


def test_matrix_degree_nine_names_the_module(tmp_path, capsys, monkeypatch):
    """At p = 5 the refusal names M(5,1,1,1,1), the first row the
    degree-9 sweep would split over the cap, of dimension 9!/5! = 3024;
    M(1^9), of dimension 9!, is counted, not split, so it is not named."""
    refuse_builds(monkeypatch)
    code, _, err = run(
        ["matrix", "--n", "9", "--p", "5", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 3
    assert "M((5, 1, 1, 1, 1), ())" in err and "3024" in err
    assert str(modrep.DIM_CAP) in err


def test_cap_message_quotes_no_memory(tmp_path, capsys):
    """The reduction side at degree 18 asks the direct engine below it
    for a degree past p^2; the refusal names the degree and p^2, and
    quotes no memory figure."""
    code, _, err = run(
        ["matrix", "--n", "18", "--p", "3", "--engine", "reduction",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 3
    assert "degree 18 >= p^2 = 9" in err
    assert "memory" not in err and "GB" not in err


@pytest.mark.parametrize("method", ["both", "direct"])
def test_entry_over_the_cap_refused_before_the_reduction(capsys, monkeypatch, method):
    """The worked degree-15 entry: its direct side needs the degree-15
    sweep, past p^2 = 9, so the command exits 3 without starting the
    reduction side or building a module."""
    called = []

    def refuse(*args, **kwargs):
        called.append(args)
        raise RuntimeError("reached after the cap should have refused")

    monkeypatch.setattr(reduction, "signed_kostka", refuse)
    monkeypatch.setattr(modrep, "build_module", refuse)
    code, out, err = run(
        ["entry", "--p", "3", "--alpha", "1,1,1", "--beta", "6,3,3",
         "--lambda", "2,2,1,1", "--mu", "2,1", "--method", method],
        capsys,
    )
    assert code == 3 and out == "" and "refused:" in err
    assert "degree 15 >= p^2 = 9" in err
    assert called == []


@pytest.mark.parametrize("p", (3, 5))
def test_matrix_degree_seven_engines_agree(p, tmp_path, capsys):
    """Degree 7, past 6! but with every row it splits within the cap, is
    answered, and the two engines agree on it."""
    code, out, err = run(
        ["matrix", "--n", "7", "--p", str(p), "--signed", "--engine", "both",
         "--format", "csv", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + len(enumerate_p2p(7, p))


def test_decompose_regular_module_of_degree_seven(capsys):
    """M(1^7), of dimension 7! over the cap, is solved from its counted
    species, never built: at p = 3 its multiplicities are the dimensions
    of the 3-modular simple modules of S_7, as for any regular module."""
    code, out, _ = run(
        ["decompose", "--p", "3", "--alpha", "1,1,1,1,1,1,1", "--beta", "-"], capsys
    )
    assert code == 0
    assert [int(line.split(": ")[1]) for line in out.splitlines()] == [
        13, 15, 6, 20, 15, 1, 13, 6, 1
    ]


def test_entry_both_engines_readme_example(capsys):
    code, out, _ = run(
        ["entry", "--p", "3", "--alpha", "2,1,1", "--beta", "1",
         "--lambda", "3,1,1", "--mu", "-", "--method", "both"],
        capsys,
    )
    assert code == 0 and out.split("\n")[:2] == ["3", "engines agree"]


def test_tableaux_examples(capsys):
    code, out, _ = run(
        ["tableaux", "--lambda", "3,2,1,1", "--alpha", "3,2", "--beta", "1,1"],
        capsys,
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        ["tableaux", "--lambda", "2", "--alpha", "-", "--beta", "2"], capsys
    )
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(
        ["tableaux", "--lambda", "6", "--alpha", "6", "--beta", "-"], capsys
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        ["tableaux", "--lambda", "2,1", "--alpha", "2,1", "--beta", "-",
         "--list"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert len(out.splitlines()) == 2


def test_iso_examples(capsys):
    code, out, _ = run(
        ["iso", "--pair1", "2,1,1|1", "--pair2", "2,1|1,1"], capsys
    )
    assert code == 0 and out.strip() == "isomorphic"
    code, out, _ = run(["iso", "--pair1", "2|-", "--pair2", "1,1|-"], capsys)
    assert code == 0 and out.strip() == "not isomorphic"
    code, out, _ = run(
        ["iso", "--pair1", "1,1|-", "--pair2", "|1,1", "--modular-check", "3"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["isomorphic", "module-level: isomorphic"]
    # parts in any order, as decompose and entry take them
    code, out, _ = run(
        ["iso", "--pair1", "1,2|-", "--pair2", "2,1|-", "--modular-check", "3"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["isomorphic", "module-level: isomorphic"]


def test_iso_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(modrep, "modules_isomorphic", lambda *a, **k: False)
    code, _, err = run(
        ["iso", "--pair1", "1,1|-", "--pair2", "|1,1", "--modular-check", "3"],
        capsys,
    )
    assert code == 2 and "disagree" in err


def test_iso_refusals_print_no_verdict(capsys):
    # a bad prime, an oversized module or a degree with no species is
    # refused before the combinatorial verdict is printed
    code, out, err = run(
        ["iso", "--pair1", "2,1|1", "--pair2", "2,1,1|-", "--modular-check", "9"],
        capsys,
    )
    assert code == 1 and out == "" and "odd prime" in err
    code, out, err = run(
        [
            "iso",
            "--pair1",
            "1,1,1,1,1,1,1|-",
            "--pair2",
            "2,1,1,1,1,1|-",
            "--modular-check",
            "3",
        ],
        capsys,
    )
    assert code == 3 and out == "" and "5040" in err
    # degree 9 = p^2 has no species: the equal fingerprints of M(8,1)
    # and M(8|1) leave the question to it, and it is refused
    code, out, err = run(
        ["iso", "--pair1", "8,1|-", "--pair2", "8|1", "--modular-check", "3"],
        capsys,
    )
    assert code == 1 and out == "" and "Sylow subgroups of S_9" in err


def test_verify_small_suites(capsys):
    for suite in ("tableaux", "blocks", "reduction", "iso", "rowcut"):
        n = "4" if suite == "tableaux" else "3"
        code, out, _ = run(["verify", "--suite", suite, "--n", n, "--p", "3"], capsys)
        assert code == 0 and "[pass]" in out, suite
        assert suite != "tableaux" or "3/3 checks passed" in out


def test_verify_fixture_needs_published_degree(capsys):
    code, _, err = run(
        ["verify", "--suite", "fixtures", "--n", "5", "--p", "3"], capsys
    )
    assert code == 1 and "n=6" in err


@pytest.mark.parametrize("suite", ["tableaux", "blocks", "iso", "all"])
def test_verify_rejects_negative_degree(capsys, suite):
    code, out, err = run(["verify", "--suite", suite, "--n", "-1"], capsys)
    assert code == 1 and "--n must be nonnegative" in err
    assert out == ""


# ---------------------------------------------------------------------------
# every verify suite reports a planted wrong value as [FAIL] with exit 2


def assert_fails(argv, line, capsys):
    code, out, _ = run(["verify", *argv], capsys)
    assert code == 2
    assert line in out.splitlines()


def test_verify_fixtures_fail_on_altered_entry(capsys, monkeypatch):
    # the engine side is the reference itself, so nothing is computed
    ref = cli.load_fixture()
    labels = [cli.parse_label(s, 3) for s in ref["labels"]]
    matrix = np.array(ref["matrix"])
    monkeypatch.setattr(
        modrep, "assemble_matrix", lambda *a, **k: (labels, matrix.copy())
    )
    altered = json.loads(json.dumps(ref))
    altered["matrix"][5][2] += 1
    monkeypatch.setattr(cli, "load_fixture", lambda: altered)
    code, out, _ = run(["verify", "--suite", "fixtures"], capsys)
    assert code == 2
    assert out.splitlines() == [
        "[pass] fixtures: reference label order",
        "[FAIL] fixtures: reference matrix entries",
        "1/2 checks passed",
    ]


def test_verify_reduction_fails_on_wrong_entry(capsys, monkeypatch):
    plant_one_off(monkeypatch, (((2, 1), ()), ((2, 1), ())))
    assert_fails(
        ["--suite", "reduction", "--n", "3"],
        "[FAIL] reduction: cross-engine row 2,1|-",
        capsys,
    )


def test_verify_blocks_fail_on_wrong_entry(capsys, monkeypatch):
    real = modrep.assemble_matrix

    def planted(n, p, signed=True, engine=None):
        labels, mat = real(n, p, signed=signed, engine=engine)
        if signed:
            mat = mat.copy()
            mat[1, 0] += 1
        return labels, mat

    monkeypatch.setattr(modrep, "assemble_matrix", planted)
    assert_fails(
        ["--suite", "blocks", "--n", "3"],
        "[FAIL] blocks: diagonal block |mu|=0 is the plain Kronecker product",
        capsys,
    )


def test_verify_rowcut_fails_on_raised_bound(capsys, monkeypatch):
    real = reduction.rowcut_lower_bound

    def planted(ab, x, r, s, oracle):
        return real(ab, x, r, s, oracle) + (ab == ((3,), ()))

    monkeypatch.setattr(reduction, "rowcut_lower_bound", planted)
    assert_fails(
        ["--suite", "rowcut", "--n", "3"],
        "[FAIL] rowcut: row cuts for (3|-)",
        capsys,
    )


# each identity made wrong where its first argument (a pair, or the
# label for sign_twist_label) is the given one, and the record it fails
PLANTED = [
    ("product_formula", ((3,), ()), lambda v: v + 1,
     "rowcut: row cuts for (3|-)"),
    ("sign_twist_label", ((3,), ()), lambda v: ((2, 1), ()),
     "reduction: sign twist keeps the multiplicity"),
    ("mullineux_factor", ((3,), ()), lambda v: v + 1,
     "reduction: Mullineux factor where |alpha| = |lam| - |lam(0)|"),
    ("nonzero_witness", ((3,), ()), lambda v: not v,
     "reduction: nonzero witness where |beta| = p|mu|"),
    ("vanishing_check", ((2,), (1,)), lambda v: False,
     "reduction: both engines vanish where lam(0) is empty and |beta| != p|mu|"),
    ("principal_part_formula", ((3,), ()), lambda v: {**v, ((1, 1, 1), ()): 1},
     "reduction: principal part formula"),
]


@pytest.mark.parametrize(
    "name, first, wrong, line", PLANTED, ids=[row[0] for row in PLANTED]
)
def test_verify_fails_on_wrong_identity(name, first, wrong, line, capsys, monkeypatch):
    real = getattr(reduction, name)

    def planted(*args):
        out = real(*args)
        return wrong(out) if args[0] == first else out

    monkeypatch.setattr(reduction, name, planted)
    suite = line.split(":")[0]
    assert_fails(["--suite", suite, "--n", "3"], f"[FAIL] {line}", capsys)


def test_verify_iso_fails_on_flipped_verdict(capsys, monkeypatch):
    real = tabx.iso_equivalent
    flipped = {((2,), ()), ((1, 1), ())}

    def planted(ab, cd):
        return real(ab, cd) != ({ab, cd} == flipped)

    monkeypatch.setattr(tabx, "iso_equivalent", planted)
    assert_fails(
        ["--suite", "iso", "--n", "2"],
        "[FAIL] iso: classification at degree 2 matches the module level",
        capsys,
    )


def test_verify_tableaux_fails_on_wrong_pieri(capsys, monkeypatch):
    real = tabx.pieri_expand

    def planted(ab):
        out = real(ab)
        return {**out, (9,): 1} if ab == ((1,), (1,)) else out

    monkeypatch.setattr(tabx, "pieri_expand", planted)
    assert_fails(
        ["--suite", "tableaux", "--n", "2"],
        "[FAIL] tableaux: character vector equals the Pieri expansion at degree 2",
        capsys,
    )


@pytest.mark.parametrize(
    "argv",
    [
        "matrix --n 2 --p 3 --signed --engine direct --seed -5",
        "entry --p 3 --alpha 1,1,1 --beta 3 --lambda 2,2,1,1 --mu - "
        "--method reduction --seed -1",
        "decompose --alpha 2,1 --beta - --p 3 --seed -1",
        "verify --suite iso --n 3 --p 3 --seed -1",
    ],
    ids=["matrix", "entry", "decompose", "verify"],
)
def test_negative_seed_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(argv.split())
    out, err = capsys.readouterr()
    assert e.value.code == cli.EXIT_USAGE and out == ""
    assert "argument --seed: expected a non-negative integer" in err


def test_iso_takes_no_seed(capsys):
    """An iso question draws no random number, so iso has no --seed."""
    with pytest.raises(SystemExit) as e:
        cli.main("iso --pair1 2,1|- --pair2 2,1|- --modular-check 3 --seed 1".split())
    out, err = capsys.readouterr()
    assert e.value.code == cli.EXIT_USAGE and out == ""
    assert "unrecognized arguments: --seed 1" in err


def test_bad_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["matrix", "--n", "2", "--p", "3", "--badflag"])
    assert e.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        "matrix --n 4 --p 1000000007 --signed --engine direct",
        "matrix --n 4 --p 1890593 --engine reduction",
        "entry --p 1000000007 --alpha 2,1 --beta - --lambda 3 --mu -",
        "decompose --p 1000000007 --alpha 2,1 --beta -",
        "iso --pair1 2,1|- --pair2 3|- --modular-check 1000000007",
        "verify --suite blocks --n 3 --p 1000000007",
    ],
)
def test_prime_above_cap_is_a_usage_error(argv, capsys, tmp_path, monkeypatch):
    """A prime at which the engine's products would leave the exact
    range exits 1 before any module is built or anything is cached."""

    def refuse(*args, **kwargs):
        raise AssertionError("work done before the prime was checked")

    monkeypatch.setattr(modrep, "build_module", refuse)
    monkeypatch.setattr(modrep.DirectEngine, "__init__", refuse)
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, err = run(argv.split(), capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert "exact range" in err
    assert not any(tmp_path.iterdir())
