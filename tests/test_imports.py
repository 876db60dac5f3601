"""The public API, the README's library tour, and the package loads
neither scipy nor sympy: both are test-only oracles."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import skostka
from skostka import combinat, gfp, modrep

SRC = str(Path(skostka.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def test_cli_import_loads_neither_scipy_nor_sympy():
    code = (
        "import skostka.cli, sys; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'sympy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.stdout.strip() == "[]"


def test_splitting_loads_no_masked_arrays():
    # np.setdiff1d reaches np.unique, which imports numpy.ma on first use;
    # the degree-4 sweep at p = 3 splits rows through _split_once, and
    # only its calls that return a split are counted
    code = (
        "import sys\n"
        "from skostka import modrep\n"
        "split = modrep._split_once\n"
        "calls = []\n"
        "def counted(*args):\n"
        "    out = split(*args)\n"
        "    calls.extend([1] if out is not None else [])\n"
        "    return out\n"
        "modrep._split_once = counted\n"
        "modrep.DirectEngine(3).registry_for(4)\n"
        "print(len(calls) > 0, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.stdout.split() == ["True", "False"]


PUBLIC = [
    "DimensionCapError",
    "DirectEngine",
    "IntegrityError",
    "assemble_matrix",
    "build_module",
    "char_vector",
    "combinat",
    "count_signed_ssyt",
    "enumerate_lambda",
    "enumerate_lambda_supp",
    "enumerate_p2",
    "enumerate_p2p",
    "gfp",
    "iso_equivalent",
    "modrep",
    "modules_isomorphic",
    "mullineux",
    "p_adic_expansion",
    "pieri_expand",
    "product_formula",
    "reduction",
    "rowcut_lower_bound",
    "sign_twist_label",
    "signed_kostka",
    "tabx",
    "total_key",
]


def test_public_api_resolves():
    assert sorted(skostka.__all__) == PUBLIC
    namespace = {}
    exec("from skostka import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(skostka, name)


def test_fitting_splitting_is_the_only_decomposition():
    # the Wedderburn-component and idempotent-lifting route and the
    # Jacobson-radical stack are gone from the package namespace and from
    # modrep, and so are the GF(p) routines only the radical stack used
    removed = re.compile(
        "wedder|idempot|eigen_split|residue_degree|center_rows|component_data"
        "|matrix_power|radical|quotient|trace_chain|lift_power_trace"
        "|independent|combine|left_tables|right_tables",
        re.IGNORECASE,
    )
    for mod in (skostka, modrep):
        assert [n for n in dir(mod) if removed.search(n)] == []
    assert [n for n in dir(gfp) if re.search("solve|independent_rows", n)] == []


def test_one_door_to_the_direct_engine():
    # multiplicities come from DirectEngine.decompose and projective_signed
    # alone; partitions from partitions_of, the order from total_key and
    # identities from np.eye; dense Hom elements are gathered by the tests
    removed = {
        "decompose_labelled",
        "projective_oracle",
        "hom_basis",
        "cmp_total",
        "enumerate_partitions",
        "identity",
    }
    for mod in (skostka, modrep, combinat, gfp):
        assert sorted(removed.intersection(dir(mod))) == [], mod.__name__
    assert not hasattr(modrep.HomBasis, "matrices")
    assert not hasattr(modrep.HomBasis, "element")


def test_readme_library_tour():
    # run the README's quick tour as printed, then check its formula entry
    # against the engine's own decomposition of the same module
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    engine, ab = namespace["engine"], namespace["ab"]
    decomposition = engine.decompose(ab)
    assert decomposition
    (call,) = [
        node
        for node in ast.walk(ast.parse(code))
        if getattr(getattr(node, "func", None), "id", "") == "signed_kostka"
    ]
    entry = eval(ast.unparse(call), namespace)
    x = eval(ast.unparse(call.args[1]), namespace)
    assert entry == decomposition.get(x, 0)
