"""The public API, and the package loads neither scipy nor sympy: both
are test-only oracles."""

import os
import re
import subprocess
import sys
from pathlib import Path

import skostka
from skostka import gfp, modrep

SRC = str(Path(skostka.__file__).resolve().parents[1])


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
    # the degree-4 sweep at p = 3 splits rows through _projector_split
    code = (
        "import sys\n"
        "from skostka import modrep\n"
        "split = modrep._projector_split\n"
        "calls = []\n"
        "def counted(*args):\n"
        "    calls.append(1)\n"
        "    return split(*args)\n"
        "modrep._projector_split = counted\n"
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
    "cmp_total",
    "combinat",
    "count_signed_ssyt",
    "decompose_labelled",
    "enumerate_lambda",
    "enumerate_lambda_supp",
    "enumerate_p2",
    "enumerate_p2p",
    "gfp",
    "hom_basis",
    "iso_equivalent",
    "modrep",
    "modules_isomorphic",
    "mullineux",
    "p_adic_expansion",
    "pieri_expand",
    "product_formula",
    "projective_oracle",
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
