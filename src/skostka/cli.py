"""Command-line surface: matrices, entries, decompositions, tableaux
counts, isomorphism checks, verification suites, and the result cache.
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

from . import checks, modrep, reduction, tabx
from .checks import format_label
from .combinat import (
    enumerate_p2,
    enumerate_p2p,
    is_partition,
    label_rows,
    size,
    total_key,
    wp,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3

CACHE_ENV = "SKOSTKA_CACHE"
CACHE_VERSION = 1


class UsageError(ValueError):
    pass


class MismatchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# label strings


def parse_part(s):
    """A partition or composition from "3,2,1"; "-" is empty."""
    s = s.strip()
    if s in ("-", ""):
        return ()
    try:
        out = tuple(int(tok) for tok in s.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {s!r} as a comma-separated tuple")
    if any(x <= 0 for x in out):
        raise UsageError(f"parts must be positive in {s!r}")
    return out


def parse_label(s, p):
    """Inverse of format_label; the second side must be p-divisible."""
    if "|" not in s:
        raise UsageError(f"label {s!r} needs a | separator")
    lhs, rhs = s.split("|", 1)
    lam = parse_part(lhs)
    pmu = parse_part(rhs)
    if not is_partition(lam) or not is_partition(pmu):
        raise UsageError(f"label sides must be partitions in {s!r}")
    if any(x % p for x in pmu):
        raise UsageError(f"second side of {s!r} must have parts divisible by {p}")
    return lam, tuple(x // p for x in pmu)


def parse_pair(s):
    """A module pair (alpha, beta) from "2,1|1,1"; no divisibility rule."""
    if "|" not in s:
        raise UsageError(f"pair {s!r} needs a | separator")
    lhs, rhs = s.split("|", 1)
    return parse_part(lhs), parse_part(rhs)


# ---------------------------------------------------------------------------
# matrices and the cache


class KostkaMatrix:
    """A square multiplicity matrix over the ordered label list."""

    def __init__(self, n, p, signed, labels, matrix):
        self.n = n
        self.p = p
        self.signed = bool(signed)
        self.labels = list(labels)
        self.matrix = [list(int(x) for x in row) for row in matrix]
        k = len(self.labels)
        if len(self.matrix) != k or any(len(r) != k for r in self.matrix):
            raise UsageError("matrix shape does not match the label count")
        pairs = [parse_label(s, p) for s in self.labels]
        if pairs != sorted(pairs, key=total_key):
            raise UsageError("labels are not in the fixed total order")
        for i, row in enumerate(self.matrix):
            if row[i] != 1 or any(x for x in row[i + 1 :]):
                raise UsageError("matrix is not lower unitriangular")
            if any(x < 0 for x in row):
                raise UsageError("matrix entries must be nonnegative")

    def to_json(self, engine, seed):
        return {
            "version": CACHE_VERSION,
            "n": self.n,
            "p": self.p,
            "signed": self.signed,
            "labels": list(self.labels),
            "matrix": [list(row) for row in self.matrix],
            "engine": engine,
            "seed": seed,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(obj["n"], obj["p"], obj["signed"], obj["labels"], obj["matrix"])

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([""] + self.labels)
        for name, row in zip(self.labels, self.matrix):
            w.writerow([name] + row)
        return buf.getvalue()


def cache_dir(flag_value=None):
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    base = os.environ.get("XDG_DATA_HOME")
    root = Path(base) if base else Path.home() / ".local" / "share"
    return root / "skostka"


def cache_path(directory, n, p, signed):
    kind = "signed" if signed else "plain"
    return Path(directory) / f"kpm_{kind}_n{n}_p{p}.json"


def load_cache(path, n, p, signed, engine):
    """The cached matrix, or None when absent, malformed, stale, or mismatched.

    A cache is served only when it is a JSON object whose labels are the
    full ordered label list for (n, p, signed) and whose matrix is valid.
    """
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, ValueError):
        return None
    if not isinstance(obj, dict) or obj.get("version") != CACHE_VERSION:
        return None
    if (obj.get("n"), obj.get("p"), obj.get("signed")) != (n, p, signed):
        return None
    if engine is not None and obj.get("engine") != engine:
        return None
    labels = label_rows(n, p, signed)[0]
    if obj.get("labels") != [format_label(x, p) for x in labels]:
        return None
    try:
        return KostkaMatrix.from_json(obj)
    except (KeyError, TypeError, ValueError):  # UsageError is a ValueError
        return None


def save_cache(path, km, engine, seed):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(km.to_json(engine, seed), f, indent=1)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_fixture():
    """The packaged 16-label reference matrix for n = 6, p = 3."""
    ref = resources.files("skostka").joinpath("data/kpm_signed_n6_p3.json")
    return json.loads(ref.read_text())


# ---------------------------------------------------------------------------
# engines


_ENGINES = {}


def direct_engine(p, seed=0):
    key = (p, seed)
    if key not in _ENGINES:
        _ENGINES[key] = modrep.DirectEngine(p, seed=seed)
    return _ENGINES[key]


def compute_matrix(n, p, signed, engine_name, seed):
    """(labels, grid) by the requested engine."""
    eng = direct_engine(p, seed)
    if engine_name == "direct":
        labels, mat = modrep.assemble_matrix(n, p, signed=signed, engine=eng)
        return labels, mat.tolist()
    labels, rows = label_rows(n, p, signed)
    grid = [
        [reduction.signed_kostka(ab, x, eng) for x in labels] for ab in rows
    ]
    return labels, grid


def build_kostka_matrix(n, p, signed, engine_name, seed):
    """KostkaMatrix for the flags; "both" cross-checks the two engines."""
    first = "direct" if engine_name == "both" else engine_name
    labels, grid = compute_matrix(n, p, signed, first, seed)
    if engine_name == "both":
        rows = label_rows(n, p, signed)[1]
        records = checks.cross_engine(rows, labels, direct_engine(p, seed))
        for row, record in zip(labels, records):
            if record.failures:
                x, direct, reduced = record.failures[0]
                raise MismatchError(
                    f"engines disagree at row {format_label(row, p)} "
                    f"column {format_label(x, p)}: "
                    f"direct {direct}, reduction {reduced}"
                )
    strings = [format_label(l, p) for l in labels]
    try:
        return KostkaMatrix(n, p, signed, strings, grid)
    except UsageError as e:  # an invalid computed matrix is an engine defect
        raise modrep.IntegrityError(f"{first} engine at n={n}, p={p}: {e}") from e


# ---------------------------------------------------------------------------
# subcommands


def cmd_matrix(args):
    check_prime(args.p)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    signed = resolve_signed(args)
    directory = cache_dir(args.cache_dir)
    path = cache_path(directory, args.n, args.p, signed)
    stored = "direct" if args.engine == "both" else args.engine
    km = None
    if args.engine != "both":
        km = load_cache(path, args.n, args.p, signed, args.engine)
    if km is None:
        km = build_kostka_matrix(args.n, args.p, signed, args.engine, args.seed)
        save_cache(path, km, stored, args.seed)
    if args.format == "json":
        text = json.dumps(km.to_json(stored, args.seed), indent=1) + "\n"
    else:
        text = km.to_csv()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_entry(args):
    check_prime(args.p)
    alpha = parse_part(args.alpha)
    beta = parse_part(args.beta)
    lam = parse_part(args.lam)
    mu = parse_part(args.mu)
    if not is_partition(wp(lam)) or wp(lam) != lam:
        raise UsageError("--lambda must be a partition")
    if not is_partition(mu):
        raise UsageError("--mu must be a partition")
    if size(alpha) + size(beta) != size(lam) + args.p * size(mu):
        raise UsageError(
            "size mismatch: |alpha| + |beta| must equal |lambda| + p|mu|"
        )
    ab = (wp(alpha), wp(beta))
    x = (lam, mu)
    eng = direct_engine(args.p, args.seed)
    values = {}
    # the direct side first, so that its refusal comes before any reduction
    if args.method in ("direct", "both"):
        values["direct"] = eng.decompose(ab).get(x, 0)
    if args.method in ("reduction", "both"):
        values["reduction"] = reduction.signed_kostka(ab, x, eng)
    if args.method == "both" and values["direct"] != values["reduction"]:
        raise MismatchError(
            f"engines disagree: direct {values['direct']}, "
            f"reduction {values['reduction']}"
        )
    print(values[args.method if args.method != "both" else "direct"])
    if args.method == "both":
        print("engines agree")
    return EXIT_OK


def cmd_decompose(args):
    check_prime(args.p)
    alpha = parse_part(args.alpha)
    beta = parse_part(args.beta)
    eng = direct_engine(args.p, args.seed)
    dec = eng.decompose((wp(alpha), wp(beta)))
    for label in sorted(dec, key=total_key):
        print(f"{format_label(label, args.p)}: {dec[label]}")
    return EXIT_OK


def cmd_tableaux(args):
    lam = parse_part(args.lam)
    alpha = parse_part(args.alpha)
    beta = parse_part(args.beta)
    if not is_partition(lam):
        raise UsageError("--lambda must be a partition")
    if size(lam) != size(alpha) + size(beta):
        raise UsageError("size mismatch: |lambda| must equal |alpha| + |beta|")
    tabs = tabx.signed_tableaux(lam, (alpha, beta))
    print(len(tabs))
    if args.list:
        r = len(alpha)
        for t in tabs:
            rows = [
                " ".join(str(x + 1) if x < r else f"{x - r + 1}'" for x in row)
                for row in t
            ]
            print("; ".join(rows))
    return EXIT_OK


def cmd_iso(args):
    ab = tuple(map(wp, parse_pair(args.pair1)))
    cd = tuple(map(wp, parse_pair(args.pair2)))
    if size(ab[0]) + size(ab[1]) != size(cd[0]) + size(cd[1]):
        raise UsageError("the two pairs must have equal total size")
    combinatorial = tabx.iso_equivalent(ab, cd)
    modular = None
    if args.modular_check is not None:
        # a bad prime, an oversized module or a degree with no species
        # is refused before any verdict is printed
        p = args.modular_check
        check_prime(p)
        u = modrep.build_module(ab, p)
        v = modrep.build_module(cd, p)
        try:
            modular = modrep.modules_isomorphic(u, v)
        except ValueError as e:
            raise UsageError(str(e))
    print("isomorphic" if combinatorial else "not isomorphic")
    if modular is not None:
        print("module-level: " + ("isomorphic" if modular else "not isomorphic"))
        if modular != combinatorial:
            raise MismatchError("combinatorial and module-level verdicts disagree")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites: the shared checks over a degree-n scope


def suite_fixtures(n, p, seed):
    if (n, p) != (6, 3):
        raise UsageError("the published reference matrix exists for n=6, p=3")
    eng = direct_engine(p, seed)
    labels, mat = modrep.assemble_matrix(n, p, signed=True, engine=eng)
    strings = [format_label(x, p) for x in labels]
    return checks.fixtures(load_fixture(), strings, mat)


def suite_reduction(n, p, seed):
    labels, rows = label_rows(n, p)
    eng = direct_engine(p, seed)
    records = checks.cross_engine(rows, labels, eng)
    return records + checks.identities(enumerate_p2(n), labels, p, eng)


def suite_blocks(n, p, seed):
    eng = direct_engine(p, seed)
    return checks.blocks(n, p, eng) + checks.vertices(n, p, eng)


def suite_rowcut(n, p, seed):
    labels = enumerate_p2p(n, p)
    return checks.rowcut(enumerate_p2(n), labels, p, direct_engine(p, seed))


def suite_iso(n, p, seed):
    return checks.iso([min(n, 5)], [min(n, 8)], p)


def suite_tableaux(n, p, seed):
    return checks.tableaux([min(n, 8)])


SUITES = {
    "fixtures": suite_fixtures,
    "reduction": suite_reduction,
    "blocks": suite_blocks,
    "rowcut": suite_rowcut,
    "iso": suite_iso,
    "tableaux": suite_tableaux,
}


def cmd_verify(args):
    check_prime(args.p)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = total = 0
    for name in names:
        if name == "fixtures" and args.suite == "all" and (args.n, args.p) != (6, 3):
            print(f"[skip] {name}: the published reference matrix needs n=6, p=3")
            continue
        for record in SUITES[name](args.n, args.p, args.seed):
            total += 1
            failures += bool(record.failures)
            status = "FAIL" if record.failures else "pass"
            print(f"[{status}] {name}: {record.name}")
    print(f"{total - failures}/{total} checks passed")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing


def check_prime(p):
    """An odd prime that the direct engine can work over, else a usage
    error."""
    try:
        modrep.check_prime(p)
    except ValueError as e:
        raise UsageError(str(e))


def resolve_signed(args):
    if args.signed and args.plain:
        raise UsageError("--signed and --plain are mutually exclusive")
    return not args.plain


def seed_value(text):
    """argparse type of --seed: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = Parser(prog="skostka", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("matrix", help="emit a multiplicity matrix")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--p", type=int, required=True)
    m.add_argument("--signed", action="store_true", default=False)
    m.add_argument("--plain", action="store_true", default=False)
    m.add_argument("--format", choices=["csv", "json"], default="csv")
    m.add_argument("--out")
    m.add_argument(
        "--engine", choices=["direct", "reduction", "both"], default="direct"
    )
    m.add_argument("--seed", type=seed_value, default=0)
    m.add_argument("--cache-dir")
    m.set_defaults(func=cmd_matrix)

    e = sub.add_parser("entry", help="print one multiplicity")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--alpha", required=True)
    e.add_argument("--beta", required=True)
    e.add_argument("--lambda", dest="lam", required=True)
    e.add_argument("--mu", required=True)
    e.add_argument(
        "--method", choices=["reduction", "direct", "both"], default="reduction"
    )
    e.add_argument("--seed", type=seed_value, default=0)
    e.set_defaults(func=cmd_entry)

    d = sub.add_parser("decompose", help="print the labelled summands")
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--alpha", required=True)
    d.add_argument("--beta", required=True)
    d.add_argument("--seed", type=seed_value, default=0)
    d.set_defaults(func=cmd_decompose)

    t = sub.add_parser("tableaux", help="count signed tableaux")
    t.add_argument("--lambda", dest="lam", required=True)
    t.add_argument("--alpha", required=True)
    t.add_argument("--beta", required=True)
    t.add_argument("--list", action="store_true")
    t.set_defaults(func=cmd_tableaux)

    i = sub.add_parser("iso", help="compare two module pairs")
    i.add_argument("--pair1", required=True)
    i.add_argument("--pair2", required=True)
    i.add_argument("--modular-check", type=int, default=None, metavar="P")
    i.set_defaults(func=cmd_iso)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument(
        "--suite",
        choices=list(SUITES) + ["all"],
        default="all",
    )
    v.add_argument("--n", type=int, default=6)
    v.add_argument("--p", type=int, default=3)
    v.add_argument("--seed", type=seed_value, default=0)
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MismatchError as e:
        print(f"mismatch: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except modrep.IntegrityError as e:
        print(f"integrity failure: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except modrep.DimensionCapError as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
