"""Command-line entry point.

Subcommands tie the library into reproducible pipelines:

* ``detect``        freeness verdict for a family file (+ witness)
* ``certify``       sunflower-free check, diagonality, verified slice count
* ``bounds``        closed-form bound tables and the capacity summary
* ``verify-tensor`` build the expansion, decompose, verify pointwise
* ``search``        branch-and-bound maximum free family
* ``encode``        pair-encode a binary family and capset-check its layers

Exit codes: 0 = success / property verified; 1 = checked and false (a
sunflower was found, a decomposition failed, a layer is not a capset);
2 = usage or resource error.  All randomness is seed-controlled, so a rerun
with identical flags is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import search as search_mod
from . import tensor as tensor_mod
from .setsys import (
    BINARY,
    MOD,
    FamilyFormatError,
    find_sunflower,
    is_capset,
    layer_extract,
    pair_encode,
    parse_family,
)


def _write_json(path: str, data) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _load_family(path: str, D: int | None):
    return parse_family(Path(path).read_text(), D=D)


# --- subcommands ----------------------------------------------------------------


def cmd_detect(args) -> int:
    family = _load_family(args.family, args.D)
    witness = find_sunflower(family)
    if witness is None:
        print(f"sunflower-free: true ({len(family)} members, n={family.n})")
        return 0
    print("sunflower-free: false")
    for m in witness:
        print(f"witness: {m.to_line()}")
    return 1


def cmd_certify(args) -> int:
    family = _load_family(args.family, args.D)
    try:
        cert = tensor_mod.certify_family(family)
    except tensor_mod.NotSunflowerFree as exc:
        print("not sunflower-free; cannot certify")
        for m in exc.witness:
            print(f"witness: {m.to_line()}")
        return 1
    if args.json:
        Path(args.json).write_text(cert.to_json())
    print(f"setting: {cert.setting}  n={cert.n}" + (f"  D={cert.D}" if cert.D else ""))
    print(f"members: {len(cert.family)}")
    print(f"diagonal_ok: {str(cert.diagonal_ok).lower()}")
    if not cert.diagonal_ok:
        for m in cert.diagonal_witness:
            print(f"witness: {m.to_line()}")
        return 1
    print(f"slice_count: {cert.slice_count}")
    print(f"closed_form_bound: {cert.closed_form_bound}")
    print(f"conclusion: {cert.conclusion}")
    return 0


def cmd_bounds(args) -> int:
    reports = bounds_mod.bound_table(args.n, args.D, Fraction(str(args.C)))
    rows = [bounds_mod.report_row(r) for r in reports]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(bounds_mod.CSV_HEADER)
            writer.writerows(rows)
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0))
              for i, h in enumerate(bounds_mod.CSV_HEADER)]
    header = "  ".join(h.ljust(w) for h, w in zip(bounds_mod.CSV_HEADER, widths))
    print(header)
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def cmd_verify_tensor(args) -> int:
    setting = BINARY if args.setting == "binary" else MOD
    if args.samples is None:
        kwargs = dict(mode="exhaustive")
    else:
        kwargs = dict(mode="sampled", samples=args.samples, seed=args.seed)
    ts = tensor_mod.expand_tensor(setting, args.n, args.D)
    # verifying the expansion before decomposing frees the expansion check's
    # regrouped table before the slices are built
    ok_e, wit_e = tensor_mod.verify_expansion(ts, **kwargs)
    dec = tensor_mod.decompose(ts)
    ok_d, wit_d = tensor_mod.verify_decomposition(dec, **kwargs)
    closed = (
        bounds_mod.constant_weight_bound(args.n)
        if setting == BINARY
        else bounds_mod.mod_count_bound(args.n, args.D)
    )
    print(f"terms: {len(ts.terms)}")
    print(f"slices: {dec.slice_count} (closed-form bound {closed})")
    print(f"expansion_ok: {str(ok_e).lower()}")
    print(f"decomposition_ok: {str(ok_d).lower()}")
    if not ok_e or not ok_d:
        witness = wit_e or wit_d
        print(f"mismatch at: {witness}")
        return 1
    return 0


def cmd_search(args) -> int:
    setting = {"binary": BINARY, "mod-d": MOD, "capset": search_mod.CAPSET}[args.setting]
    cfg = search_mod.SearchConfig(
        setting=setting,
        n=args.n,
        D=args.D,
        node_budget=args.budget,
        symmetry=not args.no_symmetry,
    )
    result = search_mod.max_free_family(cfg)
    report = search_mod.validate_against_bounds(result, cfg)
    if args.json:
        _write_json(args.json, result.to_json_dict())
    if args.witness_out:
        Path(args.witness_out).write_text(result.witness.to_text())
    print(f"max: {result.max_size}")
    print(f"optimal: {str(result.optimal).lower()}")
    print(f"nodes: {result.nodes}")
    print(f"bound: {report['bound']} ({report['bound_name']})")
    for m in result.witness:
        print(f"member: {m.to_line()}")
    return 0


def cmd_encode(args) -> int:
    family = _load_family(args.family, None)
    encoded = pair_encode(family)
    print(f"encoded {len(encoded.members)} members over {{0,1,2,3}}^{encoded.n}")
    for m in encoded.members:
        print("member: " + ",".join(str(s) for s in m))
    supports = sorted({tuple(1 if s == 3 else 0 for s in m) for m in encoded.members})
    layers = []
    all_capsets = True
    for x in supports:
        fam = layer_extract(encoded, x)
        capset_ok = is_capset(fam)
        all_capsets = all_capsets and capset_ok
        xs = "".join(str(c) for c in x)
        print(f"layer x={xs}: {len(fam)} members, capset: {str(capset_ok).lower()}")
        layers.append(
            {
                "x": xs,
                "members": [m.to_line() for m in fam],
                "capset": capset_ok,
            }
        )
    if args.json:
        _write_json(
            args.json,
            {
                "n": encoded.n,
                "members": [",".join(str(s) for s in m) for m in encoded.members],
                "layers": layers,
            },
        )
    return 0 if all_capsets else 1


# --- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicerank",
        description="exact slice-rank certificates, bounds, and search for sunflower-free families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="check a family file for sunflower-freeness")
    p.add_argument("family")
    p.add_argument("--D", type=int, default=None, help="alphabet size for mod-D files")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("certify", help="emit a slice-count certificate for a family")
    p.add_argument("family")
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--json", default=None, help="write the certificate as JSON")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bounds", help="closed-form bound tables")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--C", default="2.7552", help="capset capacity estimate")
    p.add_argument("--csv", default=None, help="write the table as CSV")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify-tensor", help="expand, decompose, and verify pointwise")
    p.add_argument("--setting", choices=["binary", "mod-d"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=int, default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true", help="full domain (default)")
    group.add_argument("--samples", type=int, default=None, help="seeded random points")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_tensor)

    p = sub.add_parser("search", help="branch-and-bound maximum free family")
    p.add_argument("--setting", choices=["binary", "mod-d", "capset"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--budget", type=int, default=2_000_000, help="node budget")
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--json", default=None, help="write the search report as JSON")
    p.add_argument("--witness-out", default=None, help="write the witness in family text format")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("encode", help="pair-encode a binary family; capset-check layers")
    p.add_argument("family")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FamilyFormatError as exc:
        print(f"error: malformed family file: {exc}", file=sys.stderr)
        return 2
    except tensor_mod.ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
