"""Command-line entry point.

Subcommands tie the library into reproducible pipelines:

* ``detect``        freeness verdict for a family file (+ witness)
* ``certify``       sunflower-free check and structural slice count
                    (diagonality follows from sunflower-freeness)
* ``bounds``        closed-form bound tables and the capacity summary
* ``verify-tensor`` build the expansion, decompose, check both against the
                    product form (a failure names the first wrong point
                    scanned, if any)
* ``search``        branch-and-bound maximum free family
* ``encode``        pair-encode a binary family and capset-check its layers

Exit codes: 0 = success / property verified; 1 = checked and false (a
sunflower was found, a decomposition or a certificate's slice count failed
its check, a layer is not a capset);
2 = usage or resource error.  Every artifact is written before anything is
printed, so a failed write leaves stdout empty.  Sampled points come from
one fixed stream, so a rerun with identical flags is byte-identical.

An artifact path that names an existing regular file is overwritten in place
and then cut to the new length, so a rewrite leaves exactly the bytes of a
fresh write; a pipe or device is written as a stream.  A write that fails
part-way (exit 2) can leave old bytes after the new ones.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import os
import stat
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import search as search_mod
from . import tensor as tensor_mod
from .setsys import (
    BINARY,
    CAPSET,
    MOD,
    FamilyFormatError,
    find_sunflower,
    is_capset,
    layer_extract,
    pair_encode,
    parse_family,
)


def _write_artifact(path: str, text: str) -> None:
    """Write the ASCII `text` to `path`, the one way the CLI writes a file.

    The file is opened without O_TRUNC and cut to the new length after the
    write: on ext4, truncating a file with data to zero makes close() force
    the new data out, which makes a rewrite cost several times a fresh
    write.  Only a regular file is cut, so a pipe or a device such as
    /dev/null is written as a stream."""
    data = text.encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _write_json(path: str, data) -> None:
    _write_artifact(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


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
        print(f"witness: {family.line(m)}")
    return 1


def cmd_certify(args) -> int:
    family = _load_family(args.family, args.D)
    try:
        cert = tensor_mod.certify_family(family)
    except tensor_mod.NotSunflowerFree as exc:
        print("not sunflower-free; cannot certify")
        for m in exc.witness:
            print(f"witness: {family.line(m)}")
        return 1
    except tensor_mod.CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _write_artifact(args.json, cert.to_json())
    print(f"setting: {family.setting}  n={family.n}" + (f"  D={family.D}" if family.D else ""))
    print(f"members: {len(family)}")
    # T restricted to a sunflower-free family is diagonal (certify_family)
    print("diagonal_ok: true")
    print(f"slice_count: {cert.slice_count}")
    print(f"closed_form_bound: {cert.closed_form_bound}")
    print(f"conclusion: {cert.conclusion}")
    return 0


def cmd_bounds(args) -> int:
    try:
        C = Fraction(args.C)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--C takes a rational number, got {args.C!r}") from None
    reports = bounds_mod.bound_table(args.n, args.D, C)
    rows = [bounds_mod.report_row(r) for r in reports]
    if args.csv:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(bounds_mod.CSV_HEADER)
        writer.writerows(rows)
        _write_artifact(args.csv, buf.getvalue())
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0))
              for i, h in enumerate(bounds_mod.CSV_HEADER)]
    header = "  ".join(h.ljust(w) for h, w in zip(bounds_mod.CSV_HEADER, widths))
    print(header)
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def cmd_verify_tensor(args) -> int:
    # Every container the pipeline builds (terms, rows, slices, diagram
    # nodes, witness points) holds only ints or other such containers, so no
    # cycle can form and a collection could free nothing; paused, the cyclic
    # collector does not rescan the ~10^5-10^6 tuples on each threshold.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _verify_tensor(args)
    finally:
        if enabled:
            gc.enable()


def _verify_tensor(args) -> int:
    if args.samples is None:
        kwargs = dict(mode="exhaustive")
    else:
        kwargs = dict(mode="sampled", samples=args.samples)
    try:
        ts = tensor_mod.expand_tensor(args.setting, args.n, args.D)
    except ArithmeticError as exc:  # the one-coordinate lemma failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # verifying the expansion before decomposing frees the expansion check's
    # diagram before the slices are built, and dropping the expansion once it
    # is decomposed frees its terms before the slices are checked
    ok_e, wit_e = tensor_mod.verify_expansion(ts, **kwargs)
    dec = tensor_mod.decompose(ts)
    term_count = len(ts.terms)
    del ts
    ok_d, wit_d = tensor_mod.verify_decomposition(dec, **kwargs)
    closed = (
        bounds_mod.constant_weight_bound(args.n)
        if args.setting == BINARY
        else bounds_mod.mod_count_bound(args.n, args.D)
    )
    print(f"terms: {term_count}")
    print(f"slices: {dec.slice_count} (closed-form bound {closed})")
    print(f"expansion_ok: {str(ok_e).lower()}")
    print(f"decomposition_ok: {str(ok_d).lower()}")
    if not ok_e or not ok_d:
        witness = wit_e or wit_d
        if witness is None:
            print("mismatch at: no sampled point (the sum is not the product form)")
        else:
            print(f"mismatch at: {witness}")
        return 1
    return 0


def cmd_search(args) -> int:
    cfg = search_mod.SearchConfig(
        setting=args.setting,
        n=args.n,
        D=args.D,
        node_budget=args.budget,
        symmetry=not args.no_symmetry,
    )
    result = search_mod.max_free_family(cfg)
    bound, bound_name = search_mod.validate_against_bounds(result, cfg)
    # built before any artifact is written, so a witness the text format
    # cannot hold leaves no file behind
    witness_text = result.witness.to_text() if args.witness_out else None
    if args.json:
        _write_json(args.json, result.to_json_dict())
    if args.witness_out:
        _write_artifact(args.witness_out, witness_text)
    print(f"max: {result.max_size}")
    print(f"optimal: {str(result.optimal).lower()}")
    print(f"nodes: {result.nodes}")
    print(f"bound: {bound} ({bound_name})")
    for m in result.witness:
        print(f"member: {result.witness.line(m)}")
    return 0


def cmd_encode(args) -> int:
    family = _load_family(args.family, None)
    encoded = pair_encode(family)
    supports = sorted({tuple(1 if s == 3 else 0 for s in m) for m in encoded})
    layers = []
    for x in supports:
        fam = layer_extract(encoded, x)
        layers.append(
            {
                "x": "".join(str(c) for c in x),
                "members": [fam.line(m) for m in fam],
                "capset": is_capset(fam),
            }
        )
    members = [encoded.line(m) for m in encoded]
    if args.json:
        _write_json(args.json, {"n": encoded.n, "members": members, "layers": layers})
    print(f"encoded {len(encoded)} members over {{0,1,2,3}}^{encoded.n}")
    for line in members:
        print(f"member: {line}")
    for layer in layers:
        print(f"layer x={layer['x']}: {len(layer['members'])} members,"
              f" capset: {str(layer['capset']).lower()}")
    return 0 if all(layer["capset"] for layer in layers) else 1


# --- parser ----------------------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was, so every call can share it
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
    p.add_argument("--setting", choices=[BINARY, MOD], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="points from one fixed random stream (default: the full domain)")
    p.set_defaults(func=cmd_verify_tensor)

    p = sub.add_parser("search", help="branch-and-bound maximum free family")
    p.add_argument("--setting", choices=[BINARY, MOD, CAPSET], required=True)
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
    except (tensor_mod.ResourceLimitError, search_mod.BoundViolationError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
