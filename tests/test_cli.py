import csv
import gc
import importlib.util
import json
import math
import os
import time
from pathlib import Path

import pytest

from slicerank import bounds as bounds_mod
from slicerank import tensor as tensor_mod
from slicerank.bounds import mod_count_bound
from slicerank.cli import main
from slicerank.setsys import BINARY, MOD, find_sunflower
from slicerank.tensor import decompose
from test_tensor import _drop_last_residual_term, _first_mismatch, _wrong_at_all_ones, key_count

_spec = importlib.util.spec_from_file_location(
    "certify_scaling", Path(__file__).resolve().parent.parent / "scripts" / "certify_scaling.py"
)
certify_scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify_scaling)


@pytest.fixture
def family_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- detect -----------------------------------------------------------------


def test_detect_free_family(family_file, capsys):
    path = family_file("free.txt", "10\n01\n11\n")
    code, out, _ = run(capsys, "detect", path)
    assert code == 0 and "sunflower-free: true" in out


def test_detect_sunflower_with_witness(family_file, capsys):
    path = family_file("sun.txt", "00\n10\n01\n")
    code, out, _ = run(capsys, "detect", path)
    assert code == 1
    assert out.splitlines()[1:] == ["witness: 00", "witness: 01", "witness: 10"]


def test_detect_mod_family(family_file, capsys):
    path = family_file("mod.txt", "0,1\n1,1\n# comment\n")
    code, out, _ = run(capsys, "detect", path)
    assert code == 0


def test_detect_malformed_file(family_file, capsys):
    path = family_file("bad.txt", "10\nxx\n")
    code, _, err = run(capsys, "detect", path)
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("10\n01\n10\n", "line 3: duplicate member 10"),
        ("0,1\n0,1,2\n", "line 2: expected 2 coordinates, got 3"),
    ],
)
def test_malformed_member_names_its_line(family_file, capsys, text, message):
    path = family_file("bad.txt", text)
    for command in ("detect", "certify", "encode"):
        assert run(capsys, command, path) == (2, "", f"error: malformed family file: {message}\n")


def test_detect_missing_file(capsys):
    code, _, err = run(capsys, "detect", "/nonexistent/family.txt")
    assert code == 2 and "error" in err


def test_detect_directory_is_an_error(capsys, tmp_path):
    code, _, err = run(capsys, "detect", str(tmp_path))
    assert code == 2 and err.startswith("error:")


# --- certify ----------------------------------------------------------------


def test_certify_mod_family(family_file, capsys, tmp_path):
    path = family_file("mod.txt", "0\n1\n")
    out_json = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "certify", path, "--D", "3", "--json", out_json)
    assert code == 0
    assert "conclusion: |A| <= 3" in out
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["diagonal_ok"] and cert["slice_count"] == "3"


CERTIFY_BYTES = [
    # three weight layers: 3 * 3 slices
    ("00\n10\n11\n",
     "setting: binary  n=2\nmembers: 3\ndiagonal_ok: true\nslice_count: 9\n"
     "closed_form_bound: 9\nconclusion: |A| <= 9\n",
     '{\n  "D": null,\n  "closed_form_bound": "9",\n  "conclusion": "|A| <= 9",\n'
     '  "diagonal_ok": true,\n  "family": "00\\n10\\n11\\n",\n'
     '  "lemma": "diagonal-slice-rank",\n  "n": 2,\n  "setting": "binary",\n'
     '  "slice_count": "9"\n}\n'),
    ("0,1\n1,2\n",
     "setting: mod-d  n=2  D=3\nmembers: 2\ndiagonal_ok: true\nslice_count: 11\n"
     "closed_form_bound: 15\nconclusion: |A| <= 11\n",
     '{\n  "D": 3,\n  "closed_form_bound": "15",\n  "conclusion": "|A| <= 11",\n'
     '  "diagonal_ok": true,\n  "family": "0,1\\n1,2\\n",\n'
     '  "lemma": "diagonal-slice-rank",\n  "n": 2,\n  "setting": "mod-d",\n'
     '  "slice_count": "11"\n}\n'),
]


@pytest.mark.parametrize("text,stdout,json_text", CERTIFY_BYTES)
def test_certify_output_bytes(family_file, capsys, tmp_path, text, stdout, json_text):
    path = family_file("f.txt", text)
    out_json = tmp_path / "cert.json"
    assert run(capsys, "certify", path, "--json", str(out_json)) == (0, stdout, "")
    assert out_json.read_text() == json_text


def test_certify_json_to_directory_is_an_error(family_file, capsys, tmp_path):
    path = family_file("mod.txt", "0\n1\n")
    code, _, err = run(capsys, "certify", path, "--D", "3", "--json", str(tmp_path))
    assert code == 2 and err.startswith("error:")


def test_certify_rejects_sunflower(family_file, capsys):
    path = family_file("sun.txt", "100\n010\n001\n")
    code, out, _ = run(capsys, "certify", path)
    assert code == 1 and "not sunflower-free" in out


def test_certify_binary(family_file, capsys):
    path = family_file("f.txt", "10\n01\n")
    code, out, _ = run(capsys, "certify", path)
    assert code == 0 and "slice_count: 3" in out


def test_certify_slice_count_out_of_range_is_an_error(family_file, capsys, monkeypatch):
    monkeypatch.setattr(tensor_mod, "_structural_slice_count", lambda setting, n, D: 0)
    path = family_file("f.txt", "10\n01\n")
    code, out, err = run(capsys, "certify", path)
    assert (code, out) == (1, "")
    assert err == "error: expected |A| = 2 <= slice count 0 <= closed form 9\n"


def test_certify_failed_lemma_is_an_error(family_file, capsys, monkeypatch):
    tensor_mod._structural_slice_count.cache_clear()
    tensor_mod._one_coordinate.cache_clear()
    monkeypatch.setattr(tensor_mod, "_choices", lambda setting, D: [(1, 0, 0, 0)])
    path = family_file("f.txt", "10\n01\n")
    code, out, err = run(capsys, "certify", path)
    assert (code, out) == (1, "")
    assert err == "error: the binary expansion at n=1 is not the product form\n"


def test_verify_tensor_failed_lemma_is_an_error(capsys, monkeypatch):
    tensor_mod._one_coordinate.cache_clear()
    monkeypatch.setattr(tensor_mod, "_choices", lambda setting, D: [(1, 0, 0, 0)])
    code, out, err = run(capsys, "verify-tensor", "--setting", "binary", "--n", "2")
    assert (code, out) == (1, "")
    assert err == "error: the binary expansion at n=1 is not the product form\n"


@pytest.mark.parametrize("n", [1, 3])
def test_certify_large_D_is_a_resource_error(family_file, capsys, n):
    # the one-coordinate check would scan 100^3 points with 298 terms each
    path = family_file("f.txt", "0" * n + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", path, "--D", "100")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: the one-coordinate check over 1000000 points at D=100 is over the cap\n"


@pytest.mark.parametrize(
    "setting,n,D,size", [(BINARY, 11, None, 64), (BINARY, 20, None, 128), (MOD, 12, 3, 128)]
)
def test_certify_past_the_term_cap(family_file, capsys, tmp_path, setting, n, D, size):
    # each expansion is far over the term cap; the certificate never builds it
    family = certify_scaling.free_family(setting, n, D, size, seed=1)
    assert len(family) == size and find_sunflower(family) is None
    path = family_file("f.txt", family.to_text())
    out_json = str(tmp_path / "cert.json")
    code, out, err = run(capsys, "certify", path, *([] if D is None else ["--D", str(D)]),
                         "--json", out_json)
    assert (code, err) == (0, "")
    cert = json.loads((tmp_path / "cert.json").read_text())
    layers = len({sum(m) for m in family}) if setting == BINARY else 1
    assert int(cert["slice_count"]) == key_count(setting, n, D) * layers
    assert f"conclusion: |A| <= {cert['slice_count']}" in out


# --- bounds -----------------------------------------------------------------


def test_bounds_table_n3(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "3")
    assert code == 0
    family_line = next(l for l in out.splitlines() if l.startswith("family-count"))
    assert "48" in family_line


def test_bounds_csv_round_trip(capsys, tmp_path):
    out_csv = str(tmp_path / "bounds.csv")
    code, _, _ = run(capsys, "bounds", "--n", "2", "--D", "3", "--csv", out_csv)
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "n", "D", "exact", "float", "log2"]
    by_name = {r[0]: r for r in rows[1:]}
    assert by_name["mod-slice-count"][3] == str(3 * (1 + 2 * 2))
    # a rerun is byte-identical
    first = (tmp_path / "bounds.csv").read_bytes()
    run(capsys, "bounds", "--n", "2", "--D", "3", "--csv", out_csv)
    assert (tmp_path / "bounds.csv").read_bytes() == first


def test_bounds_past_the_float_range(capsys, tmp_path):
    # the mod-D count (n >= 646 at D = 3) and the capset reduction count
    # (n >= 537) overflow a float: their float column reads inf, while the
    # exact value and its log2 stay exact
    out_csv = str(tmp_path / "bounds.csv")
    code, _, err = run(capsys, "bounds", "--n", "700", "--D", "3", "--csv", out_csv)
    assert (code, err) == (0, "")
    with open(out_csv) as fh:
        by_name = {r[0]: r for r in csv.reader(fh)}
    count = mod_count_bound(700, 3)
    assert by_name["mod-slice-count"][3:] == [str(count), "inf", f"{math.log2(count):.12g}"]
    reduction = by_name["capset-reduction-count"]
    numerator, denominator = map(int, reduction[3].split("/"))
    assert reduction[4] == "inf"
    assert reduction[5] == f"{math.log2(numerator) - math.log2(denominator):.12g}"


def test_bounds_capacity_past_the_float_range(capsys):
    # 1 + C overflows a float, but the root's log2 is exact from the
    # fraction, and the root reads inf only past the float range itself
    for C, root, log2 in [("1e400", "1e+200", "664.385618977"), ("1e700", "inf", "1162.67483321")]:
        code, out, err = run(capsys, "bounds", "--n", "3", "--C", C)
        assert (code, err) == (0, "")
        rows = [line.split() for line in out.splitlines() if line.startswith("capset-reduction")]
        assert [row[0] for row in rows] == (["capset-reduction-count"]
                                            + ["capset-reduction-capacity"] * 2)
        assert rows[0][3] == "inf"
        assert rows[1][2:] == rows[2][2:] == [root, log2]
        assert float(log2) == pytest.approx(math.log2(10) * int(C[2:]) / 2)


def test_bounds_at_the_integer_string_limit(capsys, tmp_path):
    # the default capset reduction count is 2347^n / 625^n: its numerator
    # has 4298 digits at n = 1275, and 4301 at n = 1276, past the 4300 that
    # Python prints
    out_csv = tmp_path / "bounds.csv"
    code, _, err = run(capsys, "bounds", "--n", "1275", "--csv", str(out_csv))
    assert (code, err) == (0, "")
    with open(out_csv) as fh:
        by_name = {r[0]: r for r in csv.reader(fh)}
    assert by_name["capset-reduction-count"][3] == f"{2347**1275}/{625**1275}"
    assert len(by_name["capset-reduction-count"][3].split("/")[0]) == 4298
    out_csv.unlink()
    code, out, err = run(capsys, "bounds", "--n", "1276", "--csv", str(out_csv))
    assert (code, out) == (2, "")
    assert err == ("error: the exact capset-reduction-count value at n=1276 has more"
                   " than 4300 digits, past the integer string limit\n")
    assert not out_csv.exists()


def test_bounds_at_large_n_is_refused_quickly(capsys):
    # the binomial tails are summed one term from the last, so the layer
    # count at n = 20000 is reached in well under a second, then refused
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--n", "20000")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == ("error: the exact layer-count value at n=20000 has more than 4300 digits,"
                   " past the integer string limit\n")


def test_bounds_refuses_a_huge_n_before_summing(capsys, monkeypatch):
    # 3^(n//3) <= C(n, n//3) already has more digits than Python prints, so
    # no binomial tail is summed
    def tail(*args):
        raise AssertionError("binomial_tail was called")

    monkeypatch.setattr(bounds_mod, "binomial_tail", tail)
    code, out, err = run(capsys, "bounds", "--n", "2000000")
    assert (code, out) == (2, "")
    assert err == ("error: the exact layer-count value at n=2000000 has more than 4300 digits,"
                   " past the integer string limit\n")


@pytest.mark.parametrize("C", ["1/0", "abc", "1/"])
def test_bounds_rejects_a_capacity_that_is_not_rational(capsys, C):
    code, out, err = run(capsys, "bounds", "--n", "3", "--C", C)
    assert (code, out) == (2, "")
    assert err == f"error: --C takes a rational number, got {C!r}\n"


@pytest.mark.parametrize("exponent", [160, 200])
def test_bounds_growth_rate_past_the_float_range(capsys, tmp_path, exponent):
    # 27 (D-1)^2 / 4 overflows a float, g_D does not: its log2 is a third
    # of the cube's exact log2
    D = 10**exponent
    out_csv = tmp_path / "bounds.csv"
    code, _, err = run(capsys, "bounds", "--D", str(D), "--csv", str(out_csv))
    assert (code, err) == (0, "")
    with open(out_csv) as fh:
        row = {r[0]: r for r in csv.reader(fh)}["mod-growth-rate"]
    log2 = (math.log2(27) + 2 * math.log2(D - 1) - 2) / 3
    assert row[2:4] == [str(D), ""]
    assert float(row[5]) == pytest.approx(log2, rel=1e-12)
    assert float(row[4]) == pytest.approx(2**log2, rel=1e-11)


# --- verify-tensor ------------------------------------------------------------


def test_verify_tensor_binary(capsys):
    code, out, _ = run(capsys, "verify-tensor", "--setting", "binary", "--n", "3")
    assert code == 0
    assert "expansion_ok: true" in out and "decomposition_ok: true" in out


@pytest.mark.parametrize(
    "argv,terms,slices",
    [
        (["--setting", "binary", "--n", "5"], 1024, "18 (closed-form bound 18)"),
        (["--setting", "mod-d", "--n", "3", "--D", "4"], 1000, "75 (closed-form bound 111)"),
    ],
)
def test_verify_tensor_exhaustive_admissions(capsys, argv, terms, slices):
    # decided by the product diagram alone: no point is scanned, so the
    # caps never apply
    code, out, err = run(capsys, "verify-tensor", *argv)
    assert (code, err) == (0, "")
    assert out == (f"terms: {terms}\nslices: {slices}\n"
                   "expansion_ok: true\ndecomposition_ok: true\n")


def test_verify_tensor_reports_the_first_mismatch(capsys, monkeypatch):
    broken = []

    def drop_a_term(ts):
        broken.append(_drop_last_residual_term(decompose(ts)))
        return broken[-1]

    monkeypatch.setattr(tensor_mod, "decompose", drop_a_term)
    # the dropped term -x_1 x_2 y_3 is missing only where x_1 = x_2 = y_3 = 1
    code, out, _ = run(capsys, "verify-tensor", "--setting", "binary", "--n", "3")
    assert code == 1
    assert "expansion_ok: true\ndecomposition_ok: false\n" in out
    assert out.endswith(f"mismatch at: {_first_mismatch(broken[0])}\n")


def test_verify_tensor_fails_a_sum_no_sample_shows_wrong(capsys, monkeypatch):
    # the slices are wrong only at the all-ones point, which the samples miss
    monkeypatch.setattr(tensor_mod, "decompose", lambda ts: _wrong_at_all_ones(4)[1])
    code, out, err = run(capsys, "verify-tensor", "--setting", "binary", "--n", "4",
                         "--samples", "5")
    assert (code, err) == (1, "")
    assert out.endswith("expansion_ok: true\ndecomposition_ok: false\n"
                        "mismatch at: no sampled point (the sum is not the product form)\n")


def test_verify_tensor_mod_sampled(capsys):
    code, out, _ = run(
        capsys, "verify-tensor", "--setting", "mod-d", "--n", "2", "--D", "4",
        "--samples", "32",
    )
    assert code == 0


def test_verify_tensor_takes_no_seed(capsys):
    # sampled points come from one fixed stream; --seed is no option
    with pytest.raises(SystemExit) as exc:
        main(["verify-tensor", "--setting", "binary", "--n", "2", "--samples", "5",
              "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 1" in captured.err


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_verify_tensor_large_D_is_a_resource_error(capsys, n):
    # the one-coordinate check would scan 57^3 points with 169 terms each;
    # it is refused before the term cap, which the 169^3 terms at n = 3 are over
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-tensor", "--setting", "mod-d", "--n", str(n), "--D", "57")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: the one-coordinate check over 185193 points at D=57 is over the cap\n"


@pytest.mark.parametrize("command", ["certify", "verify-tensor", "verify-tensor-n1"])
def test_large_D_is_refused_before_the_choice_table(family_file, capsys, monkeypatch, command):
    # the caps are checked on the table's row count, 3(D-1) + 1, so a
    # refusal at D = 300000 builds no table of that many rows, nor at n = 1
    # any of the 899998 terms that fit the term cap
    calls = []
    choices = tensor_mod._choices
    monkeypatch.setattr(tensor_mod, "_choices", lambda *args: calls.append(args) or choices(*args))
    if command == "certify":
        argv = ["certify", family_file("f.txt", "0,1\n1,2\n"), "--D", "300000"]
    else:
        n = "1" if command.endswith("n1") else "0"
        argv = ["verify-tensor", "--setting", "mod-d", "--n", n, "--D", "300000"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: the one-coordinate check over 27000000000000000 points at D=300000"
                   " is over the cap\n")
    assert calls == []


def test_verify_tensor_requires_d(capsys):
    code, _, err = run(capsys, "verify-tensor", "--setting", "mod-d", "--n", "2")
    assert code == 2


def test_verify_tensor_resource_error(capsys):
    code, _, err = run(capsys, "verify-tensor", "--setting", "binary", "--n", "40")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--setting", "binary", "--n", "3", "--D", "7"],
        ["verify-tensor", "--setting", "binary", "--n", "2", "--D", "9"],
    ],
)
def test_binary_setting_rejects_d(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "takes no D" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_tensor_rejects_sample_count_below_one(capsys, samples):
    code, out, err = run(
        capsys, "verify-tensor", "--setting", "binary", "--n", "2", "--samples", samples
    )
    assert code == 2 and "sample" in err and out == ""


def _drop_a_slice_term(monkeypatch):
    monkeypatch.setattr(tensor_mod, "decompose",
                        lambda ts: _drop_last_residual_term(decompose(ts)))


@pytest.mark.parametrize(
    "argv, broken",
    [
        (["--setting", "binary", "--n", "5"], False),
        (["--setting", "mod-d", "--n", "3", "--D", "4"], False),
        (["--setting", "binary", "--n", "3"], True),  # runs the witness scan
    ],
)
def test_verify_tensor_leaves_no_cyclic_garbage(capsys, monkeypatch, argv, broken):
    # what verify-tensor's pause of the cyclic collector rests on: nothing
    # the pipeline builds is in a cycle, so a collection could free nothing
    if broken:
        _drop_a_slice_term(monkeypatch)
    run(capsys, "verify-tensor", *argv)  # builds the cached parser once
    gc.collect()
    code = main(["verify-tensor", *argv])
    assert gc.collect() == 0
    assert code == (1 if broken else 0)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "case, n, expected",
    [("pass", "3", 0), ("mismatch", "3", 1), ("lemma", "3", 1), ("over-cap", "11", 2)],
)
def test_verify_tensor_restores_the_collector(capsys, monkeypatch, enabled, case, n, expected):
    if case == "mismatch":
        _drop_a_slice_term(monkeypatch)
    elif case == "lemma":
        tensor_mod._one_coordinate.cache_clear()
        monkeypatch.setattr(tensor_mod, "_choices", lambda setting, D: [(1, 0, 0, 0)])
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = run(capsys, "verify-tensor", "--setting", "binary", "--n", n)
        assert (code, gc.isenabled()) == (expected, enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()


# --- search -------------------------------------------------------------------


def test_search_binary(capsys, tmp_path):
    out_json = str(tmp_path / "search.json")
    code, out, _ = run(
        capsys, "search", "--setting", "binary", "--n", "2", "--json", out_json
    )
    assert code == 0
    assert "max: 3" in out and "optimal: true" in out
    data = json.loads((tmp_path / "search.json").read_text())
    assert data["max"] == 3 and data["witness"] == ["00", "01", "11"]
    # byte-identical rerun
    first = (tmp_path / "search.json").read_bytes()
    run(capsys, "search", "--setting", "binary", "--n", "2", "--json", out_json)
    assert (tmp_path / "search.json").read_bytes() == first


def test_search_capset(capsys):
    code, out, _ = run(capsys, "search", "--setting", "capset", "--n", "2")
    assert code == 0 and "max: 4" in out


def test_search_witness_round_trips_through_detect(capsys, tmp_path):
    witness = str(tmp_path / "witness.txt")
    code, _, _ = run(
        capsys, "search", "--setting", "binary", "--n", "3", "--witness-out", witness
    )
    assert code == 0
    code, out, _ = run(capsys, "detect", witness)
    assert code == 0 and "sunflower-free: true" in out


@pytest.mark.parametrize("setting", ["binary", "mod-d", "capset"])
def test_search_refuses_a_zero_coordinate_witness_file(capsys, tmp_path, setting):
    # the one member () would be a blank line, which reads back as no member
    d_args = ["--D", "3"] if setting == "mod-d" else []
    witness, report = tmp_path / "w.txt", tmp_path / "s.json"
    code, out, err = run(capsys, "search", "--setting", setting, "--n", "0", *d_args,
                         "--json", str(report), "--witness-out", str(witness))
    assert (code, out) == (2, "")
    assert "zero-coordinate member" in err
    assert not witness.exists() and not report.exists()
    code, out, _ = run(capsys, "search", "--setting", setting, "--n", "0", *d_args,
                       "--json", str(report))
    assert code == 0 and out.startswith("max: 1\n")
    assert json.loads(report.read_text())["witness"] == [""]


# --- encode --------------------------------------------------------------------


def test_encode_displayed_example(family_file, capsys, tmp_path):
    path = family_file("enc.txt", "1011\n0100\n")
    out_json = str(tmp_path / "enc.json")
    code, out, _ = run(capsys, "encode", path, "--json", out_json)
    assert code == 0
    assert "member: 1,3" in out and "member: 2,0" in out
    data = json.loads((tmp_path / "enc.json").read_text())
    assert data["members"] == ["1,3", "2,0"]
    assert all(layer["capset"] for layer in data["layers"])


def test_encode_writes_its_json_before_printing(family_file, capsys, tmp_path):
    # a report that cannot be written leaves stdout empty
    path = family_file("enc.txt", "1011\n0100\n")
    code, out, err = run(capsys, "encode", path, "--json", str(tmp_path / "no-dir" / "enc.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_encode_rejects_odd_dimension(family_file, capsys):
    path = family_file("odd.txt", "101\n")
    code, _, err = run(capsys, "encode", path)
    assert code == 2


def test_encode_flags_noncapset_layer(family_file, capsys):
    # a family that is NOT sunflower-free can produce a progression layer
    path = family_file("bad.txt", "0000\n0100\n1000\n1100\n")
    code, out, _ = run(capsys, "encode", path)
    lines = [l for l in out.splitlines() if l.startswith("layer")]
    assert lines
    if code == 1:
        assert any("capset: false" in l for l in lines)


# --- artifacts -------------------------------------------------------------------

# every flag that writes a file: (argv before the path, family text or None)
ARTIFACT_CALLS = [
    (["certify", "{family}", "--json"], "00\n10\n11\n"),
    (["encode", "{family}", "--json"], "1011\n0100\n"),
    (["search", "--setting", "binary", "--n", "2", "--json"], None),
    (["search", "--setting", "binary", "--n", "3", "--witness-out"], None),
    (["bounds", "--n", "2", "--D", "3", "--csv"], None),
]


def _artifact_argv(family_file, argv, text):
    family = family_file("f.txt", text) if text else None
    return [family if a == "{family}" else a for a in argv]


@pytest.mark.parametrize("argv,text", ARTIFACT_CALLS)
def test_rewriting_an_artifact_leaves_the_bytes_of_a_fresh_write(family_file, capsys, tmp_path,
                                                                 argv, text):
    argv = _artifact_argv(family_file, argv, text)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    code, out, err = run(capsys, *argv, str(fresh))
    assert code == 0 and err == ""
    expected = fresh.read_bytes()
    # a longer file is cut to the new length; a rerun rewrites it unchanged
    old.write_bytes(b"x" * (len(expected) + 100))
    assert run(capsys, *argv, str(old)) == (0, out, "")
    assert old.read_bytes() == expected
    assert run(capsys, *argv, str(old)) == (0, out, "")
    assert old.read_bytes() == expected
    if argv[0] == "bounds":
        lines = expected.split(b"\n")
        assert lines[-1] == b"" and all(line.endswith(b"\r") for line in lines[:-1])


@pytest.mark.parametrize("argv,text", ARTIFACT_CALLS)
def test_artifact_paths_keep_links_and_stream_to_devices(family_file, capsys, tmp_path,
                                                          argv, text):
    argv = _artifact_argv(family_file, argv, text)
    fresh, target, link = tmp_path / "fresh", tmp_path / "target", tmp_path / "link"
    code, out, _ = run(capsys, *argv, str(fresh))
    assert code == 0
    target.write_bytes(b"x" * (fresh.stat().st_size + 100))
    link.symlink_to(target)
    assert run(capsys, *argv, str(link)) == (0, out, "")
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()
    assert run(capsys, *argv, os.devnull) == (0, out, "")
    # a pipe cannot be cut: it takes the bytes as a stream
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, *argv, str(fifo)) == (0, out, "")
        assert os.read(reader, 1 << 16) == fresh.read_bytes()
    finally:
        os.close(reader)


@pytest.mark.parametrize("argv,text", ARTIFACT_CALLS)
def test_an_unwritable_artifact_path_is_an_error_line(family_file, capsys, tmp_path, argv, text):
    argv = _artifact_argv(family_file, argv, text)
    missing = tmp_path / "no-dir" / "artifact"
    assert run(capsys, *argv, str(missing)) == (
        2, "", f"error: [Errno 2] No such file or directory: '{missing}'\n")
    assert run(capsys, *argv, str(tmp_path)) == (
        2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


@pytest.mark.parametrize("argv,text", ARTIFACT_CALLS)
def test_an_existing_artifact_is_not_truncated_on_open(family_file, capsys, tmp_path, monkeypatch,
                                                       argv, text):
    # truncating a file with data to zero makes ext4 force the new data out
    # at close; the writer opens without O_TRUNC and cuts the file after
    argv = _artifact_argv(family_file, argv, text)
    path = str(tmp_path / "artifact")
    opened = []
    real_open = os.open

    def spy(file, flags, *args, **kwargs):
        opened.append((os.fspath(file), flags))
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert run(capsys, *argv, path)[0] == 0
    flags = [f for file, f in opened if file == path]
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
