import csv
import json

import pytest

from slicerank.cli import main
from slicerank.tensor import BoundCertificate


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


def test_detect_missing_file(capsys):
    code, _, err = run(capsys, "detect", "/nonexistent/family.txt")
    assert code == 2 and "error" in err


# --- certify ----------------------------------------------------------------


def test_certify_mod_family(family_file, capsys, tmp_path):
    path = family_file("mod.txt", "0\n1\n")
    out_json = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "certify", path, "--D", "3", "--json", out_json)
    assert code == 0
    assert "conclusion: |A| <= 3" in out
    cert = BoundCertificate.from_json((tmp_path / "cert.json").read_text())
    assert cert.diagonal_ok and cert.slice_count == 3


def test_certify_rejects_sunflower(family_file, capsys):
    path = family_file("sun.txt", "100\n010\n001\n")
    code, out, _ = run(capsys, "certify", path)
    assert code == 1 and "not sunflower-free" in out


def test_certify_binary(family_file, capsys):
    path = family_file("f.txt", "10\n01\n")
    code, out, _ = run(capsys, "certify", path)
    assert code == 0 and "slice_count: 3" in out


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


# --- verify-tensor ------------------------------------------------------------


def test_verify_tensor_binary(capsys):
    code, out, _ = run(capsys, "verify-tensor", "--setting", "binary", "--n", "3")
    assert code == 0
    assert "expansion_ok: true" in out and "decomposition_ok: true" in out


def test_verify_tensor_mod_sampled(capsys):
    code, out, _ = run(
        capsys, "verify-tensor", "--setting", "mod-d", "--n", "2", "--D", "4",
        "--samples", "32", "--seed", "5",
    )
    assert code == 0


def test_verify_tensor_requires_d(capsys):
    code, _, err = run(capsys, "verify-tensor", "--setting", "mod-d", "--n", "2")
    assert code == 2


def test_verify_tensor_resource_error(capsys):
    code, _, err = run(capsys, "verify-tensor", "--setting", "binary", "--n", "40")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_tensor_rejects_sample_count_below_one(capsys, samples):
    code, out, err = run(
        capsys, "verify-tensor", "--setting", "binary", "--n", "2", "--samples", samples
    )
    assert code == 2 and "sample" in err and out == ""


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
