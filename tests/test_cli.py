"""End-to-end checks of the boolgb command line."""

import json

import pytest

from boolgb import (
    DEGLEX,
    GroebnerBasis,
    dump_basis,
    load_basis,
    make_H,
    parse_poly,
    save_generators,
)
from boolgb.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_h(tmp_path, n, name=None):
    path = tmp_path / (name or f"h{n}.gens")
    save_generators(make_H(n), str(path))
    return str(path)


# ---------------------------------------------------------------------------
# gen

def test_gen_h4_has_17_lines(tmp_path, capsys):
    out = tmp_path / "h4.gens"
    rc, stdout, _ = run(capsys, "gen", "--family", "H", "--n", "4", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# n=4 mode=full"
    assert len(lines) - 1 == 17
    assert "count=17" in stdout


def test_gen_g_counts(tmp_path, capsys):
    for n, count in ((1, 9), (2, 21)):
        out = tmp_path / f"g{n}.gens"
        rc, _, _ = run(capsys, "gen", "--family", "G", "--n", str(n), "--out", str(out))
        assert rc == 0
        assert len(out.read_text().splitlines()) - 1 == count


def test_gen_boolean_mode_drops_field_polys(tmp_path, capsys):
    out = tmp_path / "hb.gens"
    rc, _, _ = run(capsys, "gen", "--family", "H", "--n", "2",
                   "--mode", "boolean", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# n=2 mode=boolean"
    assert len(lines) - 1 == 3


def test_gen_to_stdout(capsys):
    rc, stdout, stderr = run(capsys, "gen", "--family", "L", "--n", "1")
    assert rc == 0
    assert "x1*y1+x1+y1+z1" in stdout
    assert "count=1" in stderr


# ---------------------------------------------------------------------------
# gb

def test_gb_h3_both_orders(tmp_path, capsys):
    h3 = write_h(tmp_path, 3)
    for order in ("deglex", "degrevlex"):
        out = tmp_path / f"h3.{order}.json"
        rc, _, _ = run(capsys, "gb", h3, "--order", order, "--out", str(out))
        assert rc == 0
        basis = load_basis(out.read_text())
        assert len(basis) == 45
        assert basis.order.scheme == order


def test_gb_stats_on_verbose(tmp_path, capsys):
    h2 = write_h(tmp_path, 2)
    out = tmp_path / "h2.json"
    rc, _, stderr = run(capsys, "gb", h2, "-v", "--out", str(out))
    assert rc == 0
    assert "pairsGenerated=" in stderr
    assert "basisSize=21" in stderr


def test_gb_deterministic_output(tmp_path, capsys):
    h2 = write_h(tmp_path, 2)
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc, _, _ = run(capsys, "gb", h2, "--out", str(out))
        assert rc == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_gb_engine_boolean(tmp_path, capsys):
    h2 = write_h(tmp_path, 2)
    out = tmp_path / "h2.bool.json"
    rc, _, _ = run(capsys, "gb", h2, "--engine", "boolean", "--out", str(out))
    assert rc == 0
    basis = load_basis(out.read_text())
    assert basis.mode == "boolean"
    assert len(basis) == 3 * 2 + 9  # L, T and P survive in the quotient


def test_gb_engine_both_agrees(tmp_path, capsys):
    h2 = write_h(tmp_path, 2)
    out = tmp_path / "h2.both.json"
    rc, _, _ = run(capsys, "gb", h2, "--engine", "both", "--out", str(out))
    assert rc == 0
    assert len(load_basis(out.read_text())) == 21


def test_gb_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gens"
    bad.write_text("# n=1 mode=full\nx1 ++ y1\n")
    rc, _, stderr = run(capsys, "gb", str(bad))
    assert rc == 2
    assert "error" in stderr


def test_gb_missing_file_exit_2(capsys):
    rc, _, _ = run(capsys, "gb", "/nonexistent/file.gens")
    assert rc == 2


def test_gb_resource_limit_exit_3(tmp_path, capsys):
    h3 = write_h(tmp_path, 3)
    rc, _, stderr = run(capsys, "gb", h3, "--max-pairs", "5")
    assert rc == 3
    assert "pairsGenerated=" in stderr


def test_caps_env_var(tmp_path, capsys, monkeypatch):
    h3 = write_h(tmp_path, 3)
    monkeypatch.setenv("BOOLGB_CAPS", "pairs=5")
    rc, _, _ = run(capsys, "gb", h3)
    assert rc == 3
    # explicit flag overrides the environment
    rc, _, _ = run(capsys, "gb", h3, "--max-pairs", "1000000", "--out",
                   str(tmp_path / "ok.json"))
    assert rc == 0


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_small_n(capsys):
    for n in ("1", "2", "3"):
        rc, stdout, _ = run(capsys, "verify", "--n", n)
        assert rc == 0, stdout
        assert "FAIL" not in stdout


def test_verify_n1_flags_expected(capsys):
    rc, stdout, _ = run(capsys, "verify", "--n", "1")
    assert rc == 0
    assert "EXPECTED" in stdout


def test_verify_degrevlex(capsys):
    rc, stdout, _ = run(capsys, "verify", "--n", "2", "--order", "degrevlex")
    assert rc == 0
    assert stdout.count("PASS") == 5


def test_verify_json_format(capsys):
    rc, stdout, _ = run(capsys, "verify", "--n", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["n"] == 2
    assert all(r["status"] == "PASS" for r in payload["results"])


# ---------------------------------------------------------------------------
# bench

def test_bench_growth_table(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc, _, _ = run(capsys, "bench", "--n", "2", "--n-max", "4", "--out", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("n,inputCount,inputBitsize,inputMaxDegree,gbCount,"
                        "predictedGbCount,solutionCount,predictedSolutionCount,"
                        "wallTimeMs")
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3", "4"]
    assert [r[1] for r in rows] == ["9", "13", "17"]          # 4n+1
    assert [r[4] for r in rows] == ["21", "45", "105"]        # gbCount
    assert [r[4] for r in rows] == [r[5] for r in rows]       # matches prediction
    assert [r[6] for r in rows] == ["7", "37", "175"]         # 4^n-3^n
    assert [r[6] for r in rows] == [r[7] for r in rows]


def test_bench_deterministic_modulo_walltime(tmp_path, capsys):
    outs = []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        rc, _, _ = run(capsys, "bench", "--n", "2", "--n-max", "3", "--out", str(out))
        assert rc == 0
        rows = [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]
        outs.append(rows)
    assert outs[0] == outs[1]


def test_bench_resource_limited_row_marked_incomplete(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc, _, _ = run(capsys, "bench", "--n", "3", "--n-max", "3",
                   "--max-pairs", "5", "--out", str(out))
    assert rc == 3
    row = out.read_text().splitlines()[1].split(",")
    assert row[4] == ""       # gbCount missing
    assert row[5] == "45"     # prediction still present


def test_bench_json_format(capsys):
    rc, stdout, _ = run(capsys, "bench", "--n", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(stdout)
    assert payload[0]["inputCount"] == 9
    assert payload[0]["gbCount"] == payload[0]["predictedGbCount"] == 21


# ---------------------------------------------------------------------------
# nf / member

@pytest.fixture()
def h2_basis_file(tmp_path, capsys):
    h2 = write_h(tmp_path, 2)
    out = tmp_path / "h2.basis.json"
    rc = main(["gb", h2, "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    return str(out)


def test_nf_basis_element_is_zero(h2_basis_file, capsys):
    basis = load_basis(open(h2_basis_file).read())
    from boolgb import format_poly
    element_text = format_poly(basis.elements[0], basis.order)
    rc, stdout, _ = run(capsys, "nf", element_text, h2_basis_file)
    assert rc == 0
    assert stdout.strip() == "0"


def test_nf_irreducible_passthrough(h2_basis_file, capsys):
    rc, stdout, _ = run(capsys, "nf", "x1 + 1", h2_basis_file)
    assert rc == 0
    assert stdout.strip() == "x1+1"


def test_member_true_with_oracle(h2_basis_file, capsys):
    rc, stdout, _ = run(capsys, "member", "x1*z1 + x1", h2_basis_file, "--oracle")
    assert rc == 0
    assert stdout.strip() == "member=true oracle=true"


def test_member_false(h2_basis_file, capsys):
    rc, stdout, _ = run(capsys, "member", "x1", h2_basis_file, "--oracle")
    assert rc == 0
    assert stdout.strip() == "member=false oracle=false"


def test_member_parse_error(h2_basis_file, capsys):
    rc, _, _ = run(capsys, "member", "x9", h2_basis_file)
    assert rc == 2


def test_member_oracle_disagreement_exit_4(tmp_path, capsys):
    # a dump that falsely claims basis-hood: the ideal contains y1 but the
    # normal form of y1 against these elements is y1 itself
    polys = [parse_poly(t, 1) for t in
             ("x1^2+x1", "y1^2+y1", "z1^2+z1", "x1+y1", "x1")]
    fake = GroebnerBasis(polys, DEGLEX, reduced=False)
    path = tmp_path / "fake.json"
    path.write_text(dump_basis(fake))
    rc, _, stderr = run(capsys, "member", "y1", str(path), "--oracle")
    assert rc == 4
    assert "disagrees" in stderr


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--n", "2"])  # missing --family
    assert err.value.code == 2
    capsys.readouterr()


def test_verify_skips_checks_over_point_cap(capsys, monkeypatch):
    monkeypatch.setenv("BOOLGB_CAPS", "points=5")
    rc, stdout, _ = run(capsys, "verify", "--n", "2")
    assert rc == 0
    assert "V1 SKIPPED" in stdout
    assert "V4 SKIPPED" in stdout
    assert "V3 PASS" in stdout


def test_gen_resource_limit_exit_3(capsys):
    rc, _, stderr = run(capsys, "gen", "--family", "P", "--n", "13")
    assert rc == 3
    assert "resource limit" in stderr


def test_verify_engine_both(capsys):
    rc, stdout, _ = run(capsys, "verify", "--n", "2", "--engine", "both")
    assert rc == 0
    assert "FAIL" not in stdout


def test_gb_deterministic_across_processes(tmp_path):
    import os
    import subprocess
    import sys

    h2 = write_h(tmp_path, 2)
    dumps = []
    for seed in ("0", "31337"):
        out = tmp_path / f"seed{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "boolgb.cli", "gb", h2, "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1]


def test_gb_single_polynomial_file(tmp_path, capsys):
    path = tmp_path / "single.gens"
    path.write_text("# n=1 mode=full\nx1*y1+z1\n")
    out = tmp_path / "single.json"
    rc, _, _ = run(capsys, "gb", str(path), "--out", str(out))
    assert rc == 0
    basis = load_basis(out.read_text())
    assert len(basis) == 1
    from boolgb import format_poly
    assert format_poly(basis.elements[0]) == "x1*y1+z1"


def test_gb_engine_both_without_field_polys(tmp_path, capsys):
    path = tmp_path / "l1.gens"
    path.write_text("# n=1 mode=full\nx1*y1+x1+y1+z1\n")
    out = tmp_path / "l1.json"
    rc, _, _ = run(capsys, "gb", str(path), "--engine", "both", "--out", str(out))
    assert rc == 0
    basis = load_basis(out.read_text())
    assert basis.mode == "full"


def test_gb_full_engine_on_boolean_file(tmp_path, capsys):
    from boolgb import make_H, save_generators
    path = tmp_path / "h2b.gens"
    save_generators(make_H(2, mode="boolean"), str(path))
    out = tmp_path / "h2b.json"
    rc, _, _ = run(capsys, "gb", str(path), "--engine", "full", "--out", str(out))
    assert rc == 0
    basis = load_basis(out.read_text())
    assert basis.mode == "full"
    assert len(basis) == 21


# ---------------------------------------------------------------------------
# exit codes at the boundaries

@pytest.mark.parametrize("document", [
    '{"n": 1, "mode": "full", "order": "deglex", "elements": [[[[99, 1]]]]}',
    '{"n": 1, "mode": "full", "order": "deglex"}',
    '{"n": 1, "mode": "full", "order": "deglex", "elements": [[[[0, -1]]]]}',
    '{"n": 1, "mode": "boolean", "order": "deglex", "elements": [[[[0, 2]]]]}',
    '{"n": 1, "mode": "full", "order": "lex", "elements": [[[[0, 1]]]]}',
])
@pytest.mark.parametrize("command", ["nf", "member"])
def test_malformed_basis_dump_exit_2(tmp_path, capsys, command, document):
    path = tmp_path / "bad.json"
    path.write_text(document)
    rc, stdout, stderr = run(capsys, command, "x1", str(path))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: ")


@pytest.mark.parametrize("caps", ["pairs=abc", "basis=-5", "pairs=0", "pairs=5,bogus=1"])
def test_malformed_caps_env_exit_2(tmp_path, capsys, monkeypatch, caps):
    monkeypatch.setenv("BOOLGB_CAPS", caps)
    rc, _, stderr = run(capsys, "gb", write_h(tmp_path, 2))
    assert rc == 2
    assert "BOOLGB_CAPS" in stderr


@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_nonpositive_cap_flag_exit_2(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["gb", write_h(tmp_path, 2), "--max-pairs", value])
    assert exc.value.code == 2
    assert "--max-pairs" in capsys.readouterr().err


def test_bench_engine_disagreement_exit_4(capsys, monkeypatch):
    import boolgb.cli as cli
    lift = cli._boolean_as_full

    def dropped(basis, n, order):
        lifted = lift(basis, n, order)
        return GroebnerBasis(lifted.elements[1:], order, reduced=True)

    monkeypatch.setattr(cli, "_boolean_as_full", dropped)
    rc, _, stderr = run(capsys, "bench", "--n", "2", "--engine", "both")
    assert rc == 4
    assert "disagree" in stderr
