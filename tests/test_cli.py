"""End-to-end checks of the boolgb command line."""

import argparse
import csv
import io
import json
import os
import stat

import pytest

from boolgb import (
    DEGLEX,
    GroebnerBasis,
    dump_basis,
    load_basis,
    make_G,
    make_H,
    make_S,
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


def test_gen_boolean_field_polys_exit_2(tmp_path, capsys):
    # S(n) is empty in the Boolean quotient: nothing is written
    out = tmp_path / "sb.gens"
    rc, stdout, stderr = run(capsys, "gen", "--family", "S", "--n", "1",
                             "--mode", "boolean", "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert not out.exists()


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


@pytest.mark.parametrize("flag", ["-v", "-vv"])
def test_gb_stats_on_verbose(tmp_path, capsys, flag):
    h2 = write_h(tmp_path, 2)
    out = tmp_path / "h2.json"
    rc, _, stderr = run(capsys, "gb", h2, flag, "--out", str(out))
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


def test_gb_parse_error_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.gens"
    bad.write_text("# n=2 mode=full\nx1 + y1\nz1\n   x1 + y1^  # c\n")
    rc, _, stderr = run(capsys, "gb", str(bad))
    assert rc == 2
    assert stderr == "error: line 4: expected an integer (at position 8)\n"


def test_gb_missing_file_exit_2(capsys):
    rc, _, _ = run(capsys, "gb", "/nonexistent/file.gens")
    assert rc == 2


def test_gb_resource_limit_exit_3(tmp_path, capsys):
    h3 = write_h(tmp_path, 3)
    rc, _, stderr = run(capsys, "gb", h3, "--max-pairs", "5")
    assert rc == 3
    assert "pairsGenerated=" in stderr
    # the count the cap compares, past the cap
    queued = [line for line in stderr.splitlines() if line.startswith("pairsQueued=")]
    assert len(queued) == 1 and int(queued[0].partition("=")[2]) > 5


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


def test_verify_packs_G_once(capsys, monkeypatch):
    # V2a, V2b and the interreduction behind V3 and V4 read one basis of G
    G3 = frozenset(make_G(3).polynomials)
    built = []
    init = GroebnerBasis.__init__

    def counting(self, elements, order, reduced=False):
        elements = list(elements)
        built.append(frozenset(elements) == G3)
        init(self, elements, order, reduced)

    monkeypatch.setattr(GroebnerBasis, "__init__", counting)
    rc, stdout, _ = run(capsys, "verify", "--n", "3")
    assert rc == 0 and stdout.count("PASS") == 5
    assert built.count(True) == 1


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


def test_bench_n_max_below_n_exit_2(capsys):
    rc, stdout, stderr = run(capsys, "bench", "--n", "3", "--n-max", "2")
    assert rc == 2
    assert stdout == ""
    assert "--n-max must be >= --n" in stderr


def test_bench_csv_and_json_rows_agree(capsys):
    # 100 queued pairs admit n = 2 (70) and stop n = 3 (267): one empty gbCount
    argv = ["bench", "--n", "2", "--n-max", "3", "--max-pairs", "100"]
    rc, text, _ = run(capsys, *argv)
    assert rc == 3
    rc, document, _ = run(capsys, *argv, "--format", "json")
    assert rc == 3
    csv_rows = list(csv.DictReader(io.StringIO(text)))
    json_rows = json.loads(document)
    assert [list(row) for row in csv_rows] == [list(row) for row in json_rows]
    assert [row["gbCount"] for row in json_rows] == [21, None]
    for csv_row, json_row in zip(csv_rows, json_rows):
        # the two runs time the engine separately
        assert int(csv_row.pop("wallTimeMs")) >= 0
        assert json_row.pop("wallTimeMs") >= 0
        assert csv_row == {key: "" if value is None else str(value)
                           for key, value in json_row.items()}


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
    with open(h2_basis_file) as fh:
        basis = load_basis(fh.read())
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


@pytest.mark.parametrize("poly,line", [
    ("x1^2+x1", "member=true oracle=true"),
    ("x1", "member=false oracle=false"),
])
def test_member_oracle_on_a_basis_that_implies_the_field_polys(
        tmp_path, capsys, poly, line):
    # the reduced basis {z1, y1, x1+1} lists no c^2+c, but each reduces to 0
    gens = tmp_path / "f.gens"
    gens.write_text("# n=1 mode=full\nx1+1\ny1\nz1\n")
    basis = tmp_path / "f.json"
    assert main(["gb", str(gens), "--out", str(basis)]) == 0
    rc, stdout, _ = run(capsys, "member", poly, str(basis), "--oracle")
    assert rc == 0
    assert stdout.strip() == line


def test_member_oracle_unavailable_without_the_field_polys(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(dump_basis(GroebnerBasis([parse_poly("x1*y1+1", 1)], DEGLEX)))
    rc, stdout, stderr = run(capsys, "member", "x1^2+x1", str(path), "--oracle")
    assert rc == 0
    assert stdout.strip() == "member=false oracle=unavailable"
    assert "lacks field polynomials" in stderr


def test_member_parse_error(h2_basis_file, capsys):
    rc, _, _ = run(capsys, "member", "x9", h2_basis_file)
    assert rc == 2


def test_nf_malformed_text_exit_2_with_position(h2_basis_file, capsys):
    # a superscript digit passes str.isdigit, but int() rejects it
    rc, _, stderr = run(capsys, "nf", "x1^\u00b2", h2_basis_file)
    assert rc == 2
    assert "at position 3" in stderr


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


ACCEPTED = {
    "gen": {"--family", "--mode", "--n", "--order", "--out"},
    "gb": {"input", "--order", "--engine", "--max-pairs", "--max-basis", "--out", "-v"},
    "verify": {"--n", "--order", "--engine", "--max-pairs", "--max-basis", "--out",
               "--format"},
    "bench": {"--n", "--order", "--engine", "--max-pairs", "--max-basis", "--out",
              "--format", "--n-max"},
    "nf": {"poly", "basis", "--out"},
    "member": {"poly", "basis", "--oracle", "--out"},
}


def test_each_command_accepts_only_the_flags_it_reads():
    from boolgb.cli import _build_parser
    sub, = [a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {a.option_strings[0] if a.option_strings else a.dest
               for a in parser._actions if a.dest != "help"}
        for name, parser in sub.choices.items()}
    assert accepted == ACCEPTED
    assert sum(map(len, accepted.values())) == 34
    assert len(REFUSED) == 20


# one value per flag that takes one
FLAG_VALUES = {"--order": "degrevlex", "--engine": "full", "--max-pairs": "5",
               "--max-basis": "5", "--format": "json", "-v": None}
TARGETS = {"gen": ["--family", "L", "--n", "1"], "gb": ["h.gens"],
           "verify": ["--n", "1"], "bench": ["--n", "2"],
           "nf": ["x1", "b.json"], "member": ["x1", "b.json"]}
REFUSED = [(command, flag) for command in TARGETS for flag in FLAG_VALUES
           if flag not in ACCEPTED[command]]


@pytest.mark.parametrize("command, flag", REFUSED)
def test_flag_a_command_does_not_read_exits_2(capsys, command, flag):
    value = FLAG_VALUES[flag]
    extra = [flag] if value is None else [flag, value]
    with pytest.raises(SystemExit) as err:
        main([command, *TARGETS[command], *extra])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_format_csv_exits_2(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--n", "2", "--format", "csv"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_reports_v4_when_v3_hits_the_pair_cap(capsys, monkeypatch):
    monkeypatch.setenv("BOOLGB_CAPS", "pairs=10")
    rc, stdout, _ = run(capsys, "verify", "--n", "2")
    assert rc == 0
    assert "V3 SKIPPED: pair cap exceeded (10)" in stdout
    assert "V4 PASS" in stdout


def test_verify_skips_checks_over_point_cap(capsys, monkeypatch):
    monkeypatch.setenv("BOOLGB_CAPS", "points=4")  # Sol(H(2)) needs 2^5 candidates
    rc, stdout, _ = run(capsys, "verify", "--n", "2")
    assert rc == 0
    assert "V1 SKIPPED" in stdout
    assert "V4 SKIPPED" in stdout
    assert "V3 PASS" in stdout


def test_verify_under_a_huge_point_cap_passes(capsys, monkeypatch):
    # the cap is compared by bit length: 2^(10^18) is never built
    monkeypatch.setenv("BOOLGB_CAPS", f"points={10 ** 18}")
    rc, stdout, _ = run(capsys, "verify", "--n", "2")
    assert rc == 0
    assert stdout.count("PASS") == 5


def test_verify_point_cap_bounds_standard_monomial_count(capsys, monkeypatch):
    # the count is capped before the enumeration would be: it peaks at 12
    # candidates and passes 2^3 on the split of y2
    monkeypatch.setenv("BOOLGB_CAPS", "points=3")
    _, stdout, _ = run(capsys, "verify", "--n", "2")
    assert ("V4 SKIPPED: the search needs 10 live candidates, past the 2^3 "
            "enumeration cap") in stdout


def test_verify_reports_every_check_past_the_G_cap(capsys):
    rc, stdout, _ = run(capsys, "verify", "--n", "13")
    assert rc == 0
    assert stdout.splitlines() == [
        f"{check} SKIPPED: P(13) has 3^13 elements; cap is n <= 12"
        for check in ("V1", "V2a", "V2b", "V3", "V4")]


def test_verify_past_the_G_cap_builds_no_H(capsys, monkeypatch):
    from boolgb import construction

    def make_H(*args):
        raise AssertionError("H(n) built although every check is SKIPPED")

    monkeypatch.setattr(construction, "make_H", make_H)
    rc, stdout, _ = run(capsys, "verify", "--n", "13")
    assert rc == 0
    assert stdout.count("SKIPPED") == 5


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


def test_gb_after_a_usage_error_in_one_process(tmp_path):
    # the parser is built once per process, and a usage error leaves it fit
    # for the next call: that gb call writes what a fresh process writes
    import subprocess
    import sys

    from boolgb.cli import _build_parser

    assert _build_parser() is _build_parser()
    h2 = write_h(tmp_path, 2)
    after, fresh = tmp_path / "after.json", tmp_path / "fresh.json"
    code = """if True:
        import sys
        from boolgb.cli import main
        try:
            main(["gen", "--n", "2"])  # missing --family
        except SystemExit as exc:
            assert exc.code == 2, exc.code
        else:
            sys.exit("no usage error")
        sys.exit(main(["gb", sys.argv[1], "--out", sys.argv[2]]))
    """
    for argv in (["-c", code, h2, str(after)],
                 ["-m", "boolgb.cli", "gb", h2, "--out", str(fresh)]):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert after.read_bytes() == fresh.read_bytes()


def test_cli_import_leaves_out_dataclasses():
    import subprocess
    import sys

    code = "import sys, boolgb.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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

DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("document", [
    '{"n": 1, "mode": "full", "order": "deglex", "elements": [[[[99, 1]]]]}',
    '{"n": 1, "mode": "full", "order": "deglex"}',
    '{"n": 1, "mode": "full", "order": "deglex", "elements": [[[[0, -1]]]]}',
    '{"n": 1, "mode": "boolean", "order": "deglex", "elements": [[[[0, 2]]]]}',
    '{"n": 1, "mode": "full", "order": "lex", "elements": [[[[0, 1]]]]}',
    # an element, or a monomial, that is not a list
    '{"n": 1, "mode": "full", "order": "deglex", "elements": [5]}',
    '{"n": 1, "mode": "full", "order": "deglex", "elements": [[5]]}',
    # nested deeper than the JSON decoder follows, bare or under a header
    pytest.param(DEEP, id="nested"),
    pytest.param('{"n": 1, "mode": "full", "order": "deglex", "elements": %s}' % DEEP,
                 id="nested-elements"),
])
@pytest.mark.parametrize("command", ["nf", "member"])
def test_malformed_basis_dump_exit_2(tmp_path, capsys, command, document):
    path = tmp_path / "bad.json"
    path.write_text(document)
    rc, stdout, stderr = run(capsys, command, "x1", str(path))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: ")


def test_member_oracle_past_the_points_cap_is_unavailable(tmp_path, capsys):
    # n = 9 is 27 variables, past the 24-bit enumeration cap
    path = tmp_path / "b9.json"
    path.write_text('{"n": 9, "mode": "boolean", "order": "deglex", '
                    '"elements": [[[[0, 1]]]]}')
    rc, stdout, stderr = run(capsys, "member", "x1", str(path), "--oracle")
    assert rc == 0
    assert stdout.strip() == "member=true oracle=unavailable"
    assert "enumeration cap" in stderr


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


@pytest.mark.parametrize("command", ["gb", "verify", "bench"])
def test_engine_disagreement_exit_4(tmp_path, capsys, monkeypatch, command):
    import boolgb.cli as cli
    lift = cli._boolean_as_full

    def dropped(basis, n, order):
        lifted = lift(basis, n, order)
        return GroebnerBasis(lifted.elements[1:], order, reduced=True)

    monkeypatch.setattr(cli, "_boolean_as_full", dropped)
    target = [write_h(tmp_path, 2)] if command == "gb" else ["--n", "2"]
    rc, stdout, stderr = run(capsys, command, *target, "--engine", "both")
    assert rc == 4
    assert "disagree" in (stdout if command == "verify" else stderr)


def test_verify_boolean_engine_runs_only_the_boolean_engine(capsys, monkeypatch):
    import boolgb.cli as cli
    modes = []
    engine = cli.buchberger

    def recorded(F, **kwargs):
        modes.append(F.mode)
        return engine(F, **kwargs)

    monkeypatch.setattr(cli, "buchberger", recorded)
    rc, stdout, _ = run(capsys, "verify", "--n", "2", "--engine", "boolean")
    assert rc == 0, stdout
    assert modes == ["boolean"]


def test_verify_enumerates_sol_h_once(capsys, monkeypatch):
    # V1 compares Sol(H) with Sol(G), and V4 counts the same Sol(H)
    from boolgb import oracle
    enumerated = []
    enumerate_solutions = oracle.enumerate_solutions

    def recorded(F, *args, **kwargs):
        enumerated.append(len(F))
        return enumerate_solutions(F, *args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_solutions", recorded)
    rc, stdout, _ = run(capsys, "verify", "--n", "3")
    assert rc == 0
    assert stdout.count("PASS") == 5
    assert "solutions 37, predicted 37" in stdout
    assert enumerated == [len(make_H(3)), len(make_G(3))]


@pytest.mark.parametrize("text", [
    "# n=0 mode=full\n1\n",
    "# n=1001 mode=full\nx1\n",
    "# n=two mode=full\nx1\n",
    "# n=1 mode=lex\nx1\n",
    "# n=1 mode=full\n# mode=boolean\nx1\n",
    "# n=1 mode=full\nx1\n# n=2 mode=full\n",
    "# n=1 mode=full\n",  # a header and no polynomial
])
def test_bad_generator_header_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.gens"
    path.write_text(text)
    rc, stdout, stderr = run(capsys, "gb", str(path))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: ")


def test_gen_n_beyond_file_bound_exit_2(capsys):
    rc, stdout, stderr = run(capsys, "gen", "--family", "L", "--n", "1001")
    assert rc == 2
    assert stdout == ""
    assert "1000" in stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "1001"],
    ["bench", "--n", "1001"],
    ["bench", "--n", "2", "--n-max", "1001"],
])
def test_n_beyond_file_bound_exit_2_for_every_command(capsys, argv):
    rc, stdout, stderr = run(capsys, *argv)
    assert rc == 2
    assert stdout == ""
    assert "1..1000" in stderr


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_out_file_mode_follows_umask(tmp_path, capsys, umask, mode):
    out = tmp_path / "l1.gens"
    old = os.umask(umask)
    try:
        rc, _, _ = run(capsys, "gen", "--family", "L", "--n", "1", "--out", str(out))
    finally:
        os.umask(old)
    assert rc == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_gb_boolean_engine_all_generators_vanish_exit_2(tmp_path, capsys):
    path = tmp_path / "field.gens"
    path.write_text("# n=1 mode=full\nx1^2+x1\n")
    rc, _, stderr = run(capsys, "gb", str(path), "--engine", "boolean")
    assert rc == 2
    assert "vanish" in stderr


def test_gb_both_engines_all_generators_vanish_exit_0(tmp_path, capsys):
    # the Boolean image is the zero ideal, whose lift is the basis of S(1);
    # the full engine's basis of x1^2+x1 and S(1) is the same
    path = tmp_path / "field.gens"
    path.write_text("# n=1 mode=full\nx1^2+x1\n")
    out = tmp_path / "field.json"
    rc, _, _ = run(capsys, "gb", str(path), "--engine", "both", "--out", str(out))
    assert rc == 0
    assert load_basis(out.read_text()).as_set() == frozenset(make_S(1))


@pytest.mark.parametrize("command", [
    ["gen", "--family", "L", "--n", "1"],
    ["verify", "--n", "1"],
    ["bench", "--n", "2"],
])
def test_out_into_missing_directory_exit_2(tmp_path, capsys, command):
    target = tmp_path / "missing" / "x.out"
    rc, _, stderr = run(capsys, *command, "--out", str(target))
    assert rc == 2
    assert stderr.startswith("error: cannot write output")
    assert not target.parent.exists()


def test_out_onto_directory_leaves_no_temp_file(tmp_path, capsys):
    (tmp_path / "x.gens").mkdir()
    rc, _, stderr = run(capsys, "gen", "--family", "L", "--n", "1",
                        "--out", str(tmp_path / "x.gens"))
    assert rc == 2
    assert stderr.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["x.gens"]
