import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import erpg
from erpg import cli
from erpg import graphs as gr
from erpg.cli import main
from erpg.constructions import alpha_bounds
from erpg.field import field_for_order
from erpg.plane import ProjectivePlane
from erpg.polarity import build_er_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_q9(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "build", "--q", "9", "--out", str(out_file),
                       "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["size"] == 22
    assert report["output_paths"] == [str(out_file)]
    schema = json.loads((Path(erpg.__file__).parent / "schemas" /
                         "certificate_v1.json").read_text())
    jsonschema.validate(json.loads(out_file.read_text()), schema)


def test_build_even_arc_extension(capsys):
    code, out, _ = run(capsys, "build", "--q", "8", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["size"] == 10
    assert result["extension_candidates"] == 18


def test_build_triangle_free(capsys, tmp_path):
    out_file = tmp_path / "tf.json"
    code, out, _ = run(capsys, "build", "--q", "8", "--construction",
                       "triangle-free", "--out", str(out_file), "--json")
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["size"] == 36
    assert doc["verified"]["girth_at_least_5"]


@pytest.mark.parametrize("q,digest", [
    (8, "a33025f4ab7a3d841899ddfde08b1b8df5f1f8a9b226880f1ff02747176ac3ee"),
    (16, "b4032262634a090337414b9919aa36eb72f078c90f187d714da30844612e17d6"),
])
def test_triangle_free_certificate_bytes(capsys, tmp_path, q, digest):
    out_file = tmp_path / "tf.json"
    code, _, _ = run(capsys, "build", "--q", str(q), "--construction",
                     "triangle-free", "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("q,digest", [
    (32, "bead9cbe5f2e929b679b3cbe43616221d2afee59bc14840fe9f3e38ab2ac53a7"),
    (128, "d915d77386be06f4fe6ffac0481fde0e0f3689fc02dae9528908d7125b60e034"),
])
def test_even_arc_certificate_bytes(capsys, tmp_path, q, digest):
    out_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "build", "--q", str(q), "--json",
                     "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("q,digest", [
    (4, "2f266e9d5bc683a7725708ef6c0e327f0ed7c2a594baec78015e639265b76f14"),
    (16, "33e6fe46e6172b1fcaffbf1ac6ab35841390129305d81ab34aa2fb0e9e5fcfc2"),
    (64, "6f83167da8b410715fc679c586bfccac9a8cf16e064e5d831b166773f227497e"),
])
def test_even_square_arc_certificate_bytes(capsys, tmp_path, q, digest):
    out_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "build", "--q", str(q), "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("q,digest", [
    (9, "f11b35d1e04692f58d637945a3279cd6af380f6cb55e4f74a50e9890f8300795"),
    (25, "37ad3d7950bf808d83a6ac197f8250d54792a42f9c9deb05ccca40cbc4f768ba"),
    (49, "41a905a27197d64c8f3a51e8b9a6ae6898b1d885b09bd3c4f177263b192795f2"),
    (81, "36d3f511ec08742f478128d299d25d5eb30f0a80b5def73f5b8c762a009fb786"),
    (121, "701ae38caeb75ea92d946418fc9e49dd471f4451561d60c93adb8de5a63d220f"),
])
def test_odd_square_certificate_bytes(capsys, tmp_path, q, digest):
    out_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "build", "--q", str(q), "--json",
                     "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_orbits_q25_report_bytes(capsys):
    code, out, _ = run(capsys, "orbits", "--q", "25", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6d8ccc5834fc21aaf8a65bbe3ea552fb5cdc0865d05e4c9cfd17e3bbf298439b")


def test_triangle_free_q64_report_bytes(capsys):
    code, out, _ = run(capsys, "build", "--q", "64", "--construction",
                       "triangle-free", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "84ad5d17d08ecf7284bd8b2d7d9415d2bb53e8b3923a15373776a235b77731fc")


def test_build_invalid_q_exits_2(capsys):
    code, _, err = run(capsys, "build", "--q", "6")
    assert code == 2
    assert "prime power" in err


def test_build_triangle_free_odd_q_exits_2(capsys):
    code, out, err = run(capsys, "build", "--q", "9", "--construction",
                         "triangle-free")
    assert code == 2 and out == ""
    assert err == "error: q = 9 is not even\n"


def test_build_odd_nonsquare_exits_2(capsys):
    code, _, err = run(capsys, "build", "--q", "7")
    assert code == 2


def test_graph_export(capsys, tmp_path):
    out_file = tmp_path / "er2.g6"
    code, out, _ = run(capsys, "graph", "--q", "2", "--format", "graph6",
                       "--out", str(out_file), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"n": 7, "m": 9}
    g = gr.from_graph6(out_file.read_bytes())
    assert g.n == 7 and g.num_edges() == 9


@pytest.fixture(scope="module")
def er_graphs():
    return {q: build_er_graph(ProjectivePlane(field_for_order(q)))
            for q in (27, 64)}


@pytest.mark.parametrize("fmt", ["graph6", "dimacs", "csv"])
@pytest.mark.parametrize("q", [27, 64])
def test_graph_writes_the_exported_bytes(capsysbinary, tmp_path, er_graphs,
                                         q, fmt):
    """The pieces written to --out and to stdout are `export(g, fmt)`;
    on stdout graph6, the one format without a final newline, gets
    exactly one."""
    g = er_graphs[q]
    data = gr.export(g, fmt)
    out_file = tmp_path / f"er{q}.{fmt}"
    assert main(["graph", "--q", str(q), "--format", fmt,
                 "--out", str(out_file)]) == 0
    assert out_file.read_bytes() == data
    capsysbinary.readouterr()
    assert main(["graph", "--q", str(q), "--format", fmt]) == 0
    newline = b"\n" if fmt == "graph6" else b""
    assert capsysbinary.readouterr().out == (
        data + newline + f"n: {g.n}\nm: {g.num_edges()}\n".encode())


@pytest.mark.parametrize("q,n,m", [(3, 13, 24), (4, 21, 50)])
def test_graph_counts(capsys, tmp_path, q, n, m):
    out_file = tmp_path / "er.dimacs"
    code, out, _ = run(capsys, "graph", "--q", str(q), "--format", "dimacs",
                       "--out", str(out_file), "--json")
    assert json.loads(out)["result"] == {"n": n, "m": m}
    assert gr.from_dimacs(out_file.read_bytes()).num_edges() == m


def test_solve_small(capsys):
    code, out, _ = run(capsys, "solve", "--q", "5", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "optimal"
    assert result["alpha"] <= 14  # floor(5^{3/2} + sqrt 5) + 1


@pytest.mark.parametrize("q,nodes", [(7, 13919), (8, 143173), (9, 334121)])
def test_solve_node_counts_unchanged(capsys, q, nodes):
    code, out, _ = run(capsys, "solve", "--q", str(q), "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["status"], result["nodes"]) == ("optimal", nodes)


def test_solve_budget_exhaustion_still_reports(capsys):
    code, out, _ = run(capsys, "solve", "--q", "9", "--budget", "10",
                       "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "budget_exhausted"
    assert result["alpha"] >= 22  # incumbent seeded by the construction


def test_orbits_pass(capsys):
    code, out, _ = run(capsys, "orbits", "--q", "9", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "PASS"
    sizes = {(e["class"], e["orbit_size"], e["multiplicity"])
             for e in doc["result"]["census"]}
    assert ("internal", 12, 3) in sizes


def test_orbits_bad_q(capsys):
    code, _, _ = run(capsys, "orbits", "--q", "8")
    assert code == 2


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--json")
    assert code == 0
    rows = {r["q"]: r for r in json.loads(out)["rows"]}
    assert rows[16]["lower"] == 52 and rows[16]["upper"] == 53
    assert rows[8]["lower"] == 10
    assert rows[9]["constructed"] == 22
    assert rows[2] == {"q": 2, "lower": 1, "upper": 5, "constructed": "",
                       "note": "trivial, not constructed"}
    assert all(r["note"] for r in rows.values() if r["constructed"] == "")


def test_json_outputs_deterministic(capsys):
    _, out1, _ = run(capsys, "build", "--q", "9", "--json")
    _, out2, _ = run(capsys, "build", "--q", "9", "--json")
    assert out1 == out2


def test_alpha_bounds_spot_values():
    assert alpha_bounds(16) == (52, 53, "")
    lower, upper, note = alpha_bounds(9)
    assert (lower, upper) == (22, 31)
    assert alpha_bounds(8)[0] == 10
    assert alpha_bounds(7)[2] == "reported, not constructed"
    assert alpha_bounds(2)[2] == "trivial, not constructed"


def test_graph_edge_count_mismatch_exits_3(capsys, monkeypatch, tmp_path):
    build = cli.build_er_graph

    def drop_one_edge(plane):
        g = build(plane)
        u, v = next(g.edges())
        g.adj[u] &= ~(1 << v)
        g.adj[v] &= ~(1 << u)
        return g

    monkeypatch.setattr(cli, "build_er_graph", drop_one_edge)
    code, out, err = run(capsys, "graph", "--q", "3", "--format", "dimacs")
    assert code == 3 and out == ""
    assert err == "verification failure: ER_3 has 23 edges, expected 24\n"
    target = tmp_path / "er3.dimacs"
    code, out, _ = run(capsys, "graph", "--q", "3", "--format", "dimacs",
                       "--out", str(target))
    assert code == 3 and out == ""
    assert not target.exists()


@pytest.mark.parametrize("argv", [["build", "--q", "8", "--json"],
                                  ["graph", "--q", "4", "--format", "graph6"],
                                  ["solve", "--q", "4"],
                                  ["build", "--q", "16", "--json"],
                                  ["build", "--q", "25", "--json"],
                                  ["build", "--q", "8", "--construction",
                                   "triangle-free", "--json"],
                                  ["orbits", "--q", "9"],
                                  ["build", "--q", "32", "--json"],
                                  ["build", "--q", "64", "--construction",
                                   "triangle-free", "--json"]])
def test_optimized_interpreter_gives_identical_output(argv):
    """python -O strips assert statements; no check may depend on them."""
    src = str(Path(erpg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "erpg.cli", *argv],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [["graph", "--q", "16", "--format", "dimacs"],
                                  ["graph", "--q", "3", "--format", "csv",
                                   "--json"],
                                  ["table"]])
def test_closed_stdout_exits_quietly(argv):
    """A reader that closes the pipe (`erpg graph ... | head`) ends the
    command with exit 141 and nothing on stderr, not a traceback."""
    src = str(Path(erpg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the first write, so every write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "erpg.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141


def test_importing_a_module_loads_only_its_own_imports():
    """The package itself loads no module; erpg.plane needs only field."""
    src = str(Path(erpg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, erpg, erpg.field, erpg.plane; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'erpg'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == str(["erpg", "erpg.field",
                                                "erpg.plane"])


@pytest.mark.parametrize("q", ["65537", str(2 ** 21)])
@pytest.mark.parametrize("argv", [["graph", "--format", "graph6"], ["solve"],
                                  ["build"], ["orbits"]])
def test_q_above_cap_exits_2(capsys, argv, q):
    code, out, err = run(capsys, *argv, "--q", q)
    assert code == 2 and out == ""
    assert err == f"error: q = {q} exceeds the supported cap 65536\n"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_solve_nonpositive_budget_exits_2(capsys, budget):
    code, out, err = run(capsys, "solve", "--q", "3", "--budget", budget)
    assert code == 2 and out == ""
    assert err == "error: budget must be positive\n"


@pytest.mark.parametrize("argv", [["graph", "--q", "3", "--format", "graph6"],
                                  ["solve", "--q", "3"]])
@pytest.mark.parametrize("exc,code,prefix", [
    (AssertionError, 3, "verification failure"), (ValueError, 2, "error")])
def test_library_failure_exit_code(capsys, monkeypatch, argv, exc, code,
                                   prefix):
    def fail(self):
        raise exc("asymmetric edge (0,1)")

    monkeypatch.setattr(gr.Graph, "check_symmetric", fail)
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err == f"{prefix}: asymmetric edge (0,1)\n"


def test_orbits_verification_error_exits_3(capsys, monkeypatch):
    def broken(q):
        raise cli.cons.VerificationError("orbit mixes point classes")

    monkeypatch.setattr(cli.cons, "orbit_census_odd_square", broken)
    code, out, err = run(capsys, "orbits", "--q", "9")
    assert code == 3 and out == ""
    assert err == "verification failure: orbit mixes point classes\n"


def test_build_verification_error_exits_3(capsys, monkeypatch):
    def broken(q):
        raise cli.cons.VerificationError("triangle found")

    monkeypatch.setattr(cli.cons, "triangle_free_certificate", broken)
    code, out, err = run(capsys, "build", "--q", "8", "--construction",
                         "triangle-free")
    assert code == 3 and out == ""
    assert err == "verification failure: triangle found\n"


def test_build_triangle_free_asymmetric_rows_exit_3(capsys, monkeypatch):
    real = cli.cons.induced_on_points

    def one_way(plane, points):
        sub = real(plane, points)
        sub.adj[0] &= sub.adj[0] - 1  # clears the lowest bit of row 0
        return sub

    monkeypatch.setattr(cli.cons, "induced_on_points", one_way)
    code, out, err = run(capsys, "build", "--q", "8", "--construction",
                         "triangle-free")
    assert code == 3 and out == ""
    assert err.startswith("verification failure: asymmetric edge (")


def test_orbits_census_mismatch_exits_3(capsys, monkeypatch):
    def wrong(q):
        return cli.cons.OrbitCensus(q, [("conic", 6, 1)])

    monkeypatch.setattr(cli.cons, "orbit_census_odd_square", wrong)
    code, out, err = run(capsys, "orbits", "--q", "9")
    assert code == 3
    assert out.splitlines()[-1] == "status: FAIL"
    assert err == "verification failure: orbit census mismatch\n"


@pytest.mark.parametrize("q,family,unverify", [
    pytest.param(9, "odd_sq_neg",
                 lambda verified: verified.update(independent=False),
                 id="flag-false"),
    # never certified: all({}) is True, so only a non-empty check sees it
    pytest.param(8, "even_arc", dict.clear, id="never-certified")])
def test_build_unverified_certificate_exits_3(capsys, monkeypatch, tmp_path,
                                              q, family, unverify):
    build = cli.cons.BUILDERS[family]

    def unverified(q):
        cert = build(q)
        unverify(cert.verified)
        return cert

    monkeypatch.setitem(cli.cons.BUILDERS, family, unverified)
    target = tmp_path / "cert.json"
    code, out, err = run(capsys, "build", "--q", str(q), "--out", str(target))
    assert code == 3 and out == ""
    assert err == "verification failure: certificate verification failed\n"
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["build", "--q", "8"], ["build", "--q", "8", "--construction",
                            "triangle-free"],
    ["graph", "--q", "5", "--format", "csv"]])
def test_out_that_cannot_be_opened_exits_2(capsys, monkeypatch, tmp_path,
                                           argv):
    # the missing directory is found before any field or row is built
    def forbidden(*args):
        raise AssertionError("built before --out was checked")

    for name in ("field_for_order", "ProjectivePlane", "build_er_graph"):
        monkeypatch.setattr(cli, name, forbidden)
    for name in ("build_coclique", "triangle_free_certificate"):
        monkeypatch.setattr(cli.cons, name, forbidden)
    target = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err == (f"error: cannot open --out {str(target)!r}: "
                   "No such file or directory\n")


def test_solve_bound_violation_exits_4(capsys, monkeypatch):
    real = cli.alpha_bounds  # keeps the note: q = 3 has no coclique
    monkeypatch.setattr(cli, "alpha_bounds", lambda q: (0, 1, real(q)[2]))
    code, out, err = run(capsys, "solve", "--q", "3")
    assert code == 4
    assert out.splitlines()[:3] == ["q: 3", "alpha: 5", "status: optimal"]
    assert "upper_bound: 1" in out.splitlines()
    assert err == "error: bound violation: value 5 exceeds upper bound 1\n"


def test_build_wrong_family_for_q_exits_2(capsys):
    code, out, err = run(capsys, "build", "--q", "9", "--construction",
                         "even-arc")
    assert code == 2 and out == ""
    assert "invalid choice: 'even-arc'" in err


@pytest.mark.parametrize("argv", [["table"], ["solve", "--q", "4"]])
def test_failed_build_is_not_a_missing_construction(capsys, monkeypatch,
                                                    argv):
    """A builder that fails at a q it serves exits 2; it must not leave a
    blank table cell or an unseeded solve behind."""
    def broken(q):
        raise ValueError("builder failed")

    monkeypatch.setitem(cli.cons.BUILDERS, "even_sq_subfield_arc", broken)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: builder failed\n"


@pytest.mark.parametrize("argv", [["build", "--q", "9"],
                                  ["graph", "--q", "3", "--format", "dimacs"],
                                  ["solve", "--q", "3"],
                                  ["orbits", "--q", "9"]])
def test_timings_adds_only_wall_time(capsys, tmp_path, argv):
    if argv[0] == "graph":
        argv = argv + ["--out", str(tmp_path / "er.dimacs")]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    plain = json.loads(out)
    code, out, _ = run(capsys, *argv, "--json", "--timings")
    assert code == 0
    timed = json.loads(out)
    assert timed.pop("wall_time_s") >= 0
    assert timed == plain


def test_table_text_runs_without_q(capsys):
    code, out, err = run(capsys, "table")
    assert code == 0 and err == ""
    assert out.splitlines()[0].split() == ["q", "lower", "constructed",
                                           "upper", "note"]
    assert len(out.splitlines()) == 1 + len(cli.TABLE_Q)
