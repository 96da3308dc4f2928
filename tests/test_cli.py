"""Command line interface.

Claims:
    - reports are byte-identical across repeated runs on every preset
    - the 235 cohomology report carries b, p, k and n = 10
    - family and shape sieve runs emit the documented CSV columns
    - rumin --check exits 0 with every symbolic identity passing, and on
      235 forms each metric's harmonic bases and projections once per degree
    - rumin reports on 235 and heisenberg5 are byte-identical to tests/golden/
    - torsion reads a complex file and honors --lambda/--N/--a
    - torsion --check-invariance reports on three complexes are byte-identical
      to tests/golden/, and form each harmonic basis and rank(D_q) once per
      complex (the input and its dual)
    - nilgroup subcommands produce the documented lattice coordinates
    - validation errors exit 1 with the error name; parse errors exit 2;
      sieve --jobs below 1, char-orbit --words outside 1..10^6 and a
      non-finite or negative --lambda are validation errors; a malformed
      integer in --shape, --vector, --N or --a is a parse error naming the flag
"""

import json
from pathlib import Path

import pytest

from nilrumin.cli import run

GOLDEN = Path(__file__).parent / "golden"


def invoke(*argv):
    return run(list(argv))


def count_calls(monkeypatch, owners_and_names):
    """Count calls of each function at every nilrumin binding of it."""
    import sys

    counts = {name: 0 for _, name in owners_and_names}
    for owner, name in owners_and_names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.startswith("nilrumin") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("cohomology", "--preset", "235", "--format", "json"),
        ("cohomology", "--preset", "heisenberg3", "--format", "text"),
        ("cohomology", "--preset", "heisenberg5", "--format", "json"),
        ("cohomology", "--preset", "abelian:3:-1", "--format", "json"),
        ("sieve", "--vector", "2,1,2", "--emit-p", "--format", "json"),
        ("sieve", "--family", "n2-4", "--n-max", "40"),
        ("rumin", "--preset", "heisenberg3", "--format", "json"),
        ("nilgroup", "char-orbit", "1/3", "0", "--words", "50", "--seed", "3"),
    ])
    def test_byte_identical(self, argv):
        code1, out1 = invoke(*argv)
        code2, out2 = invoke(*argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_byte_identical_across_processes(self):
        import subprocess
        import sys

        argv = [sys.executable, "-m", "nilrumin.cli",
                "cohomology", "--preset", "235", "--format", "json"]
        runs = [subprocess.run(argv, capture_output=True, check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1] and runs[0]


class TestCohomology:
    def test_235_report(self):
        code, out = invoke("cohomology", "--preset", "235", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        res = doc["results"]
        assert res["betti"] == [1, 2, 3, 3, 2, 1]
        assert res["p"] == [0, 1, 4, 6, 9, 10]
        assert res["k"] == [1, 3, 2, 3, 1]
        assert res["homogeneous_dimension"] == 10
        assert res["pure"] is True

    def test_algebra_file(self, tmp_path):
        doc = {
            "dim": 3,
            "degrees": [-1, -1, -2],
            "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}],
        }
        path = tmp_path / "h3.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("cohomology", "--algebra", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["betti"] == [1, 2, 2, 1]

    def test_metric_file(self, tmp_path):
        gram = {"gram": [["2", "1", 0, 0, 0], ["1", "2", 0, 0, 0],
                         [0, 0, "1", 0, 0], [0, 0, 0, "1", 0], [0, 0, 0, 0, "1"]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(gram))
        code, out = invoke("cohomology", "--preset", "235",
                           "--metric", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["p"] == [0, 1, 4, 6, 9, 10]


class TestSieve:
    def test_family_csv(self):
        code, out = invoke("sieve", "--family", "n2-4", "--n-max", "12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "vector;n;d;nonzero_count;pass;roots"
        first = lines[1].split(";")
        assert first[0] == "0 4" and first[4] == "true"

    def test_shape_scan(self):
        code, out = invoke("sieve", "--shape", "n1:0..10,n2:0..2", "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        vectors = {tuple(r["vector"]) for r in rows}
        assert (2, 1) in vectors and (4, 1) in vectors
        assert all(r["pass"] for r in rows)

    def test_shape_scan_jobs_deterministic(self):
        argv = ("sieve", "--shape", "n1:0..25,n2:0..3,n3:0..2")
        _, serial = invoke(*argv)
        _, parallel = invoke(*argv, "--jobs", "2")
        assert serial == parallel

    def test_jobs_below_one_rejected(self):
        for argv in (("--shape", "n1:0..10,n2:0..2", "--jobs", "0"),
                     ("--vector", "2,1,2", "--jobs", "0"),
                     ("--family", "n2-2", "--n-max", "10", "--jobs", "-3")):
            code, out = invoke("sieve", *argv)
            assert code == 1
            assert "OutOfRange" in out

    def test_vector_report(self):
        code, out = invoke("sieve", "--vector", "2,1,2", "--emit-p", "--format", "json")
        row = json.loads(out)["results"]["rows"][0]
        assert row["P"] == [1, -2, 0, 0, 3, 0, -3, 0, 0, 2, -1]
        assert row["pass"] is True


class TestRumin:
    def test_check_passes(self):
        code, out = invoke("rumin", "--preset", "heisenberg3", "--check", "--format", "json")
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert all(checks.values())

    def test_check_forms_hodge_data_once_per_metric(self, monkeypatch):
        # 6 rumin_D calls on 235 (m = 5): one harmonic basis and one
        # projection per degree and metric, plus the reference metric's bases
        from nilrumin import rational, rumin_flat

        counts = count_calls(monkeypatch, ((rational, "harmonic_basis"),
                                           (rational, "orthogonal_projection"),
                                           (rumin_flat, "rumin_D")))
        code, _ = invoke("rumin", "--preset", "235", "--check")
        assert code == 0
        assert counts["harmonic_basis"] <= 66
        assert counts["orthogonal_projection"] <= 36
        assert counts["rumin_D"] == 6

    def test_orders_in_report(self):
        code, out = invoke("rumin", "--preset", "235", "--format", "json")
        res = json.loads(out)["results"]
        assert res["orders"] == [1, 3, 2, 3, 1]
        assert res["orders"] == res["k"]

    @pytest.mark.parametrize("preset", ["235", "heisenberg5"])
    def test_report_matches_golden(self, preset):
        code, out = invoke("rumin", "--preset", preset, "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"rumin_{preset}.json").read_text()


class TestTorsion:
    def complex_doc(self):
        return {
            "min_degree": 0,
            "dims": [1, 1],
            "differentials": [[["3"]]],
            "k": [1],
        }

    def test_basic(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.complex_doc()))
        code, out = invoke("torsion", "--input", str(path), "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert abs(float(res["total"]) - 1 / 3) < 1e-12

    def test_invariance_battery(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.complex_doc()))
        code, out = invoke("torsion", "--input", str(path),
                           "--check-invariance", "--format", "json")
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert all(checks.values())

    def test_explicit_n_and_a(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.complex_doc()))
        code, out = invoke("torsion", "--input", str(path),
                           "--N", "5,6", "--a", "2", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert abs(float(res["total"]) - 1 / 3) < 1e-12
        assert res["kappa"] == 2

    @pytest.mark.parametrize("name", ["acyclic", "reference", "k121"])
    def test_report_matches_golden(self, name):
        # acyclic: k = (1,3,2,3,1); reference: non-acyclic with cocycles,
        # k = (1,3,2,3,1); k121: k = (1,2,1) from degree -1
        code, out = invoke("torsion", "--input", str(GOLDEN / f"torsion_{name}.input.json"),
                           "--check-invariance", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"torsion_{name}.json").read_text()

    def test_check_forms_exact_invariants_once(self, monkeypatch):
        from nilrumin import fd_torsion, rational
        from nilrumin.io_formats import load_complex

        path = str(GOLDEN / "torsion_reference.input.json")
        cx, _, _ = load_complex(path)
        dual = fd_torsion.dual_complex(cx)
        harmonic_degrees = sum(1 for c in (cx, dual) for q in c.degrees if c.betti(q))
        assert harmonic_degrees == 8
        counts = count_calls(monkeypatch, ((rational, "harmonic_basis"), (rational, "rank")))
        code, _ = invoke("torsion", "--input", path, "--check-invariance")
        assert code == 0
        assert counts["harmonic_basis"] == harmonic_degrees
        assert counts["rank"] == len(cx.diffs) + len(dual.diffs)

    @pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf", "-1"])
    def test_cutoff_must_be_finite_nonnegative(self, tmp_path, cutoff):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.complex_doc()))
        code, out = invoke("torsion", "--input", str(path), f"--lambda={cutoff}")
        assert code == 1
        assert "ConstraintViolated" in out


class TestNilgroup:
    def test_mul(self):
        code, out = invoke("nilgroup", "mul", "1,0,0,0,0", "0,1,0,0,0")
        assert code == 0 and out.strip() == "1,1,1/2,1/12,-1/12"

    def test_pow(self):
        code, out = invoke("nilgroup", "pow", "2", "3")
        assert out.strip() == "2,3,3,1,-3/2"

    def test_membership(self):
        code, out = invoke("nilgroup", "in-gamma0", "0,0,1,1/2,1/2")
        assert out.strip() == "true"
        code, out = invoke("nilgroup", "in-gamma0", "0,0,1/2,0,0")
        assert out.strip() == "false"

    def test_embed(self, tmp_path):
        doc = {"generators": [
            ["1", 0, 0, 0, 0],
            [0, "1", 0, 0, 0],
            [0, 0, "1/3", 0, 0],
            [0, 0, 0, "1", 0],
            [0, 0, 0, 0, "1"],
        ]}
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("nilgroup", "embed", str(path))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["k"] == 6 and res["r"] == "12"

    def test_char_orbit_csv(self):
        code, out = invoke("nilgroup", "char-orbit", "1/3", "1/7",
                           "--words", "10", "--seed", "1")
        lines = out.strip().splitlines()
        assert lines[0] == "s;t" and len(lines) == 11

    @pytest.mark.parametrize("words", ["0", "-5", "1000001"])
    def test_char_orbit_words_out_of_range(self, words):
        code, out = invoke("nilgroup", "char-orbit", "1/3", "1/7", "--words", words)
        assert code == 1
        assert "OutOfRange" in out


class TestErrors:
    def test_validation_exit_one(self, tmp_path):
        doc = {
            "dim": 2,
            "degrees": [-1, -1],
            "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "c": "1"}]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("cohomology", "--algebra", str(path))
        assert code == 1
        assert "GradingViolation" in out

    def test_parse_error_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        code, out = invoke("cohomology", "--algebra", str(path))
        assert code == 2
        assert "line" in out

    def test_missing_input(self):
        code, out = invoke("cohomology")
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (("sieve", "--shape", "n1:a..b"), "--shape"),
        (("sieve", "--vector", "2,x"), "--vector"),
        (("torsion", "--N", "a,b"), "--N"),
        (("torsion", "--a", "x"), "--a"),
    ])
    def test_bad_integer_list_names_flag(self, tmp_path, argv, flag):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dims": [1, 1], "differentials": [[["3"]]]}))
        if argv[0] == "torsion":
            argv = argv + ("--input", str(path))
        code, out = invoke(*argv)
        assert code == 2
        assert "ParseError" in out and flag in out

    def test_bad_rational(self, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": [["0.5"]]}))
        code, out = invoke("cohomology", "--preset", "abelian:1:-1",
                           "--metric", str(path))
        assert code == 2
