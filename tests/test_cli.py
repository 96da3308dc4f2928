"""Command line interface.

Claims:
    - reports are byte-identical across repeated runs on every preset, and
      the parser is built once per process
    - the 235 cohomology report carries b, p, k and n = 10
    - cohomology reports on 235, heisenberg5, heisenberg7 and heisenberg9,
      with the identity metric and with a graded Gram file, are
      byte-identical to tests/golden/
    - family and shape sieve runs emit the documented CSV columns
    - sieve reports on the three benchmark shapes and on --vector 2,1,2
      --emit-p are byte-identical to tests/golden/, and every --shape row
      equals the exact lemma2_check row of its vector
    - an oversized --shape, --family --n-max, --vector or --shape --emit-p is
      OutOfRange at once
    - rumin --check exits 0 with every symbolic identity passing, and on
      235 forms each metric's Hodge data, d and delta once (6 metrics), and
      rumin_flat forms at most m + 2 CE differentials per metric
    - rumin reports on 235, heisenberg5, heisenberg7 and heisenberg9 are
      byte-identical to tests/golden/, with orders = k, and so are the
      reports with non-integer coefficients in D (--check on 235 and
      heisenberg5 at seed 97, heisenberg5 with a Gram file); rumin on heisenberg11
      is OutOfRange (MAX_SPLITTING_COEFFICIENTS) in under a second
    - torsion reads a complex file and honors --lambda/--N/--a
    - torsion --check-invariance reports on three complexes are byte-identical
      to tests/golden/, and form each harmonic basis and rank(D_q) once per
      complex (the input and its dual); at lambda = 0 the checks reuse the
      report's own torsion norm and its zeta'
    - a complex above fd_torsion.MAX_DEGREE_DIM in some degree or with more
      than MAX_DEGREES degrees is OutOfRange at once; a reference vector of
      the wrong length is InvalidRepresentatives
    - a complex whose spectral pencil floats cannot hold (an entry beyond the
      float range, a Gram entry below it, eigenvalues beyond it), or whose
      harmonic Gram determinant lies outside the float range, is
      NotFloatRepresentable, exit 1, naming the degree; so is a torsion norm
      that under- or overflows a float; the eigenvalues in (0, lambda] enter
      as one sum of logs, so --check-invariance on D_0 = 10^14 I, D_1 = 0,
      D_2 = 10^-14 I in R^24 passes with total 1.0
    - nilgroup subcommands produce the documented lattice coordinates
    - validation errors exit 1 with the error name; parse errors exit 2;
      sieve --jobs below 1, char-orbit --words outside 1..10^6 and a
      non-finite or negative --lambda are validation errors; a malformed
      integer in --shape, --vector, --N or --a is a parse error naming the flag
    - a malformed preset name, a non-integer k or a non-integer reference
      degree in a complex file is a parse error, and so is a rational or JSON
      number with more digits than int() converts (Gram file, group element,
      generators file); an algebra above
      MAX_DIMENSION, preset or file, is OutOfRange at once, and so is a
      report whose output rational has more digits than str() converts
    - importing nilrumin.cli in a fresh interpreter imports neither sympy nor
      hypothesis (test-only oracles)
"""

import json
import os
import subprocess
import sys
import time
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
        import nilrumin

        # the child imports the package the suite imports, installed or not
        src = str(Path(nilrumin.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = [sys.executable, "-m", "nilrumin.cli",
                "cohomology", "--preset", "235", "--format", "json"]
        runs = [subprocess.run(argv, capture_output=True, check=True, env=env).stdout
                for _ in range(2)]
        assert runs[0] == runs[1] and runs[0]

    def test_parser_built_once(self):
        from nilrumin.cli import build_parser

        assert build_parser() is build_parser()


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

    @pytest.mark.parametrize("preset", ["235", "heisenberg5", "heisenberg7", "heisenberg9"])
    def test_report_matches_golden(self, preset):
        code, out = invoke("cohomology", "--preset", preset, "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"cohomology_{preset}.json").read_text()
        code, out = invoke("cohomology", "--preset", preset, "--metric",
                           str(GOLDEN / f"cohomology_{preset}.gram.json"), "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"cohomology_{preset}.metric.json").read_text()


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

    @pytest.mark.parametrize("name,shape", [
        ("shape5", "n1:0..100,n2:0..5,n3:0..5,n4:0..5,n5:0..5"),
        ("shape3", "n1:0..200,n2:0..50,n3:0..20"),
        ("tail23", "n1:0..2500,n2:2..3"),
    ])
    def test_shape_matches_golden(self, name, shape):
        code, out = invoke("sieve", "--shape", shape, "--jobs", "1")
        assert code == 0
        assert out == (GOLDEN / f"sieve_{name}.csv").read_text()

    def test_vector_matches_golden(self):
        code, out = invoke("sieve", "--vector", "2,1,2", "--emit-p", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "sieve_vector_212.json").read_text()

    def test_shape_rows_equal_exact_reports(self):
        from nilrumin.cli import _report_row
        from nilrumin.purity_sieve import DimensionVector, lemma2_check

        code, out = invoke("sieve", "--shape", "n1:0..300,n2:0..4,n3:0..3", "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert len(rows) > 300
        for row in rows:
            assert row == _report_row(lemma2_check(DimensionVector(row["vector"])), False)

    @pytest.mark.parametrize("argv", [
        ("--shape", f"n1:0..{10**12}"),
        ("--shape", f"n1:0..0,n2:0..{10**6},n3:0..{10**6}"),
        ("--family", "n2-4", "--n-max", str(10**12)),
        ("--vector", f"{10**12},1"),
        ("--shape", "n1:0..9996,n2:2..2", "--emit-p"),
        ("--shape", "n1:0..4000,n2:4..4", "--emit-p"),  # passes only at n = 8
    ])
    def test_oversized_input_fails_fast(self, argv):
        start = time.perf_counter()
        code, out = invoke("sieve", *argv)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "OutOfRange" in out


class TestRumin:
    def test_check_passes(self):
        code, out = invoke("rumin", "--preset", "heisenberg3", "--check", "--format", "json")
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert all(checks.values())

    def test_check_forms_hodge_data_once_per_metric(self, monkeypatch):
        # 6 rumin_D calls on 235 (m = 5), one per metric: each forms its
        # metric's Hodge data and d once, and the checks reuse the complex
        # they check; rumin_D forms no delta, so the delta_squared_zero check
        # forms the one kostant_delta, with its m adjoints
        from nilrumin import ce_cohomology, rational, rumin_flat

        counts = count_calls(monkeypatch, ((ce_cohomology, "betti_and_weights"),
                                           (rational, "adjoint"),
                                           (rational, "orthogonal_projection"),
                                           (rumin_flat, "invariant_de_rham"),
                                           (rumin_flat, "kostant_delta"),
                                           (rumin_flat, "rumin_D")))
        # the CE differentials rumin_flat forms itself: m per rumin_D in
        # invariant_de_rham, plus m each for the gr_d_equals_ce and
        # delta_squared_zero checks, inside a bound of m + 2 per rumin_D plus
        # m (betti_and_weights forms its own, through the ce_cohomology binding)
        ce_calls = []
        ce_differential = rumin_flat.ce_differential

        def counted(alg, q):
            ce_calls.append(q)
            return ce_differential(alg, q)

        monkeypatch.setattr(rumin_flat, "ce_differential", counted)
        code, _ = invoke("rumin", "--preset", "235", "--check")
        assert code == 0
        assert counts["betti_and_weights"] == 6
        assert counts["kostant_delta"] == 1
        assert counts["adjoint"] <= 5
        assert counts["invariant_de_rham"] == 6
        assert counts["orthogonal_projection"] <= 36
        assert counts["rumin_D"] == 6
        assert len(ce_calls) <= 6 * (5 + 2) + 5

    def test_orders_in_report(self):
        code, out = invoke("rumin", "--preset", "235", "--format", "json")
        res = json.loads(out)["results"]
        assert res["orders"] == [1, 3, 2, 3, 1]
        assert res["orders"] == res["k"]

    @pytest.mark.parametrize("preset", ["235", "heisenberg5", "heisenberg7", "heisenberg9"])
    def test_report_matches_golden(self, preset):
        code, out = invoke("rumin", "--preset", preset, "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"rumin_{preset}.json").read_text()
        res = json.loads(out)["results"]
        assert res["orders"] == res["k"]

    @pytest.mark.parametrize("argv, golden", [
        (("--preset", "235", "--check", "--seed", "97"), "rumin_235.check.json"),
        (("--preset", "heisenberg5", "--check", "--seed", "97"),
         "rumin_heisenberg5.check.json"),
        (("--preset", "heisenberg5", "--metric",
          str(GOLDEN / "cohomology_heisenberg5.gram.json")), "rumin_heisenberg5.metric.json"),
    ])
    def test_rational_coefficients_match_golden(self, argv, golden):
        # reports whose D has non-integer coefficients: the checks at seed 97
        # and a graded Gram file
        code, out = invoke("rumin", *argv, "--format", "json")
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_oversized_system_fails_fast(self):
        # heisenberg11 is inside MAX_DIMENSION, but its splitting operator is
        # not inside MAX_SPLITTING_COEFFICIENTS; the bound is checked before
        # the cohomology
        start = time.perf_counter()
        code, out = invoke("rumin", "--preset", "heisenberg11")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "OutOfRange" in out and "MAX_SPLITTING_COEFFICIENTS" in out


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

    def test_check_reuses_report_norm_at_lambda_zero(self, monkeypatch):
        # report, two cutoffs, scaled exponents and the dual: 5 norms at
        # lambda = 0; a positive cutoff needs its own lambda = 0 base
        from nilrumin import fd_torsion

        path = str(GOLDEN / "torsion_reference.input.json")
        counts = count_calls(monkeypatch, ((fd_torsion, "torsion_norm"),))
        code, _ = invoke("torsion", "--input", path, "--check-invariance")
        assert code == 0 and counts["torsion_norm"] == 5
        code, _ = invoke("torsion", "--input", path, "--check-invariance", "--lambda", "0.5")
        assert code == 0 and counts["torsion_norm"] == 11

    def test_check_reads_zeta_prime_off_the_report(self, monkeypatch):
        # one zeta' in each of the 5 norms above, one for the shifted N and
        # one in z2_check; the unshifted one is read off the report's norm
        from nilrumin import fd_torsion

        path = str(GOLDEN / "torsion_reference.input.json")
        counts = count_calls(monkeypatch, ((fd_torsion, "zeta_prime_zero"),))
        code, _ = invoke("torsion", "--input", path, "--check-invariance")
        assert code == 0 and counts["zeta_prime_zero"] == 7

    @pytest.mark.parametrize("doc", [
        {"dims": [120], "differentials": []},
        {"dims": [240], "differentials": []},
        {"dims": [1] * 13, "differentials": []},
        {"dims": [10 ** 12, 1], "differentials": [[]]},
    ])
    def test_oversized_complex_exit_one_at_once(self, tmp_path, doc):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out = invoke("torsion", "--input", str(path), "--check-invariance")
        assert code == 1
        assert "OutOfRange" in out
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("vector", [["1"], ["0", "1", "5"]])
    def test_reference_of_wrong_length_exit_one(self, tmp_path, vector):
        # b_0 = 1 in a degree of dimension 2: each vector needs 2 entries
        doc = {"dims": [2, 1], "differentials": [[["0", "1"]]], "reference": {"0": [vector]}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("torsion", "--input", str(path))
        assert code == 1
        assert "InvalidRepresentatives" in out

    @pytest.mark.parametrize("doc, problem", [
        ({"dims": [1, 1], "differentials": [[[str(10 ** 200)]]]}, "exceeds"),
        ({"dims": [1, 1], "differentials": [[["1"]]],
          "grams": [[[f"1/{10 ** 400}"]], [["1"]]]}, "underflows"),
        ({"dims": [1, 1], "differentials": [[[str(10 ** 150)]]],
          "grams": [[[f"1/{10 ** 300}"]], [["1"]]]}, "eigen-solve"),
        # no differential: only the harmonic Gram determinant meets floats
        ({"dims": [1], "differentials": [], "grams": [[[str(10 ** 400)]]],
          "reference": {"0": [["1"]]}}, "exceeds"),
        ({"dims": [1], "differentials": [], "grams": [[[f"1/{10 ** 400}"]]],
          "reference": {"0": [["1"]]}}, "underflows"),
    ])
    def test_pencil_beyond_floats_exit_one(self, tmp_path, doc, problem):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("torsion", "--input", str(path))
        assert code == 1
        assert "NotFloatRepresentable" in out and "degree 0" in out and problem in out

    def test_norm_beyond_floats_exit_one(self, tmp_path):
        # D = 10^14 I on R^24: every float of the pencil is fine, but the
        # norm is 10^-336, below the float range, not 0.0
        n = 24
        diff = [[str(10 ** 14) if i == j else "0" for j in range(n)] for i in range(n)]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dims": [n, n], "differentials": [diff]}))
        code, out = invoke("torsion", "--input", str(path))
        assert code == 1
        assert "NotFloatRepresentable" in out and "torsion norm" in out

    def test_small_spectrum_summed_in_logs(self, tmp_path):
        # D_0 = 10^14 I, D_1 = 0, D_2 = 10^-14 I on R^24: the norm is 1, and
        # at the checks' upper cutoff a running product of the powers of the
        # eigenvalues in (0, lambda] underflows before it comes back to 1
        n = 24

        def diagonal(x):
            return [[x if i == j else "0" for j in range(n)] for i in range(n)]

        doc = {"dims": [n] * 4, "differentials": [
            diagonal(str(10 ** 14)), diagonal("0"), diagonal(f"1/{10 ** 14}")]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("torsion", "--input", str(path),
                           "--check-invariance", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert all(res["checks"].values())
        assert res["total"] == "1.0"

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

    @pytest.mark.parametrize("field, value", [
        ("k", ["x"]),
        ("reference", {"zero": [["1"]]}),
    ])
    def test_bad_complex_field_exit_two(self, tmp_path, field, value):
        doc = {"dims": [1, 1], "differentials": [[["3"]]], field: value}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out = invoke("torsion", "--input", str(path))
        assert code == 2
        assert "ParseError" in out

    @pytest.mark.parametrize("preset", ["heisenbergx", "abelian:x", "abelian:3:",
                                        "abelian:3:-1:2"])
    def test_malformed_preset_exit_two(self, preset):
        code, out = invoke("cohomology", "--preset", preset)
        assert code == 2
        assert "ParseError" in out

    @pytest.mark.parametrize("preset", ["heisenberg100001", "abelian:100000",
                                        "heisenberg10000000000001"])
    def test_oversized_preset_exit_one_at_once(self, preset):
        start = time.perf_counter()
        code, out = invoke("rumin", "--preset", preset)
        assert code == 1
        assert "OutOfRange" in out
        assert time.perf_counter() - start < 2

    def test_oversized_algebra_file_exit_one(self, tmp_path):
        from nilrumin.graded_lie import MAX_DIMENSION

        m = MAX_DIMENSION + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": m, "degrees": [-1] * m, "brackets": []}))
        code, out = invoke("cohomology", "--algebra", str(path))
        assert code == 1
        assert "OutOfRange" in out

    def test_bad_rational(self, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": [["0.5"]]}))
        code, out = invoke("cohomology", "--preset", "abelian:1:-1",
                           "--metric", str(path))
        assert code == 2

    # Python's int() refuses more than 4300 digits with a plain ValueError.
    HUGE = "1" + "0" * 5000

    def test_oversized_rational_in_metric_exit_two(self, tmp_path):
        gram = [[self.HUGE if i == j == 0 else str(int(i == j)) for j in range(5)]
                for i in range(5)]
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": gram}))
        code, out = invoke("cohomology", "--preset", "235", "--metric", str(path))
        assert code == 2
        assert "ParseError" in out

    def test_oversized_json_number_exit_two(self, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text('{"gram": [[' + self.HUGE + "]]}")
        code, out = invoke("cohomology", "--preset", "abelian:1", "--metric", str(path))
        assert code == 2
        assert "ParseError" in out

    def test_oversized_rational_in_element_exit_two(self):
        code, out = invoke("nilgroup", "mul", self.HUGE + ",0,0,0,0", "0,0,0,0,0")
        assert code == 2
        assert "ParseError" in out

    def test_oversized_rational_in_generators_exit_two(self, tmp_path):
        gens = [[self.HUGE if i == j == 0 else str(int(i == j)) for j in range(5)]
                for i in range(5)]
        path = tmp_path / "gens.json"
        path.write_text(json.dumps({"generators": gens}))
        code, out = invoke("nilgroup", "embed", str(path))
        assert code == 2
        assert "ParseError" in out

    def test_oversized_output_exit_one(self):
        # two accepted 4001-digit coordinates whose product has 8001 digits
        big = "1" + "0" * 4000
        code, out = invoke("nilgroup", "mul", big + ",0,0,0,0", "0," + big + ",0,0,0")
        assert code == 1
        assert "OutOfRange" in out


class TestColdStart:
    def test_cli_imports_no_test_oracle(self):
        import nilrumin

        src = str(Path(nilrumin.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import nilrumin.cli; "
                "print(sorted({'sympy', 'hypothesis'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"
