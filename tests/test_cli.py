import json
import math

import numpy as np
import pytest

from foldylax import cli
from foldylax.geometry import icosphere, save_off


def write_scenario(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def single_sphere_doc(task=None, k_im=0.0):
    doc = {
        "schema": 1,
        "bodies": [{"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": 0.1}],
        "wave": {"k_re": 1.0, "k_im": k_im, "theta": [0, 0, 1], "p": [1, 0, 0]},
    }
    if task:
        doc["task"] = task
    return doc


class TestSolve:
    def test_closed_form_output(self, tmp_path):
        scn = write_scenario(tmp_path / "s.json", single_sphere_doc())
        out = tmp_path / "solve.json"
        assert cli.main(["solve", "--scenario", scn, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        a = doc["a_coeffs"][0]
        b = doc["b_coeffs"][0]
        assert a[1][1] == pytest.approx(4e-3 * math.pi, rel=1e-12)
        assert b[0][0] == pytest.approx(-2e-3 * math.pi, rel=1e-12)
        assert doc["method"] == "direct"
        assert doc["delta"] == "inf"
        assert doc["residual"] <= 1e-10
        assert set(doc["constants"]) >= {"c_ls", "c_li", "c_li2"}
        assert doc["regime_report"]["within_threshold"] is True

    def test_byte_identical_reruns(self, tmp_path):
        scn = write_scenario(tmp_path / "s.json", single_sphere_doc())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["solve", "--scenario", scn, "--out", str(out1)]) == 0
        assert cli.main(["solve", "--scenario", scn, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_metadata_keys(self, tmp_path):
        scn = write_scenario(tmp_path / "s.json", single_sphere_doc())
        out = tmp_path / "solve.json"
        assert cli.main(["solve", "--scenario", scn, "--out", str(out), "--seed", "3"]) == 0
        meta = json.loads(out.read_text())["metadata"]
        assert list(meta) == ["schema", "tool", "version", "seed"]
        assert meta["seed"] == 3

    def test_scenario_output_path(self, tmp_path):
        doc = single_sphere_doc()
        doc["output"] = str(tmp_path / "declared.json")
        scn = write_scenario(tmp_path / "s.json", doc)
        assert cli.main(["solve", "--scenario", scn]) == 0
        assert (tmp_path / "declared.json").exists()
        # --out takes precedence over the scenario's declared path
        assert cli.main(["solve", "--scenario", scn, "--out", str(tmp_path / "flag.json")]) == 0
        assert (tmp_path / "flag.json").exists()

    def test_neumann_method_selected(self, tmp_path):
        doc = single_sphere_doc()
        doc["bodies"].append({"kind": "sphere", "center": [0, 0, 1.0], "radius": 0.05})
        doc["solver"] = {"method": "neumann", "tol": 1e-12}
        scn = write_scenario(tmp_path / "s.json", doc)
        out = tmp_path / "solve.json"
        assert cli.main(["solve", "--scenario", scn, "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["method"] == "neumann"
        assert result["residual"] <= 1e-10

    def test_missing_scenario_is_validation_failure(self, capsys):
        assert cli.main(["solve"]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_bad_schema(self, tmp_path, capsys):
        doc = single_sphere_doc()
        doc["schema"] = 99
        scn = write_scenario(tmp_path / "s.json", doc)
        assert cli.main(["solve", "--scenario", scn]) == 2
        assert "schema" in capsys.readouterr().err

    def test_overlapping_bodies_exit_2(self, tmp_path, capsys):
        doc = single_sphere_doc()
        doc["bodies"].append({"kind": "sphere", "center": [0.05, 0, 0], "radius": 0.1})
        scn = write_scenario(tmp_path / "s.json", doc)
        assert cli.main(["solve", "--scenario", scn]) == 2

    @pytest.mark.parametrize("body,field", [
        ({"kind": "sphere", "center": [0.0, math.nan, 0.0], "radius": 0.1}, "bodies[1].center"),
        ({"kind": "sphere", "center": [0.0, 0.0, math.inf], "radius": 0.1}, "bodies[1].center"),
        ({"kind": "sphere", "center": [0.0, 0.0, 1.0], "radius": "0.1"}, "bodies[1].radius"),
        ({"kind": "sphere", "center": [0.0, 0.0, 1.0], "radius": math.nan}, "bodies[1].radius"),
        ({"kind": "sphere", "center": [0.0, 0.0, 1.0], "radius": math.inf}, "bodies[1].radius"),
        ([0.0, 0.0, 1.0], "bodies[1]:"),
        ({"kind": "sphere", "center": [0.0, 1.0], "radius": 0.1}, "bodies[1].center"),
        ({"kind": "sphere", "center": [0.0, "1", 0.0], "radius": 0.1}, "bodies[1].center"),
        ({"kind": "sphere", "center": 1.0, "radius": 0.1}, "bodies[1].center"),
    ])
    def test_bad_body_exit_2_names_field(self, tmp_path, capsys, body, field):
        doc = single_sphere_doc()
        doc["bodies"].append(body)
        scn = write_scenario(tmp_path / "s.json", doc)
        assert cli.main(["solve", "--scenario", scn]) == 2
        assert f"error: {field}" in capsys.readouterr().err

    def test_missing_mesh_file_is_hard_error(self, tmp_path):
        doc = single_sphere_doc()
        doc["bodies"] = [{"kind": "mesh", "center": [0, 0, 0], "mesh_path": "absent.off"}]
        scn = write_scenario(tmp_path / "s.json", doc)
        assert cli.main(["solve", "--scenario", scn]) == 1


class TestFarfield:
    def test_axis_values(self, tmp_path):
        task = {"type": "farfield", "directions": {"list": [[0, 0, 1], [0, 0, -1]]}}
        scn = write_scenario(tmp_path / "s.json", single_sphere_doc(task))
        out = tmp_path / "ff.csv"
        assert cli.main(["farfield", "--scenario", scn, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["tau_x", "tau_y", "tau_z"]
        fwd = [float(v) for v in lines[1].split(",")]
        back = [float(v) for v in lines[2].split(",")]
        assert fwd[3] == pytest.approx(1.5e-3, rel=1e-12)
        assert back[3] == pytest.approx(-5e-4, rel=1e-12)
        assert fwd[9] == pytest.approx(2.25e-6, rel=1e-12)  # |E|^2 column

    def test_complex_k_rejected(self, tmp_path, capsys):
        scn = write_scenario(
            tmp_path / "s.json", single_sphere_doc({"type": "farfield"}, k_im=0.5)
        )
        assert cli.main(["farfield", "--scenario", scn, "--out", str(tmp_path / "x.csv")]) == 2
        assert "k_im" in capsys.readouterr().err

    def test_task_type_mismatch(self, tmp_path):
        scn = write_scenario(tmp_path / "s.json", single_sphere_doc({"type": "solve"}))
        assert cli.main(["farfield", "--scenario", scn]) == 2

    def test_fibonacci_grid_count(self, tmp_path):
        task = {"type": "farfield", "directions": {"grid": "fibonacci", "count": 16}}
        scn = write_scenario(tmp_path / "s.json", single_sphere_doc(task))
        out = tmp_path / "ff.csv"
        assert cli.main(["farfield", "--scenario", scn, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 17
        taus = np.array([[float(v) for v in ln.split(",")[:3]] for ln in lines[1:]])
        assert np.allclose(np.linalg.norm(taus, axis=1), 1.0, atol=1e-12)


class TestNearfield:
    def test_line_sampling(self, tmp_path):
        task = {
            "type": "nearfield",
            "points": {"line": {"start": [2, 0, 0], "stop": [4, 0, 0], "count": 5}},
        }
        scn = write_scenario(tmp_path / "s.json", single_sphere_doc(task))
        out = tmp_path / "nf.csv"
        assert cli.main(["nearfield", "--scenario", scn, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("x,y,z,Re(E1)")

    def test_attenuated_wave_allowed(self, tmp_path):
        task = {"type": "nearfield", "points": {"list": [[3, 0, 0]]}}
        scn = write_scenario(tmp_path / "s.json", single_sphere_doc(task, k_im=0.5))
        assert cli.main(["nearfield", "--scenario", scn, "--out", str(tmp_path / "n.csv")]) == 0


class TestBudgetAndTensor:
    def test_budget_json(self, tmp_path):
        doc = single_sphere_doc()
        doc["bodies"] = [
            {"kind": "sphere", "center": [0, 0, 0], "radius": 0.02},
            {"kind": "sphere", "center": [0, 0, 1.0], "radius": 0.02},
        ]
        scn = write_scenario(tmp_path / "s.json", doc)
        out = tmp_path / "budget.json"
        assert cli.main(["budget", "--scenario", scn, "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["budget"]["valid"] is True
        assert result["budget"]["varepsilon_kdm"] > 0
        assert {"eps4_group", "eps7_group"} == set(result["budget"]["near_field_terms"])

    def test_tensor_mesh_and_sphere(self, tmp_path):
        save_off(icosphere(2, radius=0.1), tmp_path / "ball.off")
        doc = {
            "schema": 1,
            "bodies": [
                {"kind": "sphere", "center": [0, 0, 0], "radius": 0.1},
                {"kind": "mesh", "center": [1.0, 0, 0], "mesh_path": "ball.off"},
            ],
            "wave": {"k_re": 1.0, "k_im": 0.0, "theta": [0, 0, 1], "p": [1, 0, 0]},
        }
        scn = write_scenario(tmp_path / "s.json", doc)
        out = tmp_path / "tensor.json"
        assert cli.main(["tensor", "--scenario", scn, "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        sphere, mesh = result["bodies"]
        assert sphere["kind"] == "sphere" and mesh["kind"] == "mesh"
        exact = -4 * math.pi * 1e-3
        assert sphere["eigenvalues"]["p_tensor"][0] == pytest.approx(exact, rel=1e-12)
        assert mesh["eigenvalues"]["p_tensor"][0] == pytest.approx(exact, rel=0.06)
        assert mesh["asymmetry"]["p_tensor"] <= 1e-8


class TestGen:
    def test_lattice(self, tmp_path):
        out = tmp_path / "lattice.json"
        rc = cli.main(["gen", "--kind", "lattice", "--nx", "2", "--ny", "2", "--nz", "1",
                       "--spacing", "0.5", "--radius", "0.05", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert len(doc["bodies"]) == 4
        # generated scenarios are directly consumable
        solved = tmp_path / "solved.json"
        assert cli.main(["solve", "--scenario", str(out), "--out", str(solved)]) == 0

    def test_random_seeded_and_recorded(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["gen", "--kind", "random", "--m", "5", "--radius", "0.02", "--box", "1.0",
                "--seed", "7"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["metadata"]["seed"] == 7
        assert len(doc["bodies"]) == 5

    def test_random_keeps_min_gap(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["gen", "--kind", "random", "--m", "60", "--radius", "0.03",
                         "--min-gap", "0.05", "--seed", "2", "--out", str(out)]) == 0
        centers = np.array([b["center"] for b in json.loads(out.read_text())["bodies"]])
        dist = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
        assert dist[np.triu_indices(60, 1)].min() > 2 * 0.03 + 0.05


def test_validate_subcommand(tmp_path, capsys):
    out = tmp_path / "validate.json"
    assert cli.main(["validate", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    err = capsys.readouterr().err
    assert "PASS" in err and "FAIL" not in err
