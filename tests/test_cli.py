import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from khconc import build_ck, build_complex, parse_braid, to_json, unit_complex, shift
from khconc.cli import main

import support


RIGHT_TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_s_trefoil(capsys):
    code, out, _ = run(capsys, "s", RIGHT_TREFOIL, "--char", "0,2")
    assert code == 0
    assert out.strip() == "s_0 = 2, s_2 = 2"


def test_s_rejects_composite_char(capsys):
    code, _, err = run(capsys, "s", RIGHT_TREFOIL, "--char", "4")
    assert code == 1
    assert "characteristic" in err


def test_stair_examples(capsys):
    code, out, _ = run(capsys, "stair", "S(2)*S(3)")
    assert code == 0
    assert out.strip() == "Σ_(6)"
    code, out, _ = run(capsys, "stair", "S(2,4) * S(2)^-1 * S(4)^-1")
    assert code == 0
    assert out.strip() == "Σ_()"


def test_sz_from_json_file(tmp_path, capsys):
    path = tmp_path / "ck1.json"
    path.write_text(to_json(build_ck(1)))
    code, out, _ = run(capsys, "sz", str(path))
    assert code == 0
    assert out.strip() == "(0, 2), gl = 1"


def test_kh_json_roundtrips(capsys):
    code, out, _ = run(capsys, "kh", "PD[]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [{"id": payload["generators"][0]["id"], "t": 0, "q": 0}]
    assert payload["diff"] == []


def test_kh_grid(capsys):
    code, out, _ = run(capsys, "kh", RIGHT_TREFOIL)
    assert code == 0
    assert "q\\t" in out


def test_zeq_verdict(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(to_json(build_ck(1)))
    b.write_text(to_json(build_ck(2)))
    code, out, _ = run(capsys, "zeq", str(a), str(b))
    assert code == 0
    assert "Z-equivalent: no" in out
    code, out, _ = run(capsys, "zeq", str(a), str(a))
    assert code == 0
    assert "Z-equivalent: yes" in out


def test_dist_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(to_json(unit_complex()))
    b.write_text(to_json(shift(unit_complex(), 0, 4)))
    code, out, _ = run(capsys, "dist", str(a), str(b))
    assert code == 0
    assert out.strip() == "d = 2"
    code, out, _ = run(capsys, "dist", str(a), str(b), "--bound", "1")
    assert code == 0
    assert out.strip() == "d > 1"


def test_zeq_dist_reject_torsion_in_h0(tmp_path, capsys):
    bad = tmp_path / "torsion.json"
    good = tmp_path / "unknot.json"
    bad.write_text(to_json(support.torsion_h0()))
    good.write_text(to_json(unit_complex()))
    for command in ("zeq", "dist"):
        for a, b in ((bad, good), (good, bad)):
            code, _, err = run(capsys, command, str(a), str(b))
            assert code == 1
            assert "error:" in err and "knot-like" in err
            assert "Traceback" not in err


def test_invalid_file_rejected_before_reduction(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good = tmp_path / "unknot.json"
    bad.write_text(to_json(support.invalid_reducing_to_unit()))
    good.write_text(to_json(unit_complex()))
    for argv in (("s", bad), ("sz", bad), ("zeq", bad, good), ("zeq", good, bad), ("dist", bad, good)):
        code, _, err = run(capsys, *map(str, argv))
        assert code == 1
        assert "error:" in err and "d^2 != 0" in err
        assert "Traceback" not in err


def test_unreduced_cube_file_matches_diagram(tmp_path, capsys):
    braid = "BR[2; 1,1,1,1,1,1,1]"
    cube = tmp_path / "t27.json"
    cube.write_text(to_json(build_complex(parse_braid(braid))))
    commands = [("s", "--char", "0,2,3"), ("sz",), ("zeq", RIGHT_TREFOIL), ("dist", RIGHT_TREFOIL)]
    for command, *rest in commands:
        from_file = run(capsys, command, str(cube), *rest)
        from_diagram = run(capsys, command, braid, *rest)
        assert from_file == from_diagram
        assert from_file[0] == 0 and from_file[1]


def test_validate_command(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(to_json(build_ck(1)))
    code, out, _ = run(capsys, "validate", str(good))
    assert code == 0 and out.strip() == "valid"
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "generators": [{"id": "a", "t": 0, "q": 0}, {"id": "b", "t": 1, "q": 0}],
                "diff": [{"from": "a", "to": "b", "coeff": "1", "gpow": 3}],
            }
        )
    )
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "G-power" in out


def test_input_error_is_exit_one(capsys):
    code, _, err = run(capsys, "s", "no-such-file.json")
    assert code == 1
    assert "no-such-file.json" in err


def test_crossing_cap_is_exit_two(capsys):
    code, _, err = run(capsys, "s", "BR[2; 1,1,1,1,1]", "--cap", "3")
    assert code == 2
    assert "cap" in err


def test_crossing_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("KHCONC_CROSSING_CAP", "3")
    code, _, err = run(capsys, "s", "BR[2; 1,1,1,1,1]")
    assert code == 2
    monkeypatch.setenv("KHCONC_CROSSING_CAP", "6")
    code, out, _ = run(capsys, "s", "BR[2; 1,1,1,1,1]", "--char", "0")
    assert code == 0
    assert out.strip() == "s_0 = 4"


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "kh", RIGHT_TREFOIL, "--json")
    _, out2, _ = run(capsys, "kh", RIGHT_TREFOIL, "--json")
    assert out1 == out2


@pytest.mark.parametrize(
    "command, payload",
    [
        ("s", {"generators": [{"id": "a", "q": 0}]}),
        ("validate", {"generators": [{"id": "a", "q": 0}]}),
        (
            "s",
            {
                "generators": [{"id": x, "t": t, "q": 0} for t, x in enumerate("abc")],
                "diff": [
                    {"from": "a", "to": "b", "coeff": "1", "gpow": 0},
                    {"from": "b", "to": "c", "coeff": "1", "gpow": 0},
                ],
            },
        ),
        ("s", {"generators": [{"id": "a", "t": 0, "q": 1}]}),
        ("s", {"generators": [{"id": "a", "t": 0.0, "q": 0}]}),
        ("s", {"generators": [{"id": "a", "t": 0, "q": False}]}),
    ],
    ids=["missing-field", "missing-field-validate", "d-squared", "odd-q", "float-t", "bool-q"],
)
def test_malformed_complex_file_is_exit_one(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, command, str(path))
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=3),
    st.just([]), st.just({}),
)


def _mutated_ck1(data):
    """C^1 as complex JSON after one to three drawn mutations."""
    payload = json.loads(to_json(build_ck(1)))
    gens, diff = payload["generators"], payload["diff"]
    ids = [g["id"] for g in gens]
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["drop", "retype", "odd_q", "gpow", "dangle"]))
        if kind in ("drop", "retype"):
            target = data.draw(st.sampled_from([d for d in [payload, *gens, *diff] if d]))
            key = data.draw(st.sampled_from(sorted(target)))
            if kind == "drop":
                del target[key]
            else:
                target[key] = data.draw(JSON_VALUES)
        elif kind == "odd_q":
            data.draw(st.sampled_from(gens))["q"] = data.draw(st.integers(-5, 5)) * 2 + 1
        elif kind == "gpow":
            data.draw(st.sampled_from(diff))["gpow"] = data.draw(st.integers(-2, 4))
        else:
            entry = data.draw(st.sampled_from(diff))
            entry[data.draw(st.sampled_from(["from", "to"]))] = data.draw(st.sampled_from(["zz", *ids]))
    return payload


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_complex_file_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(_mutated_ck1(data)))
    for command in ("s", "validate"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, str(path)]) in (0, 1)
