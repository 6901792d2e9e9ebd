import contextlib
import io
import json
import signal

import pytest
from hypothesis import given, settings, strategies as st

from khconc import build_ck, from_json, parse_braid, reduce, to_json, unit_complex, shift, validate
from khconc.cli import main

import support
from cube import exact_cube


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


@pytest.mark.parametrize("command", ["s", "sz", "kh"])
@pytest.mark.parametrize("knot", [RIGHT_TREFOIL, "BR[2; 1,1,1]"])
def test_basepoint_not_in_diagram_is_exit_one(capsys, command, knot):
    code, _, err = run(capsys, command, knot, "--basepoint", "99")
    assert code == 1
    assert "does not occur in the diagram" in err


def test_braid_basepoint_keeps_s(capsys):
    braid = "BR[3; 1,1,1,2,-1,2]"
    _, expected, _ = run(capsys, "s", braid, "--char", "0,2,3")
    assert expected.strip() == "s_0 = 2, s_2 = 2, s_3 = 2"
    for arc in sorted({a for c in parse_braid(braid).crossings for a in c}):
        code, out, _ = run(capsys, "s", braid, "--char", "0,2,3", "--basepoint", str(arc))
        assert (code, out) == (0, expected), arc


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


@pytest.mark.parametrize("command", ["s", "sz"])
def test_input_is_one_positional(tmp_path, capsys, command):
    # a second input by option would silently replace the positional one
    path = tmp_path / "ck1.json"
    path.write_text(to_json(build_ck(1)))
    for argv in ([command, "BR[2; 1,1,1]", "--complex", str(path)], [command]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: khconc"), argv


@pytest.mark.parametrize("command", ["s", "sz"])
@pytest.mark.parametrize("flag, value", [("--basepoint", "99"), ("--cap", "0")])
def test_diagram_flag_on_complex_file_is_exit_one(tmp_path, capsys, command, flag, value):
    path = tmp_path / "ck1.json"
    path.write_text(to_json(build_ck(1)))
    code, out, err = run(capsys, command, str(path), flag, value)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and flag in err and "Traceback" not in err
    # zeq's --cap may be meant for a diagram input, so a file beside it stays accepted
    code, out, _ = run(capsys, "zeq", str(path), str(path), "--cap", "0")
    assert code == 0 and "Z-equivalent: yes" in out


def test_kh_json_roundtrips(capsys):
    code, out, _ = run(capsys, "kh", "PD[]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [{"id": payload["generators"][0]["id"], "t": 0, "q": 0}]
    assert payload["diff"] == []


def test_kh_json_is_valid_and_has_no_units_left(capsys):
    # T(3,5): ten crossings, printed as assembled with no reduce after it
    code, out, _ = run(capsys, "kh", "BR[3; 1,2,1,2,1,2,1,2,1,2]", "--json")
    assert code == 0
    c = from_json(out)
    assert validate(c) == []
    assert reduce(c).total_rank == c.total_rank


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
    cube.write_text(to_json(exact_cube(parse_braid(braid))))
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
    # a wrong or negative G-power is rejected as the file is read, naming the entry
    bad = tmp_path / "bad.json"
    messages = {3: "entry a->b: G-power 3, homogeneity forces 0", -1: "entry 0: entry a->b has negative G-power -1"}
    for gpow, message in messages.items():
        bad.write_text(
            json.dumps(
                {
                    "generators": [{"id": "a", "t": 0, "q": 0}, {"id": "b", "t": 1, "q": 0}],
                    "diff": [{"from": "a", "to": "b", "coeff": "1", "gpow": gpow}],
                }
            )
        )
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out, err) == (1, "", f"error: {message}\n")
    # problems of a complex that loads are listed on stdout
    bad.write_text(to_json(support.invalid_reducing_to_unit()))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert out == "d^2 != 0: a->c residue 1*G^0\nd^2 != 0: b->e residue 1*G^0\n"


def test_input_error_is_exit_one(capsys):
    code, _, err = run(capsys, "s", "no-such-file.json")
    assert code == 1
    assert "no-such-file.json" in err


@pytest.mark.parametrize(
    "argv",
    [("validate", "{}"), ("s", "{}"), ("sz", "{}"), ("zeq", "{}", "PD[]"), ("dist", "PD[]", "{}")],
    ids=["validate", "s", "sz", "zeq", "dist"],
)
def test_directory_as_complex_file_is_exit_one(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp_path) for a in argv))
    assert code == 1 and not out
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


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


@pytest.mark.parametrize("command", ["s", "sz", "kh"])
def test_negative_crossing_cap_is_exit_one(capsys, monkeypatch, command):
    code, out, err = run(capsys, command, "PD[]", "--cap", "-1")
    assert (code, out, err) == (1, "", "error: crossing cap must be nonnegative, got -1\n")
    monkeypatch.setenv("KHCONC_CROSSING_CAP", "-3")
    code, out, err = run(capsys, command, "PD[]")
    assert (code, out, err) == (1, "", "error: KHCONC_CROSSING_CAP must be nonnegative, got '-3'\n")
    # 0 is a cap like any other: the unknot's diagram has no crossings
    code, _, _ = run(capsys, command, "PD[]", "--cap", "0")
    assert code == 0


@pytest.mark.parametrize("command", ["zeq", "dist"])
def test_negative_crossing_cap_beside_two_files_is_exit_one(tmp_path, capsys, command):
    # no diagram is built here, so the cap is checked where the flag is parsed
    path = tmp_path / "u.json"
    path.write_text(to_json(unit_complex()))
    for cap in ("-1", "-3"):
        code, out, err = run(capsys, command, str(path), str(path), "--cap", cap)
        assert (code, out, err) == (1, "", f"error: crossing cap must be nonnegative, got {cap}\n")


def test_fourteen_crossing_double_end_to_end(capsys):
    # the clasped trefoil double of the stretch test, as PD text; above ten
    # crossings the CLI builds it by tangle assembly
    pd = support.double_pd(parse_braid("BR[2; 1,1,1]"), clasp="A")
    text = "PD[" + ",".join("X({},{},{},{})".format(*c) for c in pd.crossings) + "]"
    code, out, _ = run(capsys, "s", text, "--char", "0,2,3", "--cap", "14")
    assert (code, out.strip()) == (0, "s_0 = 0, s_2 = 2, s_3 = 0")
    code, out, _ = run(capsys, "sz", text, "--cap", "14")
    assert (code, out.strip()) == (0, "(0), gl = 0")


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
        (
            "validate",
            {
                "generators": [{"id": "a", "t": 0, "q": 0}, {"id": "b", "t": 1, "q": 0}],
                "diff": [
                    {"from": "a", "to": "b", "coeff": "1", "gpow": 0},
                    {"from": "a", "to": "b", "coeff": "-1", "gpow": 0},
                ],
            },
        ),
        ("s", {"generators": [{"id": None, "t": 0, "q": 0}]}),
    ],
    ids=["missing-field", "missing-field-validate", "d-squared", "odd-q", "float-t", "bool-q", "duplicate-entry", "null-id"],
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
        kind = data.draw(st.sampled_from(["drop", "retype", "odd_q", "gpow", "dangle", "far"]))
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
        elif kind == "far":
            # 10^7 steps in t, or in q with the gpow of its entries following, so
            # the file stays homogeneous: down when no entry ends at the generator,
            # up when none starts there
            gen, axis = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(["t", "q"]))
            into = [e for e in diff if e.get("to") == gen.get("id")]
            out = [e for e in diff if e.get("from") == gen.get("id")]
            step = -1 if not into else 1 if not out else data.draw(st.sampled_from([-1, 1]))
            step *= 10**7
            if type(gen.get(axis)) is int:
                gen[axis] += 2 * step if axis == "q" else step
                for entries, sign in ((into, 1), (out, -1)) if axis == "q" else ():
                    for e in entries:
                        if type(e.get("gpow")) is int:
                            e["gpow"] += sign * step
        else:
            entry = data.draw(st.sampled_from(diff))
            entry[data.draw(st.sampled_from(["from", "to"]))] = data.draw(st.sampled_from(["zz", *ids]))
    return payload


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_complex_file_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(_mutated_ck1(data)))
    for argv in (["s"], ["validate"], ["sz"], ["zeq", "PD[]"], ["dist", "PD[]"]):
        assert _exit_code_within_10s([argv[0], str(path), *argv[1:]]) in (0, 1)


@pytest.mark.parametrize(
    "argv",
    [["s", "--cap", "abc", "PD[]"], ["zeq"], ["nosuch"], [], ["s", "PD[]", "--bogus"]],
    ids=["bad-int", "missing-args", "unknown-command", "no-command", "unknown-option"],
)
def test_usage_error_is_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: khconc") and out == ""
    assert "Traceback" not in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["s", "--help"])
    assert exc.value.code == 0
    assert "--char" in capsys.readouterr().out


def test_zeq_computes_h0_data_once_per_complex(tmp_path, capsys, monkeypatch):
    from khconc import invariants, zeq

    ranks = []
    real = invariants._h0_class_data

    def counting(c):
        ranks.append(c.total_rank)
        return real(c)

    monkeypatch.setattr(invariants, "_h0_class_data", counting)
    monkeypatch.setattr(zeq, "_h0_class_data", counting)
    a = tmp_path / "a.json"
    a.write_text(to_json(build_ck(1)))
    code, out, _ = run(capsys, "zeq", str(a), RIGHT_TREFOIL)
    assert code == 0 and "Z-equivalent: no" in out
    assert len(ranks) == 2


PD_TEXT = st.lists(st.tuples(*[st.integers(-1, 9)] * 4), max_size=5).map(
    lambda cs: "PD[" + ",".join("X(%d,%d,%d,%d)" % c for c in cs) + "]"
)
BR_TEXT = st.builds(
    "BR[{}; {}]".format,
    st.integers(-1, 5),
    st.lists(st.integers(-5, 5), max_size=7).map(lambda w: ",".join(map(str, w))),
)
DIAGRAM_TEXT = st.one_of(PD_TEXT, BR_TEXT, st.text(alphabet="PDBRX[](),; 0123456789-", max_size=20))
# small values, primes and composites up to 10^30, and values whose check must
# neither trial-divide nor take a float square root: 2^61 - 1 and 10^18 + 3
# are prime, 10^401 + 1 is past the float range
CHAR_TEXT = st.lists(
    st.one_of(st.integers(-3, 50), st.integers(0, 10**30), st.sampled_from([2**61 - 1, 10**18 + 3, 10**401 + 1])),
    max_size=3,
).map(lambda cs: ",".join(map(str, cs)))


def _expire(signum, frame):
    raise TimeoutError("khconc ran for more than 10 s")


def _run_within_10s(argv):
    """(exit code, stdout, stderr) of main(argv); TimeoutError after 10 s."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _exit_code_within_10s(argv):
    return _run_within_10s(argv)[0]


# Complexes whose generators sit far apart in t or q; the work must follow the
# degrees that hold generators, not the span between them
FAR_APART = {
    "acyclic piece at t = 10^7": (support.far_acyclic_piece, 10**7, "(0), gl = 0", True, 0),
    "generator at q = -2*10^7": (support.far_generator, 10**7, "(0), gl = 0", True, 0),
    "stretched C^1, N = 3": (support.stretched_ck1, 3, "(0, 1, 1, 2), gl = 3", False, 3),
    "stretched C^1, N = 10^9": (support.stretched_ck1, 10**9, None, False, 10**9),
}


@pytest.mark.parametrize("name", FAR_APART)
def test_far_apart_degrees_answer_within_10s(tmp_path, name):
    make, n, sz, zeq, d = FAR_APART[name]
    path = tmp_path / "far.json"
    path.write_text(to_json(make(n)))
    code, out, err = _run_within_10s(["sz", str(path)])
    if sz is None:
        assert (code, out) == (1, "")
        assert err == "error: schuetz_sz: the filtration tuple has gl = 1000000000, above 10000\n"
    else:
        assert (code, out) == (0, sz + "\n")
    code, out, _ = _run_within_10s(["zeq", str(path), "PD[]"])
    assert code == 0 and out.startswith(f"Z-equivalent: {'yes' if zeq else 'no'}\n")
    assert _run_within_10s(["dist", str(path), "PD[]"])[:2] == (0, f"d = {d}\n")


def test_many_degrees_answer_within_10s(tmp_path):
    # 20 001 generators over 20 001 degrees: homology must not scan every
    # generator once per degree
    path = tmp_path / "squares.json"
    path.write_text(to_json(support.non_unit_squares(10_000)))
    code, out, err = _run_within_10s(["sz", str(path)])
    assert (code, out) == (1, "") and "rank 20001 is not knot-like" in err


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["s", "sz", "kh"]),
    text=DIAGRAM_TEXT,
    basepoint=st.one_of(st.none(), st.integers(-2, 12)),
    cap=st.one_of(st.none(), st.integers(-1, 8)),
    chars=CHAR_TEXT,
)
def test_fuzzed_diagram_exits_cleanly(command, text, basepoint, cap, chars):
    argv = [command, text]
    if basepoint is not None:
        argv += ["--basepoint", str(basepoint)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    if command == "s":
        argv += [f"--char={chars}"]
    assert _exit_code_within_10s(argv) in (0, 1, 2)


# entries and exponents past what the calculus may factor or write out: 10^12 + 39
# is prime, and 999999999989 the largest prime below 10^12
STAIR_NUMBERS = st.one_of(
    st.integers(-2, 12),
    st.integers(0, 10**30),
    st.sampled_from([10**12 + 39, 999999999989, 10000019, 2**61 - 1, 10**9]),
)
STAIR_TERM = st.builds(
    "S({}){}".format,
    st.lists(STAIR_NUMBERS, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.one_of(st.just(""), STAIR_NUMBERS.map("^{}".format), STAIR_NUMBERS.map("^-{}".format)),
)
STAIR_TEXT = st.one_of(
    st.lists(STAIR_TERM, min_size=1, max_size=4).map(" * ".join),
    st.text(alphabet="S()^,*- 0123456789", max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(text=STAIR_TEXT)
def test_fuzzed_stair_expression_exits_cleanly(text):
    assert _exit_code_within_10s(["stair", text]) in (0, 1)
