"""Command line front end: commands, formats, exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import triderive
from conftest import gn_elems, lie_elems, ordinals, triangular_auts, unipotent_auts
from triderive import LieElem, conjugate_derivation
from triderive.cli import main
from triderive.dsl import gnelem_to_json, print_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "--n", "3", "bracket", "x1^2*d2", "x1*x2*d3")
        assert code == 0
        assert out.strip() == "x1^3*d3"

    @pytest.mark.parametrize("left, right, expected", [
        ("d1", "x2*d3", "0"), ("x2*d3", "d1", "0"),
        ("d2", "x1*x2^2*d3", "2*x1*x2*d3"),
        ("x1*x2^2*d3", "d2", "-2*x1*x2*d3"),
    ])
    def test_bracket_takes_the_larger_inferred_rank(self, capsys, left, right,
                                                    expected):
        assert run(capsys, "bracket", left, right) == (0, expected + "\n", "")

    def test_operand_with_a_leading_minus_follows_double_dash(self, capsys):
        code, out, _ = run(capsys, "bracket", "--", "-7/3*d1", "x1*d2")
        assert code == 0 and out == "-7/3*d2\n"

    def test_exp_and_log_round_trip(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "exp", "x1^2*d2")
        assert code == 0
        assert out.strip() == "[0, x1^2]"
        code, out, _ = run(capsys, "--n", "2", "log", "[0, x1^2]")
        assert code == 0
        assert out.strip() == "x1^2*d2"

    def test_conjugate(self, capsys):
        code, out, _ = run(capsys, "conjugate", "[0, x1^2]", "d1")
        assert code == 0
        assert out.strip() == "d1 - 2*x1*d2"

    def test_reconstruct(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "d1 - 2*x1*d2", "d2")
        assert code == 0
        assert out.strip() == "[0, x1^2]"

    def test_ord(self, capsys):
        code, out, _ = run(capsys, "--n", "3", "ord", "d1")
        assert code == 0
        assert out.strip() == "w^2*1 + w*1 + 1"

    def test_ideal(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "ideal", "x1*d2", "w*1 + 1")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "--n", "2", "ideal", "d1", "w*1")
        assert code == 0 and out.strip() == "false"

    def test_center(self, capsys):
        code, out, _ = run(capsys, "--n", "3", "center")
        assert code == 0
        assert out.strip() == "d3"

    def test_center_requires_rank(self, capsys):
        code, _, err = run(capsys, "center")
        assert code == 2
        assert "--n" in err

    def test_act_with_triaut_element(self, capsys):
        code, out, _ = run(capsys, "act", "[0, x1^2]", "d1")
        assert code == 0
        assert out.strip() == "d1 - 2*x1*d2"

    def test_act_on_a_bracket_map_is_its_conjugation(self, capsys):
        # a bracket-notation operand acts by conjugation: no series, so
        # --order does not apply to it
        sigma = "[0,x1^2,x1*x2^2,x3^2;2,1,3,1]"
        code, out, _ = run(capsys, "--order", "4", "act", sigma, "d1")
        assert code == 0
        code, expected, _ = run(capsys, "conjugate", sigma, "d1")
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("options, derivation", [
        ((), "x1^20*d2"), (("--order", "4"), "x1^5*d2")])
    def test_act_on_a_bracket_map_beyond_the_order(self, capsys, options,
                                                   derivation):
        # decomposing the map first would store its series through the
        # order, and the derivation needs more of them
        expected = run(capsys, "conjugate", "[0, x1]", derivation)
        assert expected == (0, derivation + "\n", "")
        assert run(capsys, *options, "act", "[0, x1]", derivation) == expected

    def test_act_and_decompose_of_a_rank4_map(self, capsys):
        # the inverse of this map has higher degree than the map; at the
        # default order, decompose never builds it
        sigma = "[0,x1^2,x1*x2^2,x3^2;2,1,3,1]"
        code, out, err = run(capsys, "act", sigma, "d1")
        assert (code, err) == (0, "")
        code, expected, _ = run(capsys, "conjugate", sigma, "d1")
        assert code == 0
        assert out == expected
        code, out, err = run(capsys, "--n", "4", "decompose", sigma)
        assert (code, err) == (0, "")
        assert json.loads(out)["t"] == ["2", "1", "3", "1"]

    def test_decompose_and_act_with_json(self, capsys):
        code, out, _ = run(capsys, "--n", "2", "decompose", "[0, x1^2]")
        assert code == 0
        data = json.loads(out)
        assert data["form"] == "A"
        assert data["tau"]["a"] == ["0", "x1^2"]
        code, out2, _ = run(capsys, "act", out, "d1")
        assert code == 0
        assert out2.strip() == "d1 - 2*x1*d2"

    # A rank-3 Form A element whose series are stored through degree 8.
    TRUNCATED = {
        "n": 3, "form": "A", "t": ["-2/3", "1", "-1/3"],
        "tau": {"a": ["0", "-5/2*x1", "-4*x1*x2 - 2*x2^2"],
                "lambda": ["1", "1", "1"]},
        "s": ["4/3"], "f": {"order": 8, "coeffs": {"1": "1", "2": "-4", "6": "1"}},
        "e": [{"i": 2, "order": 8, "coeffs": {"2": "3", "3": "-3", "4": "3"}}],
    }

    def test_decompose_reads_a_json_element_through_its_stored_order(
            self, capsys):
        blob = json.dumps(self.TRUNCATED)
        code, out, err = run(capsys, "decompose", blob)
        assert (code, err) == (0, "")
        assert json.loads(out) == self.TRUNCATED
        assert run(capsys, "--order", "8", "decompose", blob) == (0, out, "")
        # the smallest stored order rules, an exact series stores all
        for f_order in (7, None):
            mixed = dict(self.TRUNCATED,
                         f={"order": f_order, "coeffs": {"1": "1"}},
                         e=[{"i": 2, "order": 5, "coeffs": {"2": "3"}}])
            code, out, err = run(capsys, "decompose", json.dumps(mixed))
            assert (code, err) == (0, "")
            assert json.loads(out)["f"]["order"] == 5
        # an order-0 series is read through 1, where it falls short
        empty = dict(self.TRUNCATED, f={"order": 0, "coeffs": {}})
        code, out, err = run(capsys, "decompose", json.dumps(empty))
        assert (code, out) == (4, "") and "stored through 0" in err
        # a given --order is read through as it is
        assert run(capsys, "--order", "9", "decompose", blob) == (
            4, "", "error: need series coefficients through degree 9, "
                   "stored through 8\n")

    def test_decompose_of_an_element_stored_through_order_2(self, capsys):
        # the spot check stays within the stored order
        low = {"n": 3, "form": "A", "t": ["1", "1", "1"],
               "tau": {"a": ["0", "0", "0"], "lambda": ["1", "1", "1"]},
               "s": ["0"], "f": {"order": 2, "coeffs": {"1": "1"}},
               "e": [{"i": 2, "order": 2, "coeffs": {"2": "3"}}]}
        code, out, err = run(capsys, "decompose", json.dumps(low))
        assert (code, err) == (0, "")
        assert json.loads(out) == low

    def test_decompose_of_an_exact_json_element_uses_the_default_order(
            self, capsys):
        exact = dict(self.TRUNCATED, f={"order": None, "coeffs": {"1": "1"}},
                     e=[{"i": 2, "order": None, "coeffs": {"2": "3"}}])
        blob = json.dumps(exact)
        code, out, err = run(capsys, "decompose", blob)
        assert (code, err) == (0, "")
        assert json.loads(out)["f"]["order"] == 16
        assert run(capsys, "--order", "16", "decompose", blob) == (0, out, "")

    def test_mul_and_inv(self, capsys):
        code, gtext, _ = run(capsys, "--n", "2", "decompose", "[0, x1^2]")
        assert code == 0
        code, invtext, _ = run(capsys, "inv", gtext)
        assert code == 0
        code, out, _ = run(capsys, "mul", gtext, invtext)
        assert code == 0
        data = json.loads(out)
        assert data["tau"]["a"] == ["0", "0"]
        assert data["f"]["coeffs"] == {}

    EXACT_SHIFT = json.dumps(
        {"n": 2, "form": "A", "t": ["1", "1"],
         "tau": {"a": ["0", "0"], "lambda": ["1", "1"]}, "s": [],
         "f": {"order": None, "coeffs": {"1": "1"}}, "e": []})

    @pytest.mark.parametrize("argv", [["inv", EXACT_SHIFT],
                                      ["mul", EXACT_SHIFT, EXACT_SHIFT]])
    def test_inv_and_mul_split_an_exact_shift_through_the_default_order(
            self, capsys, argv):
        # f = 1 + D is exact, and splitting off exp(D) truncates: without
        # --order that goes through 16, as --order's help says
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["f"]["order"] == 16
        assert run(capsys, "--order", "16", *argv) == (0, out, "")

    def test_inv_of_an_exact_shift_is_the_inverse(self, capsys):
        from triderive.autgroup import act
        from triderive.dsl import parse_gnelem
        from triderive.lie import standard_generators
        g = parse_gnelem(self.EXACT_SHIFT)
        _, out, _ = run(capsys, "inv", self.EXACT_SHIFT)
        ginv = parse_gnelem(out)
        for u in standard_generators(2, 4):
            assert act(ginv, act(g, u)) == u

    @settings(max_examples=15)
    @given(st.integers(2, 5).flatmap(triangular_auts))
    def test_a_bracket_operand_enters_as_its_conjugation(self, sigma):
        """mul and inv take a bracket-notation map as the element that
        acts as conjugation by it, built without probes: exact unless
        Form A's f takes up a shift of x_{n-1}, and the coordinates
        decompose reads, through its order."""
        from triderive.autgroup import AutoAction, act, decompose
        from triderive.cli import _element
        from triderive.lie import standard_generators
        g = _element(print_value(sigma), None, None)
        assert all(act(g, u) == conjugate_derivation(sigma, u)
                   for u in standard_generators(sigma.n, 3))
        assert all(s.order is None for s in g.e)
        assert (g.f.order is None) == (not g.f.coeffs)
        assert g.agrees_with(decompose(AutoAction.from_triaut(sigma), order=4),
                             through=4)

    def test_verify_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bracket")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)


class TestFormatsAndInput:
    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "--n", "2",
                           "bracket", "d1", "x1*d2")
        assert code == 0
        data = json.loads(out)
        assert data == {"kind": "lie", "value": "d2"}

    def test_json_bool(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "--n", "2",
                           "ideal", "d2", "w*1")
        assert code == 0
        assert json.loads(out)["value"] is True

    def test_file_indirection(self, capsys, tmp_path):
        path = tmp_path / "elem.txt"
        path.write_text("x1^2*d2", encoding="utf-8")
        code, out, _ = run(capsys, "--n", "2", "exp", f"@{path}")
        assert code == 0
        assert out.strip() == "[0, x1^2]"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "--n", "2", "exp", "@/no/such/file")
        assert code == 2
        assert "error" in err


class TestExitCodes:
    def test_parse_error_reports_span(self, capsys):
        code, _, err = run(capsys, "--n", "2", "bracket", "d1 +", "d2")
        assert code == 1
        assert "at" in err and ".." in err

    def test_semantic_error(self, capsys):
        code, _, err = run(capsys, "--n", "2", "bracket", "x2*d2", "d2")
        assert code == 1
        assert "may only use" in err

    def test_variable_index_zero(self, capsys):
        code, out, err = run(capsys, "bracket", "x0*d2", "d1")
        assert code == 1 and out == ""
        assert err == "error: variable indices start at 1 at 0..2\n"

    NAME_ERRORS = {
        "x\u00b2*d2": "unexpected character '\u00b2' at 1..2",
        "x1\u00b2*d2": "unexpected character '\u00b2' at 2..3",
        "d\u00b2": "unexpected character '\u00b2' at 1..2",
        "x\u0663*d4": "unexpected character '\u0663' at 1..2",
        "x1*d\u0662": "unexpected character '\u0662' at 4..5",
        "d": "expected a derivation, found 'd' at 0..1",
        "x1*d": "expected a derivation, found 'd' at 3..4",
        "2*d": "expected a derivation, found 'd' at 2..3",
    }

    @pytest.mark.parametrize("operand", NAME_ERRORS)
    def test_name_indices_are_ascii_digits(self, capsys, operand):
        """A name letter takes only the ASCII digits after it, and a d
        with none is no derivation: each exits 1 with a span."""
        code, out, err = run(capsys, "bracket", operand, "d1")
        assert code == 1 and out == ""
        assert err == f"error: {self.NAME_ERRORS[operand]}\n"

    def test_ordinal_operands_add_as_ordinals(self, capsys):
        """1 + w is w, so d1, of degree above w, is not in its ideal."""
        assert run(capsys, "--n", "2", "ideal", "d1", "1 + w") == \
            (0, "false\n", "")

    def test_frames_of_the_wrong_rank(self, capsys):
        code, out, err = run(capsys, "--n", "2", "reconstruct", "d1", "d2", "d1")
        assert code == 2 and out == ""
        assert err == "error: 3 frames need rank 3, frame 1 has rank 2\n"

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "--n", "1", "center")
        assert code == 2
        assert "rank" in err

    def test_truncation_error(self, capsys):
        blob = json.dumps({
            "n": 2, "form": "A", "t": ["1", "1"],
            "tau": {"a": ["0", "0"], "lambda": ["1", "1"]},
            "s": [], "f": {"order": 2, "coeffs": {"2": "1"}}, "e": [],
        })
        code, _, err = run(capsys, "act", blob, "x1^4*d2")
        assert code == 4
        assert "order" in err or "degree" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_degree_limit(self, capsys, fmt):
        # The logarithm has degree 73 and 7 terms; exp maps it back.
        code, out, err = run(capsys, "--format", fmt, "log", "[0, x1^9, x2^9]")
        assert (code, err) == (0, "")
        delta = json.loads(out)["value"] if fmt == "json" else out.strip()
        assert delta.count("*d") == 7
        assert run(capsys, "exp", delta) == (0, "[0, x1^9, x2^9]\n", "")
        # D^2 x3 for D = x1^40000*d2 is past the key limit 65534.
        code, out, err = run(capsys, "--format", fmt, "log",
                             "[0, x1^40000, x2^2]")
        assert code == 2 and out == ""
        assert err == ("error: product would reach total degree 80000, "
                       "over the cap 65534\n")

    def test_derivation_term_over_the_limit_is_refused_when_it_cancels(
            self, capsys):
        code, out, err = run(capsys, "--n", "2", "bracket",
                             "x1^70000*d2 - x1^70000*d2", "d1")
        assert code == 2 and out == ""
        assert err == ("error: term would reach total degree 70000, "
                       "over the cap 65534\n")

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "elem.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "--n", "2", "bracket", f"@{path}", "d1")
        assert code == 2 and out == ""
        assert err == f"error: {path}: not UTF-8 text: invalid start byte at byte 0\n"

    def test_usage_error(self, capsys):
        assert run(capsys, "bracket")[0] == 2

    VALID = {"n": 3, "form": "A", "t": ["2", "1", "1"],
             "tau": {"a": ["0", "x1", "x1*x2"], "lambda": ["1", "1", "1"]},
             "s": ["1/2"], "f": {"order": None, "coeffs": {"1": "1"}},
             "e": [{"i": 2, "order": None, "coeffs": {"2": "3"}}]}

    @pytest.mark.parametrize("command", ["inv", "act", "decompose"])
    @pytest.mark.parametrize("value", [5, 1.5, True, None, "12", {}])
    @pytest.mark.parametrize("field", ["t", "s", "tau.lambda", "tau.a[0]"])
    def test_json_field_of_the_wrong_type(self, capsys, command, value, field):
        # One field of a valid element replaced by another JSON type is
        # refused with the field's name; a string is not a list of its
        # characters.
        obj = json.loads(json.dumps(self.VALID))
        reason = f"{field} must be a list"
        if field == "tau.a[0]":
            obj["tau"]["a"][0] = [] if value == "12" else value
            reason = "tau entry 1: polynomials are written as strings"
        elif field == "tau.lambda":
            obj["tau"]["lambda"] = value
        else:
            obj[field] = value
            if field == "s" and value is None:
                reason = "Form A carries shift data"
        blob = json.dumps(obj)
        argv = [command, blob] + (["d1"] if command == "act" else [])
        assert run(capsys, *argv) == (
            1, "", f"error: {reason} at 0..{len(blob)}\n")

    @pytest.mark.parametrize("command", ["inv", "act", "decompose"])
    @pytest.mark.parametrize("key", ["1_0", " 2", "2 ", "+2", "02", "-1",
                                     "\u0663", "\u00b2", "2.0", ""])
    def test_json_degree_key_of_another_spelling(self, capsys, command, key):
        # A degree key is only the decimal gnelem_to_json prints; "1_0"
        # read as 10, and " 2" overwrote "2", before.
        obj = json.loads(json.dumps(self.VALID))
        obj["f"]["coeffs"] = {"2": "1", key: "5"}
        blob = json.dumps(obj)
        argv = [command, blob] + (["d1"] if command == "act" else [])
        assert run(capsys, *argv) == (
            1, "", f"error: f: bad degree {key!r} at 0..{len(blob)}\n")


def run_quietly(argv: list[str]) -> tuple[int, str]:
    """``main`` on argv, with its exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_documented(code: int, err: str) -> None:
    """The exit code is one of README's, nothing is an internal error,
    and an operand error points at its span."""
    assert code in (0, 1, 2, 3, 4), err
    assert "internal error:" not in err
    if code == 1:
        assert re.fullmatch(r"error: .* at \d+\.\.\d+\n", err), err


@st.composite
def elements(draw, n: int, orders=(None, 2, 6)) -> str:
    """A group element operand: JSON coordinates, their series stored
    through one of the orders, or a bracket map."""
    if draw(st.booleans()):
        return print_value(draw(triangular_auts(n)))
    form = draw(st.sampled_from("AB"))
    order = draw(st.sampled_from(orders))
    return json.dumps(gnelem_to_json(draw(gn_elems(n, form, order))))


COMMANDS = ["bracket", "exp", "log", "conjugate", "reconstruct", "act",
            "decompose", "mul", "inv", "ord", "ideal"]


@st.composite
def canonical_argv(draw, command: str) -> list[str]:
    """The command on the canonical text of values of one rank, with
    --n absent or that rank and --order absent or 1-6."""
    n = draw(st.integers(2, 4))
    options = ["--n", str(n)] if draw(st.booleans()) else []
    order = draw(st.none() | st.integers(1, 6))
    options += [] if order is None else ["--order", str(order)]
    lie = lie_elems(n, max_degree=2, max_terms=2).map(print_value)
    if command == "bracket":
        operands = [draw(lie), draw(lie)]
    elif command in ("exp", "ord"):
        operands = [draw(lie)]
    elif command == "log":
        operands = [print_value(draw(unipotent_auts(n)))]
    elif command == "conjugate":
        operands = [print_value(draw(triangular_auts(n))), draw(lie)]
    elif command == "reconstruct":
        sigma = draw(triangular_auts(n))
        operands = [print_value(conjugate_derivation(sigma, LieElem.d(n, i)))
                    for i in range(1, n + 1)]
    elif command == "act":
        operands = [draw(elements(n)), draw(lie)]
    elif command == "mul":
        operands = [draw(elements(n)), draw(elements(n))]
    elif command == "ideal":
        operands = [draw(lie), print_value(draw(ordinals()))]
    else:
        operands = [draw(elements(n))]
    return options + [command, "--", *operands]


def json_type(value) -> type:
    """The JSON type of a parsed value; ints and floats are one type."""
    return int if type(value) is float else type(value)


def json_paths(value, path=()):
    """Every field of parsed JSON, nested ones included, as key paths."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


JSON_VALUES = (st.integers(-2, 5) | st.sampled_from([1.5, True, False, None])
               | st.text("0123456789x1/-", max_size=3)
               | st.lists(st.sampled_from(["1", 0]), max_size=3)
               | st.dictionaries(st.sampled_from(["1", "a"]), st.just("1"),
                                 max_size=1))


@st.composite
def malformed_argv(draw) -> list[str]:
    """inv, act or decompose of a JSON element with one field, at any
    depth, replaced by a value of another JSON type."""
    n = draw(st.integers(2, 4))
    obj = gnelem_to_json(draw(gn_elems(n, draw(st.sampled_from("AB")))))
    path = draw(st.sampled_from(list(json_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = draw(JSON_VALUES.filter(
        lambda new: json_type(new) is not json_type(old)))
    command = draw(st.sampled_from(["inv", "act", "decompose"]))
    return [command, json.dumps(obj)] + (["d1"] if command == "act" else [])


class TestFuzz:
    """Every drawn command exits as README's table says."""

    @pytest.mark.parametrize("command", COMMANDS)
    @settings(max_examples=15)
    @given(data=st.data())
    def test_canonical_operands(self, command, data):
        argv = data.draw(canonical_argv(command))
        code, err = run_quietly(argv)
        assert_documented(code, err)
        assert code != 1, (argv, err)

    @settings(max_examples=150)
    @given(malformed_argv())
    def test_json_fields_of_another_type(self, argv):
        assert_documented(*run_quietly(argv))


def run_for_json(argv: list[str]) -> dict:
    """The JSON value that ``main`` prints for argv, which must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return json.loads(out.getvalue())


def form_a_shift(operand: str) -> Fraction:
    """The c by which an operand in Form A shifts x_{n-1}: the linear
    coefficient of its unit series.  A bracket map enters as the Form A
    element that decompose reads, so decompose through order 1 reads c."""
    if not operand.startswith("{"):
        operand = json.dumps(run_for_json(["--order", "1", "decompose",
                                           operand]))
    data = json.loads(operand)
    if data["form"] == "B":
        return Fraction(0)
    return Fraction(data["f"]["coeffs"].get("1", "0"))


class TestTruncationRule:
    """README's rule: on exact operands, an output series is cut only
    where a Form A operand or result shifts x_{n-1} by c != 0, or inv
    takes the reciprocal of a unit series other than 1, and then through
    --order, or 16 without it."""

    SIXTH = {"n": 2, "form": "A", "t": ["1", "1"],
             "tau": {"a": ["0", "0"], "lambda": ["1", "1"]}, "s": [],
             "f": {"order": None, "coeffs": {"6": "1"}}, "e": []}
    STORED_8 = {"n": 2, "form": "B", "t": ["2", "1/3"],
                "tau": {"a": ["0", "x1"], "lambda": ["1", "1"]},
                "f": {"order": 8, "coeffs": {"2": "-1/2"}}, "e": []}

    def test_mul_without_a_shift_keeps_an_exact_series(self):
        one = dict(self.SIXTH, f={"order": None, "coeffs": {}})
        got = run_for_json(["--order", "4", "mul", json.dumps(self.SIXTH),
                            json.dumps(one)])
        assert got["f"] == {"order": None, "coeffs": {"6": "1"}}

    def test_inv_of_unit_series_one_is_exact(self):
        got = run_for_json(["--order", "4", "inv", "[0, x1^2, x2; 2,1,1]"])
        assert [s["order"] for s in (got["f"], *got["e"])] == [None, None]

    def test_inv_keeps_a_stored_series_through_its_order(self):
        got = run_for_json(["--order", "20", "inv",
                            json.dumps(self.STORED_8)])
        assert got["f"]["order"] == 8
        assert got == run_for_json(["inv", json.dumps(self.STORED_8)])

    @pytest.mark.parametrize("command", ["mul", "inv"])
    def test_a_shift_past_the_stored_order_is_not_guessed(self, capsys,
                                                         command):
        """Form A's f stored through order 0 does not know the x_{n-1}
        shift, its linear coefficient, so moving to Form B exits 4."""
        through_0 = dict(self.SIXTH, f={"order": 0, "coeffs": {}})
        identity_b = {"n": 2, "form": "B", "t": ["1", "1"],
                      "tau": {"a": ["0", "0"], "lambda": ["1", "1"]},
                      "f": {"order": None, "coeffs": {}}, "e": []}
        operands = [json.dumps(through_0)]
        if command == "mul":
            operands.insert(0, json.dumps(identity_b))
        code, out, err = run(capsys, command, *operands)
        assert code == 4 and out == ""
        assert err == ("error: series only stored through degree 0, "
                       "asked for 1\n")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exact_operands_are_cut_only_where_the_rule_says(self, data):
        n = data.draw(st.integers(2, 3))
        order = data.draw(st.sampled_from([None, 2, 5]))
        command = data.draw(st.sampled_from(["mul", "inv"]))
        operands = [data.draw(elements(n, orders=(None,)))
                    for _ in range(2 if command == "mul" else 1)]
        options = [] if order is None else ["--order", str(order)]
        got = run_for_json(options + [command, "--", *operands])
        cut = any(form_a_shift(x) for x in operands)
        if command == "inv" and operands[0].startswith("{"):
            cut = cut or bool(json.loads(operands[0])["f"]["coeffs"])
        if got["form"] == "A":
            cut = cut or "1" in got["f"]["coeffs"]
        assert got["f"]["order"] == ((16 if order is None else order)
                                     if cut else None)
        assert all(s["order"] is None for s in got["e"])


# A fresh interpreter runs one command and reports the triderive modules
# it loaded.
LOADED = """
import contextlib, io, json, sys
from triderive.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""
GROUP_CODE = ("triaut", "series", "autgroup", "verify")


def loaded_modules(argv: list[str]) -> set[str]:
    src = str(Path(triderive.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return {m.split(".", 1)[1] for m in modules if m.startswith("triderive.")}


class TestModuleLoads:
    """Each command compiles only the modules it runs, whatever the
    machine; a cold process pays for every module it imports."""

    @pytest.mark.parametrize("unused, argv", [
        pytest.param(unused, argv, id=command)
        for unused, command, argv in [
            (GROUP_CODE, "bracket",
             ["--n", "3", "bracket", "x1^2*d2", "x1*x2*d3"]),
            (GROUP_CODE, "ord", ["--n", "3", "ord", "d1"]),
            (GROUP_CODE, "ideal", ["--n", "2", "ideal", "x1*d2", "w*1 + 1"]),
            (GROUP_CODE, "center", ["--n", "3", "center"]),
            (GROUP_CODE[1:], "exp", ["--n", "2", "exp", "x1^2*d2"]),
            (GROUP_CODE[1:], "log", ["log", "[0, x1^2]"]),
            (GROUP_CODE[1:], "conjugate", ["conjugate", "[0, x1^2]", "d1"]),
            (GROUP_CODE[1:], "reconstruct",
             ["reconstruct", "d1 - 2*x1*d2", "d2"]),
            (("verify",), "act", ["act", "[0, x1^2]", "d1"]),
            (("verify",), "decompose", ["decompose", "[0, x1^2]"]),
            (("verify",), "mul", ["mul", "[0, x1^2]", "[0, x1]"]),
            (("verify",), "inv", ["inv", "[0, x1^2]"]),
        ]])
    def test_command_loads_only_what_it_runs(self, unused, argv):
        loaded = loaded_modules(argv)
        assert {"cli", "dsl", "lie"} <= loaded
        assert loaded.isdisjoint(unused)

    def test_verify_loads_the_suites(self):
        assert "verify" in loaded_modules(["verify", "--suite", "dsl"])
