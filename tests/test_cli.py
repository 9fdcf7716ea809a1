import argparse
import contextlib
import io
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitlab import cli, lazard, metric, orbits, vmodel
from orbitlab.lazard import catalog, parse_ring, serialize_ring
from orbitlab.metric import MetricError, parse_metric, serialize_metric
from orbitlab.vmodel import (VModelData, build_hyperbolic, parse_vmodel,
                             serialize_vmodel)

from conftest import (cotangent_h3, hyperbolic_metric, move_qhat_coefficient,
                      quadratic_metric)


@pytest.fixture()
def h3p5_file(tmp_path):
    path = tmp_path / "h3p5.ring"
    path.write_text(serialize_ring(catalog()["h3_p5"]))
    return str(path)


@pytest.fixture()
def metric_file(tmp_path):
    path = tmp_path / "x2.metric"
    path.write_text(serialize_metric(quadratic_metric(3)))
    return str(path)


@pytest.fixture()
def vmodel_file(tmp_path):
    path = tmp_path / "hyp3.vm"
    path.write_text(serialize_vmodel(build_hyperbolic(3, 1, 1)))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_validate_human(capsys, h3p5_file):
    code, out = run(capsys, "validate", h3p5_file)
    assert code == 0
    assert "h3_p5: Z/5^1 rank 3, class 2, order 125" in out
    assert "Lazard condition: class 2 < p = 5" in out


def test_orbits_human_census_line(capsys, h3p5_file):
    code, out = run(capsys, "orbits", h3p5_file)
    assert code == 0
    assert out.splitlines()[0] == "29 orbits; sizes 1x25, 25x4"


def test_orbits_records(capsys, h3p5_file):
    code, out = run(capsys, "orbits", h3p5_file, "--format", "records")
    assert code == 0
    assert out.splitlines() == [
        "census ring=h3_p5 orbits=29 dual=125",
        "orbitclass size=1 count=25 stabilizer=125",
        "orbitclass size=25 count=4 stabilizer=5",
    ]


def test_records_are_deterministic(capsys, h3p5_file):
    first = run(capsys, "orbits", h3p5_file, "--format", "records")
    second = run(capsys, "orbits", h3p5_file, "--format", "records")
    assert first == second
    k1 = run(capsys, "kernel-check", h3p5_file, "--samples", "7",
             "--seed", "3", "--format", "records")
    k2 = run(capsys, "kernel-check", h3p5_file, "--samples", "7",
             "--seed", "3", "--format", "records")
    assert k1 == k2 and k1[0] == 0


def test_bch_table_and_certificate(capsys):
    code, out = run(capsys, "bch", "--class", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["degree", "1", "x", "1"]
    assert "degree 2  [x,y]                    1/2" in lines
    assert "degree 3  [x,[x,y]]                1/12" in lines
    assert "degree 3  [y,[x,y]]                -1/12" in lines
    assert "degree 3: denominator lcm 12 divides (3!)^2" in lines


def test_bch_rejects_bad_gens(capsys):
    # the series has two generators and no flag to say otherwise
    with pytest.raises(SystemExit) as exc:
        cli.main(["bch", "--class", "3", "--gens", "3"])
    assert exc.value.code == 2


def test_kernel_check_modes(capsys, h3p5_file):
    code, out = run(capsys, "kernel-check", h3p5_file)
    assert code == 0
    assert "kernel = stabilizer for 125 characters of h3_p5 (all 125)" in out
    code, out = run(capsys, "kernel-check", h3p5_file, "--samples", "10",
                    "--seed", "4", "--format", "records")
    assert code == 0
    assert out.strip() == "kernel ring=h3_p5 characters=10 mode=sampled seed=4"


def test_polarize_generic(capsys, h3p5_file):
    code, out = run(capsys, "polarize", h3p5_file)
    assert code == 0
    assert "chi = (0/1, 0/1, 1/5) on h3_p5" in out
    assert "lagrangian of size 25: generators 1,0,0 0,0,1" in out


def test_polarize_explicit_chi(capsys, h3p5_file):
    code, out = run(capsys, "polarize", h3p5_file, "--chi", "0/1,0/1,2/5")
    assert code == 0
    assert "chi = (0/1, 0/1, 2/5)" in out
    # a denominator outside p-powers is a usage error
    assert cli.main(["polarize", h3p5_file, "--chi", "1/2,0/1,0/1"]) == 2


def test_gauss_report(capsys, metric_file):
    code, out = run(capsys, "gauss", metric_file)
    assert code == 0
    assert "G conj(G) = 3*z^0" in out
    assert "no Lagrangian subgroup" in out


def test_ribbon_pass_and_forge(capsys, vmodel_file):
    code, out = run(capsys, "ribbon", vmodel_file)
    assert code == 0
    assert out.splitlines()[-1] == "Theorem 1: PASS (dim V = 9)"

    code, out = run(capsys, "ribbon", vmodel_file, "--forge-eta",
                    "--format", "records")
    assert code == 1
    lines = out.splitlines()
    assert "check name=theorem1 status=FAIL" in lines
    ce = [ln for ln in lines if ln.startswith("counterexample")]
    assert len(ce) == 1
    assert "check=theorem1" in ce[0] and "eta=" in ce[0] and "qhat=" in ce[0]
    assert lines[-1] == "theorem1 status=FAIL dim=9 model=hyp(3^1)x1"


def test_ribbon_rejects_broken_bundle(capsys, tmp_path):
    d = build_hyperbolic(3, 1, 1)
    text = serialize_vmodel(d)
    # break the isotropy of q on the ideal
    broken = text.replace("q 0/1 0/1", "q 1/3 0/1").replace(
        "B 0/1 1/3", "B 2/3 1/3")
    path = tmp_path / "broken.vm"
    path.write_text(broken)
    code = cli.main(["ribbon", str(path), "--format", "records"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("counterexample check=isotropic witness=")


def test_exit_2_on_usage_errors(capsys, tmp_path, h3p5_file):
    # missing file
    assert cli.main(["validate", str(tmp_path / "absent.ring")]) == 2
    # garbage content
    bad = tmp_path / "bad.ring"
    bad.write_text("nonsense\n")
    assert cli.main(["validate", str(bad)]) == 2
    # composite p
    comp = tmp_path / "comp.ring"
    comp.write_text("ring x\np 4\nk 1\nrank 1\nclass 1\nend\n")
    assert cli.main(["validate", str(comp)]) == 2
    # cap exceeded is usage, not verification failure
    assert cli.main(["orbits", h3p5_file, "--cap", "10"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field, value", [("rank", "100000"),
                                          ("k", "1000000000")])
def test_validate_refuses_hostile_shapes(capsys, tmp_path, field, value):
    # refused before the bracket table or p^k is built
    lines = {"p": "3", "k": "1", "rank": "3", field: value}
    path = tmp_path / "hostile.ring"
    path.write_text("ring big\n" + "".join(f"{key} {v}\n" for key, v in
                                           lines.items()) + "end\n")
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and value in err
    assert "Traceback" not in err


_HYP_VM = serialize_vmodel(build_hyperbolic(3, 1, 1))


@pytest.mark.parametrize("command, text", [
    ("gauss", "metric m\np\ntype 1\nq 0/1\nB 0/1\nend\n"),
    ("validate", "ring r\np\nk 1\nrank 3\nend\n"),
    ("validate", "ring r\np 3\nk 1\nrank 3\nbracket 1\nend\n"),
    # one 's' line: the cosets (0,) and (2,) have no section value
    ("ribbon", "vmodel v\nring r\np 3\nk 1\nrank 2\nclass 1\nend\na 1 0\n"
     "q 0/1 0/1\nB 0/1 1/3\nB 1/3 0/1\ns 1 -> 0 1\nend\n"),
    # a section value with three coordinates on a rank-2 ring
    ("ribbon", serialize_vmodel(build_hyperbolic(3, 1, 1, section_seed=1))
     .replace("s 1 -> ", "s 1 -> 5 ")),
    # a zero denominator is an input error wherever a value is read
    ("gauss", "metric m\np 3\ntype 1\nq 1/0\nB 0/1\nend\n"),
    ("ribbon", _HYP_VM.replace("q 0/1 0/1", "q 1/0 0/1")),
    ("ribbon", _HYP_VM.replace("B 0/1 1/3", "B 0/1 1/0")),
    ("polarize --chi 1/0,0,0", serialize_ring(catalog()["h3_p5"])),
], ids=["metric-p", "ring-p", "ring-bracket", "vmodel-section",
        "vmodel-section-length", "metric-q-zero-denominator",
        "vmodel-q-zero-denominator",
        "vmodel-B-zero-denominator", "chi-zero-denominator"])
def test_short_lines_are_input_errors(capsys, tmp_path, command, text):
    path = tmp_path / "short.txt"
    path.write_text(text)
    command, *flags = command.split()
    assert cli.main([command, str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("input error:")
    assert "Traceback" not in err


_RING = serialize_ring(catalog()["h3_p5"])
_METRIC = serialize_metric(quadratic_metric(3))
_SECTION_VM = serialize_vmodel(build_hyperbolic(3, 1, 1, section_seed=1))
_READERS = {
    "ring": (parse_ring, ("validate", "orbits", "kernel-check", "polarize")),
    "metric": (parse_metric, ("gauss",)),
    "vmodel": (parse_vmodel, ("ribbon",)),
}


@pytest.mark.parametrize("kind, data", [
    ("ring", _RING.replace("p 5\n", "p 5\np 7\n")),
    ("ring", _RING.replace("end", "bracket 1 2 0 0 2\nend")),
    ("ring", _RING + "p 7\n"),
    ("ring", _RING.replace("ring ", "ringx ")),
    ("ring", b"\xff" + _RING.encode()),
    ("metric", _METRIC.replace("type", "p 3\ntype")),
    ("metric", _METRIC.replace("B", "q 1/3\nB")),
    ("metric", _METRIC + "# a comment\nB 0/1\n"),
    ("metric", _METRIC.replace("metric ", "metricx ")),
    ("metric", _METRIC.encode("utf-16")),
    ("vmodel", _SECTION_VM.replace("B 0", "q 0/1 0/1\nB 0", 1)),
    ("vmodel", _SECTION_VM.replace("k 1", "k 1\nk 1")),
    ("vmodel", _SECTION_VM.replace("s 1 ->", "s 4 -> 0 1\ns 1 ->")),
    ("vmodel", _SECTION_VM + "end\n"),
    ("vmodel", _SECTION_VM.replace("vmodel ", "vmodelx ")),
    ("vmodel", _SECTION_VM.replace("ring ", "ringx ")),
    ("vmodel", _SECTION_VM.encode("latin-1") + b"# \xe9\n"),
], ids=["ring-p", "ring-bracket", "ring-after-end", "ring-header",
        "ring-bytes", "metric-p", "metric-q", "metric-after-end",
        "metric-header", "metric-bytes", "vmodel-q", "vmodel-ring-k",
        "vmodel-s", "vmodel-after-end", "vmodel-header",
        "vmodel-ring-header", "vmodel-bytes"])
def test_shared_format_rules_refuse(capsys, tmp_path, kind, data):
    # the rules the three formats share: one header line naming the kind,
    # nothing after 'end', each single-valued line once, UTF-8 text; the
    # parsers take text, so bytes that are not UTF-8 reach only the CLI
    parse, commands = _READERS[kind]
    if isinstance(data, str):
        with pytest.raises(ValueError):
            parse(data)
        data = data.encode()
    path = tmp_path / f"refused.{kind}"
    path.write_bytes(data)
    for command in commands:
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("input error:")
        assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["ring", "metric", "vmodel"])
@pytest.mark.parametrize("sep", [" ", "\t", " \t "])
def test_header_name_follows_any_whitespace(kind, sep):
    # the name is the rest of the header line after the kind, however the
    # two are separated; a v-model's ring block is read by the same rule
    parse = _READERS[kind][0]
    text = {"ring": _RING, "metric": _METRIC, "vmodel": _SECTION_VM}[kind]
    header, rest = text.split("\n", 1)
    name = header.split(" ", 1)[1]
    if kind == "vmodel":
        rest = rest.replace("ring ", "ring" + sep, 1)
    parsed = parse(f"{kind}{sep}{name}\n{rest}")
    assert parsed.name == parse(text).name == name
    if kind == "vmodel":
        assert parsed.ring.name == parse(text).ring.name
    assert parse(f"{kind}\n{rest}").name == "unnamed"


@pytest.mark.parametrize("value", ["1000000000", "8"])
def test_gauss_refuses_hostile_order(capsys, tmp_path, value):
    # the order bound is checked before p^k is formed; 3^8 > 4096 as well
    path = tmp_path / "hostile.metric"
    path.write_text(f"metric big\np 3\ntype {value}\nq 0/1\nB 0/1\nend\n")
    start = time.process_time()
    assert cli.main(["gauss", str(path)]) == 2
    assert time.process_time() - start < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"3^{value}" in err
    assert "Traceback" not in err


def test_cap_env_default(capsys, h3p5_file, monkeypatch):
    # --cap is the one way to set the cap: the environment does not move it
    assert cli.main(["orbits", h3p5_file, "--cap", "1000"]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("ORBITLAB_CAP", "10")
    assert cli.main(["orbits", h3p5_file]) == 0
    assert capsys.readouterr().out == plain


def test_cap_hint_names_the_flag(capsys, h3p5_file):
    assert cli.main(["orbits", h3p5_file, "--cap", "10"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip().endswith("; raise --cap")
    assert "sampled" not in err and "ORBITLAB_CAP" not in err


def test_default_cap_reaches_every_catalog_ring(capsys, tmp_path):
    # u4_p7 has the largest dual space of the catalog, 7^6 characters
    path = tmp_path / "u4_p7.ring"
    path.write_text(serialize_ring(catalog()["u4_p7"]))
    code, out = run(capsys, "orbits", str(path), "--format", "records")
    assert code == 0
    assert out.splitlines()[0] == "census ring=u4_p7 orbits=721 dual=117649"


def test_default_cap_refuses_a_larger_dual(capsys, tmp_path):
    path = tmp_path / "abelian7_p7.ring"
    path.write_text(serialize_ring(lazard.LieRing(7, 1, 7, {},
                                                  name="abelian7_p7")))
    code = cli.main(["orbits", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("cap exceeded: dual space has 823543 characters, "
                            "above the cap 117649; raise --cap\n")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_kernel_check_needs_a_sample(capsys, h3p5_file, samples):
    # a verdict on no characters is no verdict
    code = cli.main(["kernel-check", h3p5_file, "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize("command", ["orbits", "kernel-check"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_is_an_input_error(capsys, h3p5_file, command, cap):
    # no scan fits under such a cap: the flag, not the ring, is wrong
    code = cli.main([command, h3p5_file, "--cap", cap])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: --cap must be at least 1, not {cap}\n"


@pytest.mark.parametrize("command, message", [
    # the exhaustive stabilizer scan needs |G| = 125 > cap: no verdict
    ("kernel-check", "exhaustive-scan cap 10"),
    # the census would visit all 125 characters
    ("orbits", "cap exceeded"),
], ids=["kernel-check", "orbits"])
def test_cap_is_not_a_counterexample(capsys, h3p5_file, command, message):
    code = cli.main([command, h3p5_file, "--cap", "10",
                     "--format", "records"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_parser_is_built_once(capsys, h3p5_file, monkeypatch):
    cli._build_parser.cache_clear()
    made = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: made.append(1) or init(
                            self, *a, **kw))
    assert cli.main(["validate", h3p5_file]) == 0
    first = len(made)
    assert first > 0
    for argv in (["orbits", h3p5_file], ["bch", "--class", "2"],
                 ["validate", h3p5_file]):
        assert cli.main(argv) == 0
    assert len(made) == first
    capsys.readouterr()


@pytest.mark.parametrize("before, code, after, line", [
    # the seed given once is not the default of the next call
    (["kernel-check", "{ring}", "--samples", "7", "--seed", "3",
      "--format", "records"], 0,
     ["kernel-check", "{ring}", "--samples", "7", "--format", "records"],
     "kernel ring=h3_p5 characters=7 mode=sampled seed=0"),
    # a forged twist is forged for its own call only
    (["ribbon", "{vm}", "--forge-eta"], 1, ["ribbon", "{vm}"],
     "Theorem 1: PASS (dim V = 9)"),
    # nor does the records format outlive its call
    (["orbits", "{ring}", "--format", "records"], 0, ["orbits", "{ring}"],
     "29 orbits; sizes 1x25, 25x4"),
], ids=["seed", "forge-eta", "format"])
def test_no_flag_carries_over_between_calls(capsys, h3p5_file, vmodel_file,
                                            before, code, after, line):
    files = {"ring": h3p5_file, "vm": vmodel_file}
    assert cli.main([a.format(**files) for a in before]) == code
    capsys.readouterr()
    got, out = run(capsys, *[a.format(**files) for a in after])
    assert got == 0 and line in out.splitlines()


# -- ribbon: every failure is a counterexample record, never a traceback ------

def _vm_file(tmp_path, d):
    path = tmp_path / "model.vm"
    path.write_text(serialize_vmodel(d))
    return str(path)


def _resectioned(section_of):
    """hyp(3^1)x1 with the section beta -> section_of(d, beta)."""
    d = build_hyperbolic(3, 1, 1)
    return VModelData(d.ring, d.a, d.metric, name=d.name,
                      section={beta: section_of(d, beta)
                               for beta in d.b_elements})


def _skip_validation(monkeypatch):
    """Let a bundle that validate_data rejects reach verify_ribbon."""
    monkeypatch.setattr(cli, "validate_data",
                        lambda d: setattr(d, "_validated", True))


def _ribbon_counterexample(capsys, path, *flags):
    code, out = run(capsys, "ribbon", path, "--format", "records", *flags)
    assert code == 1
    lines = out.splitlines()
    assert not any(ln.startswith("theorem1 ") for ln in lines)
    assert lines[-1].startswith("counterexample check=")
    return lines[-1]


def test_ribbon_action_and_twist_data_errors(capsys, tmp_path, monkeypatch):
    # s(beta) lifts beta + 1, so g s(beta) - s(g beta) leaves the ideal
    path = _vm_file(tmp_path, _resectioned(
        lambda d, beta: d.lift(((beta[0] + 1) % 3,))))
    _skip_validation(monkeypatch)
    assert _ribbon_counterexample(capsys, path).startswith(
        "counterexample check=action-data witness=")
    # --forge-eta builds the twist first
    assert _ribbon_counterexample(capsys, path, "--forge-eta").startswith(
        "counterexample check=twist-data witness=")


def test_ribbon_twist_beta0_cross_check(capsys, tmp_path, monkeypatch):
    # s(0) = e_0 lies in the ideal but is not 0: the beta = 0 slice of the
    # twist no longer collapses to the bare formula
    path = _vm_file(tmp_path, _resectioned(
        lambda d, beta: d.ring.add(d.lift(beta), (1, 0))))
    _skip_validation(monkeypatch)
    assert _ribbon_counterexample(capsys, path).startswith(
        "counterexample check=twist-beta0 witness=")


def test_ribbon_gu_support_cross_check(capsys, vmodel_file, monkeypatch):
    # gamma(g) for g = (1, 1) (row 4) sends the 1_{0,0} term of u to a
    # second beta
    gamma_arrays = vmodel._gamma_arrays

    def moved_target(d):
        perm, expo = gamma_arrays(d)
        nb = len(d.b_elements)
        perm = perm.copy()
        perm[4, 0] = perm[4, 0] - perm[4, 0] % nb + (perm[4, 0] + 1) % nb
        return perm, expo

    monkeypatch.setattr(vmodel, "_gamma_arrays", moved_target)
    assert _ribbon_counterexample(capsys, vmodel_file) == (
        'counterexample check=gu-support witness="gu is not supported on '
        'one beta for g=(1, 1)"')


def test_ribbon_qhat_paths_cross_check(capsys, vmodel_file, monkeypatch):
    # the Fourier route of q-hat off by 1 at its first coefficient
    transform = metric._transform

    def off_by_one(m, H, sign):
        out = transform(m, H, sign)
        out[0, 0] += m.size()
        return out

    monkeypatch.setattr(metric, "_transform", off_by_one)
    assert _ribbon_counterexample(capsys, vmodel_file).startswith(
        "counterexample check=qhat-paths witness=")


def test_ribbon_conjugation_cross_check(capsys, vmodel_file, monkeypatch):
    # a batched group law off by e_0 + e_1 splits the two conjugation
    # routes that validate_data's invariance axiom runs
    monkeypatch.setattr(vmodel, "batch_exp_mul", lambda ring, X, Y: (
        np.asarray(X) + np.asarray(Y) + 1) % ring.pk)
    assert _ribbon_counterexample(capsys, vmodel_file).startswith(
        "counterexample check=conjugation witness=")


def _change_eta_outside_u(monkeypatch):
    """eta's exponent moved in its last column, where beta != 0."""
    eta_monomial = vmodel._eta_monomial

    def changed(d):
        perm, expo = eta_monomial(d)
        return perm, expo[:-1] + ((expo[-1] + 1) % d.metric.modulus,)

    monkeypatch.setattr(vmodel, "_eta_monomial", changed)


@pytest.mark.parametrize("model, patch, line", [
    (lambda: build_hyperbolic(5, 1, 1),
     lambda mp: move_qhat_coefficient(mp, (2, 3)),
     "counterexample check=theorem1 witness=\"{'entry': ((0,), (3,)), "
     "'eta_u': '5:0,0,0,0', 'qhat_u': '5:1,0,0,0'}\""),
    (cotangent_h3,
     lambda mp: move_qhat_coefficient(mp, (1, 0, 0, 0, 0, 0)),
     "counterexample check=theorem1 witness=\"{'generator': "
     "(0, 1, 0, 0, 0, 0), 'element': (1, 0, 0, 0, 0, 0)}\""),
    (lambda: build_hyperbolic(3, 1, 1), _change_eta_outside_u,
     "counterexample check=equivariance witness=0,1"),
], ids=["eta-u", "class-function", "equivariance"])
def test_ribbon_theorem1_witnesses(capsys, tmp_path, monkeypatch, model,
                                   patch, line):
    path = _vm_file(tmp_path, model())
    patch(monkeypatch)
    code = cli.main(["ribbon", path, "--format", "records"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    lines = captured.out.splitlines()
    assert [ln for ln in lines if ln.startswith("counterexample")] == [line]
    assert lines[-1].startswith("theorem1 status=FAIL")


def _break_group_law(monkeypatch):
    """A group law off by e_0 + e_1 splits conjugate's two routes."""
    monkeypatch.setattr(lazard, "exp_mul", lambda ring, x, y: tuple(
        (a + b + 1) % ring.pk for a, b in zip(x, y)))


def _conjugation_counterexample(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "records")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("counterexample check=conjugation witness=")


def test_orbits_conjugation_cross_check(capsys, h3p5_file, monkeypatch):
    # the census builds its generator permutations through conjugate
    _break_group_law(monkeypatch)
    _conjugation_counterexample(capsys, "orbits", h3p5_file)


def test_kernel_check_conjugation_cross_check(capsys, h3p5_file,
                                              monkeypatch):
    # the perpendicularity spot-check moves chi through conjugate
    _break_group_law(monkeypatch)
    _conjugation_counterexample(capsys, "kernel-check", h3p5_file,
                                "--samples", "3")


def test_validate_cross_check_is_a_counterexample(capsys, h3p5_file,
                                                   monkeypatch):
    # main maps a CrossCheckError from any subcommand to exit 1
    def disagree(ring):
        raise lazard.CrossCheckError("conjugation", "routes disagree")

    monkeypatch.setattr(cli, "validate", disagree)
    code, out = run(capsys, "validate", h3p5_file, "--format", "records")
    assert (code, out) == (1, 'counterexample check=conjugation '
                              'witness="routes disagree"\n')


def _kernel_counterexample(capsys, path):
    code, out = run(capsys, "kernel-check", path, "--samples", "3",
                    "--format", "records")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("counterexample check=kernel witness=")
    assert "np." not in lines[0] and "int64" not in lines[0]
    return lines[0]


def test_kernel_check_stabilizer_witness(capsys, h3p5_file, monkeypatch):
    # a coadjoint action that fixes everything: the scanned stabilizer is
    # the whole group, unlike the radical
    monkeypatch.setattr(orbits, "batch_conjugate",
                        lambda ring, G, X: X % ring.pk)
    assert "stabilizer differs from radical" in _kernel_counterexample(
        capsys, h3p5_file)


def test_kernel_check_perpendicularity_witness(capsys, h3p5_file,
                                               monkeypatch):
    monkeypatch.setattr(orbits, "coadjoint_matrix", lambda ring, g: tuple(
        ring.basis(j) for j in range(ring.rank)))
    line = _kernel_counterexample(capsys, h3p5_file)
    assert "perpendicularity violated" in line
    assert "agree = True, perpendicular = False" in line


def test_ribbon_metric_error(capsys, vmodel_file, monkeypatch):
    def broken(m):
        raise MetricError("Gauss sum modulus broken")

    monkeypatch.setattr(vmodel, "gauss_sum", broken)
    assert _ribbon_counterexample(capsys, vmodel_file) == (
        'counterexample check=metric witness="Gauss sum modulus broken"')


# -- golden records: --format records output captured before engine rewrites --

GOLDEN_RECORDS = [
    (("gauss", "x2_3"), 0, [
        "metric name=x^2/3 order=3 nondegenerate=true gauss=3:1,2 "
        "norm=3:3,0",
        "lagrangian index=-1 size=0 members=none"]),
    (("gauss", "x2_7"), 0, [
        "metric name=x^2/7 order=7 nondegenerate=true gauss=7:1,2,2,0,2,0 "
        "norm=7:7,0,0,0,0,0",
        "lagrangian index=-1 size=0 members=none"]),
    (("ribbon", "hyp311", "--forge-eta"), 1, [
        "check name=action status=PASS",
        "check name=equivariance status=PASS",
        "check name=gu-rank status=PASS",
        "check name=h-beta status=PASS",
        "check name=gauss-card status=PASS",
        "check name=theorem1 status=FAIL",
        "counterexample check=theorem1 row=0;0 col=0;0 eta=3:2,0 qhat=3:1,0",
        "theorem1 status=FAIL dim=9 model=hyp(3^1)x1"]),
    (("ribbon", "hyp321s5"), 0, [
        "check name=action status=PASS",
        "check name=equivariance status=PASS",
        "check name=gu-rank status=PASS",
        "check name=h-beta status=PASS",
        "check name=gauss-card status=PASS",
        "check name=theorem1 status=PASS",
        "theorem1 status=PASS dim=81 model=hyp(3^2)x1/s5"]),
    (("ribbon", "hyp321s5", "--forge-eta"), 1, [
        "check name=action status=PASS",
        "check name=equivariance status=PASS",
        "check name=gu-rank status=PASS",
        "check name=h-beta status=PASS",
        "check name=gauss-card status=PASS",
        "check name=theorem1 status=FAIL",
        "counterexample check=theorem1 row=0;0 col=0;0 "
        "eta=9:2,0,0,0,0,0 qhat=9:1,0,0,0,0,0",
        "theorem1 status=FAIL dim=81 model=hyp(3^2)x1/s5"]),
    (("polarize", "u4_p5"), 0, [
        "character ring=u4_p5 chi=0/1,0/1,0/1,0/1,0/1,1/5",
        "step index=0 h=25 perp=15625 heisenberg=false strong=false",
        "step index=1 h=625 perp=625 heisenberg=true strong=true",
        "lagrangian size=625 "
        "generators=0,1,0,0,0,0;0,0,0,1,0,0;0,0,0,0,1,0;0,0,0,0,0,1"]),
    (("polarize", "u4_p5", "--chi", "1/5,1/5,1/5,1/5,1/5,0/1"), 0, [
        "character ring=u4_p5 chi=1/5,1/5,1/5,1/5,1/5,0/1",
        "step index=0 h=625 perp=15625 heisenberg=true strong=true",
        "lagrangian size=3125 generators=1,0,0,0,0,0;0,0,1,0,0,0;"
        "0,0,0,1,0,0;0,0,0,0,1,0;0,0,0,0,0,1"]),
    (("polarize", "h3_z9"), 0, [
        "character ring=h3_z9 chi=0/1,0/1,1/9",
        "step index=0 h=9 perp=729 heisenberg=true strong=true",
        "lagrangian size=81 generators=1,0,0;0,0,1"]),
    (("polarize", "h3_z9", "--chi", "0/1,0/1,1/3"), 0, [
        "character ring=h3_z9 chi=0/1,0/1,1/3",
        "step index=0 h=81 perp=729 heisenberg=true strong=true",
        "lagrangian size=243 generators=1,0,0;0,3,0;0,0,1"]),
    (("polarize", "h3xa1_p7"), 0, [
        "character ring=h3xa1_p7 chi=0/1,0/1,1/7,0/1",
        "step index=0 h=49 perp=2401 heisenberg=true strong=true",
        "lagrangian size=343 generators=1,0,0,0;0,0,1,0;0,0,0,1"]),
    (("orbits", "u4_p5"), 0, [
        "census ring=u4_p5 orbits=265 dual=15625",
        "orbitclass size=1 count=125 stabilizer=15625",
        "orbitclass size=25 count=120 stabilizer=625",
        "orbitclass size=625 count=20 stabilizer=25"]),
    (("orbits", "h3_z9"), 0, [
        "census ring=h3_z9 orbits=105 dual=729",
        "orbitclass size=1 count=81 stabilizer=729",
        "orbitclass size=9 count=18 stabilizer=81",
        "orbitclass size=81 count=6 stabilizer=9"]),
    (("kernel-check", "h3_z9", "--samples", "729"), 0, [
        "kernel ring=h3_z9 characters=729 mode=all seed=0"]),
    (("kernel-check", "u4_p5", "--samples", "8", "--seed", "3"), 0, [
        "kernel ring=u4_p5 characters=8 mode=sampled seed=3"]),
]


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    texts = {
        "x2_3": serialize_metric(quadratic_metric(3)),
        "x2_7": serialize_metric(quadratic_metric(7)),
        "hyp311": serialize_vmodel(build_hyperbolic(3, 1, 1)),
        "hyp321s5": serialize_vmodel(
            build_hyperbolic(3, 2, 1, section_seed=5)),
    }
    texts.update((name, serialize_ring(catalog()[name]))
                 for name in ("u4_p5", "h3_z9", "h3xa1_p7"))
    for key, text in texts.items():
        (root / key).write_text(text)
    return {key: str(root / key) for key in texts}


@pytest.mark.parametrize("argv, code, lines", GOLDEN_RECORDS,
                         ids=["-".join(case[0]).replace("/", "_")
                              for case in GOLDEN_RECORDS])
def test_golden_records(capsys, golden_files, argv, code, lines):
    command, key, *flags = argv
    got = run(capsys, command, golden_files[key], "--format", "records",
              *flags)
    assert got == (code, "".join(line + "\n" for line in lines))


# -- fuzzing: any input gives exit 0, 1 or 2, never an escaping exception -----

FUZZ_SOURCES = {
    "ring": (serialize_ring(catalog()["h3_p3"]),
             ("validate", "orbits", "polarize")),
    "metric": (serialize_metric(hyperbolic_metric(3, 1, 1)), ("gauss",)),
    "vmodel": (serialize_vmodel(build_hyperbolic(3, 1, 1, section_seed=2)),
               ("ribbon",)),
}
FUZZ_TOKENS = ["1/0", "-1", "99999999999999999999", "end", "->", "", "0",
               "1", "2", "1/3", "0/1", "a", "s", "q", "B", "bracket"]


def _mutate(text, edits):
    """Replace, delete or insert whitespace-separated tokens; positions
    wrap around the token count, and an insertion lands before the token."""
    lines = [ln.split() for ln in text.splitlines()]
    for op, pos, token in edits:
        slots = [(i, j) for i, ln in enumerate(lines) for j in range(len(ln))]
        if not slots:
            break
        i, j = slots[pos % len(slots)]
        if op == "replace":
            lines[i][j] = token
        elif op == "delete":
            del lines[i][j]
        else:
            lines[i].insert(j, token)
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(FUZZ_SOURCES)),
       edits=st.lists(st.tuples(st.sampled_from(["replace", "delete",
                                                 "insert"]),
                                st.integers(0, 200),
                                st.sampled_from(FUZZ_TOKENS)),
                      min_size=1, max_size=3))
@example(kind="metric", edits=[("replace", 8, "1/0")])  # q 1/0 0/1
def test_mutated_inputs_exit_cleanly(tmp_path_factory, kind, edits):
    text, commands = FUZZ_SOURCES[kind]
    path = tmp_path_factory.mktemp("fuzz") / f"mutated.{kind}"
    path.write_text(_mutate(text, edits))
    for command in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), "--format", "records"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


def test_serialize_parse_round_trip():
    texts = [(parse_ring, serialize_ring, serialize_ring(ring))
             for ring in catalog().values()]
    texts += [(parse_metric, serialize_metric,
               serialize_metric(hyperbolic_metric(3, k, r)))
              for k, r in ((1, 1), (2, 1), (1, 2))]
    texts += [(parse_vmodel, serialize_vmodel,
               serialize_vmodel(build_hyperbolic(p, 1, 1, section_seed=seed)))
              for p in (3, 5) for seed in (None, 1, 7)]
    for parse, serialize, text in texts:
        assert serialize(parse(text)) == text
