"""The README's library quick start and command-line block run as written
and state true values, and the package's public names are pinned."""

import ast
import re
import shlex
from pathlib import Path

import guardzone
from guardzone import cli

ROOT = Path(__file__).resolve().parents[1]


def block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README's ``heading``."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    return block("Library quick start", "python")


def test_quick_start_runs_and_states_its_values(monkeypatch):
    block = quick_start()
    monkeypatch.chdir(ROOT)  # the block loads a scenario by relative path
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # an expression line whose comment ends "= 0.6413" or "(21.11, 0.2396)"
    # states its value, or tuple of values, to the digits shown
    lines = block.splitlines()
    stated = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset:]
        numbers = re.findall(r"\d+\.\d+", comment)
        if not numbers:
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                     namespace)
        values = value if isinstance(value, tuple) else (value,)
        assert len(values) == len(numbers), comment
        for v, s in zip(values, numbers):
            assert f"{v:.{len(s.split('.')[1])}f}" == s, comment
        stated += numbers
    assert {"0.6413", "2.0804", "21.11", "0.2396", "0.2688"} <= set(stated)


def test_command_line_block_runs(capsys):
    # each `guardzone ...` line of the sh block, its comment dropped
    lines = [ln.split("#", 1)[0] for ln in block("Command line",
                                                  "sh").splitlines()]
    commands = [shlex.split(ln)[1:] for ln in lines
                if ln.startswith("guardzone ")]
    assert [c[0] for c in commands] == ["correlation", "risk", "roc",
                                        "fading-compare", "multiobs",
                                        "validate"]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    # the error that the text below the block quotes for fading-compare on
    # fig1, across its line breaks
    section = (ROOT / "README.md").read_text().split("## Command line\n")[1]
    quoted = re.search(r"exits 2 with\s+`([^`]+)` \(for `fig1`\)", section)
    assert cli.main(["fading-compare", "--scenario", "fig1"]) == 2
    assert capsys.readouterr().err.strip() == " ".join(quoted[1].split())


def test_public_names_are_pinned():
    # a name added to or dropped from the package's API is an edit here
    assert set(guardzone.__all__) == {
        "AlohaParams", "CostMatrix", "DecisionRuleTable",
        "IltConvergenceError", "ModelParams", "aloha_laws", "bayes_risk",
        "chi_of_radius", "chi_star", "chi_star_from_coeff",
        "chi_star_low_density_limit", "derive", "enumerate_rules",
        "evidence_success", "f_d", "levy_prior", "load_scenario",
        "operating_points", "optimal_radius", "posterior",
        "posterior_nofade", "prior_success", "radius_of_chi", "rho",
        "rho_curve", "rho_nofade", "rule_errors", "sensitivities",
        "type_errors", "__version__"}
    assert len(guardzone.__all__) == 30
