"""Every setting through `cli.main`: a valid or a hostile value of each key,
from the config file and from its flag, exits 0, 2 or 3 without a traceback,
and an exit 2 names a key."""

import argparse
import contextlib
import io
import json
import math
import re

import pytest

from compactwave.cli import COMMAND_DEFAULTS, EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, _build_parser, main
from compactwave.mesh import NODE_DISTRIBUTIONS
from compactwave.problems import EXAMPLE_ALPHAS
from compactwave.schemes import SchemeKind

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# hypothesis imports libcst to print a failing example, and libcst's import
# raises this DeprecationWarning; ignored here so that a failure is reported
# as a failed test instead of aborting the session
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

# the commands that read each key; seed is a flag only
READERS = {"seed": ["stability", "selftest"]}
for _command, _defaults in COMMAND_DEFAULTS.items():
    for _key in _defaults:
        READERS.setdefault(_key, []).append(_command)
_SUB = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
# {command: {key: flag}}
FLAGS = {
    command: {action.dest: action.option_strings[0] for action in parser._actions
              if action.option_strings and action.dest not in ("help", "config", "out")}
    for command, parser in _SUB.choices.items()
}
STUDIES = ("table1", "table2")

# small runs for every command, and the settings a key is read next to
BASE = {"run": {"N": 4}, "table1": {"alpha": [1.5], "N": [4]},
        "table2": {"phi": ["phi0"], "N": [4]}, "stability": {"N": 4}, "selftest": {}}
STABILITY_BASE = {  # speeds and T are read on two or more axes, axes in place of N
    "speeds": {"scheme": "compactnd", "axes": [{"N": 4}, {"N": 4}]},
    "T": {"scheme": "compactnd", "axes": [{"N": 4}, {"N": 4}]},
    "axes": {"scheme": "compactnd"},
}

_SMALL = st.integers(2, 16)
_PLACED = {"X": st.sampled_from([0.5, 2.0]), "origin": st.sampled_from([-1.0, 0.0])}
_AXIS = st.one_of(
    st.fixed_dictionaries({"N": _SMALL}, optional={**_PLACED, "kind": st.just("uniform")}),
    st.fixed_dictionaries({"N": _SMALL, "kind": st.just("graded")},
                          optional={**_PLACED, "phi": st.sampled_from(sorted(NODE_DISTRIBUTIONS))}),
)
VALID = {
    "problem": st.sampled_from(
        ["smooth1d", "E_0.5", "E_2.5", {"kind": "example", "alpha": 1.5}, {"kind": "smooth1d"}]
    ),
    "scheme": st.sampled_from([*(kind.value for kind in SchemeKind), "nonuniform-compact"]),
    "N": _SMALL,
    "axis": _AXIS,
    "axes": st.lists(_AXIS, min_size=1, max_size=3),
    "speeds": st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=2, max_size=2),
    "T": st.sampled_from([0.5, 1.0, 2.0]),
    "M": st.one_of(st.just("auto"), st.integers(1, 16)),
    "cfl_factor": st.sampled_from([0.5, 1.0, 1.4]),
    "format": st.sampled_from(["csv", "md"]),
    "alpha": st.lists(st.sampled_from(EXAMPLE_ALPHAS), min_size=1, max_size=3, unique=True),
    "phi": st.lists(st.sampled_from(sorted(NODE_DISTRIBUTIONS)), min_size=1, max_size=3,
                    unique=True),
    "jobs": st.sampled_from([1, 2]),
    "seed": st.integers(0, 2**40),
}
STUDY_N = {
    "table1": st.lists(st.sampled_from(range(2, 17, 2)), min_size=1, max_size=3, unique=True),
    "table2": st.lists(_SMALL, min_size=1, max_size=3, unique=True),
}
HOSTILE = st.sampled_from([
    None, True, False, -1, -2.5, 0, 0.5, 1.5, math.inf, -math.inf, math.nan,
    "x", "", [1], ["x"], [None], {"N": 4}, {"a": 1}, [],
])
# a null study N is not given: it runs the default N up to 800
HOSTILE_STUDY_N = HOSTILE.filter(lambda value: value is not None)


def _flag_argv(flag: str, key: str, command: str, value) -> list[str]:
    """The flag of a value: one token per entry for the nargs lists, a comma
    list for a study's N."""
    if isinstance(value, list) and key in ("alpha", "phi"):
        return [flag, *map(str, value)]
    if isinstance(value, list) and key == "N" and command in STUDIES:
        return [f"{flag}={','.join(map(str, value))}"]
    return [f"{flag}={value}"]


def _invoke(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    return code, err.getvalue()


def _check(argv: list[str]) -> None:
    code, err = _invoke(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == EXIT_CONFIG:
        # the error line, after argparse's usage lines; a flag is named with
        # dashes, an entry of speeds as speed
        names = [*READERS, "speed", "cfl-factor"]
        pattern = r"(?<!\w)(" + "|".join(map(re.escape, names)) + r")(?![\w-])"
        assert re.search(pattern, err.splitlines()[-1]), (argv, err)


def _dump(config: dict) -> str:
    """Flow-style YAML: JSON, with YAML's spelling of infinity and NaN."""
    text = json.dumps(config)
    return text.replace("-Infinity", "-.inf").replace("Infinity", ".inf").replace("NaN", ".nan")


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("keys")


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_every_key_exits_0_2_or_3_and_a_config_error_names_a_key(config_dir, data):
    key = data.draw(st.sampled_from(sorted(READERS)), label="key")
    hostile = data.draw(st.booleans(), label="hostile")
    for command in READERS[key]:
        if hostile:
            study_n = key == "N" and command in STUDIES
            value = data.draw(HOSTILE_STUDY_N if study_n else HOSTILE, label=f"{command} value")
        else:
            value = data.draw(STUDY_N[command] if key == "N" and command in STUDIES
                              else VALID[key], label=f"{command} value")
        base = STABILITY_BASE.get(key, BASE[command]) if command == "stability" else BASE[command]
        if key in COMMAND_DEFAULTS.get(command, ()):
            config = config_dir / "config.yaml"
            config.write_text(_dump({**base, key: value}))
            _check([command, "--config", str(config)])
        if key in FLAGS[command] and value is not None:  # a flag left out is the base
            flag_argv = _flag_argv(FLAGS[command][key], key, command, value)
            if command == "selftest":
                _check([command, *flag_argv])
                continue
            config = config_dir / f"{command}-{key}.yaml"
            if not config.exists():
                config.write_text(_dump(base))
            _check([command, "--config", str(config), *flag_argv])
