"""The README's library quick start runs as printed, and the package exports
exactly its public names."""

import re
from pathlib import Path

import mpmath as mp

import cmdeg

README = Path(__file__).resolve().parent.parent / "README.md"

DELETED = (
    "remainder_value",
    "evaluate_form",
    "q_derivative",
    "asymptotic_partial_sum",
    "KernelCoefficient",
)


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    q1 = namespace["q_value"](1, namespace["policy"])
    assert mp.nstr(q1, 20) == "0.011600733514893103139"
    assert namespace["report"].verdict == "pass"
    bracket = namespace["bracket"]
    assert (bracket.lower, float(bracket.upper)) == (4, 5.0)
    assert bracket.upper_method == "scan_violation"
    assert bracket.contains(5) is False


def test_every_exported_name_resolves():
    for name in cmdeg.__all__:
        assert getattr(cmdeg, name) is not None, name
    assert len(set(cmdeg.__all__)) == len(cmdeg.__all__)


def test_deleted_wrappers_are_gone():
    for name in DELETED:
        assert name not in cmdeg.__all__
        assert not hasattr(cmdeg, name)
        assert not hasattr(cmdeg.remainders, name)
        assert not hasattr(cmdeg.kernel, name)
