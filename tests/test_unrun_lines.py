import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "unrun_lines.py"
spec = importlib.util.spec_from_file_location("unrun_lines", SCRIPT)
unrun_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun_lines)

SOURCE = '''"""Module docstring."""
import os


@decorated
def f(x):
    """Docstring."""
    y: int
    total = 0

    def inner():
        nonlocal total
        global os
        total += 1

    if (
        x > 0
        and x < 9
    ):
        return [
            x,
        ]
    elif x:
        pass
    return None


class C:
    field: int
    "an attribute docstring"


if __name__ == "__main__":
    f(1)
'''


def spans(source):
    return {start: (span.start, span.stop - 1) for start, span in unrun_lines.statements(source)}


def test_statement_spans():
    assert spans(SOURCE) == {
        2: (2, 2),  # import os
        5: (5, 6),  # the decorator and the def line
        9: (9, 9),  # total = 0
        11: (11, 11),  # def inner(): its body starts at the nonlocal
        14: (14, 14),  # total += 1
        16: (16, 19),  # the multi-line if condition, up to its body
        20: (20, 22),  # the multi-line return
        23: (23, 23),  # elif x:
        24: (24, 24),  # pass
        25: (25, 25),  # return None
        28: (28, 28),  # class C:
        29: (29, 29),  # an annotation in a class body runs
    }


def test_statement_counts_as_run_from_any_line_of_its_span():
    src = "if (\n    a\n    and b\n):\n    c = 1\n"
    (start, span), (body, body_span) = unrun_lines.statements(src)
    assert start == 1 and not {3}.isdisjoint(span)  # traced at an inner line
    assert body == 5 and {1, 2, 3, 4}.isdisjoint(body_span)


def test_unrun_reads_the_package():
    # with nothing traced, every statement of every module is listed
    missing = unrun_lines.unrun({})
    assert {path.name for path, _, _ in missing} >= {"graphs.py", "torus.py"}
    assert all(text for _, _, text in missing)
