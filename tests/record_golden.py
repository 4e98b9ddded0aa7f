"""Print the golden digests of ``tests/test_kernel_golden.py`` and
``tests/test_match_golden.py`` as the current code computes them, in each
file's ``GOLDEN`` layout; ``--write`` replaces the ``GOLDEN`` block of
both files in place.

    PYTHONPATH=src python -m tests.record_golden [--write]

Re-record only for a change that alters trained models or matches on
purpose, and say which digests moved and why.
"""
from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

from tests import test_kernel_golden, test_match_golden

#: (test module, corpus -> its cases, digest function of (messages, case))
GOLDEN_FILES = [
    (test_kernel_golden, test_kernel_golden.CORPORA, test_kernel_golden.model_digest),
    (
        test_match_golden,
        {name: tuple(test_match_golden.CASES) for name in test_match_golden.CORPORA},
        test_match_golden.match_digest,
    ),
]


def render(golden: dict) -> str:
    """``GOLDEN = {...}`` source: a tuple value spans one line per item."""
    lines = ["GOLDEN = {"]
    for name, cases in golden.items():
        lines.append(f"    {json.dumps(name)}: {{")
        for case, want in cases.items():
            if isinstance(want, tuple):
                lines.append(f"        {json.dumps(case)}: (")
                lines += [f"            {json.dumps(v)}," for v in want]
                lines.append("        ),")
            else:
                lines.append(f"        {json.dumps(case)}: {json.dumps(want)},")
        lines.append("    },")
    return "\n".join(lines + ["}"]) + "\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="rewrite the GOLDEN blocks in place")
    args = ap.parse_args()
    for module, corpora, digest in GOLDEN_FILES:
        golden = {}
        for name, cases in corpora.items():
            msgs = test_kernel_golden.corpus_messages(name)
            golden[name] = {case: digest(msgs, case) for case in cases}
        block = render(golden)
        path = Path(module.__file__)
        print(f"# {path.name}\n{block}")
        if args.write:
            src = path.read_text()
            new = re.sub(r"^GOLDEN = \{.*?^\}\n", lambda _: block, src, count=1, flags=re.S | re.M)
            path.write_text(new)


if __name__ == "__main__":
    main()
