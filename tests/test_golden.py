"""Every case of the committed corpus (``tests/golden/corpus.py``) gives the
recorded exit code, stdout and stderr.

The comparison is exact: the same exit code and the same bytes on both
streams. Output that changes on purpose is written again with the corpus
script, and the change names the files that moved. A failure lists each
cell that differs, with its distance in units in the last place where both
cells are numbers.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corred
from golden import corpus

CODES = json.loads((corpus.HERE / "codes.json").read_text())
CELL = re.compile(r"[^\s,\[\]{}:]+")


def ulps(a: float, b: float) -> int:
    """The number of doubles from a to b (0 for -0.0 and 0.0)."""
    def ordered(x: float) -> int:
        i = int(np.float64(x).view(np.int64))
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(ordered(a) - ordered(b))


def differences(got: str, want: str) -> list[str]:
    """Each differing cell of two texts, line by line, with its ulp distance
    where both cells read as floats; a line whose cells do not pair up is
    named whole."""
    lines = []
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        lines.append(f"{len(got_lines)} lines, want {len(want_lines)}")
    for number, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g == w:
            continue
        got_cells, want_cells = CELL.findall(g), CELL.findall(w)
        cells = [(a, b) for a, b in zip(got_cells, want_cells) if a != b]
        if len(got_cells) != len(want_cells) or not cells:
            lines.append(f"line {number}: {g!r} != {w!r}")
            continue
        for a, b in cells:
            try:
                distance = f"{ulps(float(a), float(b))} ulp"
            except ValueError:
                distance = "not numbers"
            lines.append(f"line {number}: {a} != {b} ({distance})")
    return lines


@pytest.mark.parametrize("name", corpus.CASES)
def test_the_corpus_case_gives_its_recorded_output(tmp_path, name):
    code, out, err = corpus.record(name, tmp_path)
    failures = [f"exit code {code}, want {CODES[name]}"] if code != CODES[name] else []
    for stream, got in (("out", out), ("err", err)):
        want = (corpus.HERE / f"{name}.{stream}").read_text()
        if got != want:
            failures += [f"{name}.{stream}: {line}" for line in differences(got, want)]
    assert not failures, "\n".join(failures)


#: The cases whose recorded bytes depend on OpenBLAS's kernel: each gives
#: other last bits under OpenBLAS's Haswell kernel than the recorded ones,
#: which the recording machine's kernel gave. A case leaves this list once
#: it gives the same bytes under both; none joins it. Every contraction is
#: an einsum, so only LAPACK's ``eigvalsh`` (``validate-custom``'s
#: ``min_eigenvalue``) is left.
KERNEL_DEPENDENT = ["validate-custom"]

# The core that numpy's bundled OpenBLAS runs (``corpus.openblas_config``,
# which CI prints too) and, on Haswell, the corpus cases whose output
# differs from the recorded files.
HASWELL_RUN = """
import json, tempfile
from pathlib import Path
from golden import corpus
config = "\\n".join(corpus.openblas_config())
differ = []
if "Haswell" in config:
    codes = json.loads((corpus.HERE / "codes.json").read_text())
    for name in corpus.CASES:
        with tempfile.TemporaryDirectory() as tmp:
            got = corpus.record(name, Path(tmp))
        want = [(corpus.HERE / f"{name}.{stream}").read_text() for stream in ("out", "err")]
        if list(got) != [codes[name], *want]:
            differ.append(name)
print(json.dumps([config, differ]))
"""


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    # numpy's own SIMD dispatch as on an x86-64 CPU with AVX2 and no AVX-512.
    {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
], ids=["haswell", "avx2-host"])
def test_only_the_kernel_dependent_cases_differ_under_haswell(env):
    paths = [str(Path(corred.__file__).resolve().parents[1]), str(corpus.HERE.parent)]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", HASWELL_RUN], capture_output=True, text=True,
                          check=True, env=env, timeout=60)
    config, differ = json.loads(proc.stdout)
    if "Haswell" not in config:
        pytest.skip(f"numpy's OpenBLAS does not run its Haswell kernel here: {config!r}")
    # Every case outside the list gives its bytes, and every case on it
    # still differs, so the list shrinks as soon as a case stops differing.
    assert sorted(differ) == sorted(KERNEL_DEPENDENT)


def test_the_corpus_records_every_case():
    assert list(CODES) == list(corpus.CASES)


def test_every_recorded_file_belongs_to_a_case():
    assert corpus.orphans() == []


def test_orphans_are_the_files_of_no_case(tmp_path, monkeypatch):
    for name in ("run-epr-neumann-csv.out", "run-epr-neumann-csv.err", "gone.out", "gone.err",
                 "notes.txt"):
        (tmp_path / name).write_text("")
    monkeypatch.setattr(corpus, "HERE", tmp_path)
    assert corpus.orphans() == [tmp_path / "gone.err", tmp_path / "gone.out"]


@pytest.mark.parametrize("a,b,distance", [
    (1.0, 1.0, 0), (0.0, -0.0, 0), (1.0, float(np.nextafter(1.0, 2.0)), 1),
    (-5e-324, 5e-324, 2), (2.0, 4.0, 2**52),
])
def test_ulps(a, b, distance):
    assert ulps(a, b) == distance
    assert ulps(b, a) == distance


def test_differences_name_each_cell():
    got = "t,pop\n0.5,1\n[\"x\", 2]\nerror: a b\n1,2\n"
    want = "t,pop\n0.5000000000000001,1\n[\"y\", 2]\nerror: a\n1, 2\nextra\n"
    assert differences(got, want) == [
        "5 lines, want 6",
        "line 2: 0.5 != 0.5000000000000001 (1 ulp)",
        'line 3: "x" != "y" (not numbers)',
        "line 4: 'error: a b' != 'error: a'",
        "line 5: '1,2' != '1, 2'",
    ]
