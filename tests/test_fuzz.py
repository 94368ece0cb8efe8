"""Malformed configs, CSV files and IDX files end in a documented exit code.

``fedsim run`` exits 0 on success, 2 on a config error, 3 on a data error
and 4 on a runtime contract violation. An exception that escapes ``main``
(exit 1 from the console script) is a crash, and these tests fail on it.
Every generated input is small, so a run that passes validation finishes
in milliseconds.
"""

import copy
import json
import os
import struct
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.cli import main

DOCUMENTED_EXITS = (0, 2, 3, 4)
DELETE = object()


def base_document(out_dir: str) -> dict:
    return {
        "dataset": {
            "source": "synthetic", "seed": 5, "n_train": 40, "n_test": 20,
            "input_dim": 4, "num_classes": 2,
        },
        "model": {"hidden": [3]},
        "partition": {"kind": "iid"},
        "train": {
            "mode": "fedmmb", "K": 2, "B": 5, "C": 1, "eta": 0.05, "I_max": 3,
            "eval_every": 1, "seeds": {"init": 1, "shuffle": 2, "partition": 3},
        },
        "output": {"dir": out_dir, "name": "run"},
    }


def key_paths(document: dict, prefix: tuple = ()) -> list[tuple]:
    """Every key path of the document, except ``output.dir``, which stays in a temp dir."""
    paths = []
    for key, value in document.items():
        path = prefix + (key,)
        if path != ("output", "dir"):
            paths.append(path)
        if isinstance(value, dict):
            paths.extend(key_paths(value, path))
    return paths


PATHS = key_paths(base_document("out"))
# Small integers keep any run that passes validation small.
VALUES = st.one_of(
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["synthetic", "csv", "idx", "iid", "noniid_l", "manual",
                     "fedmmb", "fedavg", "centralized"]),
    st.lists(st.integers(-2, 9), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-1, 3), max_size=2),
    st.just(DELETE),
)
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(PATHS), st.booleans(), VALUES), min_size=1, max_size=3
)


def mutate(document: dict, mutations) -> dict:
    """Apply (path, add_sibling, value) edits; a missing parent skips the edit."""
    document = copy.deepcopy(document)
    for path, add_sibling, value in mutations:
        parent = document
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        key = path[-1] + "_extra" if add_sibling else path[-1]
        if value is DELETE:
            parent.pop(key, None)
        else:
            parent[key] = value
    return document


def run_cli(directory: str, document) -> int:
    path = os.path.join(directory, "config.json")
    with open(path, "w") as f:
        json.dump(document, f)  # NaN and Infinity are written, and read back
    return main(["run", path])


@settings(max_examples=80, deadline=None)
@given(MUTATIONS)
def test_fuzzed_config_exits_with_a_documented_code(mutations):
    with tempfile.TemporaryDirectory() as directory:
        document = mutate(base_document(os.path.join(directory, "out")), mutations)
        assert run_cli(directory, document) in DOCUMENTED_EXITS


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=16))
@example(b"\xff")  # not UTF-8: once a crash
@example(b"[" * 100_000)  # nested past the recursion limit: once a crash
def test_config_file_of_raw_bytes_exits_2(content):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "config.json")
        with open(path, "wb") as f:
            f.write(content)
        assert main(["run", path]) == 2


CSV_CELLS = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "0.5", "1e400", "nan", "-inf", "", " ", "x", "1,0"]),
    st.integers(-2, 3).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
CSV_ROWS = st.lists(st.lists(CSV_CELLS, max_size=4), max_size=12)


@settings(max_examples=60, deadline=None)
@given(rows=CSV_ROWS, junk=st.binary(max_size=8), header=st.booleans())
@example(rows=[["0", "1.0"]] * 8, junk=b"\xff", header=False)  # not UTF-8: once a crash
def test_fuzzed_csv_exits_with_a_documented_code(rows, junk, header):
    with tempfile.TemporaryDirectory() as directory:
        data = os.path.join(directory, "points.csv")
        with open(data, "wb") as f:
            f.write("\n".join(",".join(r) for r in rows).encode() + b"\n" + junk)
        document = base_document(os.path.join(directory, "out"))
        document["dataset"] = {
            "source": "csv", "train_path": data, "num_classes": 2, "test_split": 0.25,
            "seed": 3, "header": header,
        }
        assert run_cli(directory, document) in DOCUMENTED_EXITS


IDX_FIELDS = st.one_of(st.integers(-2, 6), st.sampled_from([0x803, 0x801, 2**31 - 1]))


@settings(max_examples=60, deadline=None)
@given(
    image_header=st.tuples(IDX_FIELDS, IDX_FIELDS, IDX_FIELDS, IDX_FIELDS),
    label_header=st.tuples(IDX_FIELDS, IDX_FIELDS),
    pixels=st.binary(max_size=64),
    labels=st.binary(max_size=8),
    cut=st.integers(0, 20),
    num_classes=st.one_of(st.none(), st.integers(-1, 4)),
)
def test_fuzzed_idx_exits_with_a_documented_code(
    image_header, label_header, pixels, labels, cut, num_classes
):
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for stem in ("train", "test"):
            paths[f"{stem}_images"] = os.path.join(directory, f"{stem}-images")
            paths[f"{stem}_labels"] = os.path.join(directory, f"{stem}-labels")
            with open(paths[f"{stem}_images"], "wb") as f:
                f.write((struct.pack(">iiii", *image_header) + pixels)[cut:])
            with open(paths[f"{stem}_labels"], "wb") as f:
                f.write(struct.pack(">ii", *label_header) + labels)
        document = base_document(os.path.join(directory, "out"))
        document["dataset"] = {"source": "idx", **paths}
        if num_classes is not None:
            document["dataset"]["num_classes"] = num_classes
        assert run_cli(directory, document) in DOCUMENTED_EXITS
