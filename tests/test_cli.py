import copy
import json
import os
import stat
import sys

import numpy as np
import pytest

import fedsim as fs
import fedsim.cli as cli
from fedsim.cli import ComparisonSpec, cmd_compare, main
from fedsim.config import build_datasets, config_from_dict, load_config, run_experiment
from fedsim.blas import _openblas


def base_config(tmp_path, name="run"):
    return {
        "dataset": {
            "source": "synthetic",
            "seed": 5,
            "n_train": 160,
            "n_test": 80,
            "input_dim": 8,
            "num_classes": 4,
        },
        "model": {"hidden": [16]},
        "partition": {"kind": "iid"},
        "train": {
            "mode": "fedmmb",
            "K": 4,
            "B": 8,
            "C": 1,
            "eta": 0.05,
            "I_max": 20,
            "eval_every": 1,
            "seeds": {"init": 1, "shuffle": 2, "partition": 3},
        },
        "output": {"dir": str(tmp_path / "out"), "name": name},
    }


def write_config(tmp_path, document, filename="config.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(document))
    return str(path)


# --- run --------------------------------------------------------------------


def test_run_minimal_config_writes_rows(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["run", path]) == 0
    csv_path = tmp_path / "out" / "run.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == fs.CSV_HEADER
    assert len(lines) == 21  # header + one row per evaluated round


def test_run_twice_byte_identical(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["run", path]) == 0
    first = (tmp_path / "out" / "run.csv").read_bytes()
    assert main(["run", path]) == 0
    assert (tmp_path / "out" / "run.csv").read_bytes() == first


@pytest.mark.parametrize("linesep", ["native", "crlf"])
def test_run_writes_the_same_csv_and_sidecar_bytes_on_every_os(tmp_path, monkeypatch, linesep):
    if linesep == "crlf":
        # A text file opened with newline=None writes "\n" as os.linesep,
        # which is "\r\n" on Windows; this makes every such file do that here.
        real_fdopen = os.fdopen

        def crlf_fdopen(fd, mode="r", *args, newline=None, **kwargs):
            newline = "\r\n" if newline is None else newline
            return real_fdopen(fd, mode, *args, newline=newline, **kwargs)

        monkeypatch.setattr(os, "fdopen", crlf_fdopen)
    document = base_config(tmp_path)
    assert main(["run", write_config(tmp_path, document)]) == 0
    log = run_experiment(config_from_dict(copy.deepcopy(document)))
    csv_path = tmp_path / "out" / "run.csv"
    assert csv_path.read_bytes() == log.to_csv_string().encode()
    assert fs.MetricsLog.from_csv(str(csv_path)).rows == log.rows
    sidecar = (tmp_path / "out" / "run.json").read_bytes()
    text = json.dumps(json.loads(sidecar), indent=2, sort_keys=True) + "\n"
    assert sidecar == text.encode()


def test_output_dir_that_cannot_be_made_exits_2_before_training(tmp_path, capsys, monkeypatch):
    def no_training(config):
        raise AssertionError("trained before output.dir was made")

    monkeypatch.setattr(cli, "run_experiment", no_training)
    (tmp_path / "afile").write_text("")
    document = base_config(tmp_path)
    document["output"]["dir"] = str(tmp_path / "afile" / "sub")
    path = write_config(tmp_path, document)
    assert main(["run", path]) == 2
    assert "output.dir" in capsys.readouterr().err
    assert main(["sweep", path, "--set", "train.C=1,2"]) == 2
    assert "output.dir" in capsys.readouterr().err
    document["output"]["dir"] = str(tmp_path / "afile")  # the path is a regular file
    assert main(["run", write_config(tmp_path, document)]) == 2
    assert "output.dir" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, taken",
    [
        ("run", "run.csv"),
        ("run", "run.json"),
        ("sweep", "run-C2.csv"),
        ("sweep", "run-C2.json"),
        ("sweep", "run-sweep.csv"),
    ],
)
def test_output_file_that_is_a_directory_exits_2_before_training(
    tmp_path, capsys, monkeypatch, command, taken
):
    def no_training(config):
        raise AssertionError("trained although an output file path is a directory")

    monkeypatch.setattr(cli, "run_experiment", no_training)
    (tmp_path / "out" / taken).mkdir(parents=True)
    path = write_config(tmp_path, base_config(tmp_path))
    argv = ["run", path] if command == "run" else ["sweep", path, "--set", "train.C=1,2"]
    assert main(argv) == 2
    assert f"{tmp_path / 'out' / taken} is an existing directory" in capsys.readouterr().err


# 300 bytes is past NAME_MAX (255) for every name; 246 + "-sweep.csv" is
# 256 bytes, so only the sweep's index name is too long.
@pytest.mark.parametrize("command, length", [("run", 300), ("sweep", 246)])
def test_output_name_too_long_for_the_file_system_exits_2_before_training(
    tmp_path, capsys, monkeypatch, command, length
):
    def no_training(config):
        raise AssertionError("trained although an output file name is too long")

    monkeypatch.setattr(cli, "run_experiment", no_training)
    path = write_config(tmp_path, base_config(tmp_path, name="x" * length))
    argv = ["run", path] if command == "run" else ["sweep", path, "--set", "train.C=1,2"]
    assert main(argv) == 2
    assert "cannot be written: File name too long" in capsys.readouterr().err


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_run_writes_its_files_with_the_umask_applied(tmp_path, umask, mode):
    path = write_config(tmp_path, base_config(tmp_path))
    previous = os.umask(umask)
    try:
        assert main(["run", path]) == 0
    finally:
        os.umask(previous)
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["run.csv", "run.json"]
    for name in ("run.csv", "run.json"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == mode


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._atomic_write(str(tmp_path / "run.csv"), "text\n")
    assert os.listdir(tmp_path) == []


def test_run_rejects_conflicting_hyperparameters(tmp_path):
    document = base_config(tmp_path)
    document["train"]["E"] = 1  # C and E together: no valid mode
    path = write_config(tmp_path, document)
    assert main(["run", path]) == 2


def test_run_rejects_unknown_keys(tmp_path):
    document = base_config(tmp_path)
    document["train"]["bogus"] = 1
    assert main(["run", write_config(tmp_path, document)]) == 2
    document = base_config(tmp_path)
    document["extra_section"] = {}
    assert main(["run", write_config(tmp_path, document, "c2.json")]) == 2
    # Malformed values of known keys are config errors too, not crashes or
    # data/runtime errors raised later.
    malformed = [
        ("dataset", {"n_train": "abc"}),
        ("dataset", {"seed": 1.5}),
        ("dataset", {"n_train": -5}),
        ("dataset", {"input_dim": 0}),
        ("dataset", {"num_classes": 1}),
        ("partition", {"kind": "noniid_l", "L": "2"}),
        ("train", {"eta": float("nan")}),
        ("train", {"eta": float("inf")}),
        ("train", {"K": 0}),
        ("train", {"K": -1}),
    ]
    for section, values in malformed:
        document = base_config(tmp_path)
        document[section].update(values)
        # json.dumps writes NaN and Infinity, which json.load reads back.
        assert main(["run", write_config(tmp_path, document, "bad.json")]) == 2, values


def manual_partition_config(tmp_path, second_client: list) -> dict:
    document = base_config(tmp_path)
    document["train"]["K"] = 2
    document["partition"] = {
        "kind": "manual",
        "assignment": {"0": list(range(1, 80)), "1": second_client},
    }
    return document


@pytest.mark.parametrize(
    "bad_indices",
    [
        [0.5, *range(80, 160)],  # a float index would be truncated to sample 0
        [True, *range(80, 160)],  # a bool index would be taken as sample 1
        ["0", *range(80, 160)],
        [[0], *range(80, 160)],
        "0",
    ],
    ids=["float", "bool", "string", "nested-list", "not-a-list"],
)
def test_run_rejects_malformed_manual_assignment(tmp_path, bad_indices):
    document = manual_partition_config(tmp_path, bad_indices)
    assert main(["run", write_config(tmp_path, document)]) == 2
    assert not (tmp_path / "out" / "run.csv").exists()


def test_manual_assignment_with_integer_indices_runs(tmp_path):
    document = manual_partition_config(tmp_path, [0, *range(80, 160)])
    assert main(["run", write_config(tmp_path, document)]) == 0


def test_manual_assignment_with_a_sample_repeated_in_one_client_exits_3(tmp_path, capsys):
    # Every sample is covered, but client 1 lists sample 80 twice.
    document = manual_partition_config(tmp_path, [0, 80, *range(80, 160)])
    assert main(["run", write_config(tmp_path, document)]) == 3
    assert "client 1: sample 80 " in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.csv").exists()


@pytest.mark.parametrize(
    "keys", [("0", "2"), ("1", "2"), ("0", "1", "2")], ids=["gap", "from-1", "more-than-K"]
)
def test_manual_assignment_keys_other_than_0_to_k_minus_1_exit_2(tmp_path, capsys, keys):
    # Every sample is assigned once; only the client keys are wrong for K=2.
    document = manual_partition_config(tmp_path, [])
    n = len(keys)
    document["partition"]["assignment"] = {
        key: list(range(160 * j // n, 160 * (j + 1) // n)) for j, key in enumerate(keys)
    }
    assert main(["run", write_config(tmp_path, document)]) == 2
    assert "partition.assignment: client keys must be 0..1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_missing_data_file_exits_3_without_partial_csv(tmp_path):
    document = base_config(tmp_path)
    document["dataset"] = {
        "source": "csv",
        "train_path": str(tmp_path / "missing.csv"),
        "test_path": str(tmp_path / "missing_test.csv"),
        "num_classes": 4,
    }
    path = write_config(tmp_path, document)
    assert main(["run", path]) == 3
    out_dir = tmp_path / "out"
    assert not (out_dir / "run.csv").exists()
    leftovers = list(out_dir.glob("*")) if out_dir.exists() else []
    assert leftovers == []


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_run_non_finite_csv_feature_exits_3(tmp_path, capsys, cell):
    data = tmp_path / "points.csv"
    rows = ["0,1.0,0.0", "1,0.0,1.0"] * 20
    rows[2] = f"0,{cell},0.0"
    data.write_text("\n".join(rows) + "\n")
    document = base_config(tmp_path)
    document["dataset"] = {
        "source": "csv",
        "train_path": str(data),
        "num_classes": 2,
        "test_split": 0.25,
        "seed": 3,
    }
    document["train"]["K"] = 2
    assert main(["run", write_config(tmp_path, document)]) == 3
    assert "points.csv:3:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_run_diverged_training_exits_4(tmp_path):
    document = base_config(tmp_path)
    document["train"]["eta"] = 1e300
    document["train"]["I_max"] = 3
    document["model"]["hidden"] = [8, 8]
    path = write_config(tmp_path, document)
    assert main(["run", path]) == 4
    assert not (tmp_path / "out" / "run.csv").exists()


def test_csv_source_with_split(tmp_path):
    data = tmp_path / "points.csv"
    rows = ["0,1.0,0.0", "1,0.0,1.0"] * 20
    data.write_text("\n".join(rows) + "\n")
    document = base_config(tmp_path)
    document["dataset"] = {
        "source": "csv",
        "train_path": str(data),
        "num_classes": 2,
        "test_split": 0.25,
        "seed": 3,
    }
    document["train"]["K"] = 2
    path = write_config(tmp_path, document)
    assert main(["run", path]) == 0


def test_csv_source_with_test_path_runs_as_the_api_on_load_csv(tmp_path):
    train, test = fs.synthetic_split(4, 40, 20, 3, 2)
    paths = {}
    for name, ds in (("train", train), ("test", test)):
        paths[name] = tmp_path / f"{name}.csv"
        lines = [f"{y}," + ",".join(map(repr, x)) for x, y in zip(ds.features.tolist(), ds.labels)]
        paths[name].write_text("label,a,b,c\n" + "\n".join(lines) + "\n")
    document = base_config(tmp_path)
    document["dataset"] = {
        "source": "csv",
        "train_path": str(paths["train"]),
        "test_path": str(paths["test"]),
        "num_classes": 2,
        "header": True,
    }
    document["train"]["K"] = 2
    assert main(["run", write_config(tmp_path, document)]) == 0

    train = fs.load_csv(str(paths["train"]), 2, header=True)
    test = fs.load_csv(str(paths["test"]), 2, header=True)
    config = fs.TrainingConfig(
        mode="fedmmb", learning_rate=0.05, max_rounds=20, batch_size=8,
        seeds=fs.Seeds(1, 2, 3), eval_every=1, clients=2, batch_count=1,
    )
    clients = fs.partition_iid(train, 2, 3)
    log = fs.run_fedmmb(config, fs.NetworkSpec(3, (16,), 2), clients, test)
    assert (tmp_path / "out" / "run.csv").read_bytes() == log.to_csv_string().encode()


def test_idx_source_config(tmp_path):
    from fedsim.claims import make_image_blobs
    from helpers import write_idx_pair

    train_images, train_labels = make_image_blobs(1, 40, side=4, num_classes=4)
    test_images, test_labels = make_image_blobs(2, 16, side=4, num_classes=4)
    ti, tl = write_idx_pair(str(tmp_path), train_images, train_labels, "train")
    vi, vl = write_idx_pair(str(tmp_path), test_images, test_labels, "test")
    document = base_config(tmp_path)
    document["dataset"] = {
        "source": "idx",
        "train_images": ti,
        "train_labels": tl,
        "test_images": vi,
        "test_labels": vl,
    }
    path = write_config(tmp_path, document)
    assert main(["run", path]) == 0


def idx_dataset(tmp_path, train_labels, test_labels) -> dict:
    """An IDX dataset section over two tiny pairs with these labels and no num_classes."""
    from helpers import write_idx_pair

    paths = {}
    for stem, labels in (("train", train_labels), ("test", test_labels)):
        labels = np.array(labels)
        images = np.arange(16 * labels.size).reshape(labels.size, 4, 4) % 256
        paths[stem] = write_idx_pair(str(tmp_path), images, labels, stem)
    return {"source": "idx", "train_images": paths["train"][0], "train_labels": paths["train"][1],
            "test_images": paths["test"][0], "test_labels": paths["test"][1]}


def test_idx_class_count_is_inferred_from_both_label_files(tmp_path):
    # The test file holds label 2, which the train file lacks: the network
    # gets three outputs, and the run evaluates every test label.
    document = base_config(tmp_path)
    document["dataset"] = idx_dataset(tmp_path, [0, 1] * 20, [0, 1, 2, 2])
    train, test = build_datasets(config_from_dict(copy.deepcopy(document)))
    assert train.num_classes == test.num_classes == 3
    assert main(["run", write_config(tmp_path, document)]) == 0


def test_idx_label_files_with_one_class_exit_3(tmp_path, capsys):
    document = base_config(tmp_path)
    document["dataset"] = idx_dataset(tmp_path, [0] * 40, [0] * 8)
    assert main(["run", write_config(tmp_path, document)]) == 3
    assert "data error: the IDX label files hold 1 class" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.csv").exists()


# id -> (the config key set to a path holding a NUL byte, the exit code)
NUL_PATHS = {
    "output_dir": ("output.dir", 2),
    "csv_train_path": ("dataset.train_path", 3),
    "csv_test_path": ("dataset.test_path", 3),
    "idx_train_images": ("dataset.train_images", 3),
    "idx_test_labels": ("dataset.test_labels", 3),
}


@pytest.mark.parametrize("case", NUL_PATHS)
def test_a_nul_byte_in_a_path_is_a_config_or_data_error(tmp_path, capsys, case):
    key, code = NUL_PATHS[case]
    document = base_config(tmp_path)
    if key in ("dataset.train_path", "dataset.test_path"):
        data = tmp_path / "points.csv"
        data.write_text("0,1.0,0.0\n1,0.0,1.0\n" * 20)
        document["dataset"] = {"source": "csv", "train_path": str(data),
                               "test_path": str(data), "num_classes": 2}
    elif key.startswith("dataset."):
        document["dataset"] = idx_dataset(tmp_path, [0, 1] * 20, [0, 1] * 4)
    section, leaf = key.split(".")
    document[section][leaf] = str(tmp_path / "x\0y")
    path = write_config(tmp_path, document)
    assert main(["run", path]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "data error: ")
    assert "null byte" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "run.csv").exists()
    if code == 2:
        assert main(["sweep", path, "--set", "train.C=1,2"]) == 2
        assert "output.dir" in capsys.readouterr().err


def test_sidecar_alone_reproduces_run(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["run", path]) == 0
    csv_first = (tmp_path / "out" / "run.csv").read_bytes()
    sidecar = json.loads((tmp_path / "out" / "run.json").read_text())
    assert sidecar["stream_version"] == 2
    assert b"stream_version" not in csv_first
    document = sidecar["config"]
    document["output"]["dir"] = str(tmp_path / "replay")
    replay_path = write_config(tmp_path, document, "replay.json")
    assert main(["run", replay_path]) == 0
    assert (tmp_path / "replay" / "run.csv").read_bytes() == csv_first


def test_sidecar_stamps_the_environment_and_leaves_the_csv_alone(tmp_path, monkeypatch):
    blas_vars = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
    for name in blas_vars:
        monkeypatch.delenv(name, raising=False)
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["run", path]) == 0
    unset_csv = (tmp_path / "out" / "run.csv").read_bytes()
    environment = json.loads((tmp_path / "out" / "run.json").read_text())["environment"]
    assert set(environment) == {"python", "numpy", "blas", "blas_core", "blas_threads", *blas_vars}
    assert environment["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert environment["numpy"] == np.__version__
    assert environment["blas"] is None or set(environment["blas"]) == {"name", "version"}
    assert all(environment[name] is None for name in blas_vars)
    api = _openblas()
    assert (environment["blas_core"], environment["blas_threads"]) == (
        (None, None) if api is None else (api.get_corename().decode(), 1)
    )

    # Set after numpy loaded, the variables change the stamp but not the BLAS.
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert main(["run", path]) == 0
    environment = json.loads((tmp_path / "out" / "run.json").read_text())["environment"]
    assert environment["OPENBLAS_CORETYPE"] == "Haswell"
    assert environment["OPENBLAS_NUM_THREADS"] == "1"
    assert environment["MKL_NUM_THREADS"] is None and environment["OMP_NUM_THREADS"] is None
    csv = (tmp_path / "out" / "run.csv").read_bytes()
    assert csv == unset_csv
    assert csv.decode() == run_experiment(load_config(path)).to_csv_string()


@pytest.mark.skipif(_openblas() is None, reason="needs the OpenBLAS runtime API")
def test_sidecar_records_the_one_blas_thread_the_run_trained_at(tmp_path):
    # Every run trains at one thread; the sidecar says so, not the caller's
    # count that is restored after the run.
    path = write_config(tmp_path, base_config(tmp_path))
    api = _openblas()
    caller = api.get_num_threads()
    api.set_num_threads(2)
    try:
        assert main(["run", path]) == 0
        assert api.get_num_threads() == 2
    finally:
        api.set_num_threads(caller)
    environment = json.loads((tmp_path / "out" / "run.json").read_text())["environment"]
    assert environment["blas_threads"] == 1


def test_sidecar_records_null_blas_kernel_and_threads_where_the_api_is_not_found(
    tmp_path, monkeypatch
):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["run", path]) == 0
    csv = (tmp_path / "out" / "run.csv").read_bytes()
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    assert main(["run", path]) == 0
    environment = json.loads((tmp_path / "out" / "run.json").read_text())["environment"]
    assert environment["blas_core"] is None and environment["blas_threads"] is None
    assert (tmp_path / "out" / "run.csv").read_bytes() == csv


def test_output_name_cannot_leave_output_dir(tmp_path):
    document = base_config(tmp_path)
    document["output"]["name"] = "../escaped"
    assert main(["run", write_config(tmp_path, document)]) == 2
    # One bad sweep value stops the sweep before its first run.
    path = write_config(tmp_path, base_config(tmp_path), "sweep.json")
    assert main(["sweep", path, "--set", "output.name=ok,x/../../../sweep_escaped"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "sweep.json"]
    assert not list(tmp_path.parent.glob("*escaped*"))


def test_env_seed_overrides_all_seeds(tmp_path, monkeypatch):
    doc_a = base_config(tmp_path, name="a")
    doc_b = base_config(tmp_path, name="b")
    doc_b["train"]["seeds"] = {"init": 9, "shuffle": 8, "partition": 7}
    doc_b["dataset"]["seed"] = 99
    monkeypatch.setenv("FEDSIM_SEED", "777")
    assert main(["run", write_config(tmp_path, doc_a, "a.json")]) == 0
    assert main(["run", write_config(tmp_path, doc_b, "b.json")]) == 0
    csv_a = (tmp_path / "out" / "a.csv").read_bytes()
    csv_b = (tmp_path / "out" / "b.csv").read_bytes()
    assert csv_a == csv_b
    sidecar = json.loads((tmp_path / "out" / "a.json").read_text())
    assert sidecar["config"]["train"]["seeds"] == {"init": 777, "shuffle": 777, "partition": 777}
    assert sidecar["config"]["dataset"]["seed"] == 777


def test_env_seed_rejects_non_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDSIM_SEED", "not-a-number")
    assert main(["run", write_config(tmp_path, base_config(tmp_path))]) == 2


def test_centralized_config_rejects_partition_section(tmp_path):
    document = base_config(tmp_path)
    document["train"] = {
        "mode": "centralized",
        "B": 16,
        "eta": 0.05,
        "I_max": 10,
        "seeds": {"init": 1, "shuffle": 2, "partition": 3},
    }
    assert main(["run", write_config(tmp_path, document)]) == 2
    del document["partition"]
    assert main(["run", write_config(tmp_path, document, "ok.json")]) == 0


# --- compare ----------------------------------------------------------------


def run_and_get_csv(tmp_path, name, **train_overrides):
    document = base_config(tmp_path, name=name)
    document["train"].update(train_overrides)
    path = write_config(tmp_path, document, f"{name}.json")
    assert main(["run", path]) == 0
    return str(tmp_path / "out" / f"{name}.csv")


def test_compare_log_with_itself(tmp_path, capsys):
    csv_path = run_and_get_csv(tmp_path, "self")
    capsys.readouterr()  # drain the run output
    assert main(["compare", csv_path, csv_path, "--target-acc", "0.99"]) == 0
    out = capsys.readouterr().out
    assert "delta = 0" in out
    assert "concordant" in out
    assert out.count("never") in (0, 2)  # both never, or both reached


def test_compare_json_output(tmp_path, capsys):
    csv_path = run_and_get_csv(tmp_path, "jsonout")
    capsys.readouterr()
    assert main(["compare", csv_path, csv_path, "--json", "--target-acc", "0.999"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == 0.0
    assert payload["concordant"] is True
    assert payload["log_a"]["rounds_to_target"] == "never"
    assert payload["log_b"]["rounds_to_target"] == "never"
    assert payload["log_a"]["max_accuracy"] == payload["log_b"]["max_accuracy"]


def test_compare_target_above_maxima_prints_never(tmp_path, capsys):
    csv_path = run_and_get_csv(tmp_path, "plateau")
    capsys.readouterr()
    spec = ComparisonSpec(csv_path, csv_path, epsilon=0.01, target_accuracy=0.999)
    assert cmd_compare(spec) == 0
    out = capsys.readouterr().out
    assert out.count(": never") == 2


def test_compare_higher_batch_count_reaches_target_sooner(tmp_path, capsys):
    # Frozen crossing rounds on the iid synthetic setup: the batch-count-5
    # run reaches the shared target in fewer rounds than batch count 1.
    a = run_and_get_csv(tmp_path, "count1", I_max=60, C=1)
    b = run_and_get_csv(tmp_path, "count5", I_max=60, C=5)
    capsys.readouterr()
    assert main(["compare", a, b, "--json", "--target-acc", "0.6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    first = payload["log_a"]["rounds_to_target"]
    second = payload["log_b"]["rounds_to_target"]
    assert first != "never" and second != "never"
    assert second < first


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_compare_rejects_epsilon_that_is_not_finite_and_positive(tmp_path, capsys, epsilon):
    csv_path = run_and_get_csv(tmp_path, "eps")
    capsys.readouterr()
    assert main(["compare", csv_path, csv_path, "--json", f"--epsilon={epsilon}"]) == 2
    assert capsys.readouterr().out == ""


def test_compare_mismatched_rounds_exits_3(tmp_path):
    a = run_and_get_csv(tmp_path, "ten", I_max=10)
    b = run_and_get_csv(tmp_path, "twenty", I_max=20)
    assert main(["compare", a, b]) == 3


def test_compare_unreadable_file_exits_3(tmp_path):
    a = run_and_get_csv(tmp_path, "readable")
    assert main(["compare", a, str(tmp_path / "nope.csv")]) == 3


def test_compare_metrics_csv_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "bytes.csv"
    path.write_bytes(fs.CSV_HEADER.encode() + b"\n\xff\n")
    assert main(["compare", str(path), str(path)]) == 3
    assert "cannot read metrics CSV" in capsys.readouterr().err


GOOD_ROW = {"round": "1", "test_loss": "0.5", "test_accuracy": "0.75", "train_loss": "",
            "cum_local_updates": "4", "cum_bytes": "1024"}


@pytest.mark.parametrize(
    "column, cell",
    [
        ("test_loss", "nan"),
        ("test_loss", "inf"),
        ("test_loss", "-inf"),
        ("test_loss", "1e999"),  # a decimal literal, which parses as inf
        ("test_accuracy", "inf"),
        ("test_accuracy", "nan"),
        ("test_accuracy", "1.5"),
        ("test_accuracy", "-0.25"),
        ("train_loss", "nan"),
        ("train_loss", "-inf"),
        ("cum_local_updates", "-4"),
        ("cum_bytes", "-1"),
        ("round", "-1"),
        ("round", "1_0"),
        ("cum_bytes", " 1024"),
    ],
)
def test_compare_rejects_corrupt_metrics_cells(tmp_path, capsys, column, cell):
    # fedsim never writes these cells (evaluate raises first), so a CSV that
    # holds one is corrupt: compare exits 3 and prints no result.
    def write(name, row):
        path = tmp_path / name
        path.write_text(fs.CSV_HEADER + "\n" + ",".join(row.values()) + "\n")
        return str(path)

    good = write("good.csv", GOOD_ROW)
    bad = write("bad.csv", {**GOOD_ROW, column: cell})
    assert main(["compare", good, good, "--json"]) == 0
    capsys.readouterr()
    assert main(["compare", bad, bad, "--json"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "rows", [["2,0.5,0.5,,4,0", "1,0.5,0.5,,8,0"], ["1,0.5,0.5,,4"]],
    ids=["falling_rounds", "five_cells"],
)
def test_compare_rejects_metrics_rows_no_run_writes(tmp_path, capsys, rows):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([fs.CSV_HEADER, *rows]) + "\n")
    assert main(["compare", str(path), str(path), "--json"]) == 3
    assert capsys.readouterr().out == ""


def test_compare_reads_crlf_metrics_csvs(tmp_path, capsys):
    # A git autocrlf checkout ends every line of a committed CSV in CRLF.
    path = tmp_path / "crlf.csv"
    row = ",".join(GOOD_ROW.values())
    path.write_bytes(f"{fs.CSV_HEADER}\r\n{row}\r\n".encode())
    assert main(["compare", str(path), str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rounds_compared"] == 1


# --- sweep ------------------------------------------------------------------


def test_sweep_batch_count(tmp_path):
    document = base_config(tmp_path, name="sweepme")
    document["train"]["I_max"] = 10
    path = write_config(tmp_path, document)
    assert main(["sweep", path, "--set", "train.C=1,2,4", "--target-acc", "0.5"]) == 0
    out = tmp_path / "out"
    for value in (1, 2, 4):
        assert (out / f"sweepme-C{value}.csv").exists()
        assert (out / f"sweepme-C{value}.json").exists()
    index = (out / "sweepme-sweep.csv").read_text().splitlines()
    assert index[0] == "value,max_accuracy,rounds_to_target"
    assert len(index) == 4
    assert index[1].startswith("1,")


def test_sweep_learning_rate_shares_seeds(tmp_path):
    document = base_config(tmp_path, name="etasweep")
    document["train"]["I_max"] = 5
    path = write_config(tmp_path, document)
    assert main(["sweep", path, "--set", "train.eta=0.01,0.05"]) == 0
    a = json.loads((tmp_path / "out" / "etasweep-eta0.01.json").read_text())
    b = json.loads((tmp_path / "out" / "etasweep-eta0.05.json").read_text())
    assert a["config"]["train"]["seeds"] == b["config"]["train"]["seeds"]
    assert a["config"]["train"]["eta"] == 0.01
    assert b["config"]["train"]["eta"] == 0.05


def test_sweep_unknown_key_exits_2(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["sweep", path, "--set", "train.nope=1,2"]) == 2


def test_sweep_malformed_expression_exits_2(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["sweep", path, "--set", "train.C"]) == 2


@pytest.mark.parametrize("target", ["5", "nan", "-1", "0"])
def test_sweep_rejects_target_accuracy_outside_unit_interval(tmp_path, capsys, target):
    path = write_config(tmp_path, base_config(tmp_path))
    assert main(["sweep", path, "--set", "train.C=1,2", f"--target-acc={target}"]) == 2
    assert "target accuracy" in capsys.readouterr().err
    assert list(tmp_path.glob("out/**/*")) == []


def csv_dataset(**keys) -> dict:
    return {"dataset": {"source": "csv", "train_path": "train.csv", "num_classes": 4, **keys}}


def manual_partition(assignment) -> dict:
    return {"partition": {"kind": "manual", "assignment": assignment}}


# id -> (an edit of the base config, its raw text, or None for no file;
#        the message printed). ``run`` and ``sweep`` both refuse these.
CONFIG_REFUSALS = {
    "missing_top_level_key": (lambda d: d.pop("train"), "config: missing keys ['train']"),
    "non_number": (lambda d: d["train"].update(eta="fast"),
                   "train.eta: expected a number, got 'fast'"),
    "unreadable_file": (None, "cannot read config"),
    "not_an_object": ("[1, 2]", "config document must be a JSON object"),
    "train_not_an_object": (lambda d: d.update(train=[]), "train: expected an object"),
    "seeds_not_an_object": (lambda d: d["train"].update(seeds=7),
                            "train.seeds: expected an object"),
    "model_not_an_object": (lambda d: d.update(model="mlp"), "model: expected an object"),
    "output_not_an_object": (lambda d: d.update(output="out"), "output: expected an object"),
    "csv_with_test_path_and_split": (
        lambda d: d.update(csv_dataset(test_path="test.csv", test_split=0.2, seed=1)),
        "dataset: csv needs exactly one of test_path or test_split",
    ),
    "csv_with_neither_test_source": (
        lambda d: d.update(csv_dataset()),
        "dataset: csv needs exactly one of test_path or test_split",
    ),
    "test_split_without_seed": (
        lambda d: d.update(csv_dataset(test_split=0.2)),
        "dataset: csv with test_split needs a seed for the shuffle",
    ),
    "header_not_a_boolean": (
        lambda d: d.update(csv_dataset(test_path="test.csv", header="yes")),
        "dataset.header: expected true or false, got 'yes'",
    ),
    "test_split_outside_unit_interval": (
        lambda d: d.update(csv_dataset(test_split=1.5, seed=1)),
        "dataset.test_split: expected a number in (0, 1), got 1.5",
    ),
    "federated_without_partition": (lambda d: d.pop("partition"),
                                    "partition: required for federated runs"),
    "assignment_not_an_object": (lambda d: d.update(manual_partition([[0, 1]])),
                                 "partition.assignment: expected an object"),
    "client_keys_not_integers": (lambda d: d.update(manual_partition({"a": [0], "b": [1]})),
                                 "partition.assignment: bad client map"),
    "unknown_source": (lambda d: d["dataset"].update(source="hdf5"),
                       "dataset.source must be synthetic, csv, or idx, got 'hdf5'"),
    "unknown_partition_kind": (lambda d: d["partition"].update(kind="dirichlet"),
                               "partition.kind must be iid, noniid_l, or manual, got 'dirichlet'"),
    "hidden_not_positive_integers": (lambda d: d["model"].update(hidden=[16, 0]),
                                     "model.hidden: expected a list of positive integers"),
    "name_not_a_string": (lambda d: d["output"].update(name=7),
                          "output.name: expected a string, got 7"),
    "name_with_a_nul": (lambda d: d["output"].update(name="a\0"),
                        "output.name: expected a plain file name, got 'a\\x00'"),
}

# id -> (the --set expression ``sweep`` refuses, the message printed)
SET_REFUSALS = {
    "empty_key_component": ("train..C=1,2", "--set: empty key component in 'train..C'"),
    "empty_value": ("train.C=1,,2", "--set: empty value in '1,,2'"),
    "no_value": ("train.C=", "--set: empty value in ''"),
    "unknown_key": ("trian.C=1,2", "--set: unknown config key 'trian.C'"),
}


@pytest.mark.parametrize(
    "verb, case",
    [(verb, case) for case in CONFIG_REFUSALS for verb in ("run", "sweep")]
    + [("sweep", case) for case in SET_REFUSALS],
)
def test_config_and_set_refusals_exit_2_with_their_message(tmp_path, capsys, verb, case):
    path = str(tmp_path / "config.json")
    if case in SET_REFUSALS:
        set_expr, message = SET_REFUSALS[case]
        write_config(tmp_path, base_config(tmp_path))
    else:
        set_expr = "train.eta=0.05,0.1"
        edit, message = CONFIG_REFUSALS[case]
        if isinstance(edit, str):
            (tmp_path / "config.json").write_text(edit)
        elif edit is not None:
            document = base_config(tmp_path)
            edit(document)
            write_config(tmp_path, document)
    argv = ["run", path] if verb == "run" else ["sweep", path, "--set", set_expr]
    assert main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- config-level API -------------------------------------------------------


def test_config_roundtrip_matches_direct_run(tmp_path):
    document = base_config(tmp_path)
    config = config_from_dict(copy.deepcopy(document))
    log = run_experiment(config)
    assert len(log.rows) == 20
    parsed = fs.MetricsLog.from_csv_string(log.to_csv_string())
    assert parsed.rows == log.rows


def test_manual_partition_via_config(tmp_path):
    document = base_config(tmp_path)
    document["train"]["K"] = 2
    document["partition"] = {
        "kind": "manual",
        "assignment": {"0": list(range(80)), "1": list(range(80, 160))},
    }
    config = config_from_dict(document)
    log = run_experiment(config)
    assert len(log.rows) == 20


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(fs.ConfigError):
        load_config(str(path))


def test_comparison_spec_validation():
    with pytest.raises(fs.ConfigError):
        ComparisonSpec("a", "b", epsilon=0.0)
    with pytest.raises(fs.ConfigError):
        ComparisonSpec("a", "b", epsilon=0.01, target_accuracy=1.5)


def test_sweep_over_absolute_output_dirs_names_plain_files(tmp_path, capsys):
    document = base_config(tmp_path, name="dirs")
    document["train"]["I_max"] = 2
    path = write_config(tmp_path, document)
    dirs = [tmp_path / "a", tmp_path / "nested" / "b"]
    assert main(["sweep", path, "--set", "output.dir=" + ",".join(map(str, dirs))]) == 0
    for directory in dirs:
        [csv] = directory.glob("*.csv")
        assert csv.name == "dirs-dir" + str(directory).replace(os.sep, "_") + ".csv"
        assert csv.with_suffix(".json").exists()
    assert "config error" not in capsys.readouterr().err


def test_sweep_values_that_share_an_output_path_exit_2_before_any_run(tmp_path, capsys):
    # 0.1 and 0.10 parse to one float, so both runs would write etas-eta0.1.csv.
    path = write_config(tmp_path, base_config(tmp_path, name="etas"))
    assert main(["sweep", path, "--set", "train.eta=0.05,0.1,0.10"]) == 2
    err = capsys.readouterr().err
    assert "values 2 and 3 of train.eta" in err and "etas-eta0.1.csv" in err
    assert not (tmp_path / "out").exists()


def test_sweep_over_output_name_names_each_run_by_its_value(tmp_path, capsys):
    document = base_config(tmp_path, name="r")
    document["train"]["I_max"] = 2
    path = write_config(tmp_path, document)
    assert main(["sweep", path, "--set", "output.name=alpha,beta"]) == 0
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == [
        "alpha.csv", "alpha.json", "beta.csv", "beta.json", "r-sweep.csv"
    ]
    assert main(["sweep", path, "--set", "output.name=a,a"]) == 2
    assert "values 1 and 2 of output.name" in capsys.readouterr().err
    assert main(["sweep", path, "--set", "output.name=r-sweep"]) == 2  # the index's own path
    assert not (out / "a.csv").exists()
    assert sorted(os.listdir(out)) == [
        "alpha.csv", "alpha.json", "beta.csv", "beta.json", "r-sweep.csv"
    ]


def test_sweep_keeps_the_text_of_values_for_string_keys(tmp_path, capsys):
    # output.name is a string in the config, so 1 and 2 stay names; train.eta
    # is a number, so its values are still decoded; text for a number exits 2.
    document = base_config(tmp_path, name="r")
    document["train"]["I_max"] = 2
    path = write_config(tmp_path, document)
    assert main(["sweep", path, "--set", "output.name=1,2"]) == 0
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["1.csv", "1.json", "2.csv", "2.json", "r-sweep.csv"]
    assert json.loads((out / "1.json").read_text())["config"]["output"]["name"] == "1"
    assert main(["sweep", path, "--set", "train.eta=0.1,0.2"]) == 0
    for eta in (0.1, 0.2):
        assert json.loads((out / f"r-eta{eta}.json").read_text())["config"]["train"]["eta"] == eta
    capsys.readouterr()
    assert main(["sweep", path, "--set", "train.C=two"]) == 2
    assert "train.C" in capsys.readouterr().err
    assert not list(out.glob("r-C*"))


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("key", ["init", "shuffle", "partition", "dataset"])
def test_run_rejects_seeds_outside_64_bits(tmp_path, capsys, key, seed):
    # Seeds enter the streams modulo 2**64: -1 would repeat 2**64 - 1's run.
    document = base_config(tmp_path)
    if key == "dataset":
        document["dataset"]["seed"] = seed
    else:
        document["train"]["seeds"][key] = seed
    assert main(["run", write_config(tmp_path, document)]) == 2
    name = "dataset.seed" if key == "dataset" else f"train.seeds.{key}"
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_env_seed_rejects_seeds_outside_64_bits(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.setenv("FEDSIM_SEED", seed)
    assert main(["run", write_config(tmp_path, base_config(tmp_path))]) == 2
    assert "FEDSIM_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_64_bits_run(tmp_path, monkeypatch, seed):
    document = base_config(tmp_path)
    document["train"]["I_max"] = 2
    document["train"]["seeds"] = {"init": seed, "shuffle": seed, "partition": seed}
    document["dataset"]["seed"] = seed
    assert main(["run", write_config(tmp_path, document)]) == 0
    monkeypatch.setenv("FEDSIM_SEED", str(seed))
    assert main(["run", write_config(tmp_path, base_config(tmp_path, name="env"))]) == 0
    sidecar = json.loads((tmp_path / "out" / "env.json").read_text())
    assert sidecar["config"]["train"]["seeds"]["init"] == seed
