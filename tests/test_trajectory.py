"""``benchmarks/trajectory.py``: what it records, what it refuses, and that the
append-only file is never rewritten."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
COMMITTED = REPO / "benchmarks" / "baselines" / "HISTORY.jsonl"

_spec = importlib.util.spec_from_file_location(
    "trajectory", REPO / "benchmarks" / "trajectory.py"
)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

with open(REPO / "BENCHMARK.json", encoding="utf-8") as _handle:
    _BENCHMARK = json.load(_handle)
METRICS = [metric["name"] for metric in _BENCHMARK["end_to_end"]]
WORKLOADS = [workload["name"] for workload in _BENCHMARK["workloads"]]
SHA = "ab" * 20


def _document(tmp_path, name="runs.json", seeds=(7, 8, 9), sha=SHA, **changes):
    """A ``run.py --repeats 3 --out`` document; ``changes`` override the
    provenance (``git_dirty``), the document (``tiny``) or the last run."""
    runs = [
        {
            "workload": workload, "seed": seed, "seconds": 15.0, "trace": 0, "ops": None,
            "correct": True, "attempted": 100, "failed": 0, "detail": {}, "exact": {},
            "metrics": {metric: 10.0 * (w + 1) + seed for metric in METRICS},
        }
        for seed in seeds
        for w, workload in enumerate(WORKLOADS)
    ]  # fmt: skip
    document = {
        "schema": "soup-e2e/v1",
        "provenance": {"git_sha": sha, "git_dirty": False, "python": "3", "nproc": 2},
        "tiny": False,
        "runs": runs,
    }
    for key, value in changes.items():
        if key in document["provenance"]:
            document["provenance"][key] = value
        elif key in document:
            document[key] = value
        else:
            runs[-1][key] = value
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


@pytest.fixture
def history(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    path.write_text("")
    return path


def test_one_row_per_workload_with_every_end_to_end_metric(tmp_path, history):
    rows = trajectory.append(history, [_document(tmp_path)], "PR n")
    assert [row["workload"] for row in rows] == WORKLOADS
    written = [json.loads(line) for line in history.read_text().splitlines()]
    assert written == rows
    for w, row in enumerate(rows):
        assert row["schema"] == trajectory.SCHEMA
        assert (row["label"], row["git_sha"], row["git_dirty"]) == ("PR n", SHA, False)
        assert (row["seeds"], row["seconds"]) == ([7, 8, 9], 15.0)
        assert list(row["metrics"]) == METRICS
        median = 10.0 * (w + 1) + 8
        assert all(q == [median - 1, median, median + 1] for q in row["metrics"].values())


def test_documents_of_one_commit_pool_their_runs(tmp_path, history):
    documents = [
        _document(tmp_path, "a.json", seeds=(1,)),
        _document(tmp_path, "b.json", seeds=(3,)),
    ]
    rows = trajectory.append(history, documents, "PR n")
    assert len(rows) == len(WORKLOADS) and rows[0]["seeds"] == [1, 3]
    other = _document(tmp_path, "c.json", seeds=(5,), sha="cd" * 20)
    with pytest.raises(ValueError, match="2 commits"):
        trajectory.append(history, [documents[0], other], "PR n")


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"git_dirty": True}, "git_dirty is true"),
        ({"git_dirty": None}, "git_dirty is null"),
        ({"tiny": True}, "--tiny"),
        ({"trace": 1}, "traced run"),
        ({"correct": False}, "not correct"),
        ({"seconds": 5.0}, "different lengths"),
    ],
)
def test_refusals_name_the_reason_and_write_nothing(tmp_path, history, change, reason):
    history.write_text(COMMITTED.read_text())
    before = history.read_bytes()
    with pytest.raises(ValueError, match=reason):
        trajectory.append(history, [_document(tmp_path, **change)], "PR n")
    assert history.read_bytes() == before


def test_same_commit_workload_and_seeds_twice_is_refused(tmp_path, history):
    trajectory.append(history, [_document(tmp_path)], "PR n")
    before = history.read_bytes()
    with pytest.raises(ValueError, match="already recorded"):
        trajectory.append(history, [_document(tmp_path)], "PR n again")
    assert history.read_bytes() == before
    # Other seeds of the same commit are new information.
    trajectory.append(history, [_document(tmp_path, seeds=(10, 11))], "PR n")
    assert len(history.read_text().splitlines()) == 2 * len(WORKLOADS)


def test_retired_rows_are_counted_and_never_rewritten(tmp_path, history):
    retired = COMMITTED.read_text().splitlines(keepends=True)[:2]
    assert all('"soup-bench-history/v1"' in line for line in retired)
    history.write_text("".join(retired))
    trajectory.append(history, [_document(tmp_path)], "PR n")
    before = history.read_bytes()
    assert before.startswith("".join(retired).encode())
    text = "\n".join(trajectory.render(history))
    assert "2 rows of retired schema" in text
    for workload in WORKLOADS:
        assert workload in text
    assert "PR n" in text and SHA[:7] in text and "7-9 (3)" in text
    assert history.read_bytes() == before


def test_transcribed_rows_render_null_quartiles_and_missing_metrics(history):
    row = {
        "schema": trajectory.SCHEMA, "label": "PR m", "git_sha": SHA, "workload": "live_read",
        "seeds": [], "source": "docs", "metrics": dict.fromkeys(METRICS),
    }  # fmt: skip
    row["metrics"][METRICS[0]] = [None, 1.5, None]
    history.write_text(json.dumps(row) + "\n")
    text = "\n".join(trajectory.render(history))
    assert "PR m*" in text and " ? " in text and " 1.5 " in text and " - " in text
    assert "0 rows of retired schema" in text
    # Only prose may have left the seeds out.
    del row["source"]
    history.write_text(json.dumps(row) + "\n")
    with pytest.raises(ValueError, match="HISTORY.jsonl:1: .*no seeds"):
        trajectory.render(history)


@pytest.mark.parametrize(
    "bad",
    [
        "{not json",
        '"a string"',
        '{"schema": "soup-e2e-history/v9"}',
        '{"schema": "soup-e2e-history/v1", "label": "x"}',
    ],
    ids=["not-json", "not-an-object", "unknown-schema", "missing-keys"],
)
def test_malformed_line_is_an_error_naming_path_and_lineno(tmp_path, history, bad):
    trajectory.append(history, [_document(tmp_path)], "PR n")
    with history.open("a") as sink:
        sink.write(bad + "\n")
    with pytest.raises(ValueError, match=rf"HISTORY\.jsonl:{len(WORKLOADS) + 1}: "):
        trajectory.render(history)
    with pytest.raises(ValueError, match=rf"HISTORY\.jsonl:{len(WORKLOADS) + 1}: "):
        trajectory.append(history, [_document(tmp_path, seeds=(20,))], "PR n")


def test_the_committed_trajectory_renders(capsys):
    assert trajectory.main([]) == 0
    out = capsys.readouterr().out
    assert "2 rows of retired schema" in out
    for workload in WORKLOADS:
        assert workload in out


def _scaled(path, factors):
    """Rewrite a document so each run's metrics are multiplied by
    ``factors[seed]`` (a ratio per pair that the test knows)."""
    document = json.loads(Path(path).read_text())
    for run in document["runs"]:
        run["metrics"] = {k: v * factors[run["seed"]] for k, v in run["metrics"].items()}
    Path(path).write_text(json.dumps(document))
    return path


PARENT = "cd" * 20


def test_parent_documents_add_parent_quartiles_and_the_paired_median_ratio(tmp_path, history):
    history.write_text(COMMITTED.read_text())
    before = history.read_bytes()
    change = _scaled(_document(tmp_path, "change.json"), {7: 1.10, 8: 1.20, 9: 0.95})
    parent = _document(tmp_path, "parent.json", sha=PARENT)
    rows = trajectory.append(history, [change], "PR n", [parent])
    after = history.read_bytes()
    assert after.startswith(before)  # old rows byte-identical
    written = [json.loads(line) for line in after[len(before):].decode().splitlines()]
    assert written == rows and [row["workload"] for row in rows] == WORKLOADS
    for w, row in enumerate(rows):
        assert row["schema"] == trajectory.PAIRED_SCHEMA == "soup-e2e-history/v2"
        assert row["parent"]["git_sha"] == PARENT
        median = 10.0 * (w + 1) + 8
        assert row["parent"]["metrics"] == {m: [median - 1, median, median + 1] for m in METRICS}
        # The median of the per-seed ratios, not the ratio of the medians.
        assert row["paired_ratio"] == {m: pytest.approx(1.10) for m in METRICS}
    assert trajectory.load_history(history)[0][-len(WORKLOADS):] == rows


@pytest.mark.parametrize(
    "parent_kwargs, reason",
    [
        ({"seeds": (7, 8)}, "do not pair one to one"),
        ({"seeds": (7, 8, 10)}, "do not pair one to one"),
        ({"sha": SHA}, "change's own commit"),
        ({"git_dirty": True}, "git_dirty is true"),
        ({"seconds": 5.0}, "different lengths"),
    ],
)
def test_parent_documents_that_do_not_pair_are_refused(tmp_path, history, parent_kwargs, reason):
    before = history.read_bytes()
    parent_kwargs = {"sha": PARENT, **parent_kwargs}
    parent = _document(tmp_path, "parent.json", **parent_kwargs)
    with pytest.raises(ValueError, match=reason):
        trajectory.append(history, [_document(tmp_path)], "PR n", [parent])
    assert history.read_bytes() == before


def test_the_table_chains_the_paired_ratios_per_workload(tmp_path, history):
    one = _scaled(_document(tmp_path, "one.json", sha="01" * 20), dict.fromkeys((7, 8, 9), 1.25))
    trajectory.append(history, [one], "PR a", [_document(tmp_path, "p1.json", sha=PARENT)])
    # A v1 row between two v2 rows neither breaks nor joins the chain.
    trajectory.append(history, [_document(tmp_path, "plain.json", sha="02" * 20)], "PR b")
    two = _scaled(_document(tmp_path, "two.json", sha="03" * 20), dict.fromkeys((7, 8, 9), 0.8))
    parent_two = _document(tmp_path, "p2.json", sha="04" * 20)
    _scaled(parent_two, {7: 1.0, 8: 0.0, 9: 1.0})  # a zero parent value has no ratio
    trajectory.append(history, [two], "PR c", [parent_two])

    rows = [row for row in trajectory.load_history(history)[0] if row["workload"] == "live_write"]
    paired = [row for row in rows if row["schema"] == trajectory.PAIRED_SCHEMA]
    assert [row["label"] for row in paired] == ["PR a", "PR c"]
    index = trajectory.chained_index(paired, METRICS)
    assert index[0] == {m: pytest.approx(1.25) for m in METRICS}
    assert index[1] == {m: pytest.approx(1.0) for m in METRICS}  # 1.25 * median(0.8, 0.8)

    text = "\n".join(trajectory.render(history))
    block = text.split("live_write\n", 1)[1].split("\n\n", 1)[0]
    assert "chained index (paired ratio)" in block
    assert "PR a" in block and "1.2500 (1.2500)" in block
    assert "PR c" in block and "1.0000 (0.8000)" in block
    assert "PR b" not in block.split("chained index", 1)[1]

    missing = dict(paired[0], paired_ratio=dict.fromkeys(METRICS))
    assert trajectory.chained_index([missing, paired[1]], METRICS)[1] == dict.fromkeys(METRICS)


def test_transcribed_paired_rows_chain_in_pr_order(tmp_path, history):
    late = _scaled(_document(tmp_path, "late.json", sha="05" * 20), dict.fromkeys((7, 8, 9), 1.25))
    trajectory.append(history, [late], "PR 9", [_document(tmp_path, "p.json", sha=PARENT)])
    # Backfilled after PR 9's row: a PR 3 transcribed from prose.
    early = {
        "schema": trajectory.PAIRED_SCHEMA, "label": "PR 3", "git_sha": "06" * 20,
        "git_dirty": False, "workload": "live_write", "seeds": [1, 2], "seconds": 15,
        "metrics": {m: [None, 5.0, None] for m in METRICS},
        "parent": {"git_sha": "07" * 20, "metrics": {m: [None, 10.0, None] for m in METRICS}},
        "paired_ratio": dict.fromkeys(METRICS, 0.5), "source": "a table",
    }  # fmt: skip
    with history.open("a") as sink:
        sink.write(json.dumps(early) + "\n")

    text = "\n".join(trajectory.render(history))
    block = text.split("live_write\n", 1)[1].split("\n\n", 1)[0]
    chain = block.split("chained index", 1)[1].splitlines()
    assert chain[2].split()[:2] == ["PR", "3*"] and "0.5000 (0.5000)" in chain[2]
    assert chain[3].split()[:2] == ["PR", "9"] and "0.6250 (1.2500)" in chain[3]


def test_cli_parent_flag_writes_v2_rows(tmp_path, history, monkeypatch, capsys):
    monkeypatch.setattr(trajectory, "HISTORY", history)
    change = _document(tmp_path, "change.json")
    parent = _document(tmp_path, "parent.json", sha=PARENT)
    assert trajectory.main(["--label", "PR n", change, "--parent", parent]) == 0
    assert capsys.readouterr().out.count("appended PR n") == len(WORKLOADS)
    rows = trajectory.load_history(history)[0]
    assert {row["schema"] for row in rows} == {trajectory.PAIRED_SCHEMA}
    with pytest.raises(SystemExit):
        trajectory.main(["--parent", parent])
    assert "--parent needs" in capsys.readouterr().err


def _table_labels(text, workload):
    """The labels of a workload's main table, as printed (chain excluded)."""
    block = text.split(f"{workload}\n", 1)[1].split("\n\n", 1)[0]
    rows = block.split("chained index", 1)[0].splitlines()[1:]
    return [line.split("  ")[1] for line in rows if line.strip()]


def test_a_label_prints_once_per_workload_and_its_paired_row_wins(tmp_path, history):
    trajectory.append(history, [_document(tmp_path, "native.json", sha="08" * 20)], "PR 5")
    paired = _document(tmp_path, "paired.json", sha="09" * 20, seeds=(1, 2, 3))
    parent = _document(tmp_path, "p.json", sha=PARENT, seeds=(1, 2, 3))
    trajectory.append(history, [paired], "PR 5", [parent])
    trajectory.append(history, [_document(tmp_path, "only.json", sha="0a" * 20)], "PR 6")
    text = "\n".join(trajectory.render(history))
    for workload in WORKLOADS:
        assert _table_labels(text, workload) == ["PR 5", "PR 6"]
        table = text.split(f"{workload}\n", 1)[1].split("chained index", 1)[0]
        assert "0909090" in table and "0808080" not in table and "0a0a0a0" in table

    committed = "\n".join(trajectory.render(COMMITTED))
    for workload in WORKLOADS:
        labels = _table_labels(committed, workload)
        assert labels and len(labels) == len(set(labels)), workload
