"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

STENCIL_C = """
double A[200]; double B[200];
for (int i = 1; i < 199; i++)
  B[i-1] = A[i-1] + A[i];
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "stencil.c"
    path.write_text(STENCIL_C)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


def test_list_kernels(capsys):
    out = run(capsys, ["list-kernels"])
    assert "gemm" in out and "jacobi-2d" in out
    assert out.count("\n") == 30


def test_list_kernels_json(capsys):
    payload = json.loads(run(capsys, ["list-kernels", "--json"]))
    assert len(payload) == 30
    assert payload["gemm"]["params"] == ["NI", "NJ", "NK"]


def test_simulate_kernel_json(capsys):
    out = run(capsys, [
        "simulate", "--kernel", "mvt", "--size", '{"N": 24}',
        "--l1-size", "1024", "--l1-assoc", "4", "--block-size", "16",
        "--l1-policy", "lru", "--json",
    ])
    payload = json.loads(out)
    assert payload["accesses"] == 2 * 24 * 24 * 4
    assert payload["l1_misses"] > 0
    assert payload["l1_hits"] + payload["l1_misses"] == payload["accesses"]


def test_simulate_source_file(capsys, source_file):
    out = run(capsys, [
        "simulate", "--source", source_file,
        "--l1-size", "512", "--l1-assoc", "4", "--block-size", "16",
        "--l1-policy", "lru", "--json",
    ])
    payload = json.loads(out)
    assert payload["program"] == "stencil"
    assert payload["accesses"] == 198 * 3


def test_engines_agree(capsys, source_file):
    results = {}
    for engine in ("warping", "tree", "dinero"):
        out = run(capsys, [
            "simulate", "--source", source_file, "--engine", engine,
            "--l1-size", "512", "--l1-assoc", "4", "--block-size", "16",
            "--l1-policy", "lru", "--json",
        ])
        results[engine] = json.loads(out)["l1_misses"]
    assert len(set(results.values())) == 1


def test_simulate_two_levels(capsys):
    out = run(capsys, [
        "simulate", "--kernel", "gemm", "--size",
        '{"NI": 10, "NJ": 12, "NK": 14}',
        "--l1-size", "512", "--l1-assoc", "2",
        "--l2-size", "2048", "--l2-assoc", "4",
        "--l2-policy", "lru", "--block-size", "16",
        "--l1-policy", "lru", "--json",
    ])
    payload = json.loads(out)
    assert "l2_misses" in payload
    assert payload["l2_misses"] <= payload["l1_misses"]


def test_compare_lru_includes_polycache(capsys, source_file):
    out = run(capsys, [
        "compare", "--source", source_file,
        "--l1-size", "512", "--l1-assoc", "4", "--block-size", "16",
        "--l1-policy", "lru", "--json",
    ])
    payload = json.loads(out)
    misses = {name: entry["l1_misses"] for name, entry in payload.items()
              if name in ("warping", "tree", "dinero", "polycache")}
    assert len(set(misses.values())) == 1


def test_compare_non_lru_skips_polycache(capsys, source_file):
    out = run(capsys, [
        "compare", "--source", source_file,
        "--l1-size", "512", "--l1-assoc", "4", "--block-size", "16",
        "--l1-policy", "plru", "--json",
    ])
    payload = json.loads(out)
    assert "polycache" not in payload


def test_program_args_mutually_exclusive():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["simulate", "--kernel", "gemm",
                           "--source", "x.c"])


def test_no_warping_flag(capsys, source_file):
    out = run(capsys, [
        "simulate", "--source", source_file, "--no-warping",
        "--l1-size", "512", "--l1-assoc", "4", "--block-size", "16",
        "--json",
    ])
    payload = json.loads(out)
    assert "warps" not in payload


def test_list_kernels_json_sizes_footprints_and_counts(capsys):
    payload = json.loads(run(capsys, ["list-kernels", "--json"]))
    gemm = payload["gemm"]
    assert gemm["category"] == "linear-algebra/blas"
    assert gemm["is_stencil"] is False
    assert set(gemm["sizes"]) == {"MINI", "SMALL", "MEDIUM", "LARGE",
                                  "EXTRALARGE"}
    mini = gemm["sizes"]["MINI"]
    assert mini["params"] == {"NI": 20, "NJ": 25, "NK": 30}
    assert mini["footprint_bytes"] > 0
    # counts default to MINI only (counting enumerates the loop nest)
    assert mini["accesses"] == 20 * 25 * 2 + 20 * 30 * 25 * 4
    assert "accesses" not in gemm["sizes"]["LARGE"]
    assert payload["jacobi-2d"]["is_stencil"] is True


def test_list_kernels_json_counts_flag(capsys):
    payload = json.loads(run(capsys, [
        "list-kernels", "--json", "--counts", ""]))
    assert "accesses" not in payload["gemm"]["sizes"]["MINI"]
    with pytest.raises(SystemExit):
        main(["list-kernels", "--json", "--counts", "HUGE"])
    with pytest.raises(SystemExit):  # validated in text mode too
        main(["list-kernels", "--counts", "HUGE"])


def test_simulate_with_transform(capsys):
    args = ["--kernel", "mvt", "--size", '{"N": 16}',
            "--l1-size", "512", "--l1-assoc", "4", "--block-size", "16",
            "--l1-policy", "lru", "--json"]
    plain = json.loads(run(capsys, ["simulate"] + args))
    tiled = json.loads(run(capsys, [
        "simulate", "--transform", "tile(i,j:4x4)"] + args))
    assert tiled["accesses"] == plain["accesses"]
    assert tiled["transform"] == "tile(i,j:4x4)"
    assert "transform" not in plain


def test_simulate_transform_errors_exit_cleanly(capsys):
    for bad in ("tile(", "tile(i,j:4x4)"):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--kernel", "gemm", "--size", "MINI",
                  "--transform", bad, "--json"])
        assert "--transform" in str(err.value)


@pytest.mark.parametrize("command",
                         ["simulate", "compare", "profile", "transform"])
@pytest.mark.parametrize("program, flag", [
    (["--kernel", "nope"], "--kernel"),
    (["--kernel", "gemm", "--size", "HUGE"], "--size"),
    (["--kernel", "gemm", "--size", '{"N": 4}'], "--size"),
    (["--kernel", "gemm", "--size", '{"NI": '], "--size"),
    (["--kernel", "gemm", "--size", '{"NI": null, "NJ": 2, "NK": 2}'],
     "--size"),
    (["--source", "missing.c"], "--source"),
])
def test_program_errors_exit_cleanly(command, program, flag, tmp_path,
                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main([command] + program)
    assert str(err.value).startswith(f"{flag}: ")


def test_transform_subcommand_text(capsys):
    out = run(capsys, [
        "transform", "--kernel", "mvt", "--size", '{"N": 12}',
        "--transform", "tile(i,j:4x4)", "--counts"])
    assert "mvt  [tile(i,j:4x4)]" in out
    assert "for ii = 0 .. 11 step 4:" in out
    assert "read A[i][j]" in out
    assert "accesses: 1152" in out


def test_transform_subcommand_json(capsys):
    payload = json.loads(run(capsys, [
        "transform", "--kernel", "mvt", "--size", '{"N": 12}',
        "--transform", "tile(i,j:4x4); interchange(jj,i)", "--json",
        "--counts"]))
    assert payload["transform"] == "tile(i,j:4x4); interchange(jj,i)"
    assert payload["loops"] == 8  # two nests of ii, i, jj, j
    assert payload["access_nodes"] == 8
    assert payload["accesses"] == 12 * 12 * 4 * 2
    assert payload["accesses_by_array"]["A"] == 2 * 12 * 12
    assert "for" in payload["nest"]


def test_transform_subcommand_source_program(capsys, source_file):
    out = run(capsys, [
        "transform", "--source", source_file,
        "--transform", "strip_mine(i:64)"])
    assert "for ii = 1 .. 198 step 64:" in out


def test_sweep_transforms_dimension(tmp_path, capsys):
    store = str(tmp_path / "campaign.jsonl")
    base = ["sweep", "--kernels", "mvt", "--sizes", "MINI",
            "--l1-sizes", "512", "--l1-assocs", "4",
            "--l1-policies", "lru", "--block-sizes", "16",
            "--store", store, "--json"]
    first = json.loads(run(capsys, base))
    assert (first["total"], first["computed"]) == (1, 1)
    second = json.loads(run(capsys, base + [
        "--transform", "", "--transform", "tile(i,j:8x8)"]))
    assert second["total"] == 2
    assert second["loaded"] == 1   # untransformed point: same key
    assert second["computed"] == 1
    transforms = {r["point"].get("transform")
                  for r in second["records"]}
    assert transforms == {None, "tile(i,j:8x8)"}


def _fake_bench_payload(pr=8):
    """Schema-valid payload so bench CLI tests skip the real suite."""
    return {
        "schema": "repro-bench/1",
        "pr": pr,
        "created_utc": "2026-01-01T00:00:00Z",
        "suite": "quick",
        "workers": 2,
        "shards": 2,
        "machine": {"platform": "test-platform", "python": "3.11.0",
                    "cpu_count": 4},
        "scenarios": [
            {"kernel": "atax", "size": {"N": 100}, "engine": "tree",
             "mode": "sequential", "accesses": 1000, "l1_misses": 10,
             "wall_s": 1.0, "accesses_per_s": 1000.0},
            {"kernel": "atax", "size": {"N": 100}, "engine": "warping",
             "mode": "sequential", "accesses": 1000, "l1_misses": 10,
             "wall_s": 0.1, "accesses_per_s": 10000.0,
             "speedup_vs_sequential": 10.0},
        ],
        "summary": {
            "sharded_tree_speedup_min": 2.0,
            "sharded_tree_speedup_geomean": 2.0,
            "warping_speedup_geomean": 10.0,
            "memo": {"cold_s": 1.0, "warm_s": 0.5, "speedup": 2.0},
        },
    }


@pytest.fixture
def fake_bench(monkeypatch):
    import repro.perf.bench as bench_module

    monkeypatch.setattr(
        bench_module, "run_bench",
        lambda workers=4, shards=None, quick=False, repeat=1, pr=8:
        _fake_bench_payload(pr=pr))


def test_bench_compare_clean_rerun_passes(tmp_path, capsys, fake_bench,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "BENCH_PR7.json"
    baseline.write_text(json.dumps(_fake_bench_payload(pr=7)))
    out = run(capsys, ["bench", "--quick",
                       "--compare", str(baseline),
                       "--output", str(tmp_path / "BENCH_PR8.json")])
    assert "ok: no metric regressed" in out
    written = json.loads((tmp_path / "BENCH_PR8.json").read_text())
    assert written["compare"]["ok"] is True
    assert written["compare"]["baselines"][0]["pr"] == 7


def test_bench_compare_injected_slowdown_fails(tmp_path, capsys,
                                               fake_bench, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "BENCH_PR7.json"
    baseline.write_text(json.dumps(_fake_bench_payload(pr=7)))
    code = main(["bench", "--quick", "--compare", str(baseline),
                 "--inject-slowdown", "2.0",
                 "--output", str(tmp_path / "BENCH_PR8.json")])
    assert code == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "FAIL" in out
    # The written payload keeps the *measured* numbers (the injection
    # only skews the comparison) but records the failing verdict.
    written = json.loads((tmp_path / "BENCH_PR8.json").read_text())
    assert written["scenarios"][0]["wall_s"] == 1.0
    assert written["compare"]["ok"] is False


def test_bench_compare_multiple_baselines(tmp_path, capsys, fake_bench,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    from repro.perf.regress import inject_slowdown

    fast = tmp_path / "BENCH_PR6.json"
    fast.write_text(json.dumps(_fake_bench_payload(pr=6)))
    slow = tmp_path / "BENCH_PR7.json"
    slow.write_text(json.dumps(
        inject_slowdown(_fake_bench_payload(pr=7), 3.0)))
    out = run(capsys, ["bench", "--quick",
                       "--compare", f"{fast},{slow}",
                       "--output", str(tmp_path / "BENCH_PR8.json")])
    assert "PR 6" in out and "PR 7" in out


def test_bench_compare_flag_dependencies(tmp_path, fake_bench):
    with pytest.raises(SystemExit):
        main(["bench", "--quick", "--threshold", "2.0"])
    with pytest.raises(SystemExit):
        main(["bench", "--quick", "--inject-slowdown", "2.0"])
    with pytest.raises(SystemExit):
        main(["bench", "--quick", "--compare", "/no/such/file.json",
              "--output", str(tmp_path / "out.json")])
