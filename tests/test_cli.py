import json

import numpy as np
import numpy.testing as npt
import pytest
from conftest import principal_angles

from covmin import KernelSpec, fit_dcm, load_csv, load_model
from covmin.cli import build_parser, main
from covmin.kernels import center_gram, gram

COLS = ",".join(f"x{j}" for j in range(10))


def _synth(tmp_path, name="data.csv", seed="7", extra=()):
    path = str(tmp_path / name)
    rc = main(["synth", "--output", path, "--seed", seed, "--mean-count", "15",
               "--domains", "5", *extra])
    assert rc == 0
    return path


def test_synth_writes_csv_and_sidecar(tmp_path, capsys):
    path = _synth(tmp_path, extra=("--eta", "0.5"))
    sidecar = json.loads(open(path + ".json").read())
    assert sidecar["eta"] == 0.5
    assert sidecar["T"] == 5
    data = load_csv(path, [f"x{j}" for j in range(10)], "y", "d")
    assert len(data) == sidecar["rows"]
    assert "wrote" in capsys.readouterr().out


def test_synth_deterministic_bytes(tmp_path):
    a = _synth(tmp_path, "a.csv")
    b = _synth(tmp_path, "b.csv")
    assert open(a, "rb").read() == open(b, "rb").read()


def test_fit_matches_library(tmp_path, capsys):
    path = _synth(tmp_path)
    model_path = str(tmp_path / "m.bin")
    rc = main(["fit", "--input", path, "--output", model_path,
               "--algorithm", "dcm", "--gamma", "0.5", "--m", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eigenvalues" in out

    cli_model = load_model(model_path)
    data = load_csv(path, [f"x{j}" for j in range(10)], "y", "d")
    lib_model = fit_dcm(data, KernelSpec("rbf", 0.5), 1e-3, 3)
    npt.assert_allclose(cli_model.coefficients, lib_model.coefficients, atol=1e-10)
    npt.assert_allclose(cli_model.eigenvalues, lib_model.eigenvalues, atol=1e-10)


def test_fit_then_transform_round_trip(tmp_path):
    path = _synth(tmp_path)
    model_path = str(tmp_path / "m.bin")
    proj_path = str(tmp_path / "p.csv")
    assert main(["fit", "--input", path, "--output", model_path,
                 "--algorithm", "fastdcm", "--gamma", "0.5", "--m", "2",
                 "--M", "20", "--seed", "3"]) == 0
    assert main(["transform", "--input", path, "--model", model_path,
                 "--output", proj_path]) == 0

    from covmin import transform

    data = load_csv(path, [f"x{j}" for j in range(10)], "y", "d")
    expected = transform(load_model(model_path), data.X)
    got = load_csv(proj_path, ["z0", "z1"], "y", "d")
    npt.assert_allclose(got.X.T, expected, atol=1e-10)
    npt.assert_array_equal(got.y, data.y)


def test_fit_rejects_m_exceeding_M(tmp_path, capsys):
    path = _synth(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", path, "--output", str(tmp_path / "m.bin"),
              "--algorithm", "fastdcm", "--M", "5", "--m", "6", "--gamma", "0.5"])
    assert exc.value.code == 2
    assert "must not exceed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--compare", "dcm,fastdcm", "--reps", "1"],
    ["bench", "--compare", "fastcoir", "--sizes", "100"],
])
def test_compare_rejects_m_exceeding_M(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--M", "5", "--m", "6"])
    assert exc.value.code == 2
    assert "must not exceed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["eval", "--compare", "dcm,foo", "--reps", "1"], "--compare: unknown algorithm 'foo'"),
    (["bench", "--compare", "baseline", "--sizes", "100"],
     "--compare: unknown algorithm 'baseline'"),
])
def test_compare_rejects_unknown_algorithms(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fit_rejects_baseline_and_missing_gamma(tmp_path, capsys):
    path = _synth(tmp_path)
    rc = main(["fit", "--input", path, "--output", str(tmp_path / "m.bin"),
               "--algorithm", "baseline", "--gamma", "0.5"])
    assert rc == 1
    assert "error: CovminError" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", path, "--output", str(tmp_path / "m.bin"),
              "--algorithm", "dcm"])
    assert exc.value.code == 2
    assert "required: --gamma" in capsys.readouterr().err


# an explicit zero output width is rejected too, not replaced by the
# median heuristic
@pytest.mark.parametrize("argv, message", [
    (["fit", "--m", "0"], "--m: expected a positive int, got '0'"),
    (["fit", "--m", "-1"], "--m: expected a positive int, got '-1'"),
    (["fit", "--m", "two"], "--m: expected a positive int, got 'two'"),
    (["fit", "--M", "0"], "--M: expected a positive int"),
    (["fit", "--epsilon", "0"], "--epsilon: expected a positive float"),
    (["fit", "--gamma", "0"], "--gamma: expected a positive float"),
    (["fit", "--gamma", "nan"], "--gamma: expected a positive float, got 'nan'"),
    (["fit", "--gamma-y", "0", "--label-kind", "continuous"],
     "--gamma-y: expected a positive float"),
    (["eval", "--lam", "0"], "--lam: expected a positive float"),
    (["eval", "--reps", "0"], "--reps: expected a positive int"),
    (["bench", "--sizes", "abc"], "--sizes: expected a positive int, got 'abc'"),
    (["bench", "--sizes", "100,0"], "--sizes: expected a positive int, got '0'"),
    (["synth", "--domains", "0"], "--domains: expected a positive int"),
    (["synth", "--dim", "0"], "--dim: expected a positive int"),
    (["synth", "--mean-count", "0"], "--mean-count: expected a positive int"),
    (["synth", "--eta", "0"], "--eta: expected a positive float, got '0'"),
    (["eval", "--eta", "-1"], "--eta: expected a positive float, got '-1'"),
])
def test_out_of_range_arguments_are_usage_errors(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", "x.csv", "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


CSV_OPTIONS = {"--input", "--feature-cols", "--label-col", "--domain-col"}
FIT_OPTIONS = {"--epsilon", "--gamma", "--gamma-y", "--m", "--M", "--seed"}


def test_each_subcommand_declares_only_the_options_it_reads():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    declared = {name: {a.option_strings[0] for a in p._actions if a.dest != "help"}
                for name, p in subcommands.items()}
    assert declared == {
        "synth": {"--output", "--seed", "--eta", "--domains", "--dim", "--mean-count"},
        "fit": CSV_OPTIONS | FIT_OPTIONS | {"--label-kind", "--output", "--algorithm"},
        "transform": CSV_OPTIONS | {"--output", "--model"},
        "eval": CSV_OPTIONS | FIT_OPTIONS | {"--label-kind", "--output", "--eta", "--reps",
                                             "--lam", "--compare", "--model",
                                             "--train-domains"},
        "bench": FIT_OPTIONS | {"--label-kind", "--output", "--eta", "--sizes", "--compare"},
    }
    assert sum(map(len, declared.values())) == 54


# an option the subcommand does not read, or a prefix of one it does
@pytest.mark.parametrize("argv", [
    ["synth", "--output", "out.csv", "--gamma", "0.5"],
    ["synth", "--output", "out.csv", "--algorithm", "fastdcm", "--m", "60"],
    ["fit", "--input", "d.csv", "--output", "m.bin", "--gamma", "0.5", "--reps", "2"],
    ["transform", "--input", "d.csv", "--output", "p.csv", "--model", "m.bin", "--m", "3"],
    ["eval", "--algorithm", "kpca", "--reps", "1"],
    ["bench", "--input", "d.csv", "--sizes", "100"],
    ["transform", "--input", "d.csv", "--output", "p.csv", "--model", "m.bin",
     "--label-kind", "continuous"],
])
def test_unread_options_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, missing", [
    (["synth", "--seed", "1"], "--output"),
    (["fit", "--output", "m.bin", "--gamma", "0.5"], "--input"),
    (["fit", "--input", "d.csv", "--gamma", "0.5"], "--output"),
    (["transform", "--output", "p.csv", "--model", "m.bin"], "--input"),
    (["transform", "--input", "d.csv", "--model", "m.bin"], "--output"),
    (["transform", "--input", "d.csv", "--output", "p.csv"], "--model"),
    (["eval", "--model", "m.bin", "--train-domains", "1,2"], "--input"),
    (["eval", "--model", "m.bin", "--input", "d.csv"], "--train-domains"),
])
def test_missing_required_options_are_usage_errors(argv, missing, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert missing in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("header", [
    ", ".join([*COLS.split(","), "y", "d"]),
    ",".join(f'"{c}"' for c in [*COLS.split(","), "y", "d"]),
], ids=["spaced", "quoted"])
def test_fit_auto_columns_parse_the_header_as_load_csv_does(header, tmp_path):
    path = _synth(tmp_path)
    rows = open(path).read().splitlines()[1:]
    rewritten = tmp_path / "header.csv"
    rewritten.write_text("\n".join([header, *rows]) + "\n")
    common = ["fit", "--gamma", "0.5", "--m", "2", "--output"]
    assert main([*common, str(tmp_path / "a.bin"), "--input", path]) == 0
    assert main([*common, str(tmp_path / "b.bin"), "--input", str(rewritten)]) == 0
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_fit_rejects_a_negative_landmark_seed(tmp_path, capsys):
    path = _synth(tmp_path)
    rc = main(["fit", "--input", path, "--output", str(tmp_path / "m.bin"),
               "--algorithm", "fastdcm", "--gamma", "0.5", "--seed", "-1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: InvalidInput" in err and "seed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--seed", str(2**64)],
    ["eval", "--compare", "dcm", "--reps", "2", "--seed", str(2**64 - 1)],
])
def test_seeds_past_the_uint64_range_are_invalid_input(argv, tmp_path, capsys):
    """A seed of 2**64 (or an eval whose second repetition reaches it) ended
    in an OverflowError traceback from the uint64 Philox key."""
    rc = main([*argv, "--output", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: InvalidInput" in err and "2**64" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_fit_rejects_huge_features(tmp_path, capsys):
    """A feature whose square overflows is InvalidInput, not a NaN model
    with numpy warnings on stderr."""
    path = _synth(tmp_path)
    lines = open(path).read().splitlines()
    first = lines[1].split(",")
    first[0] = "1e160"
    lines[1] = ",".join(first)
    huge_csv = tmp_path / "huge.csv"
    huge_csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["fit", "--input", str(huge_csv), "--output", str(tmp_path / "m.bin"),
               "--gamma", "0.5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: InvalidInput" in err and "squared norms" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "m.bin").exists()


def test_fit_missing_input_file(tmp_path, capsys):
    rc = main(["fit", "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "m.bin"), "--gamma", "0.5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_coir_matches_dcm_on_single_domain_file(tmp_path):
    path = _synth(tmp_path, "one.csv", extra=("--domains", "1"))
    m_dcm = str(tmp_path / "dcm.bin")
    m_coir = str(tmp_path / "coir.bin")
    common = ["--input", path, "--gamma", "0.5", "--m", "2"]
    assert main(["fit", *common, "--output", m_dcm, "--algorithm", "dcm"]) == 0
    assert main(["fit", *common, "--output", m_coir, "--algorithm", "coir"]) == 0
    a = load_model(m_dcm)
    b = load_model(m_coir)
    data = load_csv(path, [f"x{j}" for j in range(10)], "y", "d")
    Kc = center_gram(gram(KernelSpec("rbf", 0.5), data.X))
    assert np.max(principal_angles(a.coefficients, b.coefficients, Kc)) <= 1e-6


def test_eval_writes_reports(tmp_path, capsys):
    prefix = str(tmp_path / "rep")
    rc = main(["eval", "--reps", "2", "--seed", "5", "--output", prefix,
               "--compare", "kpca,baseline", "--m", "2"])
    assert rc == 0
    payload = json.loads(open(prefix + ".json").read())
    assert set(payload["metrics"]) == {"kpca", "baseline"}
    assert payload["seeds"] == [5, 6]
    text = open(prefix + ".txt").read()
    assert "kpca" in text and "baseline" in text
    lines = open(prefix + ".csv").read().strip().splitlines()
    assert lines[0].startswith("algorithm,rep,seed")
    assert "accuracy" in capsys.readouterr().out


def test_eval_input_without_model_is_a_usage_error(tmp_path, capsys):
    # eval without --model runs the synthetic protocol; a file it would not
    # read must not pass silently
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--input", str(tmp_path / "absent.csv"), "--gamma", "0.5",
              "--reps", "1", "--compare", "dcm", "--output", str(tmp_path / "rep")])
    assert exc.value.code == 2
    assert "synthetic protocol" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_eval_scores_fitted_model(tmp_path):
    path = _synth(tmp_path)
    model_path = str(tmp_path / "m.bin")
    assert main(["fit", "--input", path, "--output", model_path,
                 "--algorithm", "dcm", "--gamma", "0.5", "--m", "3"]) == 0
    prefix = str(tmp_path / "mrep")
    rc = main(["eval", "--model", model_path, "--input", path,
               "--train-domains", "1,2,3", "--output", prefix])
    assert rc == 0
    payload = json.loads(open(prefix + ".json").read())
    # the protocol's metrics: both classes are in the test domains
    assert set(payload["metrics"]["dcm"]) == {"accuracy", "auc", "gmean"}
    for metric in payload["metrics"]["dcm"].values():
        assert 0.0 <= metric["mean"] <= 1.0


@pytest.mark.parametrize("extra, named", [
    (["--reps", "5", "--eta", "3", "--compare", "kpca", "--gamma", "9"],
     "--gamma, --eta, --reps, --compare"),
    # reported as unread, before the m <= M check of a fit that never runs
    (["--compare", "fastdcm", "--m=60"], "--m, --compare"),
    (["--epsilon", "0.1", "--gamma-y=2", "--M", "10"], "--epsilon, --gamma-y, --M"),
])
def test_eval_model_rejects_the_protocol_options(extra, named, tmp_path, capsys):
    path = _synth(tmp_path)
    model_path = str(tmp_path / "m.bin")
    assert main(["fit", "--input", path, "--output", model_path,
                 "--algorithm", "fastdcm", "--gamma", "0.5", "--m", "3"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", model_path, "--input", path, "--train-domains", "1,2,3",
              "--output", str(tmp_path / "rep"), *extra])
    assert exc.value.code == 2
    assert f"eval --model does not read {named}" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_eval_rejects_train_domains_of_the_wrong_type(tmp_path, capsys):
    path = _synth(tmp_path)
    model_path = str(tmp_path / "m.bin")
    assert main(["fit", "--input", path, "--output", model_path,
                 "--algorithm", "dcm", "--gamma", "0.5", "--m", "2"]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", model_path, "--input", path,
               "--train-domains", "1,b", "--output", str(tmp_path / "rep")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: InvalidInput" in err and "'b'" in err


def test_transform_rejects_corrupt_model_and_nan_rows(tmp_path, capsys):
    path = _synth(tmp_path)
    model_path = str(tmp_path / "m.bin")
    assert main(["fit", "--input", path, "--output", model_path,
                 "--algorithm", "dcm", "--gamma", "0.5", "--m", "2"]) == 0
    proj = str(tmp_path / "p.csv")
    common = ["transform", "--input", path, "--output", proj]

    blob = bytearray(open(model_path, "rb").read())
    blob[12] = ord("#")
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main([*common, "--model", str(corrupt)]) == 1
    assert "error: InvalidInput" in capsys.readouterr().err

    lines = open(path).read().splitlines()
    first = lines[1].split(",")
    first[3] = "nan"
    lines[1] = ",".join(first)
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("\n".join(lines) + "\n")
    rc = main(["transform", "--input", str(nan_csv), "--output", proj,
               "--model", model_path])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


def test_eval_rejects_a_model_whose_algorithm_is_not_a_string(tmp_path, capsys):
    path = _synth(tmp_path)
    model_path = tmp_path / "m.bin"
    assert main(["fit", "--input", path, "--output", str(model_path),
                 "--algorithm", "dcm", "--gamma", "0.5", "--m", "2"]) == 0
    blob = model_path.read_bytes()
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + hlen])
    raw = json.dumps(dict(header, algorithm=["x"])).encode()
    model_path.write_bytes(blob[:8] + len(raw).to_bytes(4, "little") + raw
                           + blob[12 + hlen:])
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_path), "--input", path,
               "--train-domains", "1,2,3", "--output", str(tmp_path / "rep")])
    assert rc == 1
    assert "error: InvalidInput" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_bench_csv_schema(tmp_path):
    out = str(tmp_path / "bench.csv")
    rc = main(["bench", "--sizes", "150", "--compare", "fastdcm,fastcoir",
               "--M", "20", "--output", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "N,M,algorithm,seconds"
    assert len(lines) == 3
    for line in lines[1:]:
        N, M, alg, secs = line.split(",")
        assert int(N) > 0 and int(M) == 20
        assert alg in ("fastdcm", "fastcoir")
        assert float(secs) > 0.0


def test_unknown_algorithm_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--input", "x.csv", "--output", "y.bin", "--algorithm", "svm"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
