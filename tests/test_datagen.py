import numpy as np
import numpy.testing as npt
import pytest

from covmin import DataSet, InvalidInput, SchemaError, SynthConfig, load_csv, sample_wishart, save_csv, split_domains, synth_generate
from covmin.datagen import _sgn


def test_sgn_zero_is_positive():
    npt.assert_array_equal(_sgn(np.array([-0.5, 0.0, 0.5])), [-1.0, 1.0, 1.0])


def test_wishart_limits_and_shape():
    rng = np.random.default_rng(0)
    npt.assert_array_equal(sample_wishart(0.0, 3, 3, rng), np.zeros((3, 3)))
    S = sample_wishart(0.7, 3, 5, rng)
    npt.assert_array_equal(S, S.T)
    assert np.linalg.eigvalsh(S).min() >= -1e-10
    with pytest.raises(InvalidInput):
        sample_wishart(1.0, 4, 3, rng)


def test_wishart_expectation():
    # E[S] = eta * dof * I
    rng = np.random.default_rng(1)
    eta, n, dof = 0.7, 3, 5
    acc = np.zeros((n, n))
    reps = 10000
    for _ in range(reps):
        acc += sample_wishart(eta, n, dof, rng)
    acc /= reps
    npt.assert_allclose(np.diag(acc), np.full(n, eta * dof), rtol=0.05)
    off = acc - np.diag(np.diag(acc))
    assert np.abs(off).max() < 0.05 * eta * dof


def test_synth_deterministic():
    a = synth_generate(SynthConfig(T=4, mean_count=20, seed=9))
    b = synth_generate(SynthConfig(T=4, mean_count=20, seed=9))
    npt.assert_array_equal(a.X, b.X)
    npt.assert_array_equal(a.y, b.y)
    npt.assert_array_equal(a.d, b.d)


def test_synth_domain_streams_are_independent_of_T():
    # domain 1 is the same draw whether or not later domains exist
    a = synth_generate(SynthConfig(T=1, mean_count=25, seed=5))
    b = synth_generate(SynthConfig(T=3, mean_count=25, seed=5))
    npt.assert_array_equal(a.X, b.X[b.d == 1])


def test_synth_shape_and_labels():
    data = synth_generate(SynthConfig(T=10, mean_count=100, seed=0))
    assert data.X.shape[1] == 10
    assert set(np.unique(data.d)) == set(range(1, 11))
    assert set(np.unique(data.y)) <= {-1.0, 1.0}
    assert all(c >= 1 for c in data.domain_sizes.values())
    # Poisson(100) over 10 domains: around a thousand rows
    assert 700 < len(data) < 1300


def test_synth_label_rule_reproduction():
    """Replay the documented per-domain stream and recompute labels."""
    cfg = SynthConfig(T=2, mean_count=30, seed=13)
    data = synth_generate(cfg)
    for t in (1, 2):
        rng = np.random.Generator(np.random.Philox(key=np.array([13, t], dtype=np.uint64)))
        ni = 0
        while ni == 0:
            ni = int(rng.poisson(30))
        A = rng.standard_normal((10, 10)) * np.sqrt(cfg.eta / 10)
        S = A.T @ A
        S = 0.5 * (S + S.T)
        L = np.linalg.cholesky(S + 1e-12 * np.eye(10))
        Xi = rng.standard_normal((ni, 10)) @ L.T
        e1 = rng.standard_normal(ni)
        e2 = rng.standard_normal(ni)
        f1 = np.where(Xi @ cfg.b1 + e1 >= 0, 1.0, -1.0)
        f2 = np.log(np.abs(Xi @ cfg.b2 + e2) + cfg.c)
        yi = np.where(f1 * f2 >= 0, 1.0, -1.0)
        npt.assert_array_equal(data.X[data.d == t], Xi)
        npt.assert_array_equal(data.y[data.d == t], yi)


def test_synth_domain_covariance_consistency():
    # with a huge domain the empirical covariance settles on that domain's draw
    cfg = SynthConfig(T=1, mean_count=10000, seed=2)
    data = synth_generate(cfg)
    rng = np.random.Generator(np.random.Philox(key=np.array([2, 1], dtype=np.uint64)))
    ni = int(rng.poisson(10000))
    A = rng.standard_normal((10, 10)) * np.sqrt(cfg.eta / 10)
    S = A.T @ A
    emp = data.X.T @ data.X / len(data)
    assert np.linalg.norm(emp - S, "fro") <= 0.1 * np.linalg.norm(S, "fro")
    assert ni == len(data)


def test_synth_label_balance_wide_c():
    for seed in range(50):
        data = synth_generate(SynthConfig(mean_count=50, seed=seed, c=2.0))
        assert len(data) >= 300
        assert {-1.0, 1.0} <= set(np.unique(data.y))


def test_synth_config_validation():
    with pytest.raises(InvalidInput):
        SynthConfig(eta=0.0)
    with pytest.raises(InvalidInput):
        SynthConfig(mean_count=0)
    with pytest.raises(InvalidInput):
        SynthConfig(seed=-1)
    with pytest.raises(InvalidInput):
        SynthConfig(b1=np.ones(3))


def test_synth_config_rejects_seeds_past_the_uint64_range():
    """The Philox key holds the seed as a uint64; 2**64 raised OverflowError."""
    SynthConfig(seed=2**64 - 1)
    with pytest.raises(InvalidInput, match="seed"):
        SynthConfig(seed=2**64)


def test_split_domains():
    data = synth_generate(SynthConfig(T=5, mean_count=10, seed=1))
    train, test = split_domains(data, [1, 2, 3])
    assert set(np.unique(train.d)) == {1, 2, 3}
    assert set(np.unique(test.d)) == {4, 5}
    assert len(train) + len(test) == len(data)

    train, test = split_domains(data, [1, 2, 3, 4])
    assert set(np.unique(test.d)) == {5}

    with pytest.raises(InvalidInput):
        split_domains(data, [1, 2, 3, 4, 5])
    with pytest.raises(InvalidInput):
        split_domains(data, [])
    with pytest.raises(InvalidInput):
        split_domains(data, [1, 99])


def test_csv_round_trip(tmp_path):
    data = synth_generate(SynthConfig(T=3, mean_count=12, seed=8))
    path = str(tmp_path / "d.csv")
    save_csv(data, path)
    cols = [f"x{j}" for j in range(10)]
    back = load_csv(path, cols, "y", "d")
    npt.assert_array_equal(back.X, data.X)
    npt.assert_array_equal(back.y, data.y)
    npt.assert_array_equal(back.d, data.d)


def test_load_csv_handwritten(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y,b,d\n0.5,1,9,2\n-1.5,-1,9,2\n2.0,1,9,3\n")
    data = load_csv(str(path), ["a", "b"], "y", "d")
    npt.assert_array_equal(data.X, [[0.5, 9.0], [-1.5, 9.0], [2.0, 9.0]])
    npt.assert_array_equal(data.y, [1.0, -1.0, 1.0])
    npt.assert_array_equal(data.d, [2, 2, 3])
    assert data.d.dtype == np.int64
    # feature_cols None: every column but the label and domain columns,
    # named as in a spaced and quoted header
    path.write_text(' a,"y", b ,d\n0.5,1,9,2\n-1.5,-1,9,2\n2.0,1,9,3\n')
    npt.assert_array_equal(load_csv(str(path), None, "y", "d").X, data.X)


def test_load_csv_continuous_and_string_domains(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y,d\n1.0,0.25,home\n2.0,0.75,away\n")
    data = load_csv(str(path), ["a"], "y", "d")
    npt.assert_array_equal(data.y, [0.25, 0.75])
    assert list(data.d) == ["home", "away"]


def test_load_csv_keeps_labels_as_parsed(tmp_path):
    """Labels are never cast to integers: fractional class labels stay
    distinct classes and large ones keep their value."""
    path = tmp_path / "t.csv"
    path.write_text("a,y,d\n1.0,0.25,1\n2.0,0.75,1\n3.0,0.25,2\n4.0,1e20,2\n")
    data = load_csv(str(path), ["a"], "y", "d")
    npt.assert_array_equal(data.y, [0.25, 0.75, 0.25, 1e20])
    assert len(np.unique(data.y)) == 3


def test_load_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y,d\n" + "1,1,1\n" * 5 + "oops,1,1\n")
    with pytest.raises(InvalidInput, match="line 7"):
        load_csv(str(path), ["a"], "y", "d")

    path.write_text("a,y,d\n1,1,1\n1,1\n")
    with pytest.raises(InvalidInput, match="line 3"):
        load_csv(str(path), ["a"], "y", "d")

    path.write_text("a,y,d\n")
    with pytest.raises(InvalidInput, match="no data rows"):
        load_csv(str(path), ["a"], "y", "d")

    path.write_text("")
    with pytest.raises(InvalidInput, match="empty"):
        load_csv(str(path), ["a"], "y", "d")

    # non-finite features and labels
    for text in ("nan,1,1", "1,inf,1", "1,nan,1", "1,-inf,1"):
        path.write_text("a,y,d\n1,1,1\n" + text + "\n")
        with pytest.raises(InvalidInput, match="non-finite"):
            load_csv(str(path), ["a"], "y", "d")

    path.write_text("a,y,d\n1,1,1\n")
    with pytest.raises(SchemaError, match="missing"):
        load_csv(str(path), ["a", "zz"], "y", "d")

    # a name given twice (once spaced, too) is ambiguous whichever columns
    # are asked for
    for header, duplicated in (("a,a,y,d", "a"), ("a, a ,y,d", "a"), ("a,y,d,d", "d")):
        path.write_text(header + "\n1,5,1,1\n2,6,1,2\n")
        for cols in (None, ["a"]):
            with pytest.raises(SchemaError, match=rf"duplicate columns \['{duplicated}'\]"):
                load_csv(str(path), cols, "y", "d")


def test_load_csv_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    for text in ("a,y,d\n1,1,caf\xe9\n", "a,y,\xe9\n1,1,1\n"):
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(InvalidInput, match=r"latin1\.csv: not UTF-8"):
            load_csv(str(path), ["a"], "y", "d")


def test_load_csv_rejects_rows_longer_than_the_header(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("a,y,d\n1,1,1\n2,1,1,9\n")
    with pytest.raises(InvalidInput, match="line 3: 4 fields, header has 3"):
        load_csv(str(path), ["a"], "y", "d")


def test_dataset_validation():
    with pytest.raises(InvalidInput):
        DataSet(X=np.ones((3, 2)), y=np.ones(2), d=np.ones(3))
    ds = DataSet(X=np.ones((3, 2)), y=np.ones(3), d=np.array([1, 1, 2]))
    assert ds.domain_sizes == {1: 2, 2: 1}
    assert len(ds) == 3
    for bad in (np.nan, np.inf, -np.inf):
        X = np.ones((3, 2))
        X[2, 1] = bad
        with pytest.raises(InvalidInput, match="X has non-finite"):
            DataSet(X=X, y=np.ones(3), d=np.ones(3))
        with pytest.raises(InvalidInput, match="y has non-finite"):
            DataSet(X=np.ones((3, 2)), y=np.array([1.0, bad, 1.0]), d=np.ones(3))
    # non-float labels are not checked for finiteness
    assert len(DataSet(X=np.ones((2, 1)), y=np.array(["a", "b"]), d=np.ones(2))) == 2
