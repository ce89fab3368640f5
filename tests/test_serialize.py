import numpy as np

from ksgrowup import serialize as ser
from ksgrowup.grids import Snapshot, make_graded_grid


def sample_snapshot():
    grid = make_graded_grid(40, 1e-7, 1.31)
    # awkward values exercising the 17-digit round trip
    v = np.sort(np.abs(np.sin(np.arange(grid.n) * 0.7123)) * grid.nodes)
    v[0], v[-1] = 0.0, 1.0
    return Snapshot(grid=grid, values=v, time=1.0 / 3.0, left_bc=0.0,
                    right_bc=1.0)


def parse_csv(text):
    """The header and the columns of a CSV text, each value parsed by float."""
    lines = text.strip().splitlines()
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return lines[0].split(","), data.T


class TestSnapshotRoundTrip:
    def test_csv_bit_exact(self):
        snap = sample_snapshot()
        header, (x, v) = parse_csv(ser.snapshot_to_csv(snap))
        assert header == ["x", "value"]
        assert np.array_equal(x, snap.grid.nodes)
        assert np.array_equal(v, snap.values)


class TestTableCsv:
    def test_columns_and_round_trip(self, funcs_med):
        header, cols = parse_csv(ser.table_to_csv(funcs_med))
        assert header == ["y", "f", "f'", "tilde_f", "g", "g'", "h", "h'"]
        assert np.array_equal(cols[0], funcs_med.y)
        # the columns are eval and tilde_f at the nodes, bit for bit
        T = funcs_med.eval(funcs_med.y)
        T["tilde_f"] = funcs_med.tilde_f(funcs_med.y)
        for col, name in zip(cols[1:], ("f", "f_prime", "tilde_f", "g",
                                        "g_prime", "h", "h_prime")):
            assert np.array_equal(col, T[name]), name

    def test_header(self, funcs_med):
        hdr = ser.table_header_json(funcs_med)
        assert float(hdr["M"]) == funcs_med.M
        assert float(hdr["y_max"]) == funcs_med.y_max
        assert hdr["nodes_per_decade"] == funcs_med.npd
        assert "phi_blend" in hdr


class TestPathCsv:
    def test_round_trip(self, path_k5):
        header, cols = parse_csv(ser.path_to_csv(path_k5))
        assert header == ["t", "a", "a'", "b", "gamma"]
        assert np.array_equal(cols[1], path_k5.a)
        hdr = ser.path_header_json(path_k5)
        assert hdr["integrator"] == "exact-inverse"
        assert float(hdr["t_end"]) == 1100.0
        assert float(hdr["K"]) == 5.0


class TestCsvFormat:
    def test_one_format_per_row_writes_what_fmt_writes(self):
        # signed zero, nan, the infinities, the smallest subnormal and values
        # near the largest float, then random floats over the whole range
        rng = np.random.default_rng(5)
        edge = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                         1.8e308, -1.8e308, 1.0 / 3.0])
        wide = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
        a = np.concatenate([edge, wide])
        b = np.concatenate([wide[::-1], edge])
        ref = "\n".join(["p,q"] + [f"{ser.fmt(x)},{ser.fmt(y)}" for x, y in zip(a, b)])
        assert ser._csv((a, b), ["p", "q"]) == ref + "\n"
