"""Every public predict path refuses NaN/±Inf queries with a typed error.

A forest cannot answer a non-finite query honestly: NaN fails every
split comparison and silently walks the right-hand branches. The forest's
input check refuses it, and each surface built on the forest passes that
refusal on — ``ValueError`` in process, ``invalid_params`` over the
wire — and never returns a prediction.
"""

import io
import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BlackForest, HardwareScalingPredictor, ProblemScalingPredictor
from repro.ml.forest import RandomForestRegressor
from repro.serve import FitRegistry, PredictionServer, serve_stdio, serve_tcp
from repro.serve.server import INVALID_PARAMS

from .serve.conftest import FEATURES, make_servable

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def poisoned(draw, width):
    """A query matrix with at least one NaN or ±Inf cell."""
    rows = draw(st.integers(1, 4))
    X = np.full((rows, width), draw(st.floats(0.0, 1.0)))
    cells = draw(st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, width - 1)),
        min_size=1, max_size=3,
    ))
    for i, j in cells:
        X[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return X


@pytest.fixture(scope="module")
def forest():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(40, 3))
    return RandomForestRegressor(n_trees=5, rng=1).fit(X, X.sum(axis=1))


@pytest.fixture(scope="module")
def blackforest_fit(reduce1_campaign):
    return BlackForest(n_trees=10, rng=0).fit(reduce1_campaign)


@pytest.fixture(scope="module")
def problem_scaling_fit(reduce1_campaign):
    return ProblemScalingPredictor(
        BlackForest(n_trees=10, use_pca=False, rng=1), rng=2
    ).fit(reduce1_campaign)


@pytest.fixture(scope="module")
def hardware_fit(nw_campaign):
    return HardwareScalingPredictor(n_trees=10, rng=0).fit(nw_campaign)


@pytest.fixture(scope="module")
def servable():
    return make_servable(trees=6)


@pytest.fixture(scope="module")
def server(tmp_path_factory, servable):
    registry = FitRegistry(tmp_path_factory.mktemp("models"))
    registry.publish(servable)
    return PredictionServer(registry, max_batch=8)


def _predict_line(rid, X):
    return json.dumps({
        "id": rid, "method": "predict",
        "params": {"kernel": "gemm", "arch": "volta",
                   "X": np.asarray(X).tolist()},
    })


def _assert_refused(fit, X):
    width = X.shape[1]
    good = np.full((2, width), 0.5)
    with pytest.raises(ValueError, match="NaN or infinite"):
        fit.predict(X)
    with pytest.raises(ValueError, match="NaN or infinite"):
        fit.predict_many([good, X])


class TestInProcess:
    @SETTINGS
    @given(data=st.data())
    def test_forest(self, forest, data):
        _assert_refused(forest, data.draw(poisoned(forest.n_features_)))

    @SETTINGS
    @given(data=st.data())
    def test_blackforest_fit(self, blackforest_fit, data):
        width = blackforest_fit.forest.n_features_
        _assert_refused(blackforest_fit, data.draw(poisoned(width)))

    @SETTINGS
    @given(data=st.data())
    def test_hardware_fit(self, hardware_fit, data):
        width = hardware_fit.forest.n_features_
        _assert_refused(hardware_fit, data.draw(poisoned(width)))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @SETTINGS
    @given(data=st.data())
    def test_problem_scaling_fit(self, problem_scaling_fit, data):
        # Problem sizes go through the counter models first; a NaN or
        # +Inf size comes out as a non-finite predictor row.
        problems = data.draw(poisoned(1))[:, 0] * 1e6 + 1e5
        with pytest.raises(ValueError):
            problem_scaling_fit.predict(problems)
        with pytest.raises(ValueError):
            problem_scaling_fit.predict_many([np.array([2e5]), problems])

    @SETTINGS
    @given(data=st.data())
    def test_servable_fit(self, servable, data):
        _assert_refused(servable, data.draw(poisoned(len(FEATURES))))

    def test_finite_queries_still_answered(self, forest):
        X = np.full((3, forest.n_features_), 0.5)
        assert np.isfinite(forest.predict(X)).all()


class TestWire:
    @SETTINGS
    @given(data=st.data())
    def test_stdio(self, server, servable, data):
        X = data.draw(poisoned(len(FEATURES)))
        good = np.full((2, len(FEATURES)), 0.25)
        lines = [_predict_line(0, good), _predict_line(1, X),
                 _predict_line(2, good)]
        stdout = io.StringIO()
        serve_stdio(
            server, stdin=io.StringIO("".join(f"{ln}\n" for ln in lines)),
            stdout=stdout,
        )
        responses = {
            r["id"]: r for r in map(json.loads, stdout.getvalue().splitlines())
        }
        assert "result" not in responses[1]
        assert responses[1]["error"]["code"] == INVALID_PARAMS
        # The refusal is per request: batch neighbours are still answered.
        want = [float(v) for v in servable.predict(good)]
        assert responses[0]["result"]["predictions"] == want
        assert responses[2]["result"]["predictions"] == want

    def test_tcp(self, server):
        ready = threading.Event()
        addr = {}

        def on_ready(host, port):
            addr["hp"] = (host, port)
            ready.set()

        thread = threading.Thread(
            target=serve_tcp, args=(server, "127.0.0.1", 0),
            kwargs={"on_ready": on_ready, "announce": False, "workers": 2},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10), "frontend never became ready"
        try:
            with socket.create_connection(addr["hp"], timeout=10) as conn:
                rf, wf = conn.makefile("r"), conn.makefile("w")

                @SETTINGS
                @given(X=poisoned(len(FEATURES)))
                def check(X):
                    wf.write(_predict_line("q", X) + "\n")
                    wf.flush()
                    resp = json.loads(rf.readline())
                    assert "result" not in resp
                    assert resp["error"]["code"] == INVALID_PARAMS

                check()
        finally:
            with socket.create_connection(addr["hp"], timeout=5) as conn:
                conn.sendall(b'{"id": "stop", "method": "shutdown"}\n')
                conn.makefile("r").readline()
            thread.join(timeout=10)
        assert not thread.is_alive()
