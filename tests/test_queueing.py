"""Queue sizing, exact finite-buffer chains, delay approximation, simulator."""

import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from swakit.distributions import (
    ErlangDist,
    PhaseTypeDist,
    PointMassDist,
    ph_from_mean_scv,
    validate_generator,
)
from swakit.errors import ConfigError, InstabilityError, StateSpaceError
from swakit.queueing import (
    MeanScv,
    QueueModel,
    buffer_capacity,
    des_simulate,
    load_model,
    min_servers,
    model_from_dict,
    model_to_dict,
    predict,
    solve_batch_ph_ph_1_n,
    solve_ggc_approx,
    solve_infinite_servers,
    solve_ph_ph_1_n,
    storage_estimate,
)
from swakit.queueing import _BATCH_BYTES, _batched_mean_ci, _ci_half, _erlang_c, _fold

EXP = lambda rate: ErlangDist(rate, 1)  # noqa: E731


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


def mm1n_oracle(lam, mu, N):
    """Birth-death stationary solution of the single-server finite buffer."""
    rho = lam / mu
    if abs(rho - 1.0) < 1e-12:
        probs = np.full(N + 1, 1.0 / (N + 1))
    else:
        probs = rho ** np.arange(N + 1) * (1 - rho) / (1 - rho ** (N + 1))
    L = float(np.sum(np.arange(N + 1) * probs))
    Ploss = float(probs[N])
    lam_acc = lam * (1 - Ploss)
    W = L / lam_acc
    Lq = L - (1 - probs[0])
    Wq = W - 1.0 / mu
    return {"L": L, "Lq": Lq, "W": W, "Wq": Wq, "Pbusy": 1 - float(probs[0]),
            "Ploss": Ploss}


def mmc_oracle(lam, mu, c):
    """Textbook M/M/c delay indicators via factorial sums."""
    a = lam / mu
    rho = a / c
    p0 = 1.0 / (sum(a ** k / math.factorial(k) for k in range(c))
                + a ** c / (math.factorial(c) * (1 - rho)))
    pwait = a ** c / (math.factorial(c) * (1 - rho)) * p0
    Wq = pwait / (c * mu - lam)
    W = Wq + 1 / mu
    return {"Wq": Wq, "W": W, "L": lam * W, "Lq": lam * Wq, "Pbusy": pwait}


def close(x, y, tol=1e-9):
    return x == pytest.approx(y, abs=tol, rel=tol)


# ---------------------------------------------------------------------------
# sizing helpers
# ---------------------------------------------------------------------------


def test_buffer_capacity_values():
    assert buffer_capacity(10, 1024, 135) == 70
    assert buffer_capacity(4000, 4096, 135) == 120_000
    assert buffer_capacity(2, 100, 135) == 0  # page too small for one tuple
    with pytest.raises(ConfigError):
        buffer_capacity(0, 1024, 135)


def test_storage_estimate():
    assert storage_estimate(2119, 13, 135) == 2119 * 13 * 135
    with pytest.raises(ConfigError):
        storage_estimate(0, 13, 135)


def test_min_servers():
    assert min_servers(1.0 / 9.7780, 1.0 / 20713.7) == 2119
    assert min_servers(1.0, 1.0) == 2
    assert min_servers(0.4, 1.0) == 1
    with pytest.raises(ConfigError):
        min_servers(-1.0, 2.0)


# ---------------------------------------------------------------------------
# exact single-service chain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam,mu,N", [(1.0, 2.0, 10), (0.9, 1.0, 25), (2.0, 1.0, 8)])
def test_exact_chain_matches_birth_death(lam, mu, N):
    got = solve_ph_ph_1_n(QueueModel(EXP(lam), EXP(mu), buffer=N))
    want = mm1n_oracle(lam, mu, N)
    for name in ("L", "Lq", "W", "Wq", "Pbusy", "Ploss"):
        assert close(getattr(got, name), want[name]), name


def test_exact_chain_near_unbounded_limit():
    got = solve_ph_ph_1_n(QueueModel(EXP(1.0), EXP(2.0), buffer=500))
    assert abs(got.L - 1.0) < 1e-6  # rho/(1-rho) with rho = 0.5
    assert got.Ploss < 1e-10


def test_loss_probability_decreases_with_buffer():
    losses = [
        solve_ph_ph_1_n(QueueModel(EXP(0.7), EXP(1.0), buffer=N)).Ploss
        for N in (5, 10, 20, 40)
    ]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def grid_cases():
    """Mixed arrival/service laws for the flow-balance sweep."""
    m1 = EXP(1.0)
    e2 = ErlangDist(2.0, 2)
    h2 = ph_from_mean_scv(1.0, 4.0)
    p6 = validate_generator(
        PhaseTypeDist([1.0, 0.0], [[-1.1215, 0.0001], [0.0, -0.0021]]),
        policy="repair",
    )[0]
    m5 = EXP(2.0)
    e3 = ErlangDist(10.0, 3)
    hs = ph_from_mean_scv(0.4, 3.0)
    single = [
        QueueModel(arr, svc, buffer=7)
        for arr in (m1, e2, h2, p6)
        for svc in (m5, e3, hs)
    ]
    batch = [
        QueueModel(arr, svc, buffer=12, batch=(3, 3))
        for arr in (m1, e2, h2, p6)
        for svc in (m5, hs)
    ]
    return single, batch


def test_flow_balance_over_mixed_grid():
    single, batch = grid_cases()
    worst = 0.0
    for model in single:
        r = solve_ph_ph_1_n(model)
        lam_acc = (1.0 / model.arrival.mean()) * (1.0 - r.Ploss)
        worst = max(worst, abs(r.Lq - lam_acc * r.Wq))
        assert 0.0 <= r.Ploss <= 1.0 and 0.0 <= r.Pbusy <= 1.0
        assert r.Lq <= r.L <= model.buffer + 1e-12
    for model in batch:
        r = solve_batch_ph_ph_1_n(model)
        lam_acc = (1.0 / model.arrival.mean()) * (1.0 - r.Ploss)
        worst = max(worst, abs(r.L - lam_acc * r.W))
        assert 0.0 <= r.Ploss <= 1.0
        assert r.Lq <= r.L
    assert worst < 1e-6


def brute_force_chain(arrival, service, N, K):
    """Fixed-batch chain built state by state into a dense generator.

    A state is ("idle", waiting, arrival phase) or ("busy", waiting, arrival
    phase, service phase); every transition is written out by hand and
    pi Q = 0 is solved with numpy.linalg.  Returns L, Lq, Pbusy and Ploss,
    the last two weighted by the arrival-completion intensity.
    """
    Ta, ta, aa = arrival.T, -arrival.T.sum(axis=1), arrival.alpha
    Ts, ts, as_ = service.T, -service.T.sum(axis=1), service.alpha
    m, n = len(aa), len(as_)
    states = [("idle", q, i) for q in range(K) for i in range(m)]
    states += [("busy", q, i, j) for q in range(N - K + 1) for i in range(m) for j in range(n)]
    index = {s: k for k, s in enumerate(states)}
    Q = np.zeros((len(states), len(states)))

    def move(src, dst, rate):
        if dst != src:
            Q[index[src], index[dst]] += rate

    for s in states:
        kind, q, i = s[:3]
        for i2 in range(m):
            if i2 != i:
                move(s, s[:2] + (i2,) + s[3:], Ta[i, i2])
        if kind == "idle":
            for i2 in range(m):
                if q + 1 < K:
                    move(s, ("idle", q + 1, i2), ta[i] * aa[i2])
                else:
                    for j in range(n):
                        move(s, ("busy", 0, i2, j), ta[i] * aa[i2] * as_[j])
            continue
        j = s[3]
        for i2 in range(m):
            # a full system loses the arrival; the arrival process renews
            move(s, ("busy", min(q + 1, N - K), i2, j), ta[i] * aa[i2])
        for j2 in range(n):
            if j2 != j:
                move(s, ("busy", q, i, j2), Ts[j, j2])
        if q >= K:
            for j2 in range(n):
                move(s, ("busy", q - K, i, j2), ts[j] * as_[j2])
        else:
            move(s, ("idle", q, i), ts[j])
    np.fill_diagonal(Q, -Q.sum(axis=1))
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(len(states))
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    waiting = np.array([s[1] for s in states])
    in_system = np.array([s[1] + (K if s[0] == "busy" else 0) for s in states])
    weight = pi * np.array([ta[s[2]] for s in states])
    busy = np.array([s[0] == "busy" for s in states])
    return {
        "L": pi @ in_system,
        "Lq": pi @ waiting,
        "Pbusy": weight[busy].sum() / weight.sum(),
        "Ploss": weight[in_system == N].sum() / weight.sum(),
    }


def random_ph(rng, order):
    """A PH law with random initial vector, phase moves and exit rates."""
    alpha = rng.dirichlet(np.ones(order))
    T = rng.uniform(0.0, 2.0, (order, order)) * (rng.random((order, order)) < 0.6)
    np.fill_diagonal(T, 0.0)
    exit_rates = rng.uniform(0.2, 3.0, order)
    np.fill_diagonal(T, -(T.sum(axis=1) + exit_rates))
    return PhaseTypeDist(alpha, T)


def differential_cases():
    # N == K leaves a single busy level; with K = 1 that is also N == 1
    rng = np.random.default_rng(2024)
    cases = []
    for K in (1, 2, 3):
        for N in (K, K + 1, K + 4):
            for draw in range(2):
                arrival = random_ph(rng, int(rng.integers(1, 4)))
                service = random_ph(rng, int(rng.integers(1, 4)))
                cases.append(pytest.param(
                    arrival, service, N, K,
                    id=f"K{K}-N{N}-m{arrival.order}-n{service.order}-{draw}",
                ))
    # a repaired near-reducible arrival generator with Erlang-3 service
    p6 = validate_generator(
        PhaseTypeDist([1.0, 0.0], [[-1.1215, 0.0001], [0.0, -0.0021]]),
        policy="repair",
    )[0]
    cases.append(pytest.param(p6, ErlangDist(10.0, 3).as_phase_type(), 9, 1,
                              id="repaired-p6-erlang3-N9"))
    cases.append(pytest.param(EXP(1.0).as_phase_type(), EXP(2.0).as_phase_type(), 9, 1,
                              id="mm1-N9"))
    return cases


@pytest.mark.parametrize("arrival,service,N,K", differential_cases())
def test_chain_matches_brute_force(arrival, service, N, K):
    want = brute_force_chain(arrival, service, N, K)
    solvers = [solve_batch_ph_ph_1_n] + ([solve_ph_ph_1_n] if K == 1 else [])
    for solve in solvers:
        got = solve(QueueModel(arrival, service, buffer=N, batch=(K, K)))
        for name, value in want.items():
            assert getattr(got, name) == pytest.approx(value, rel=1e-10, abs=1e-10), name


def test_batch_chain_agrees_with_simulation():
    model = QueueModel(EXP(1.0), EXP(5.0), buffer=12, batch=(3, 3))
    exact = solve_batch_ph_ph_1_n(model)
    sim = des_simulate(model, arrivals=400_000, seed=11)
    assert exact.L == pytest.approx(sim.L, rel=0.02)
    assert exact.W == pytest.approx(sim.W, rel=0.02)


def test_state_space_guard(monkeypatch):
    # both exact solvers refuse from the state count alone, before any block
    # is built or a chain is handed to the stationary solve
    import swakit.queueing

    def never(*args, **kwargs):
        pytest.fail("an oversized chain was assembled or solved")

    for name in ("kron", "bmat", "_solve_stationary"):
        monkeypatch.setattr(swakit.queueing, name, never)
    big = ErlangDist(1.0, 10).as_phase_type()
    with pytest.raises(StateSpaceError):
        solve_ph_ph_1_n(QueueModel(big, big, buffer=2000))
    with pytest.raises(StateSpaceError):
        solve_batch_ph_ph_1_n(QueueModel(big, big, buffer=2000, batch=(20, 20)))


def test_exact_chain_validates_model():
    with pytest.raises(ConfigError):
        solve_ph_ph_1_n(QueueModel(EXP(1.0), EXP(2.0), buffer=None))
    with pytest.raises(ConfigError):
        QueueModel(EXP(1.0), EXP(2.0), servers=2, batch=(3, 3))
    with pytest.raises(ConfigError):
        QueueModel(EXP(1.0), EXP(2.0), buffer=2, batch=(3, 3))
    with pytest.raises(ConfigError):
        QueueModel(EXP(1.0), EXP(2.0), batch=(4, 2))


# ---------------------------------------------------------------------------
# delay approximation
# ---------------------------------------------------------------------------


def test_ggc_reduces_to_mmc():
    got = solve_ggc_approx(2.0, 1.0, 1.0, 1.0, 3)
    want = mmc_oracle(2.0, 1.0, 3)
    for name in ("L", "Lq", "W", "Wq", "Pbusy"):
        assert close(getattr(got, name), want[name]), name


def test_gg1_reduces_to_mm1():
    lam, mu = 0.5, 1.0
    got = solve_ggc_approx(lam, 1.0, 1.0 / mu, 1.0, 1)
    assert close(got.Wq, lam / (mu * (mu - lam)))


def test_deterministic_service_halves_wait():
    markov = solve_ggc_approx(0.5, 1.0, 1.0, 1.0, 1)
    determ = solve_ggc_approx(0.5, 1.0, 1.0, 0.0, 1)
    assert determ.Wq == pytest.approx(markov.Wq / 2)


def test_erlang_c_stop_changes_no_value():
    def full_loop(servers, offered):  # every step, as the recursion ran before it could stop
        b = 1.0
        for k in range(1, servers + 1):
            b = offered * b / (k + offered * b)
        rho = offered / servers
        return b / (1.0 - rho * (1.0 - b))

    for c in range(1, 200):
        for offered in (0.1, 0.5, 0.9 * c, 0.99 * c):
            if offered < c:
                assert _erlang_c(c, offered) == full_loop(c, offered)


def test_instability_suggests_servers():
    with pytest.raises(InstabilityError) as err:
        solve_ggc_approx(3.0, 1.0, 1.0, 1.0, 2)
    assert err.value.suggested_servers == 4


def test_full_scale_station_load():
    lam = 1.0 / 9.7780
    got = solve_ggc_approx(lam, 1.0, 20713.7, 1.0, 10_000)
    assert got.L == pytest.approx(lam * 20713.7, rel=1e-6)
    assert got.L == pytest.approx(2119.2972, rel=0.01)


def test_infinite_servers():
    r = solve_infinite_servers(2.0, 3.0)
    assert (r.L, r.Lq, r.W, r.Wq) == (6.0, 0.0, 3.0, 0.0)
    with pytest.raises(ConfigError):
        solve_infinite_servers(0.0, 1.0)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_predict_routes_by_model_shape():
    ample = predict(QueueModel(EXP(2.0), MeanScv(3.0, 1.0), servers="ample"))
    assert ample.W == 3.0 and ample.Lq == 0.0

    finite = predict(QueueModel(EXP(1.0), EXP(2.0), buffer=10))
    assert close(finite.L, mm1n_oracle(1.0, 2.0, 10)["L"])

    open_q = predict(QueueModel(EXP(0.5), EXP(1.0)))
    assert close(open_q.Wq, 0.5 / (1.0 * 0.5))

    with pytest.raises(ConfigError):
        predict(QueueModel(EXP(1.0), EXP(5.0), batch=(3, 3)))
    with pytest.raises(ConfigError):
        predict(QueueModel(EXP(1.0), EXP(5.0), servers=2, buffer=10))


@pytest.mark.parametrize("scv", [0.3, 0.5, 1.0, 4.0])
def test_mean_scv_service_is_solved_as_its_two_moment_ph(scv):
    # the exact chain solves ph_from_mean_scv's law (the simulator draws a gamma law instead)
    got = predict(QueueModel(EXP(1.0), MeanScv(0.8, scv), buffer=10))
    assert got.to_dict() == predict(QueueModel(EXP(1.0), ph_from_mean_scv(0.8, scv),
                                               buffer=10)).to_dict()


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------


def test_simulator_agrees_with_mm1():
    # rho = 0.5: L = rho/(1-rho) = 1, W = 1/(mu - lambda) = 1
    r = des_simulate(QueueModel(EXP(1.0), EXP(2.0)), arrivals=1_000_000, seed=5)
    assert abs(r.L - 1.0) <= max(0.03, 2 * r.ci["L"])
    assert abs(r.W - 1.0) <= max(0.03, 2 * r.ci["W"])


def test_simulator_deterministic():
    model = QueueModel(EXP(1.0), EXP(2.0), buffer=10)
    a = des_simulate(model, arrivals=5_000, seed=42)
    b = des_simulate(model, arrivals=5_000, seed=42)
    assert a.to_dict() == b.to_dict()
    c = des_simulate(model, arrivals=5_000, seed=43)
    assert a.L != c.L


def test_simulator_input_validation():
    model = QueueModel(EXP(1.0), EXP(2.0))
    with pytest.raises(ConfigError):
        des_simulate(model, arrivals=50, seed=0)
    with pytest.raises(ConfigError):
        des_simulate(model, arrivals=1000, seed=0, warmup_frac=0.5)
    with pytest.raises(ConfigError):
        des_simulate(model, arrivals=1000, seed=0, n_batches=10)


def test_simulator_reports_ci():
    r = des_simulate(QueueModel(EXP(1.0), EXP(2.0), buffer=20), arrivals=20_000, seed=1)
    assert set(r.ci) >= {"L", "Lq", "W", "Wq"}
    assert all(v >= 0 for v in r.ci.values())
    assert r.to_dict()["ci95"]["L"] == r.ci["L"]


def seeded_draws(model, arrivals, seed):
    """The simulator's random streams: arrival gaps, then service times, from one generator."""
    rng = np.random.default_rng(seed)
    gaps = model.arrival.sample(arrivals, rng)
    return np.cumsum(gaps).tolist(), model.service.sample(arrivals, rng).tolist()


def time_average(ups, downs, t0, t1):
    """Brute-force mean of the step function (#ups <= t) - (#downs <= t) over [t0, t1]."""
    events = sorted([(t, 1) for t in ups] + [(t, -1) for t in downs])
    pieces, n, prev = [], 0, 0.0
    for t, step in events:
        lo, hi = max(prev, t0), min(t, t1)
        if hi > lo:
            pieces.append(n * (hi - lo))
        n += step
        prev = t
    return math.fsum(pieces) / (t1 - t0)


def batch_means_ci(values, batches=25):
    """95% half-width from the means of consecutive batches, sizes differing by at most one."""
    size, extra = divmod(len(values), batches)
    means, start = [], 0
    for b in range(batches):
        stop = start + size + (b < extra)
        means.append(math.fsum(values[start:stop]) / (stop - start))
        start = stop
    t_975_24 = 2.0638985616280245  # Student t, 24 degrees of freedom
    return t_975_24 * statistics.stdev(means) / math.sqrt(batches)


@pytest.mark.parametrize("n,batches", [(50, 25), (51, 25), (1_000, 24), (4_999, 95),
                                       (200_000, 4_096), (200_000, 95_000)])
def test_batch_means_are_the_array_split_means(n, batches):
    # two reshapes stand in for one np.array_split view per batch: every mean has the same bits
    rng = np.random.default_rng(n + batches)
    values = rng.exponential(3.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    means = np.array([c.mean() for c in np.array_split(values, batches)])
    assert _batched_mean_ci(values, batches) == (float(values.mean()), _ci_half(means))


@pytest.mark.parametrize("model", [
    QueueModel(EXP(1.0), EXP(2.0)),
    QueueModel(EXP(1.0), EXP(0.3), batch=(2, 4)),
    QueueModel(EXP(1.0), EXP(2.0), servers="ample"),
], ids=["plain", "batch", "ample"])
def test_des_peak_per_batch_is_within_what_the_refusal_counts(model):
    def peak(arrivals, batches):
        tracemalloc.start()
        try:
            des_simulate(model, arrivals=arrivals, seed=0, n_batches=batches)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # few arrivals and many batches: the slice areas and their temporaries alone
    assert peak(1_000, 500_000) <= 500_000 * _BATCH_BYTES
    # samples enough for the batch means as well: what 8,000 more batches add to the peak
    assert peak(20_000, 8_020) - peak(20_000, 20) <= 8_000 * _BATCH_BYTES


@pytest.mark.parametrize("arrival,service,seed", [
    (EXP(1.0), EXP(2.0), 3),
    (ErlangDist(2.0, 2), ErlangDist(3.75, 3), 8),  # rho = 0.8
])
def test_simulator_matches_lindley_recursion(arrival, service, seed):
    # FIFO, one server, unbounded buffer: W_{n+1} = max(0, W_n + S_n - A_{n+1}) (Lindley, 1952)
    model = QueueModel(arrival, service)
    n, w0 = 20_000, 1_000  # the default 5% warm-up
    at, svc = seeded_draws(model, n, seed)
    wq = [0.0]
    for i in range(1, n):
        wq.append(max(0.0, wq[-1] + svc[i - 1] - (at[i] - at[i - 1])))
    res = [w + s for w, s in zip(wq, svc)]
    dep = [t + r for t, r in zip(at, res)]
    got = des_simulate(model, arrivals=n, seed=seed)
    assert close(got.Wq, math.fsum(wq[w0:]) / (n - w0))
    assert close(got.W, math.fsum(res[w0:]) / (n - w0))
    # batches of consecutive tuples: serving them in another order moves these
    assert close(got.ci["Wq"], batch_means_ci(wq[w0:]))
    assert close(got.ci["W"], batch_means_ci(res[w0:]))
    L = time_average(at, dep, at[w0], at[-1])
    assert close(got.L, L)
    starts = [d - s for d, s in zip(dep, svc)]  # one tuple is in service from start to departure
    assert close(got.Lq, L - time_average(starts, dep, at[w0], at[-1]))


def test_ample_servers_match_step_function():
    model = QueueModel(EXP(1.0), ErlangDist(0.4, 2), servers="ample")
    n, w0 = 20_000, 1_000
    at, svc = seeded_draws(model, n, 6)
    got = des_simulate(model, arrivals=n, seed=6)
    assert close(got.L, time_average(at, [t + s for t, s in zip(at, svc)], at[w0], at[-1]))
    assert close(got.W, math.fsum(svc[w0:]) / (n - w0))
    assert got.des["events"] == 2 * n


def test_occupancy_fold_matches_per_step_loop():
    # long steps cross several slice edges; the first and last ones fall outside the window
    rng = np.random.default_rng(0)
    gaps = rng.exponential(1.0, 20_000)
    t = np.cumsum(gaps * rng.choice([1.0, 3000.0], 20_000, p=[0.995, 0.005]))
    counts = rng.integers(0, 6, (2, t.size))
    t0, t1, slices = t[500], t[-300], 200
    area = np.zeros((2, slices))
    _fold(area, t0, t1, np.concatenate(([0.0], t[:-1])), t, *counts)
    dt = (t1 - t0) / slices
    want = np.zeros((2, slices))
    prev = 0.0
    for ti, ns in zip(t, counts.T.tolist()):
        u, v, prev = max(prev, t0), min(ti, t1), ti
        if v <= u:
            continue
        s0 = min(int((u - t0) / dt), slices - 1)
        s1 = min(int((v - t0) / dt), slices - 1)
        for row, n in enumerate(ns):
            if n == 0:
                continue
            if s0 == s1:
                want[row, s0] += n * (v - u)
                continue
            want[row, s0] += n * (t0 + (s0 + 1) * dt - u)
            for s in range(s0 + 1, s1):
                want[row, s] += n * dt
            want[row, s1] += n * (v - (t0 + s1 * dt))
    assert np.array_equal(area, want)


def test_simulator_loss_matches_counting_loop():
    # an arrival that finds N tuples in the system is lost; departures at its instant leave first
    model = QueueModel(EXP(1.0), EXP(0.8), buffer=5)
    n, w0, N = 20_000, 1_000, 5
    at, svc = seeded_draws(model, n, 2)
    lost, kept, dep = [], [], []
    for t in at:
        if sum(d > t for d in dep[-N:]) >= N:
            lost.append(True)
            continue
        lost.append(False)
        kept.append(t)
        dep.append(max(t, dep[-1] if dep else 0.0) + svc[len(dep)])
    got = des_simulate(model, arrivals=n, seed=2)
    assert close(got.Ploss, sum(lost[w0:]) / (n - w0))
    assert 0.2 < got.Ploss < 0.4
    assert close(got.L, time_average(kept, dep, at[w0], at[-1]))
    assert got.des == {"arrivals": n, "events": 2 * n - sum(lost), "lost": sum(lost),
                       "warmup_cut_time": at[w0]}


def test_simulator_matches_earliest_free_server():
    # FIFO on c servers, unbounded buffer: each tuple starts at max(arrival, earliest free
    # time) and keeps that server until it leaves (Kiefer & Wolfowitz, 1955)
    model = QueueModel(EXP(1.0), ErlangDist(2 / 2.4, 2), servers=3)  # mean 2.4, rho = 0.8
    n, w0 = 20_000, 1_000
    at, svc = seeded_draws(model, n, 4)
    free = [0.0, 0.0, 0.0]
    wq, res = [], []
    for t, s in zip(at, svc):
        j = free.index(min(free))
        start = max(t, free[j])
        free[j] = start + s
        wq.append(start - t)
        res.append(free[j] - t)
    got = des_simulate(model, arrivals=n, seed=4)
    assert close(got.Wq, math.fsum(wq[w0:]) / (n - w0))
    assert close(got.W, math.fsum(res[w0:]) / (n - w0))
    assert close(got.ci["Wq"], batch_means_ci(wq[w0:]))
    assert close(got.ci["W"], batch_means_ci(res[w0:]))


def test_simulator_matches_batch_reference_loop():
    # one server takes up to b = 6 tuples once a = 3 wait; at most N = 12 in the system.
    # The waiting line is an explicit list here; tuples left waiting at the end never leave.
    a, b, N = 3, 6, 12
    model = QueueModel(EXP(1.0), EXP(0.4), buffer=N, batch=(a, b))
    n, w0 = 20_000, 1_000
    at, svc = seeded_draws(model, n, 12)
    waiting, batch, dep = [], [], math.inf  # (arrival, index) waiting; the batch in service
    wq, res, lost = {}, {}, []
    ups, downs, batches = [], [], 0

    def start(now):
        nonlocal batch, dep, batches
        batch, waiting[:] = waiting[:b], waiting[b:]
        dep = now + svc[batches]
        batches += 1
        for t, i in batch:
            wq[i] = now - t

    def leave():
        nonlocal batch, dep
        for t, i in batch:
            res[i] = dep - t
            downs.append(dep)
        batch, done, dep = [], dep, math.inf
        if len(waiting) >= a:
            start(done)

    for i, t in enumerate(at):
        while dep <= t:
            leave()
        lost.append(len(waiting) + len(batch) >= N)
        if lost[-1]:
            continue
        waiting.append((t, i))
        ups.append(t)
        if dep == math.inf and len(waiting) >= a:
            start(t)
    while dep < math.inf:
        leave()
    kept = [i for i in range(w0, n) if i in res]
    got = des_simulate(model, arrivals=n, seed=12)
    assert close(got.Wq, math.fsum(wq[i] for i in kept) / len(kept))
    assert close(got.W, math.fsum(res[i] for i in kept) / len(kept))
    assert close(got.Ploss, sum(lost[w0:]) / (n - w0))
    assert 0.01 < got.Ploss < 0.5 and 0 < len(waiting) < a
    assert close(got.L, time_average(ups, downs, at[w0], at[-1]))
    assert got.des == {"arrivals": n, "events": n + batches, "lost": sum(lost),
                       "warmup_cut_time": at[w0]}


def point_mass_run(n, gap, svc, c, N, a, b):
    """A FIFO station fed every ``gap`` and serving in ``svc``, event by event: each of ``c``
    servers takes up to ``b`` waiting tuples once ``a`` wait, a departure goes before an
    arrival at the same instant, and an arrival finding ``N`` in the system is lost.
    Returns the arrival times, the kept arrival, start and departure times, the losses and
    the batch count."""
    at = [gap * (i + 1) for i in range(n)]
    busy, waiting = [], []  # (departure, size) per batch in service; kept arrivals waiting
    ups, starts, downs = [], [], []
    lost = batches = in_sys = 0

    def start(now):
        nonlocal batches
        while len(waiting) >= a and len(busy) < c:
            k = min(b, len(waiting))
            del waiting[:k]
            busy.append((now + svc, k))
            batches += 1
            starts.extend([now] * k)
            downs.extend([now + svc] * k)

    def leave_until(t):
        nonlocal in_sys
        while busy and min(busy)[0] <= t:
            done, k = min(busy)
            busy.remove((done, k))
            in_sys -= k
            start(done)

    for t in at:
        leave_until(t)
        if in_sys >= N:
            lost += 1
            continue
        in_sys += 1
        waiting.append(t)
        ups.append(t)
        start(t)
    leave_until(math.inf)
    return at, ups, starts, downs, lost, batches


@pytest.mark.parametrize("gap,svc,servers,buffer,batch", [
    (1.0, 2.0, 1, 3, (1, 1)),  # D/D/1/N: every departure meets an arrival
    (1.0, 0.0, 1, 1, (1, 1)),  # zero service: arrival, start and departure coincide
    (1.0, 3.0, 2, 4, (1, 1)),  # D/D/c/N, overloaded
    (0.5, 1.5, 3, 3, (1, 1)),
    (1.0, 2.0, 3, None, (1, 1)),  # D/D/c, three servers never all busy at once
    (1.0, 3.0, 1, 9, (3, 3)),  # batches with a = b
    (1.0, 4.0, 1, 12, (2, 5)),  # batches with a < b
    (1.0, 0.0, 1, 4, (2, 2)),  # zero-time batches
    (1.0, 3.0, "ample", None, (1, 1)),
    (1.0, 0.0, "ample", None, (1, 1)),
])
def test_simulator_matches_point_mass_reference_at_ties(gap, svc, servers, buffer, batch):
    # point masses put arrivals, starts and departures on the same instants; the steps of
    # zero length between tied events must add nothing to L or Lq
    n, w0 = 20_000, 1_000  # more arrivals than one merge block
    model = QueueModel(PointMassDist(gap), PointMassDist(svc), servers, buffer, batch)
    c = math.inf if servers == "ample" else servers
    at, ups, starts, downs, lost, batches = point_mass_run(
        n, gap, svc, c, buffer or math.inf, *batch)
    got = des_simulate(model, arrivals=n, seed=0)
    L = time_average(ups, downs, at[w0], at[-1])
    assert close(got.L, L)
    assert close(got.Lq, L - time_average(starts, downs, at[w0], at[-1]))
    assert got.des == {"arrivals": n, "events": n + batches, "lost": lost,
                       "warmup_cut_time": at[w0]}


# ---------------------------------------------------------------------------
# model (de)serialization
# ---------------------------------------------------------------------------


def test_model_round_trip(tmp_path):
    model = QueueModel(
        ErlangDist(2.0, 2),
        MeanScv(0.5, 3.0),
        servers=1,
        buffer=60,
        batch=(20, 20),
    )
    doc = model_to_dict(model)
    assert doc["buffer"] == 60
    assert doc["batch"] == [20, 20]
    back = model_from_dict(json.loads(json.dumps(doc)))
    assert back.service == MeanScv(0.5, 3.0)
    assert back.batch == (20, 20)

    unbounded = QueueModel(EXP(1.0), EXP(2.0))
    doc2 = model_to_dict(unbounded)
    assert doc2["buffer"] == "unbounded"
    assert model_from_dict(doc2).buffer is None

    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    assert load_model(p).buffer == 60
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_model(p)


def test_model_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        model_from_dict({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1}})
    with pytest.raises(ConfigError):
        model_from_dict({"arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
                         "service": {"what": 3}})
