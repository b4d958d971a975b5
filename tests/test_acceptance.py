"""Release gate: ten end-to-end checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test prints exactly one ``ACCEPTANCE C<n> PASS/FAIL`` line and then
asserts.  Tolerances are part of the contract and are pinned here, not in
the modules under test.
"""

import hashlib
import json

import numpy as np
import pytest

from swakit import cli
from swakit.distributions import ErlangDist, PhaseTypeDist, validate_generator
from swakit.engine import PipelineConfig, Strategy, run_pipeline
from swakit.metrics import evaluate
from swakit.params import estimate_capacity, estimate_timeout
from swakit.queueing import (
    QueueModel,
    buffer_capacity,
    des_simulate,
    min_servers,
    solve_batch_ph_ph_1_n,
    solve_ggc_approx,
    solve_ph_ph_1_n,
    storage_estimate,
)
from swakit.trace import default_degree_dist, default_span_dist

from test_queueing import grid_cases, mm1n_oracle, mmc_oracle


def _verdict(cid: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE C{cid} {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line)
    assert ok, line


def _swa(trace, cap, tmo, strategy=Strategy.HEAD_TS_IP):
    cfg = PipelineConfig(kind="swa", capacity=cap, timeout_s=tmo, strategy=strategy)
    return run_pipeline(trace, cfg)


def _comp1(result, trace):
    return evaluate(result.emissions, trace, gammas=(1.0,)).completeness[1.0]


# ---------------------------------------------------------------------------


def test_c01_degree_distribution_checkpoints():
    d = default_degree_dist()
    got = [d.cdf(x) for x in (12.0, 13.0, 14.0)]
    want = [0.7186, 0.9200, 0.9857]
    errs = [abs(g - w) for g, w in zip(got, want)]
    ok = max(errs) <= 1e-3
    _verdict(1, ok,
             f"degree cdf at 12/13/14 = {got[0]:.6f}/{got[1]:.6f}/{got[2]:.6f} "
             f"vs {want} (max err {max(errs):.2e}, tol 1e-3)")


def test_c02_window_parameter_estimates():
    cap = estimate_capacity(default_degree_dist(), 0.90)
    tmo = estimate_timeout(default_span_dist(), 0.05)
    ok = (cap, tmo) == (13, 22)
    _verdict(2, ok, f"capacity@0.90 = {cap} (want 13), timeout@0.05 = {tmo}s (want 22)")


def test_c03_queue_sizing_figures():
    qcap = buffer_capacity(10, 1024, 135)
    servers = min_servers(1.0 / 9.7780, 1.0 / 20713.7)
    mb = storage_estimate(2119, 13, 135) / 2**20
    ok = qcap == 70 and servers == 2119 and abs(mb - 3.5466) <= 0.0005
    _verdict(3, ok,
             f"queue capacity {qcap} (want 70), min servers {servers} (want 2119), "
             f"window storage {mb:.6f} MB (want 3.5466 +/- 0.0005)")


def test_c04_exact_chain_self_consistency():
    exp = lambda r: ErlangDist(r, 1)  # noqa: E731
    parts = []
    ok = True

    # closed-form single-server birth-death chain
    want = mm1n_oracle(1.0, 2.0, 10)
    got = solve_ph_ph_1_n(QueueModel(exp(1.0), exp(2.0), buffer=10))
    errs = [abs(getattr(got, k) - want[k]) for k in ("L", "Lq", "W", "Wq", "Pbusy", "Ploss")]
    ok &= max(errs) <= 1e-9
    parts.append(f"closed-form max err {max(errs):.2e} (tol 1e-9)")

    # flow balance across a mixed-law parameter grid
    single, batch = grid_cases()
    worst = 0.0
    for model in single:
        r = solve_ph_ph_1_n(model)
        lam_acc = (1.0 / model.arrival.mean()) * (1.0 - r.Ploss)
        worst = max(worst, abs(r.Lq - lam_acc * r.Wq))
    for model in batch:
        r = solve_batch_ph_ph_1_n(model)
        lam_acc = (1.0 / model.arrival.mean()) * (1.0 - r.Ploss)
        worst = max(worst, abs(r.L - lam_acc * r.W))
    ok &= worst < 1e-6
    parts.append(f"flow-balance residual {worst:.2e} over {len(single) + len(batch)} "
                 "models (tol 1e-6)")

    # batch of one must coincide with the plain chain
    a = solve_ph_ph_1_n(QueueModel(exp(1.0), exp(2.0), buffer=9))
    b = solve_batch_ph_ph_1_n(QueueModel(exp(1.0), exp(2.0), buffer=9, batch=(1, 1)))
    agree = max(abs(getattr(a, k) - getattr(b, k))
                for k in ("L", "Lq", "W", "Wq", "Pbusy", "Ploss"))
    ok &= agree <= 1e-9
    parts.append(f"batch-of-one agreement {agree:.2e} (tol 1e-9)")
    _verdict(4, ok, "; ".join(parts))


def test_c05_exact_chain_vs_simulation():
    parts = []
    ok = True

    arr, _ = validate_generator(
        PhaseTypeDist([1.0, 0.0], [[-0.1452, -0.0329], [0.0, -0.1191]]),
        policy="repair")
    svc, _ = validate_generator(
        PhaseTypeDist(
            [1.0, 0.0, 0.0, 0.0],
            [[-378.3987, 378.3987, 0.0, 0.0],
             [0.0, -378.3987, 378.3987, 0.0],
             [0.0, 0.0, -12669.0969, -0.0000346],
             [0.0, 0.0, 0.0, -0.05120]]),
        policy="repair")
    single = QueueModel(arr, svc, buffer=70)
    ex = solve_ph_ph_1_n(single)
    sim = des_simulate(single, arrivals=1_000_000, seed=7)
    for k in ("L", "W"):
        diff = abs(getattr(ex, k) - getattr(sim, k))
        tol = max(0.03 * abs(getattr(ex, k)), sim.ci[k])
        ok &= diff <= tol
        parts.append(f"single {k} exact {getattr(ex, k):.6g} sim {getattr(sim, k):.6g}")
    soft_dev = abs(ex.W - 0.005388) / 0.005388
    ok &= soft_dev <= 0.10
    parts.append(f"soft W target 0.005388 dev {soft_dev:.2%} (tol 10%)")
    parts.append(f"soft loss target 2.7e-5 not binding (exact {ex.Ploss:.2g}, reported only)")

    batch = QueueModel(ErlangDist(1.0 / 0.9457, 1), ErlangDist(1.0 / 0.6121, 1),
                       buffer=60, batch=(20, 20))
    exb = solve_batch_ph_ph_1_n(batch)
    simb = des_simulate(batch, arrivals=1_000_000, seed=7)
    for k in ("L", "W"):
        diff = abs(getattr(exb, k) - getattr(simb, k))
        tol = max(0.03 * abs(getattr(exb, k)), simb.ci[k])
        ok &= diff <= tol
        parts.append(f"batch {k} exact {getattr(exb, k):.6g} sim {getattr(simb, k):.6g}")
    _verdict(5, ok, "; ".join(parts) + " (tol max(3%, CI95))")


def test_c06_station_headline_load():
    lam = 1.0 / 9.7780
    r = solve_ggc_approx(lam, 1.0, 20713.7, 1.0, 10_000)
    dev = abs(r.L - 2119.2972) / 2119.2972
    want = mmc_oracle(2.0, 1.0, 3)
    got = solve_ggc_approx(2.0, 1.0, 1.0, 1.0, 3)
    mmc_err = max(abs(getattr(got, k) - want[k]) for k in ("L", "Lq", "W", "Wq"))
    ok = dev <= 0.01 and mmc_err <= 1e-9
    _verdict(6, ok,
             f"station L = {r.L:.4f} vs 2119.2972 (dev {dev:.4%}, tol 1%); "
             f"3-server sanity max err {mmc_err:.2e} (tol 1e-9)")


@pytest.fixture(scope="module")
def completeness_grid(full_scale_trace, swa_full_run):
    grid = {}
    for cap in (5, 13, 30):
        for tmo in (5, 22, 60):
            if (cap, tmo) == (13, 22):
                res = swa_full_run
            else:
                res = _swa(full_scale_trace, cap, tmo)
            grid[(cap, tmo)] = _comp1(res, full_scale_trace)
    return grid


def test_c07_integration_rate_and_mechanism_comparison(
        full_scale_trace, swa_full_run, completeness_grid):
    parts = []
    ok = True

    swa_comp = completeness_grid[(13, 22)]
    t = full_scale_trace.truth_table
    oracle = sum(1 for d, lo, hi in zip(t.degree.tolist(), t.primary.tolist(), t.last.tolist())
                 if d <= 13 and hi - lo <= 22_000) / len(t.labels)
    diff = abs(swa_comp - oracle)
    ok &= diff <= 0.03
    parts.append(f"completeness(1) {swa_comp:.6f} vs direct count {oracle:.6f} "
                 f"(diff {diff * 100:.3f}pp, tol 3pp)")

    slide = {}
    for w in (8000, 16000):
        cfg = PipelineConfig(kind="sliding", window=w, step=w,
                             strategy=Strategy.HEAD_TS_IP)
        res = run_pipeline(full_scale_trace, cfg)
        slide[w] = _comp1(res, full_scale_trace)
        ok &= slide[w] < swa_comp
    parts.append(f"tumbling 8000/16000 = {slide[8000]:.4f}/{slide[16000]:.4f} "
                 f"both < {swa_comp:.4f}")

    mono = True
    for tmo in (5, 22, 60):
        col = [completeness_grid[(c, tmo)] for c in (5, 13, 30)]
        mono &= col == sorted(col)
    for cap in (5, 13, 30):
        row = [completeness_grid[(cap, t)] for t in (5, 22, 60)]
        mono &= row == sorted(row)
    ok &= mono
    parts.append(f"3x3 capacity/timeout grid monotone: {mono}")
    _verdict(7, ok, "; ".join(parts))


def test_c08_association_strategy_ordering(collision_trace, clean_trace):
    scores = {}
    for strat in (Strategy.HEAD, Strategy.HEAD_TS, Strategy.HEAD_TS_IP):
        rep = evaluate(_swa(collision_trace, 60, 80, strat).emissions,
                       collision_trace, gammas=(1.0,))
        scores[strat.value] = (rep.recall, rep.correct_rate)
    order = ("head", "head_ts", "head_ts_ip")
    recalls = [scores[s][0] for s in order]
    corrects = [scores[s][1] for s in order]
    ordered = recalls == sorted(recalls) and corrects == sorted(corrects)

    s = clean_trace.stream
    triples = set(zip(s.head.tolist(), s.instance_ts.tolist(), s.user.tolist()))
    distinct = len(triples) == len(clean_trace.truth_table.labels)
    rep = evaluate(_swa(clean_trace, 60, 80).emissions, clean_trace, gammas=(1.0,))
    clean_perfect = rep.recall == 1.0 and rep.correct_rate == 1.0

    ok = ordered and distinct and clean_perfect
    _verdict(8, ok,
             f"recall {recalls[0]:.4f} <= {recalls[1]:.4f} <= {recalls[2]:.4f}, "
             f"correct {corrects[0]:.4f} <= {corrects[1]:.4f} <= {corrects[2]:.4f}; "
             f"collision-free trace: {len(triples)}/{len(clean_trace.truth_table.labels)} "
             f"distinct keys, recall {rep.recall:.4f}, correct {rep.correct_rate:.4f}")


def test_c09_linear_scaling_of_batch_chain():
    arr = PhaseTypeDist([1.0, 0.0], [[-1.1215, 0.0001], [0.0, -0.0021]])
    validate_generator(arr, policy="strict")
    svc = ErlangDist(2.0 / 0.6121, 2)
    ks = np.arange(10, 81, 10)
    ls, ws = [], []
    for k in ks:
        r = solve_batch_ph_ph_1_n(
            QueueModel(arr, svc, buffer=int(2 * k), batch=(int(k), int(k))))
        ls.append(r.L)
        ws.append(r.W)

    def r_squared(ys):
        a = np.vstack([ks, np.ones(len(ks))]).T
        coef, *_ = np.linalg.lstsq(a, np.asarray(ys), rcond=None)
        fit = a @ coef
        ss_res = float(np.sum((ys - fit) ** 2))
        ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
        return coef[0], 1.0 - ss_res / ss_tot

    slope_l, r2_l = r_squared(np.asarray(ls))
    slope_w, r2_w = r_squared(np.asarray(ws))
    ok = r2_l >= 0.99 and r2_w >= 0.99
    _verdict(9, ok,
             f"L(K): slope {slope_l:.4f}, R2 {r2_l:.6f}; "
             f"W(K): slope {slope_w:.4f}, R2 {r2_w:.6f} (tol R2 >= 0.99)")


def _cli_pass(root):
    root.mkdir(parents=True, exist_ok=True)

    def call(*argv):
        rc = cli.main([a if isinstance(a, str) else str(a) for a in argv])
        assert rc == 0, f"swakit {' '.join(map(str, argv))} exited {rc}"

    trace_dir = root / "trace"
    call("gen-trace", "--out", trace_dir, "--seed", "9", "--instances", "80",
         "--services", "60", "--user-pool", "200", "--repeat-factor", "1.3")
    trace = trace_dir / "trace.csv"
    call("fit-dist", "--out", root / "fit", "--trace", trace, "--field", "span_s",
         "--branches", "1", "--max-phases", "6", "--emit-curves")
    call("estimate-params", "--out", root / "params")
    pipe = root / "pipe"
    call("run-pipeline", "--out", pipe, "--trace", trace)
    call("evaluate", "--out", root / "eval", "--emitted", pipe / "emitted.csv",
         "--trace", trace)
    model = root / "model.json"
    model.write_text(json.dumps({
        "arrival": {"type": "erlang", "lambda": 1.0, "k": 1},
        "service": {"type": "erlang", "lambda": 2.0, "k": 1},
        "servers": 1, "buffer": 10,
    }))
    call("predict", "--out", root / "predict", "--model", model)
    call("simulate-queue", "--out", root / "sim", "--model", model,
         "--arrivals", "5000", "--seed", "4")
    call("compare", "--out", root / "cmp", "--trace", trace, "--sliding", "40,120")

    hashes = {}
    manifests = 0
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        if p.name.endswith("_manifest.json"):
            manifests += 1
            continue
        hashes[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return hashes, manifests


def test_c10_cli_determinism(tmp_path):
    h1, m1 = _cli_pass(tmp_path / "pass1")
    h2, m2 = _cli_pass(tmp_path / "pass2")
    same_names = set(h1) == set(h2)
    same_bytes = h1 == h2
    ok = same_names and same_bytes and m1 == m2 == 8
    changed = sorted(k for k in h1 if h1.get(k) != h2.get(k)) if not same_bytes else []
    _verdict(10, ok,
             f"{len(h1)} artifacts from 8 subcommands byte-identical across "
             f"two runs (manifests excluded: {m1}/{m2})"
             + (f"; differing: {changed}" if changed else ""))
